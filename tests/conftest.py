import os

# One BLAS thread, as perfbench runs. With OpenBLAS's default threads the
# small factorizations in calibration are slower, and the first of them
# after the machine has idled can take ~0.3 s. numpy reads these when it
# is first imported, which happens below.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from dataclasses import fields  # noqa: E402

import numpy as np  # noqa: E402

from hbq.config import nearest_rank, percentile_levels
from hbq.errors import ShapeError
from hbq.grouping import LinePlans


def structured_rows(rng, n: int, d: int) -> np.ndarray:
    """Weight-like test rows: smooth base + sparse outliers + heavy-tail noise.

    Frequency-aware grouping is a wash on white noise (band variances always
    sum to the row variance), so tests of its benefit use rows with the
    structure it targets: a smooth large-scale component that lands in the
    low band and spiky small-scale content that the sparse/dense split
    isolates in the high band.
    """
    j = np.arange(d)
    freq = rng.uniform(0.5, 3.0, (n, 1))
    phase = rng.uniform(0.0, 2.0 * np.pi, (n, 1))
    amp = rng.uniform(0.5, 2.0, (n, 1))
    smooth = amp * np.sin(2.0 * np.pi * freq * j / d + phase)
    spikes = (rng.random((n, d)) < 0.05) * rng.normal(0.0, 5.0, (n, d))
    noise = 0.05 * rng.standard_t(2.5, (n, d))
    return (smooth + spikes + noise).astype(np.float32)


def reference_product(a, b) -> np.ndarray:
    """Matrix product with float64 accumulation, narrowed to float32."""
    out = np.asarray(a, np.float64) @ np.asarray(b, np.float64)
    return out.astype(np.float32)


def same_plans(a, b) -> bool:
    """Two LinePlans hold the same lines, field by field and bit for bit."""
    for f in fields(LinePlans):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if x.dtype != y.dtype or x.shape != y.shape or x.tobytes() != y.tobytes():
            return False
    return True


# ---------------------------------------------------------------------------
# Full-precision reference math of the grouping search: binarization of one
# group, the pooled mean and the candidate thresholds. The planner in
# hbq._kernels does the same math but narrows every scalar to binary16 while
# it searches; these stay in float64 and are checked against brute-force
# grids (tests/test_grouping.py, criterion 02).
# ---------------------------------------------------------------------------


def binarize_group(values, mu: float) -> tuple[float, np.ndarray, float]:
    """Sign-binarize one group around a fixed mean, full precision.

    signs_k = sign(values_k - mu) with sign(0) = +1. alpha = mean absolute
    deviation from mu, the sse minimizer for this mu and these signs:
    d(sse)/d(alpha) = 0 at alpha = mean(|v - mu|).
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        raise ShapeError("cannot binarize an empty group")
    signs = np.where(v >= mu, 1, -1).astype(np.int8)
    alpha = float(np.mean(np.abs(v - mu)))
    deq = mu + alpha * signs.astype(np.float64)
    sse = float(np.sum((v - deq) ** 2))
    return alpha, signs, sse


def shared_mean(group1, group2) -> float:
    """Pooled arithmetic mean of two groups, either possibly empty."""
    a = np.asarray(group1, dtype=np.float64).ravel()
    b = np.asarray(group2, dtype=np.float64).ravel()
    n = a.size + b.size
    if n == 0:
        raise ShapeError("shared_mean needs at least one value")
    return float((a.sum() + b.sum()) / n)


def candidate_thresholds(band, n_candidates: int) -> np.ndarray:
    """Absolute-value percentiles of the band, evenly spaced over [10, 90].

    Nearest-rank, no interpolation: every threshold is an actual |value|
    from the band, so splits are stable across platforms.
    """
    v = np.asarray(band, dtype=np.float32).ravel()
    if v.size == 0:
        raise ShapeError("band must be non-empty")
    srt = np.sort(np.abs(v))
    levels = percentile_levels(n_candidates)
    ranks = [nearest_rank(lv, v.size) for lv in levels]
    return srt[np.array(ranks) - 1]
