import numpy as np


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
