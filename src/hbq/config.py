"""Quantizer configuration and the candidate threshold grid.

A band's candidate thresholds are absolute-value percentiles of the band,
n_candidates of them evenly spaced over [10%, 90%] inclusive. The grid is a
function of its size alone, which is all HBQ1 stores of it. Percentile
levels are carried as exact integer rationals (num, den) so that
nearest-rank positions are computed with integer arithmetic only: float
evaluation of e.g. 0.1 * 100 rounds to 10.000000000000002 and would shift a
rank.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError

DEFAULT_CANDIDATES = 40
DEFAULT_K_CANDIDATES = (0, 2, 4, 8)
MAX_CANDIDATES = 256  # threshold indices are stored as one byte
MAX_K = 0xFFFF  # each K is stored as a u16
MAX_K_CANDIDATES = 0xFF  # the number of Ks is stored as one byte

Level = tuple[int, int]


def percentile_levels(n_candidates: int) -> tuple[Level, ...]:
    """Exact rational percentile levels p_k = 10 + k*80/(n-1) (p=50 for n=1)."""
    if n_candidates < 1:
        raise ConfigError(f"candidates must be >= 1, got {n_candidates}")
    if n_candidates > MAX_CANDIDATES:
        raise ConfigError(
            f"candidates must be <= {MAX_CANDIDATES}, got {n_candidates}"
        )
    if n_candidates == 1:
        return ((50, 1),)
    den = n_candidates - 1
    return tuple((10 * den + 80 * k, den) for k in range(n_candidates))


def nearest_rank(level: Level, nvals: int) -> int:
    """1-based nearest-rank index of percentile num/den on nvals sorted values."""
    num, den = level
    a = num * nvals
    b = 100 * den
    rank = -(-a // b)  # ceil
    return min(max(rank, 1), nvals)


@dataclass(frozen=True)
class QuantConfig:
    """Knobs shared by the grouping planner and the block pipeline.

    n_candidates sizes the threshold grid: each band's candidates are the
    percentiles ``percentile_levels(n_candidates)``. For n, m > 1 the grid
    of n is a subset of the grid of m when n - 1 divides m - 1. HBQ1
    stores every field, so every QuantConfig can be encoded.
    """

    n_candidates: int = DEFAULT_CANDIDATES
    share_mean: bool = True
    haar_enabled: bool = True
    norm: str = "l2"
    k_candidates: tuple[int, ...] = DEFAULT_K_CANDIDATES
    score_raw_weights: bool = False

    def __post_init__(self) -> None:
        # a list would leave the config unhashable and unequal to the
        # tuple that decoding rebuilds
        object.__setattr__(self, "k_candidates", tuple(self.k_candidates))
        if self.n_candidates < 1 or self.n_candidates > MAX_CANDIDATES:
            raise ConfigError(
                f"candidates must be in [1, {MAX_CANDIDATES}], got {self.n_candidates}"
            )
        if self.norm not in ("l1", "l2"):
            raise ConfigError(f"norm must be 'l1' or 'l2', got {self.norm!r}")
        if len(self.k_candidates) == 0:
            raise ConfigError("k_candidates must not be empty")
        if len(self.k_candidates) > MAX_K_CANDIDATES:
            raise ConfigError(
                f"k_candidates must hold at most {MAX_K_CANDIDATES} entries, "
                f"got {len(self.k_candidates)}"
            )
        for k in self.k_candidates:
            if not 0 <= k <= MAX_K:
                raise ConfigError(
                    f"k_candidates entries must be in [0, {MAX_K}], got {k}"
                )
            if k % 2 != 0:
                raise ConfigError(f"k_candidates entries must be even, got {k}")
