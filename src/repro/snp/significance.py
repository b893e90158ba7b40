"""Statistical significance layers over the raw comparison tables.

Two classic calculations downstream of the kernels:

* **LD significance** -- for a pair of biallelic sites over ``n``
  samples, ``X^2 = n * r^2`` is asymptotically chi-square with one
  degree of freedom under linkage equilibrium; this converts an
  r-squared table into p-values (the standard LD association scan).
* **FastID random-match probability** -- the probability that an
  unrelated individual matches a profile within ``t`` differing sites,
  given per-site minor-allele frequencies.  Per site the mismatch
  probability of two random profiles is ``q_k = 2 p_k (1 - p_k)``
  (presence/absence model); the total mismatch count is
  Poisson-binomial, here approximated by its normal limit (panels have
  hundreds of sites).  This quantifies how discriminating a panel of a
  given size is -- the paper's motivation for growing SNP counts per
  forensic sample.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DatasetError, ModelError

__all__ = [
    "ld_chi_square_pvalues",
    "site_mismatch_probabilities",
    "random_match_probability",
    "expected_unrelated_distance",
    "panel_sites_for_target_rmp",
]


def ld_chi_square_pvalues(r_squared: np.ndarray, n_samples: int) -> np.ndarray:
    """P-values for an r-squared table under the null of equilibrium.

    ``p = P(chi2_1 >= n * r^2)`` elementwise; diagonal entries (self
    comparisons, r^2 = 1) come out effectively zero and should be
    ignored by callers.
    """
    from scipy import stats  # deferred: scipy costs every ``import repro``

    r2 = np.asarray(r_squared, dtype=np.float64)
    if n_samples <= 0:
        raise ModelError("ld_chi_square_pvalues: n_samples must be positive")
    if r2.size and (r2.min() < -1e-9 or r2.max() > 1 + 1e-9):
        raise DatasetError("ld_chi_square_pvalues: r_squared outside [0, 1]")
    return stats.chi2.sf(n_samples * np.clip(r2, 0.0, 1.0), df=1)


def site_mismatch_probabilities(frequencies: np.ndarray) -> np.ndarray:
    """Per-site probability that two unrelated profiles differ.

    Presence/absence model: a profile carries the site's bit with
    probability ``p_k``; two independent draws differ with probability
    ``2 p_k (1 - p_k)``.
    """
    p = np.asarray(frequencies, dtype=np.float64)
    if p.size and (p.min() < 0 or p.max() > 1):
        raise DatasetError("site_mismatch_probabilities: frequencies outside [0, 1]")
    return 2.0 * p * (1.0 - p)


def expected_unrelated_distance(frequencies: np.ndarray) -> float:
    """Mean XOR distance between two unrelated profiles."""
    return float(site_mismatch_probabilities(frequencies).sum())


def random_match_probability(
    frequencies: np.ndarray, max_distance: int = 0
) -> float:
    """P(unrelated pair lands within ``max_distance`` differing sites).

    Normal approximation to the Poisson-binomial mismatch count with a
    continuity correction; exact enough for the panel sizes (hundreds
    of sites) where the quantity is meaningful.
    """
    if max_distance < 0:
        raise ModelError("random_match_probability: max_distance must be >= 0")
    q = site_mismatch_probabilities(frequencies)
    if q.size == 0:
        return 1.0
    mean = q.sum()
    var = (q * (1.0 - q)).sum()
    if var <= 0:
        return 1.0 if max_distance >= mean else 0.0
    from scipy import stats  # deferred: scipy costs every ``import repro``

    z = (max_distance + 0.5 - mean) / np.sqrt(var)
    return float(stats.norm.cdf(z))


def panel_sites_for_target_rmp(
    mean_maf: float, target_rmp: float, max_distance: int = 0
) -> int:
    """Smallest panel size achieving a target random-match probability.

    Assumes homogeneous sites at ``mean_maf``; doubles-and-bisects on
    the panel size.  Quantifies the paper's Section I point that
    growing per-sample SNP counts buys accuracy.
    """
    if not (0.0 < mean_maf <= 0.5):
        raise ModelError("panel_sites_for_target_rmp: mean_maf must be in (0, 0.5]")
    if not (0.0 < target_rmp < 1.0):
        raise ModelError("panel_sites_for_target_rmp: target_rmp must be in (0, 1)")

    def rmp(n_sites: int) -> float:
        return random_match_probability(
            np.full(n_sites, mean_maf), max_distance=max_distance
        )

    hi = 1
    while rmp(hi) > target_rmp:
        hi *= 2
        if hi > 1 << 24:
            raise ModelError(
                "panel_sites_for_target_rmp: target unreachable below 16M sites"
            )
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if rmp(mid) > target_rmp:
            lo = mid
        else:
            hi = mid
    return hi
