"""Linkage-disequilibrium application API (Section II-A).

Drives the framework with the AND micro-kernel and converts the raw
joint counts into the population-genetics statistics:

    D     = p_AB - p_A p_B
    D'    = D / D_max
    r^2   = D^2 / (p_A (1-p_A) p_B (1-p_B))

Orientation: classic LD compares *sites* across samples, so the
entities fed to the kernel are site rows (the transpose of a
sample-major :class:`~repro.snp.dataset.SNPDataset` matrix).  The
paper's Fig. 5/6 benchmarks compare "SNP strings" (sample rows); both
orientations are exposed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import Algorithm
from repro.core.framework import SNPComparisonFramework
from repro.core.profiles import RunReport
from repro.errors import DatasetError
from repro.gpu.arch import GPUArchitecture
from repro.snp.dataset import SNPDataset

__all__ = ["LDResult", "linkage_disequilibrium"]

#: Elements per row block of :attr:`LDResult.r_squared` (512 KiB of
#: float64, so a block and its temporaries stay cache-resident).
_R2_BLOCK_ELEMENTS = 1 << 16


@dataclass
class LDResult:
    """Output of one LD computation.

    Attributes
    ----------
    counts:
        Joint minor-allele counts (``p_AB * n_obs``), entities x entities.
    frequencies:
        Per-entity minor-allele frequency ``p_A``.
    n_observations:
        Number of observations the comparison ran over.
    report:
        Framework performance report.
    """

    counts: np.ndarray
    frequencies: np.ndarray
    n_observations: int
    report: RunReport

    def __post_init__(self) -> None:
        # The statistics divide by n_observations; a zero-column input
        # would otherwise surface as NaN tables plus a RuntimeWarning
        # the first time p_ab/d/d_prime/r_squared is read.  Entity-free
        # results (0 x 0 tables) stay constructible: every statistic is
        # an empty array and nothing divides.
        if self.n_observations < 0:
            raise DatasetError(
                f"LDResult: n_observations must be >= 0, "
                f"got {self.n_observations}"
            )
        if self.n_observations == 0 and np.asarray(self.counts).size:
            raise DatasetError(
                "LDResult: n_observations is 0 (zero-column input); LD "
                "statistics are undefined without observations"
            )

    @property
    def p_ab(self) -> np.ndarray:
        """Joint frequencies ``p_AB``."""
        return self.counts / self.n_observations

    @property
    def d(self) -> np.ndarray:
        """LD coefficient ``D = p_AB - p_A p_B``."""
        return self.p_ab - np.outer(self.frequencies, self.frequencies)

    @property
    def d_prime(self) -> np.ndarray:
        """Normalized coefficient ``D' = D / D_max`` (0 where undefined)."""
        d = self.d
        p = self.frequencies
        p_a = p[:, None]
        p_b = p[None, :]
        d_max_pos = np.minimum(p_a * (1 - p_b), (1 - p_a) * p_b)
        d_max_neg = np.minimum(p_a * p_b, (1 - p_a) * (1 - p_b))
        d_max = np.where(d >= 0, d_max_pos, d_max_neg)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(d_max > 0, d / d_max, 0.0)

    @property
    def r_squared(self) -> np.ndarray:
        """Squared correlation ``r^2`` (0 where a variance vanishes).

        Evaluates ``where(denom > 0, d * d / denom, 0)`` with ``denom =
        outer(var, var)`` elementwise in the same order, so the result
        is bit-identical to that closed form; row blocks written into
        one output table replace its full-table temporaries.
        """
        counts = np.asarray(self.counts)
        p = self.frequencies
        var = p * (1 - p)
        r2 = np.empty(counts.shape, dtype=np.float64)
        rows = max(1, _R2_BLOCK_ELEMENTS // max(1, counts.shape[1]))
        with np.errstate(invalid="ignore", divide="ignore"):
            for r0 in range(0, counts.shape[0], rows):
                block = r2[r0 : r0 + rows]
                np.divide(counts[r0 : r0 + rows], self.n_observations, out=block)
                block -= np.outer(p[r0 : r0 + rows], p)
                block *= block
                denom = np.outer(var[r0 : r0 + rows], var)
                block /= denom
                block[~(denom > 0)] = 0.0
        return r2


def linkage_disequilibrium(
    data: SNPDataset | np.ndarray,
    device: str | GPUArchitecture = "Titan V",
    compare: str = "sites",
    framework: SNPComparisonFramework | None = None,
    workers: int | None = None,
    gram: bool = True,
    backend: str = "auto",
) -> LDResult:
    """Compute all-pairs LD on the simulated GPU framework.

    Parameters
    ----------
    data:
        A :class:`SNPDataset` or a raw binary (samples, sites) matrix.
    device:
        Target device name or architecture.
    compare:
        ``"sites"`` (classic LD between loci, computed across samples)
        or ``"samples"`` (SNP-string comparison, the paper's benchmark
        orientation, computed across sites).
    framework:
        Reuse an existing framework instance (skips re-derivation).
    workers:
        Host threads for the functional compute (``> 1`` shards the
        bit-GEMM across the process-wide pool).  Ignored when
        ``framework`` is supplied.
    gram:
        Allow the symmetric (Gram) fast path -- LD is a
        self-comparison, so this roughly halves the computed word-ops.
        Ignored when ``framework`` is supplied.
    backend:
        Kernel-ABI backend (:mod:`repro.kernels`): ``"auto"`` or a
        registered name.  Ignored when ``framework`` is supplied.
    """
    matrix = data.matrix if isinstance(data, SNPDataset) else np.asarray(data)
    if matrix.ndim != 2:
        raise DatasetError("linkage_disequilibrium: expected a 2-D binary matrix")
    if compare == "sites":
        entities = matrix.T
    elif compare == "samples":
        entities = matrix
    else:
        raise DatasetError(
            f"linkage_disequilibrium: compare must be 'sites' or 'samples', "
            f"got {compare!r}"
        )
    if entities.shape[0] and entities.shape[1] == 0:
        # Guarded up front: the zero-width operand would otherwise
        # surface as an arithmetic error inside the pack/tile pipeline.
        raise DatasetError(
            "linkage_disequilibrium: input has entities but zero "
            "observations; LD statistics are undefined"
        )
    if framework is None:
        framework = SNPComparisonFramework(
            device, Algorithm.LD, workers=workers, gram=gram,
            backend=backend,
        )
    counts, report = framework.run(entities)
    n_obs = entities.shape[1]
    frequencies = entities.mean(axis=1) if n_obs else np.zeros(entities.shape[0])
    return LDResult(
        counts=counts,
        frequencies=frequencies,
        n_observations=n_obs,
        report=report,
    )
