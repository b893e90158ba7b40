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
from typing import Any

import numpy as np

from repro.core.config import Algorithm
from repro.core.framework import SNPComparisonFramework
from repro.core.profiles import RunReport
from repro.errors import ConfigurationError, DatasetError
from repro.gpu.arch import GPUArchitecture
from repro.kernels import get_backend
from repro.kernels.cnative_backend import CNativeBackend
from repro.observability.tracer import get_tracer
from repro.snp.dataset import SNPDataset

__all__ = ["LDResult", "ld_framework", "linkage_disequilibrium", "r_squared_numpy"]

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
        is bit-identical to that closed form.  Once the native kernel
        library has loaded, one C pass computes it
        (:meth:`~repro.kernels.cnative_backend.CNativeBackend.r_squared`,
        the same operations in the same order); otherwise
        :func:`r_squared_numpy` does.  Recorded as an ``ld.r_squared``
        span.
        """
        counts = np.asarray(self.counts)
        with get_tracer().span("ld.r_squared", shape=counts.shape):
            native = get_backend(CNativeBackend.name)
            if isinstance(native, CNativeBackend):
                r2 = native.r_squared(
                    counts, self.frequencies, self.n_observations
                )
                if r2 is not None:
                    return r2
            return r_squared_numpy(counts, self.frequencies, self.n_observations)


def r_squared_numpy(
    counts: np.ndarray, frequencies: np.ndarray, n_observations: int
) -> np.ndarray:
    """:attr:`LDResult.r_squared` in NumPy: the path without a compiler,
    and the reference the native pass must match bit for bit.

    Row blocks written into one output table replace the closed form's
    full-table temporaries.
    """
    p = frequencies
    var = p * (1 - p)
    r2 = np.empty(counts.shape, dtype=np.float64)
    rows = max(1, _R2_BLOCK_ELEMENTS // max(1, counts.shape[1]))
    with np.errstate(invalid="ignore", divide="ignore"):
        for r0 in range(0, counts.shape[0], rows):
            block = r2[r0 : r0 + rows]
            np.divide(counts[r0 : r0 + rows], n_observations, out=block)
            block -= np.outer(p[r0 : r0 + rows], p)
            block *= block
            denom = np.outer(var[r0 : r0 + rows], var)
            block /= denom
            block[~(denom > 0)] = 0.0
    return r2


def ld_framework(
    name: str,
    framework: SNPComparisonFramework | None,
    device: str | GPUArchitecture,
    **options: Any,
) -> SNPComparisonFramework:
    """The framework an LD entry point runs on.

    ``framework`` itself when it runs the LD algorithm, else a new LD
    framework on ``device`` built with ``options`` (``workers``,
    ``backend``).  A framework of another algorithm is
    refused: its XOR or AND-NOT counts would pass for joint allele
    counts.
    """
    if framework is None:
        return SNPComparisonFramework(device, Algorithm.LD, **options)
    if framework.algorithm is not Algorithm.LD:
        raise ConfigurationError(
            f"{name}: framework runs the {framework.algorithm.value!r} "
            f"algorithm; LD needs an 'ld' framework"
        )
    return framework


def linkage_disequilibrium(
    data: SNPDataset | np.ndarray,
    device: str | GPUArchitecture = "Titan V",
    compare: str = "sites",
    framework: SNPComparisonFramework | None = None,
    workers: int | None = None,
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
        Reuse an existing LD framework instance (skips re-derivation);
        one of another algorithm raises
        :class:`~repro.errors.ConfigurationError`.
    workers:
        Host threads for the functional compute (``> 1`` shards the
        bit-GEMM across the process-wide pool; LD is a
        self-comparison, so a sharded run takes the triangular plan).
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
    framework = ld_framework(
        "linkage_disequilibrium", framework, device, workers=workers,
        backend=backend,
    )
    counts, report = framework.run(entities)
    n_obs = entities.shape[1]
    # An entity's Gram diagonal is its allele count, so this equals
    # entities.mean(axis=1) bit for bit without a second pass.
    frequencies = (
        np.diagonal(counts) / n_obs if n_obs else np.zeros(entities.shape[0])
    )
    return LDResult(
        counts=counts,
        frequencies=frequencies,
        n_observations=n_obs,
        report=report,
    )
