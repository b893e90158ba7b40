"""FastID mixture-analysis application API (Section II-C).

Scores reference profiles against DNA mixtures:

    gamma = popcount((r XOR m) AND r) = popcount(r AND NOT m)

-- the minor alleles the reference carries that the mixture lacks.
Zero means every allele of the reference is present in the mixture
(consistent with being a contributor); the larger the score, the less
likely the containment.

Device-specific kernel choice (Section VI-E1): with a fused AND-NOT
instruction (NVIDIA) the negation is free in-kernel; without one
(Vega) the framework pre-negates the mixture operand at pack time and
runs the plain AND kernel -- reducing mixture analysis to "the same
computation as linkage disequilibrium", as the paper notes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import Algorithm
from repro.core.framework import SNPComparisonFramework
from repro.core.profiles import RunReport
from repro.errors import DatasetError
from repro.gpu.arch import GPUArchitecture

__all__ = ["MixtureResult", "mixture_analysis"]


@dataclass
class MixtureResult:
    """Output of one mixture analysis.

    Attributes
    ----------
    scores:
        ``popcount(r & ~m)`` per (reference, mixture) pair, shape
        ``(n_references, n_mixtures)``.
    prenegated:
        Whether the run used the pre-negated-database kernel.
    report:
        Framework performance report.
    """

    scores: np.ndarray
    prenegated: bool
    report: RunReport

    def consistent_contributors(
        self, mixture_index: int, max_score: int = 0
    ) -> list[tuple[int, int]]:
        """(reference index, score) pairs consistent with the mixture.

        ``max_score`` tolerates genotyping noise; 0 demands strict
        containment.
        """
        n_mixtures = int(self.scores.shape[1])
        # An unchecked index would raise a raw IndexError out of range
        # and silently wrap to the wrong mixture when negative.
        if not isinstance(mixture_index, (int, np.integer)) or not (
            0 <= mixture_index < n_mixtures
        ):
            raise DatasetError(
                f"consistent_contributors: mixture_index {mixture_index!r} "
                f"out of range for {n_mixtures} mixture(s) "
                f"(expected 0 <= index < {n_mixtures})"
            )
        column = self.scores[:, mixture_index]
        refs = np.nonzero(column <= max_score)[0]
        out = [(int(r), int(column[r])) for r in refs]
        out.sort(key=lambda t: (t[1], t[0]))
        return out


def mixture_analysis(
    references: np.ndarray,
    mixtures: np.ndarray,
    device: str | GPUArchitecture = "Titan V",
    prenegate: bool | None = None,
    framework: SNPComparisonFramework | None = None,
    workers: int | None = None,
    backend: str = "auto",
) -> MixtureResult:
    """Score ``references`` against ``mixtures`` on the simulated GPU.

    Parameters
    ----------
    references:
        Binary matrix ``(n_references, n_sites)`` -- the individuals
        being tested for mixture membership.
    mixtures:
        Binary matrix ``(n_mixtures, n_sites)`` of mixed profiles.
    prenegate:
        Force the pre-negated variant (None = device default).
    workers:
        Host threads for the functional compute (``> 1`` shards the
        bit-GEMM).  Ignored when ``framework`` is supplied.
    backend:
        Kernel-ABI backend (:mod:`repro.kernels`): ``"auto"`` or a
        registered name.  Ignored when ``framework`` is supplied.
    """
    r = np.asarray(references)
    m = np.asarray(mixtures)
    if r.ndim != 2 or m.ndim != 2:
        raise DatasetError("mixture_analysis: references and mixtures must be 2-D")
    if r.shape[1] != m.shape[1]:
        raise DatasetError(
            f"mixture_analysis: site counts differ ({r.shape[1]} vs {m.shape[1]})"
        )
    if framework is None:
        framework = SNPComparisonFramework(
            device, Algorithm.FASTID_MIXTURE, prenegate=prenegate,
            workers=workers, backend=backend,
        )
    scores, report = framework.run(r, m)
    return MixtureResult(
        scores=scores,
        prenegated=framework.database_needs_prenegation,
        report=report,
    )
