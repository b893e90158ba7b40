"""FastID identity-search application API (Section II-B).

Compares query profiles against a reference database with the XOR
micro-kernel: ``gamma = popcount(query XOR profile)`` counts the sites
where the two profiles differ.  "No set bits in the result signifies a
positive match"; small non-zero distances flag near matches (degraded
samples, genotyping error, close relatives).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import Algorithm
from repro.core.framework import SNPComparisonFramework
from repro.core.profiles import RunReport
from repro.errors import DatasetError
from repro.gpu.arch import GPUArchitecture
from repro.snp.forensic import ForensicDatabase

__all__ = ["IdentityResult", "identity_search"]


@dataclass
class IdentityResult:
    """Output of one identity search.

    Attributes
    ----------
    distances:
        XOR popcount distances, shape ``(n_queries, n_profiles)``.
    report:
        Framework performance report.
    """

    distances: np.ndarray
    report: RunReport

    def matches(self, max_distance: int = 0) -> list[tuple[int, int, int]]:
        """(query index, profile index, distance) for hits within threshold.

        Sorted by distance then query; ``max_distance=0`` returns exact
        matches only.
        """
        rows, cols = np.nonzero(self.distances <= max_distance)
        hits = [
            (int(q), int(p), int(self.distances[q, p])) for q, p in zip(rows, cols)
        ]
        hits.sort(key=lambda t: (t[2], t[0], t[1]))
        return hits

    def best_match(self, query_index: int) -> tuple[int, int]:
        """(profile index, distance) of the closest database entry."""
        row = self.distances[query_index]
        best = int(np.argmin(row))
        return best, int(row[best])


def identity_search(
    queries: np.ndarray,
    database: ForensicDatabase | np.ndarray,
    device: str | GPUArchitecture = "Titan V",
    framework: SNPComparisonFramework | None = None,
    workers: int | None = None,
    backend: str = "auto",
) -> IdentityResult:
    """Search ``queries`` against ``database`` on the simulated GPU.

    Parameters
    ----------
    queries:
        Binary matrix ``(n_queries, n_sites)``.
    database:
        A :class:`~repro.snp.forensic.ForensicDatabase` or a raw binary
        matrix ``(n_profiles, n_sites)``.
    workers:
        Host threads for the functional compute (``> 1`` shards the
        bit-GEMM).  Ignored when ``framework`` is supplied.
    backend:
        Kernel-ABI backend (:mod:`repro.kernels`): ``"auto"`` or a
        registered name.  Ignored when ``framework`` is supplied.
    """
    q = np.asarray(queries)
    db = database.profiles if isinstance(database, ForensicDatabase) else np.asarray(database)
    if q.ndim != 2 or db.ndim != 2:
        raise DatasetError("identity_search: queries and database must be 2-D")
    if q.shape[1] != db.shape[1]:
        raise DatasetError(
            f"identity_search: site counts differ "
            f"({q.shape[1]} vs {db.shape[1]})"
        )
    if framework is None:
        framework = SNPComparisonFramework(
            device, Algorithm.FASTID_IDENTITY, workers=workers,
            backend=backend,
        )
    distances, report = framework.run(q, db)
    return IdentityResult(distances=distances, report=report)
