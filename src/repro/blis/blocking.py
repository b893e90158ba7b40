"""Loop blocking and core-grid partitioning (the BLIS loop structure).

The BLIS algorithm (paper Fig. 3) wraps a micro-kernel in five loops:

* loop 5 (``n_c``): partition N -- omitted here; problems either fit or
  are tiled by :mod:`repro.core.pipeline` at a coarser granularity.
* loop 4 (``k_c``): partition K into panels packed into fast memory.
* loop 3 (``m_c``): partition M into panels of A packed into shared
  memory / L2.
* loops 2 and 1 (``n_r``, ``m_r``): micro-tile loops *parallelized
  across cores* -- each core owns an ``m_c x n_r`` tile of C
  (Section IV-C of the paper).
* micro-kernel: ``m_r x n_r`` rank-``k_c`` update.

This module provides the index arithmetic for those partitions: the
core grid splits M across grid rows at micro-panel (``m_r``)
granularity -- the finest unit that keeps register tiles whole, which
is what lets strongly skewed grids (the Titan V's 80x1) stay balanced
on row counts that no ``m_c`` multiple divides -- and N across grid
columns in units of ``n_r`` (:func:`split_in_units`), mirroring the
hierarchical partition of Smith et al. [23] the paper adopts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = [
    "tile_ranges",
    "split_evenly",
    "split_in_units",
    "BlockingPlan",
]


def tile_ranges(extent: int, block: int) -> list[tuple[int, int]]:
    """Half-open ``[start, stop)`` ranges tiling ``extent`` by ``block``.

    The final range may be shorter.  ``extent == 0`` yields no ranges.
    """
    if block <= 0:
        raise ConfigurationError(f"tile_ranges: block must be positive, got {block}")
    if extent < 0:
        raise ConfigurationError(f"tile_ranges: extent must be >= 0, got {extent}")
    return [(start, min(start + block, extent)) for start in range(0, extent, block)]


def split_evenly(extent: int, parts: int) -> list[tuple[int, int]]:
    """Split ``extent`` into ``parts`` contiguous near-equal ranges.

    The first ``extent % parts`` ranges are one element longer, matching
    how a static OpenCL work partition distributes remainder rows.
    """
    if parts <= 0:
        raise ConfigurationError(f"split_evenly: parts must be positive, got {parts}")
    if extent < 0:
        raise ConfigurationError(f"split_evenly: extent must be >= 0, got {extent}")
    base, extra = divmod(extent, parts)
    ranges = []
    start = 0
    for p in range(parts):
        size = base + (1 if p < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


@dataclass(frozen=True)
class BlockingPlan:
    """Concrete blocking of one ``C = op(A, B)`` popcount-GEMM.

    Parameters
    ----------
    m, n, k:
        Problem extents: C is ``m x n``; the reduction runs over ``k``
        packed words.
    m_c, k_c:
        Panel blockings (loop 3 / loop 4).
    m_r, n_r:
        Micro-tile sizes (register blocking).
    grid_rows, grid_cols:
        Core grid: ``grid_rows x grid_cols`` cores partition the M and N
        dimensions respectively (the paper's "core configuration",
        Table II).
    """

    m: int
    n: int
    k: int
    m_c: int
    k_c: int
    m_r: int
    n_r: int
    grid_rows: int = 1
    grid_cols: int = 1

    def __post_init__(self) -> None:
        for name in ("m", "n", "k"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"BlockingPlan: {name} must be >= 0")
        for name in ("m_c", "k_c", "m_r", "n_r", "grid_rows", "grid_cols"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"BlockingPlan: {name} must be positive")
        if self.m_c % self.m_r != 0:
            raise ConfigurationError(
                f"BlockingPlan: m_c ({self.m_c}) must be a multiple of "
                f"m_r ({self.m_r})"
            )

    @property
    def n_cores(self) -> int:
        return self.grid_rows * self.grid_cols

    def k_panels(self) -> list[tuple[int, int]]:
        """Loop-4 partition of the reduction dimension."""
        return tile_ranges(self.k, self.k_c)

    def total_ops(self) -> int:
        """Packed-word comparison operations in the full problem (m*n*k)."""
        return self.m * self.n * self.k


def split_in_units(extent: int, parts: int, unit: int) -> list[tuple[int, int]]:
    """Split ``extent`` into ``parts`` ranges aligned to ``unit``.

    Each boundary lands on a multiple of ``unit`` except possibly the
    final stop at ``extent``; remainder units are distributed to the
    leading parts.  Degenerates gracefully when ``extent`` has fewer
    than ``parts`` units (trailing parts get empty ranges).  Shared by
    the core-grid partition (the load balance of
    :func:`repro.gpu.cycles.kernel_cycles`) and the host-side shard
    partition (:mod:`repro.parallel.plan`), so device tiling and host
    sharding cannot drift apart.
    """
    n_units = (extent + unit - 1) // unit if extent else 0
    unit_splits = split_evenly(n_units, parts)
    ranges = []
    for u0, u1 in unit_splits:
        start = min(u0 * unit, extent)
        stop = min(u1 * unit, extent)
        ranges.append((start, stop))
    return ranges
