"""Shard planning: partitioning one bit-GEMM across host workers.

The BLIS five-loop structure exposes independent work: every
``m_r x n_r`` micro-tile of C inside a ``k_c`` panel can be computed
without synchronization, because each output tile is owned by exactly
one producer (Section IV-C of the paper parallelizes loops 1 and 2
across device cores for the same reason).  :class:`ShardPlan` applies
the identical decomposition one level up, on the host: the ``j_c``
(N) and ``i_c`` (M) loops are split into contiguous *shards*, each a
rectangular block of C that one worker thread computes end to end.

The plan is **derived from** a :class:`~repro.blis.blocking.BlockingPlan`
-- shard boundaries are aligned to the plan's ``m_r``/``n_r``
micro-tile units via the same :func:`~repro.blis.blocking.split_in_units`
arithmetic the device core grid uses -- so host sharding and device
blocking cannot drift apart: a shard always covers whole micro-tiles,
and every packed panel a shard needs is a sub-panel the serial blocked
driver would also have produced.

**Gram (symmetric) plans.**  All three paper workloads are Gram
products -- LD compares a table against itself (Eq. 1), and the
identity/mixture self-scans do the same -- so the output satisfies
``C == C.T`` whenever the comparison op is symmetric.
:meth:`ShardPlan.triangular` exploits that structure one level above
the micro-kernel: only diagonal and upper-triangular shards are
emitted (``mirror=False``/``True`` respectively), and the executor
reflects each off-diagonal shard's block into its transpose slot.
Mirrored slots are strictly below the diagonal band grid while
computed slots are on or above it, so mirror writes never race with
computed writes.  Shard boundaries are aligned to
``lcm(m_r, n_r)`` so the same band split serves both the M and the N
dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.blis.blocking import BlockingPlan, split_in_units
from repro.errors import ConfigurationError

__all__ = ["Shard", "ShardPlan", "TRIANGULAR_MIN_BANDS"]

#: How many shards to aim for per worker.  Oversubscription keeps the
#: pool busy when shards finish unevenly (edge shards are smaller).
DEFAULT_OVERSUBSCRIBE = 2

#: Minimum diagonal bands a triangular plan aims for (problem size
#: permitting).  Diagonal shards are computed in full, so the word-op
#: ratio of a g-band triangular plan is ~``(g + 1) / (2 g)``; 12 bands
#: put it at ~0.54x of the full-output path.
TRIANGULAR_MIN_BANDS = 12


@dataclass(frozen=True)
class Shard:
    """One worker's share of the output: a rectangular block of C.

    ``mirror=True`` marks an off-diagonal shard of a symmetric (Gram)
    plan: after computing its block the executor must also write the
    transposed block into the mirror slot
    (``C[n_range, m_range] = block.T``).
    """

    shard_id: int
    grid_row: int
    grid_col: int
    m_range: tuple[int, int]
    n_range: tuple[int, int]
    mirror: bool = False

    @property
    def m_size(self) -> int:
        return self.m_range[1] - self.m_range[0]

    @property
    def n_size(self) -> int:
        return self.n_range[1] - self.n_range[0]

    @property
    def is_empty(self) -> bool:
        return self.m_size == 0 or self.n_size == 0

    @property
    def mirror_m_range(self) -> tuple[int, int]:
        """Row range of the transpose slot a mirror shard also fills."""
        return self.n_range

    @property
    def mirror_n_range(self) -> tuple[int, int]:
        """Column range of the transpose slot a mirror shard also fills."""
        return self.m_range

    def word_ops(self, k: int) -> int:
        """Packed-word comparison operations this shard performs."""
        return self.m_size * self.n_size * k


@dataclass(frozen=True)
class ShardPlan:
    """A host-level partition of one blocked bit-GEMM.

    Attributes
    ----------
    blocking:
        The :class:`BlockingPlan` this shard plan was derived from.
        Shard boundaries are aligned to its ``m_r``/``n_r`` units and
        shards iterate its ``k_c`` panels.
    grid_rows, grid_cols:
        The shard grid: M is split into ``grid_rows`` bands, N into
        ``grid_cols`` bands.
    shards:
        All non-empty shards, row-major over the grid, with
        contiguous ``shard_id`` starting at 0.
    symmetric:
        ``True`` for triangular (Gram) plans: the shard set covers
        only the diagonal + upper triangle, and mirror shards carry
        ``mirror=True``.
    """

    blocking: BlockingPlan
    grid_rows: int
    grid_cols: int
    shards: tuple[Shard, ...]
    symmetric: bool = False

    @classmethod
    def from_blocking(
        cls,
        blocking: BlockingPlan,
        workers: int,
        symmetric: bool = False,
    ) -> "ShardPlan":
        """Derive a shard plan targeting ``workers`` pool threads.

        Aims for ``workers * DEFAULT_OVERSUBSCRIBE`` shards, splitting
        the N dimension first (database rows -- the dimension with
        unbounded growth in both SNP applications, and the one the
        multi-GPU column partition already splits), then M once N runs
        out of ``n_r`` units.  Degenerates to a single shard for
        problems too small to split.  ``symmetric=True`` builds a
        triangular Gram plan instead (see :meth:`triangular`).
        """
        if workers <= 0:
            raise ConfigurationError(
                f"ShardPlan: workers must be positive, got {workers}"
            )
        if symmetric:
            return cls.triangular(blocking, workers)
        target = workers * DEFAULT_OVERSUBSCRIBE
        m_units = max(1, math.ceil(blocking.m / blocking.m_r))
        n_units = max(1, math.ceil(blocking.n / blocking.n_r))
        grid_cols = min(target, n_units)
        grid_rows = min(max(1, math.ceil(target / grid_cols)), m_units)
        return cls.from_grid(blocking, grid_rows, grid_cols)

    @classmethod
    def from_grid(
        cls, blocking: BlockingPlan, grid_rows: int, grid_cols: int
    ) -> "ShardPlan":
        """Build the shard plan for an explicit shard grid."""
        if grid_rows <= 0 or grid_cols <= 0:
            raise ConfigurationError(
                f"ShardPlan: grid must be positive, got "
                f"{grid_rows}x{grid_cols}"
            )
        m_splits = split_in_units(blocking.m, grid_rows, blocking.m_r)
        n_splits = split_in_units(blocking.n, grid_cols, blocking.n_r)
        shards = []
        for r, m_range in enumerate(m_splits):
            for c, n_range in enumerate(n_splits):
                shard = Shard(
                    shard_id=len(shards),
                    grid_row=r,
                    grid_col=c,
                    m_range=m_range,
                    n_range=n_range,
                )
                if not shard.is_empty:
                    shards.append(shard)
        return cls(
            blocking=blocking,
            grid_rows=grid_rows,
            grid_cols=grid_cols,
            shards=tuple(shards),
        )

    @classmethod
    def single(cls, blocking: BlockingPlan) -> "ShardPlan":
        """One shard covering the whole output (a serial run), even an
        empty one."""
        whole = Shard(
            shard_id=0,
            grid_row=0,
            grid_col=0,
            m_range=(0, blocking.m),
            n_range=(0, blocking.n),
        )
        return cls(blocking=blocking, grid_rows=1, grid_cols=1, shards=(whole,))

    @classmethod
    def triangular(cls, blocking: BlockingPlan, workers: int) -> "ShardPlan":
        """Build a symmetric (Gram) plan: diagonal + upper triangle only.

        The shared extent (``m == n`` is required) is split into ``g``
        diagonal bands aligned to ``lcm(m_r, n_r)``, so every band
        range is a legal M split *and* a legal N split.  Shards are
        emitted for band pairs ``(r, c)`` with ``r <= c``; off-diagonal
        shards carry ``mirror=True`` and the executor reflects their
        block into the (strictly lower-triangular, hence disjoint)
        transpose slot.  ``g`` targets at least
        :data:`TRIANGULAR_MIN_BANDS` bands -- diagonal shards are
        computed in full, so coarse grids waste the symmetry -- and at
        least enough shards to feed ``workers * DEFAULT_OVERSUBSCRIBE``
        tasks.
        """
        if workers <= 0:
            raise ConfigurationError(
                f"ShardPlan: workers must be positive, got {workers}"
            )
        if blocking.m != blocking.n:
            raise ConfigurationError(
                f"ShardPlan.triangular: Gram plans need a square output, "
                f"got {blocking.m}x{blocking.n}"
            )
        unit = math.lcm(blocking.m_r, blocking.n_r)
        n_units = max(1, math.ceil(blocking.m / unit))
        # Smallest g with g(g+1)/2 >= workers * DEFAULT_OVERSUBSCRIBE,
        # then raised to the efficiency floor and capped by available
        # units.
        target = workers * DEFAULT_OVERSUBSCRIBE
        g_workers = math.ceil((math.isqrt(8 * target + 1) - 1) / 2)
        while g_workers * (g_workers + 1) // 2 < target:
            g_workers += 1
        bands = min(max(g_workers, TRIANGULAR_MIN_BANDS), n_units)
        splits = split_in_units(blocking.m, bands, unit)
        shards = []
        for r, m_range in enumerate(splits):
            for c in range(r, len(splits)):
                shard = Shard(
                    shard_id=len(shards),
                    grid_row=r,
                    grid_col=c,
                    m_range=m_range,
                    n_range=splits[c],
                    mirror=c > r,
                )
                if not shard.is_empty:
                    shards.append(shard)
        return cls(
            blocking=blocking,
            grid_rows=bands,
            grid_cols=bands,
            shards=tuple(shards),
            symmetric=True,
        )

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def n_mirrored(self) -> int:
        """Off-diagonal shards whose transpose slot is filled by reflection."""
        return sum(1 for s in self.shards if s.mirror)

    def k_panels(self) -> list[tuple[int, int]]:
        """The loop-4 ``k_c`` panels every shard iterates (shared)."""
        return self.blocking.k_panels()

    def total_word_ops(self) -> int:
        """Word-ops actually *computed* (excludes mirrored slots)."""
        return sum(s.word_ops(self.blocking.k) for s in self.shards)

    def mirrored_word_ops(self) -> int:
        """Word-ops saved by reflection: the mirror slots' op count."""
        return sum(
            s.word_ops(self.blocking.k) for s in self.shards if s.mirror
        )
