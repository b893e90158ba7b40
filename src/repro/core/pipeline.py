"""Tiling and double buffering for problems beyond device memory.

Section VI-E2: "For GPUs that do not support matrices of the size
required by the database or resulting output matrix (e.g. the GTX 980),
the problem must be broken down into smaller tile sizes.  This can be
done naturally due to the tiling approach taken in our framework.  Even
for GPUs that can fit the entire database ... double buffering input
and output tiles allows some of the data transfer to be overlapped with
computation."

The pipeline tiles the *N* dimension (database rows -- the dimension
with unbounded growth in both applications) into chunks whose B tile
and C tile fit device memory twice over (two in-flight copies each:
that is the double buffer), plus the resident A operand:

    A + 2 * (B_tile + C_tile)  <=  budget

Each chunk runs ``write B_i -> kernel_i -> read C_i`` with dependencies
expressed through events; the H2D engine, compute engine and D2H engine
then overlap adjacent chunks exactly as the real double-buffered queue
would.  With ``double_buffering=False`` every stage additionally waits
for the previous chunk's read-back, serializing the pipeline -- the
ablation bench's baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.blis.blocking import tile_ranges
from repro.blis.gemm import same_operand
from repro.core.packing import PackedOperand
from repro.errors import AllocationError, ConfigurationError
from repro.gpu.device import Buffer, CommandQueue, Context
from repro.gpu.executor import KernelProfile
from repro.gpu.kernel import SnpKernel
from repro.gpu.event import Event
from repro.observability.tracer import get_tracer
from repro.resilience.retry import call_with_retry
from repro.resilience.runtime import get_resilience

__all__ = ["TilePlan", "plan_tiles", "run_pipeline"]

#: Fraction of global memory the pipeline allows itself (headroom for
#: runtime allocations the real driver makes).
_MEMORY_FILL_FRACTION = 0.90

#: Result element size: the accumulators are 32-bit on device; we
#: account 4 bytes per output cell for transfer sizing even though the
#: functional path returns int64 host-side.
_RESULT_BYTES = 4


@dataclass(frozen=True)
class TilePlan:
    """How one problem is chopped along the database (N) dimension."""

    n_total: int
    tile_rows: int
    ranges: tuple[tuple[int, int], ...]

    @property
    def n_tiles(self) -> int:
        return len(self.ranges)


def plan_tiles(
    context: Context,
    kernel: SnpKernel,
    a: PackedOperand,
    b: PackedOperand,
) -> TilePlan:
    """Choose the N-dimension tiling that fits device memory.

    Honors the per-buffer max-allocation limit and total global memory
    (with double-buffer duplication).  Raises
    :class:`~repro.errors.AllocationError` when even a minimal tile
    cannot fit.
    """
    arch = context.device.arch
    word_bytes = arch.word_bytes
    k = b.k_words
    m_padded = a.padded_rows

    budget = int(arch.global_memory_bytes * _MEMORY_FILL_FRACTION)
    a_bytes = a.nbytes
    per_row = k * word_bytes + m_padded * _RESULT_BYTES  # B row + C column
    available = budget - a_bytes
    if available <= 0:
        raise AllocationError(
            f"plan_tiles: operand A ({a_bytes} bytes) alone exceeds the "
            f"memory budget on {arch.name}"
        )
    rows_by_total = available // (2 * per_row)
    # Per-buffer cap: both the B tile and the C tile must individually
    # respect CL_DEVICE_MAX_MEM_ALLOC_SIZE.
    rows_by_b = arch.max_alloc_bytes // (k * word_bytes)
    rows_by_c = arch.max_alloc_bytes // max(1, m_padded * _RESULT_BYTES)
    tile_rows = int(min(rows_by_total, rows_by_b, rows_by_c))
    # Keep tiles aligned to the kernel's n_r so micro-tiles stay whole.
    if tile_rows >= kernel.n_r:
        tile_rows = tile_rows // kernel.n_r * kernel.n_r
    if tile_rows <= 0:
        raise AllocationError(
            f"plan_tiles: cannot fit any tile of the {b.padded_rows}-row "
            f"database on {arch.name} (k={k} words, m={m_padded})"
        )
    tile_rows = min(tile_rows, b.padded_rows)
    ranges = tuple(tile_ranges(b.padded_rows, tile_rows))
    return TilePlan(n_total=b.padded_rows, tile_rows=tile_rows, ranges=ranges)


def run_pipeline(
    queue: CommandQueue,
    kernel: SnpKernel,
    a: PackedOperand,
    b: PackedOperand,
    plan: TilePlan | None = None,
    double_buffering: bool = True,
    workers: int | None = None,
    symmetric: bool | None = None,
    backend: str = "auto",
) -> tuple[np.ndarray, list[KernelProfile], TilePlan]:
    """Execute the tiled comparison; returns (raw table, profiles, plan).

    The returned table is *uncropped* (padded extents); callers crop
    with :func:`repro.core.packing.crop_result`.  ``workers > 1``
    computes each tile's functional table on the sharded host engine
    (:mod:`repro.parallel`); simulated device timing is unchanged.

    ``symmetric=None`` auto-detects Gram mode: when both operands are
    the same packed matrix, the op is symmetric, and the whole
    database fits one tile (multi-tile launches compare *different*
    row ranges, so per-tile outputs are not symmetric), the kernel is
    launched with the Gram hint and computes only the upper triangle.
    ``False`` disables the hint; ``True`` requires eligibility and
    raises otherwise.  ``backend`` selects the kernel-ABI backend
    (:mod:`repro.kernels`) for each tile's functional table.
    """
    context = queue.context
    arch = context.device.arch
    if kernel.arch is not arch:
        raise ConfigurationError(
            f"run_pipeline: kernel compiled for {kernel.arch.name}, queue on "
            f"{arch.name}"
        )
    if plan is None:
        plan = plan_tiles(context, kernel, a, b)

    gram_eligible = (
        kernel.op.is_symmetric
        and same_operand(a.words, b.words)
        and plan.n_tiles == 1
        and a.padded_rows == plan.n_total
    )
    if symmetric is None:
        symmetric = gram_eligible
    elif symmetric and not gram_eligible:
        raise ConfigurationError(
            "run_pipeline: symmetric=True requires a single-tile "
            "self-comparison with a symmetric op"
        )

    word_bytes = arch.word_bytes
    m_padded = a.padded_rows
    out = np.zeros((m_padded, plan.n_total), dtype=np.int64)
    profiles: list[KernelProfile] = []

    obs = get_tracer()
    res = get_resilience()

    def _alloc(n_bytes: int, label: str) -> Buffer:
        # Allocation failures (injected ``alloc`` faults or real
        # AllocationError memory pressure) are retried under the
        # active resilience policy; the one-attempt default makes
        # this a plain create_buffer call.
        return call_with_retry(
            lambda: context.create_buffer(n_bytes, label=label), res.policy
        )

    with obs.span(
        "pipeline.run",
        device=arch.name,
        n_tiles=plan.n_tiles,
        double_buffering=double_buffering,
    ):
        # Resident A upload.
        a_buf = _alloc(a.nbytes, label="A")
        a_event = queue.enqueue_write_buffer(a_buf, a.words, label="write:A")

        # Double-buffered B/C rotation (two slots each).
        n_slots = 2 if double_buffering and plan.n_tiles > 1 else 1
        b_bufs = [
            _alloc(plan.tile_rows * b.k_words * word_bytes, label=f"B{i}")
            for i in range(n_slots)
        ]
        c_bufs = [
            _alloc(m_padded * plan.tile_rows * _RESULT_BYTES, label=f"C{i}")
            for i in range(n_slots)
        ]
        # Last events occupying each slot (must complete before reuse).
        slot_free: list[list[Event]] = [[] for _ in range(n_slots)]
        prev_read: Event | None = None

        for tile_idx, (n0, n1) in enumerate(plan.ranges):
            slot = tile_idx % n_slots
            with obs.span("pipeline.tile", tile=tile_idx, n0=n0, n1=n1):
                b_tile = np.ascontiguousarray(b.words[n0:n1])
                deps: list[Event] = list(slot_free[slot])
                if not double_buffering and prev_read is not None:
                    deps.append(prev_read)
                write_ev = queue.enqueue_write_buffer(
                    b_bufs[slot], b_tile, wait_for=deps, label=f"write:B[{tile_idx}]"
                )
                kernel_ev, profile = queue.enqueue_kernel(
                    kernel,
                    a_buf,
                    b_bufs[slot],
                    c_bufs[slot],
                    wait_for=[a_event, write_ev],
                    label=f"kernel[{tile_idx}]",
                    workers=workers,
                    symmetric=symmetric,
                    backend=backend,
                )
                profiles.append(profile)
                tile_out, read_ev = queue.enqueue_read_buffer(
                    c_bufs[slot], wait_for=[kernel_ev], label=f"read:C[{tile_idx}]"
                )
                out[:, n0:n1] = tile_out
                slot_free[slot] = [read_ev]
                prev_read = read_ev

        for buf in [a_buf, *b_bufs, *c_bufs]:
            buf.release()
    return out, profiles, plan
