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

:func:`run_pipeline` is a timing-only schedule over padded extents: it
allocates the device buffers (so memory limits and ``alloc`` faults
apply) and enqueues byte counts and launch geometries, never data.
:meth:`~repro.core.framework.SNPComparisonFramework.run_packed` runs it
before computing the table once on the host, and
:func:`~repro.model.endtoend.estimate_end_to_end` runs it alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.blis.blocking import tile_ranges
from repro.errors import AllocationError, ConfigurationError
from repro.gpu.device import Buffer, CommandQueue
from repro.gpu.executor import KernelProfile
from repro.gpu.kernel import KernelArgs, SnpKernel
from repro.gpu.event import Event
from repro.observability.counters import KERNEL_LAUNCHES, KERNEL_RETRIES
from repro.observability.tracer import get_tracer
from repro.resilience.retry import call_with_retry
from repro.resilience.runtime import get_resilience

__all__ = ["TilePlan", "plan_tiles", "run_pipeline"]

#: Fraction of global memory the pipeline allows itself (headroom for
#: runtime allocations the real driver makes).
_MEMORY_FILL_FRACTION = 0.90

#: Result element size: the accumulators are 32-bit on device (Table
#: I's 4-byte elements), so each output cell costs 4 bytes to read
#: back even though the host table is int64.
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


def plan_tiles(kernel: SnpKernel, m: int, n: int, k: int) -> TilePlan:
    """Choose the N-dimension tiling of an ``(m, n, k)`` launch.

    ``m``/``n`` are padded row counts and ``k`` the word count.  Honors
    the per-buffer max-allocation limit and total global memory (with
    double-buffer duplication).  Raises
    :class:`~repro.errors.AllocationError` when even a minimal tile
    cannot fit.
    """
    arch = kernel.arch
    word_bytes = arch.word_bytes
    budget = int(arch.global_memory_bytes * _MEMORY_FILL_FRACTION)
    a_bytes = m * k * word_bytes
    per_row = k * word_bytes + m * _RESULT_BYTES  # B row + C column
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
    rows_by_c = arch.max_alloc_bytes // max(1, m * _RESULT_BYTES)
    tile_rows = int(min(rows_by_total, rows_by_b, rows_by_c))
    # Keep tiles aligned to the kernel's n_r so micro-tiles stay whole.
    if tile_rows >= kernel.n_r:
        tile_rows = tile_rows // kernel.n_r * kernel.n_r
    if tile_rows <= 0:
        raise AllocationError(
            f"plan_tiles: cannot fit any tile of the {n}-row database on "
            f"{arch.name} (k={k} words, m={m})"
        )
    tile_rows = min(tile_rows, n)
    ranges = tuple(tile_ranges(n, tile_rows))
    return TilePlan(n_total=n, tile_rows=tile_rows, ranges=ranges)


def _launch(
    queue: CommandQueue,
    kernel: SnpKernel,
    args: KernelArgs,
    wait_for: list[Event],
    label: str,
) -> tuple[Event, KernelProfile]:
    """One kernel launch: the ``kernel`` fault hook, then its price.

    An injected transient launch fault is re-attempted under the active
    retry policy; each attempt consumes one kernel ordinal, so
    ``kernel:c`` specs model c consecutive failed launches before
    success.
    """
    obs = get_tracer()
    res = get_resilience()
    obs.counters.add(KERNEL_LAUNCHES)
    retries = 0

    def attempt() -> None:
        res.injector.check("kernel", attempt=retries)

    def on_retry(_index: int, _exc: BaseException) -> None:
        nonlocal retries
        retries += 1
        obs.counters.add(KERNEL_RETRIES)

    call_with_retry(attempt, res.policy, on_retry)
    event, profile = queue.enqueue_kernel_dry(
        kernel, args, wait_for=wait_for, label=label
    )
    return event, replace(profile, retries=retries)


def run_pipeline(
    queue: CommandQueue,
    kernel: SnpKernel,
    m: int,
    n: int,
    k: int,
    double_buffering: bool = True,
) -> tuple[list[KernelProfile], TilePlan]:
    """Schedule the tiled ``(m, n, k)`` comparison; returns (profiles, plan).

    ``m``/``n`` are padded row counts and ``k`` the word count.  One
    :class:`~repro.gpu.executor.KernelProfile` per launch; the queue
    holds the events.
    """
    context = queue.context
    arch = context.device.arch
    if kernel.arch is not arch:
        raise ConfigurationError(
            f"run_pipeline: kernel compiled for {kernel.arch.name}, queue on "
            f"{arch.name}"
        )
    plan = plan_tiles(kernel, m, n, k)
    word_bytes = arch.word_bytes
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
        a_bytes = m * k * word_bytes
        a_buf = _alloc(a_bytes, label="A")
        a_event = queue.enqueue_write_dry(a_bytes, label="write:A")

        # Double-buffered B/C rotation (two slots each).
        n_slots = 2 if double_buffering and plan.n_tiles > 1 else 1
        b_bufs = [
            _alloc(plan.tile_rows * k * word_bytes, label=f"B{i}")
            for i in range(n_slots)
        ]
        c_bufs = [
            _alloc(m * plan.tile_rows * _RESULT_BYTES, label=f"C{i}")
            for i in range(n_slots)
        ]
        # Last events occupying each slot (must complete before reuse).
        slot_free: list[list[Event]] = [[] for _ in range(n_slots)]
        prev_read: Event | None = None

        for tile_idx, (n0, n1) in enumerate(plan.ranges):
            slot = tile_idx % n_slots
            rows = n1 - n0
            with obs.span("pipeline.tile", tile=tile_idx, n0=n0, n1=n1):
                deps: list[Event] = list(slot_free[slot])
                if not double_buffering and prev_read is not None:
                    deps.append(prev_read)
                write_ev = queue.enqueue_write_dry(
                    rows * k * word_bytes,
                    wait_for=deps,
                    label=f"write:B[{tile_idx}]",
                )
                kernel_ev, profile = _launch(
                    queue,
                    kernel,
                    KernelArgs(m=m, n=rows, k=k),
                    wait_for=[a_event, write_ev],
                    label=f"kernel[{tile_idx}]",
                )
                profiles.append(profile)
                read_ev = queue.enqueue_read_dry(
                    m * rows * _RESULT_BYTES,
                    wait_for=[kernel_ev],
                    label=f"read:C[{tile_idx}]",
                )
                slot_free[slot] = [read_ev]
                prev_read = read_ev

        for buf in [a_buf, *b_bufs, *c_bufs]:
            buf.release()
    return profiles, plan
