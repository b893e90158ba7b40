"""Analytical kernel cycle model.

Prices one SNP-comparison kernel launch on a model GPU, following the
paper's Section V-D bottleneck methodology plus the Section VI
observations (scaling knee, DVFS, data-reuse ramp).  The model is the
source of all *simulated device timestamps*; the host computes the
results, this module computes when the device would have them ready.

Decomposition (multiplicative stall factors on the ideal pipe time):

``cycles = ideal_cycles * stall_latency * stall_conflict * stall_spill
           / (balance * ramp * scaling)``

* **ideal_cycles** -- word-ops / (words-per-cycle-per-core x cores),
  where words-per-cycle follows the per-pipe unit counts and the
  kernel's instruction mix; the binding pipe is the one with the
  largest cycles-per-word (POPC on NVIDIA, the shared ALU pipe on
  Vega -- Section V-D).
* **stall_latency** -- if ``n_r`` provides fewer than ``L_fn`` thread
  groups per cluster (Eq. 7 violated), dependent-instruction latency
  is exposed: factor ``n_r_min / n_r``.
* **stall_conflict** -- shared-memory bank serialization when the
  A-tile access width exceeds the bank-conflict-free width.
* **stall_spill** -- register spilling when the per-thread accumulator
  block exceeds the register budget at the chosen occupancy.
* **balance** -- load balance across the core grid (exact, from the
  blocking plan).
* **ramp** -- the data-reuse ramp of Fig. 5: small per-core output
  extents leave latency unhidden; ``x / (x + ramp_half_size)``.
* **scaling** -- the per-core efficiency decline past the memory
  contention knee (Fig. 7): ``1 / (1 + decay * max(0, cores - knee))``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.blis.blocking import BlockingPlan, split_in_units
from repro.blis.microkernel import ComparisonOp, get_microkernel
from repro.errors import ModelError
from repro.gpu.arch import GPUArchitecture
from repro.gpu.isa import PipeClass, instruction_mix_pipes

__all__ = [
    "kernel_instruction_mix",
    "cycles_per_word_per_cluster",
    "bottleneck_pipe",
    "words_per_cycle_per_core",
    "peak_word_ops_per_second",
    "scaling_efficiency",
    "effective_frequency_hz",
    "ramp_efficiency",
    "latency_stall_factor",
    "conflict_stall_factor",
    "spill_stall_factor",
    "min_n_r",
    "CycleBreakdown",
    "kernel_cycles",
]


def kernel_instruction_mix(
    arch: GPUArchitecture, op: ComparisonOp | str
) -> tuple[int, int]:
    """Per-packed-word (alu_ops, popc_ops) for ``op`` on ``arch``.

    Includes the shared accumulate (1 POPC + 1 integer ADD).  The
    AND-NOT combiner costs one ALU op on architectures with a fused
    instruction and two (NOT then AND) otherwise -- the Fig. 9 effect.
    """
    kernel = get_microkernel(op)
    mix = kernel.mix
    return mix.alu_ops(arch.has_fused_andnot), mix.popc

def cycles_per_word_per_cluster(
    arch: GPUArchitecture, op: ComparisonOp | str
) -> float:
    """Cluster-cycles to retire one packed word of the comparison."""
    alu_ops, popc_ops = kernel_instruction_mix(arch, op)
    pipes = instruction_mix_pipes(arch, alu_ops, popc_ops)
    return max(pipes.values())


def bottleneck_pipe(arch: GPUArchitecture, op: ComparisonOp | str) -> PipeClass:
    """Which pipe binds the kernel's throughput (Section V-D)."""
    alu_ops, popc_ops = kernel_instruction_mix(arch, op)
    pipes = instruction_mix_pipes(arch, alu_ops, popc_ops)
    return max(pipes, key=lambda p: pipes[p])


def words_per_cycle_per_core(
    arch: GPUArchitecture, op: ComparisonOp | str
) -> float:
    """Packed words retired per cycle by one compute core at peak."""
    return arch.n_cl / cycles_per_word_per_cluster(arch, op)


def peak_word_ops_per_second(
    arch: GPUArchitecture,
    op: ComparisonOp | str = ComparisonOp.AND,
    n_cores: int | None = None,
) -> float:
    """Theoretical peak throughput (packed 32-bit word-ops per second).

    This is the dotted line of Fig. 5.  ``n_cores`` defaults to the
    full device.
    """
    cores = arch.n_c if n_cores is None else n_cores
    if not (1 <= cores <= arch.n_c):
        raise ModelError(
            f"peak_word_ops_per_second: n_cores={cores} outside [1, {arch.n_c}]"
        )
    return words_per_cycle_per_core(arch, op) * cores * arch.frequency_hz


def scaling_efficiency(arch: GPUArchitecture, n_cores: int) -> float:
    """Per-core efficiency at ``n_cores`` active cores (Fig. 7 model).

    Memory-system contention past the knee; 1.0 at or below it.
    """
    if not (1 <= n_cores <= arch.n_c):
        raise ModelError(
            f"scaling_efficiency: n_cores={n_cores} outside [1, {arch.n_c}]"
        )
    mem = arch.memory
    excess = max(0, n_cores - mem.scaling_knee_cores)
    return 1.0 / (1.0 + mem.scaling_decay * excess)


def effective_frequency_hz(arch: GPUArchitecture, n_cores: int) -> float:
    """Clock at ``n_cores`` active cores (DVFS term, Section VI-C)."""
    scale = arch.memory.single_core_frequency_scale if n_cores == 1 else 1.0
    return arch.frequency_hz * scale


def ramp_efficiency(arch: GPUArchitecture, per_core_output_extent: float) -> float:
    """Data-reuse/latency ramp as a function of per-core output width.

    Small outputs leave global-memory latency and panel-load cost
    unamortized (the rising part of Fig. 5); saturates toward 1.
    """
    x = max(0.0, float(per_core_output_extent))
    half = arch.memory.ramp_half_size
    return x / (x + half) if half > 0 else 1.0


def min_n_r(arch: GPUArchitecture, m_r: int, m_c: int) -> int:
    """Eq. 7's lower bound on ``n_r`` for full latency hiding."""
    if m_r <= 0 or m_c <= 0:
        raise ModelError("min_n_r: m_r and m_c must be positive")
    subgroup = arch.n_t * m_r / m_c
    return int(subgroup * arch.n_vec * arch.l_fn)


def latency_stall_factor(arch: GPUArchitecture, plan: BlockingPlan) -> float:
    """Slowdown when ``n_r`` is below the Eq. 7 bound (>= 1.0)."""
    bound = min_n_r(arch, plan.m_r, plan.m_c)
    if bound <= 0:
        return 1.0
    return max(1.0, bound / plan.n_r)


def conflict_stall_factor(arch: GPUArchitecture, plan: BlockingPlan) -> float:
    """Bank-conflict serialization of the shared A-tile reads (>= 1.0).

    The packed A tile is ``m_c`` words tall; simultaneous cluster
    accesses are conflict-free while ``m_c <= N_b`` (the published
    configurations use ``m_c = N_b = 32``).  Beyond that, reads
    serialize proportionally.
    """
    if plan.m_c <= arch.shared_memory_banks:
        return 1.0
    return plan.m_c / arch.shared_memory_banks


def spill_stall_factor(arch: GPUArchitecture, plan: BlockingPlan) -> float:
    """Register-spill slowdown when the accumulator block overflows.

    Each thread holds ``m_r * n_r / (L_fn * N_T)`` accumulators plus a
    fixed overhead of ~16 registers for addresses and operands.  Beyond
    the per-thread budget at the framework's occupancy, every excess
    accumulator turns a register access into a (modeled 4x slower)
    local-memory access for its share of the inner loop.
    """
    accumulators = plan.m_r * plan.n_r / (arch.l_fn * arch.n_t)
    needed = accumulators + 16
    budget = min(arch.registers_per_thread(), arch.max_registers_per_thread)
    if needed <= budget:
        return 1.0
    spilled_fraction = (needed - budget) / needed
    return 1.0 + 3.0 * spilled_fraction


def _max_extent(extent: int, parts: int, unit: int) -> int:
    """The largest of :func:`split_in_units`'s ``parts`` ranges."""
    return max(stop - start for start, stop in split_in_units(extent, parts, unit))


def _grid_load(plan: BlockingPlan) -> tuple[float, int]:
    """(load balance, busiest core's column extent).

    Core ``(r, c)`` of the grid computes ``rows[r] * cols[c] * k``
    word-ops, where ``rows`` and ``cols`` are the core grid's M and N
    splits, so the busiest core computes ``max(rows) * max(cols) * k``
    of the ``m * n * k`` total.  Balance is total / (n_cores *
    busiest); the busiest core's column extent drives the reuse ramp
    (it determines the makespan, so averaging over idle cores would
    double-count skew).
    """
    max_cols = _max_extent(plan.n, plan.grid_cols, plan.n_r)
    busiest = _max_extent(plan.m, plan.grid_rows, plan.m_r) * max_cols * plan.k
    if busiest == 0:
        return 1.0, plan.n
    return plan.total_ops() / (plan.n_cores * busiest), max_cols


@dataclass(frozen=True)
class CycleBreakdown:
    """Itemized cost of one kernel launch on the model GPU."""

    word_ops: int
    ideal_cycles: float
    stall_latency: float
    stall_conflict: float
    stall_spill: float
    balance: float
    ramp: float
    scaling: float
    total_cycles: float
    frequency_hz: float
    bottleneck: PipeClass

    @property
    def seconds(self) -> float:
        """Kernel execution time in simulated seconds."""
        return self.total_cycles / self.frequency_hz

    @property
    def throughput_word_ops(self) -> float:
        """Achieved packed-word throughput (word-ops per second)."""
        return self.word_ops / self.seconds if self.seconds > 0 else 0.0

    @property
    def efficiency(self) -> float:
        """Achieved / ideal cycle ratio (fraction of pipe peak)."""
        if self.total_cycles <= 0:
            return 1.0
        return self.ideal_cycles / self.total_cycles


def kernel_cycles(
    arch: GPUArchitecture,
    plan: BlockingPlan,
    op: ComparisonOp | str = ComparisonOp.AND,
) -> CycleBreakdown:
    """Price one kernel launch executing ``plan`` on ``arch``.

    ``plan.n_cores`` cores participate (the paper's "core
    configuration"); extents and the reduction length come from the
    plan.  Returns the full factor decomposition for reporting.
    """
    n_cores = plan.n_cores
    if n_cores > arch.n_c:
        raise ModelError(
            f"kernel_cycles: plan uses {n_cores} cores but {arch.name} "
            f"has {arch.n_c}"
        )
    word_ops = plan.total_ops()
    wpc = words_per_cycle_per_core(arch, op)
    ideal = word_ops / (wpc * n_cores) if word_ops else 0.0

    stall_lat = latency_stall_factor(arch, plan)
    stall_conf = conflict_stall_factor(arch, plan)
    stall_sp = spill_stall_factor(arch, plan)
    # The busiest core determines the makespan: its balance and its
    # swept column extent (the streamed dimension) set the efficiency.
    balance, per_core_cols = _grid_load(plan)
    ramp = ramp_efficiency(arch, per_core_cols)
    scaling = scaling_efficiency(arch, n_cores)
    freq = effective_frequency_hz(arch, n_cores)

    denominator = balance * ramp * scaling
    if denominator <= 0:
        raise ModelError("kernel_cycles: degenerate efficiency denominator")
    total = ideal * stall_lat * stall_conf * stall_sp / denominator
    return CycleBreakdown(
        word_ops=word_ops,
        ideal_cycles=ideal,
        stall_latency=stall_lat,
        stall_conflict=stall_conf,
        stall_spill=stall_sp,
        balance=balance,
        ramp=ramp,
        scaling=scaling,
        total_cycles=total,
        frequency_hz=freq,
        bottleneck=bottleneck_pipe(arch, op),
    )
