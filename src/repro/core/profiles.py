"""Performance reports: what one framework run measured.

The paper reports two classes of numbers (Section VI-A1): kernel
execution time from OpenCL event profiling, and end-to-end time (data
transfer + computation, including OpenCL initialization but excluding
kernel compilation).  :class:`RunReport` carries both, itemized, plus
the kernel cycle breakdowns for efficiency analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpu.executor import KernelProfile
from repro.observability.report import MetricsReport
from repro.parallel.engine import ParallelReport
from repro.resilience.report import ResilienceReport
from repro.util.units import format_ops, format_percent, format_seconds

__all__ = ["RunReport"]


@dataclass
class RunReport:
    """Itemized timing of one end-to-end framework run (simulated).

    All times are simulated seconds.  ``end_to_end_s`` is the makespan
    from simulated time zero (context creation start) to the last
    read-back completing; because transfers and kernels overlap under
    double buffering, it is generally *less* than the sum of the parts.
    """

    device: str
    algorithm: str
    m: int
    n: int
    k_bits: int
    init_s: float = 0.0
    h2d_s: float = 0.0
    kernel_s: float = 0.0
    d2h_s: float = 0.0
    end_to_end_s: float = 0.0
    n_kernel_launches: int = 0
    n_tiles: int = 0
    kernel_profiles: list[KernelProfile] = field(default_factory=list)
    #: Kernel backend (:mod:`repro.kernels`) that computed the host
    #: table; ``""`` on aggregated reports.
    backend: str = ""
    #: Host-engine report (shard profiles) when the table was computed
    #: on the sharded engine (``workers > 1``); ``None`` otherwise.
    parallel: ParallelReport | None = None
    #: Observability capture scoped to this run; ``None`` when the
    #: process tracer was disabled (the default).
    metrics: MetricsReport | None = None
    #: Fault-tolerance accounting scoped to this run; ``None`` when no
    #: resilience context was active (the default).
    resilience: ResilienceReport | None = None

    @property
    def word_ops(self) -> int:
        """Total packed-word operations across all launches."""
        return sum(p.breakdown.word_ops for p in self.kernel_profiles)

    @property
    def kernel_throughput_word_ops(self) -> float:
        """Aggregate kernel throughput (word-ops per kernel second)."""
        return self.word_ops / self.kernel_s if self.kernel_s > 0 else 0.0

    @property
    def kernel_efficiency(self) -> float:
        """Ops-weighted mean kernel efficiency (fraction of pipe peak)."""
        total = self.word_ops
        if total == 0:
            return 0.0
        return sum(
            p.efficiency * p.breakdown.word_ops for p in self.kernel_profiles
        ) / total

    @property
    def overlap_s(self) -> float:
        """Time hidden by overlapping engines (sum of parts - makespan)."""
        serial = self.init_s + self.h2d_s + self.kernel_s + self.d2h_s
        return max(0.0, serial - self.end_to_end_s)

    def speedup_over(self, other_seconds: float) -> float:
        """``other / this`` end-to-end speedup factor."""
        if self.end_to_end_s <= 0:
            return float("inf")
        return other_seconds / self.end_to_end_s

    def summary_lines(self) -> list[str]:
        """Human-readable report block."""
        return [
            f"device        : {self.device}",
            f"algorithm     : {self.algorithm}",
            f"problem       : m={self.m} n={self.n} k_bits={self.k_bits}",
            f"tiles/launches: {self.n_tiles}/{self.n_kernel_launches}",
            f"init          : {format_seconds(self.init_s)}",
            f"h2d transfer  : {format_seconds(self.h2d_s)}",
            f"kernel        : {format_seconds(self.kernel_s)}"
            f"  ({format_ops(self.kernel_throughput_word_ops)},"
            f" {format_percent(self.kernel_efficiency)} of pipe peak)",
            f"d2h transfer  : {format_seconds(self.d2h_s)}",
            f"end-to-end    : {format_seconds(self.end_to_end_s)}"
            f"  (overlap hid {format_seconds(self.overlap_s)})",
        ]

    def __str__(self) -> str:
        return "\n".join(self.summary_lines())
