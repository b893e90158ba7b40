"""ResilienceReport: what the fault-tolerance layer did during one run.

The value-object counterpart of
:class:`~repro.observability.report.MetricsReport`: results objects
(:class:`repro.parallel.engine.ParallelReport`,
:class:`repro.core.profiles.RunReport`,
:class:`repro.multigpu.executor.MultiGPUReport`) carry one so callers
can see -- without a live tracer -- how many faults fired, what was
retried, quarantined, verified, or dropped while their result was
produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.resilience.faults import FiredFault

__all__ = ["ResilienceReport"]


@dataclass
class ResilienceReport:
    """Aggregate resilience accounting for one scoped stretch of work."""

    faults_injected: int = 0
    retries: int = 0
    quarantined: int = 0
    tiles_verified: int = 0
    verify_mismatches: int = 0
    devices_dropped: int = 0
    events: tuple[FiredFault, ...] = field(default_factory=tuple)

    @property
    def clean(self) -> bool:
        """True when nothing unusual happened (the production norm)."""
        return (
            self.faults_injected == 0
            and self.retries == 0
            and self.quarantined == 0
            and self.verify_mismatches == 0
            and self.devices_dropped == 0
        )

    def merged(self, other: "ResilienceReport") -> "ResilienceReport":
        """Element-wise sum (aggregating sub-run reports)."""
        return ResilienceReport(
            faults_injected=self.faults_injected + other.faults_injected,
            retries=self.retries + other.retries,
            quarantined=self.quarantined + other.quarantined,
            tiles_verified=self.tiles_verified + other.tiles_verified,
            verify_mismatches=self.verify_mismatches + other.verify_mismatches,
            devices_dropped=self.devices_dropped + other.devices_dropped,
            events=self.events + other.events,
        )

    @classmethod
    def combine(cls, reports: Iterable["ResilienceReport"]) -> "ResilienceReport":
        """Sum many reports (skipping ``None`` entries is the caller's job)."""
        total = cls()
        for report in reports:
            total = total.merged(report)
        return total

    def summary_lines(self) -> list[str]:
        """Human-readable block (CLI output when faults were injected)."""
        lines = [
            f"faults injected   : {self.faults_injected}",
            f"shard retries     : {self.retries}",
            f"shards quarantined: {self.quarantined}",
            f"tiles verified    : {self.tiles_verified}",
            f"verify mismatches : {self.verify_mismatches}",
            f"devices dropped   : {self.devices_dropped}",
        ]
        if self.events:
            fired = ", ".join(
                f"{e.kind}@{e.target}#{e.attempt}" for e in self.events
            )
            lines.append(f"fired             : {fired}")
        return lines

    def __str__(self) -> str:
        return "\n".join(self.summary_lines())
