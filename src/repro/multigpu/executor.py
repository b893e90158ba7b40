"""Multi-GPU execution: functional runs and end-to-end estimation.

Each device runs the *single-device* double-buffered pipeline on its
database slice; the host link model adjusts the per-device staging
bandwidth (shared switch: divided by active devices; dedicated links:
full rate).  The node's end-to-end time is the makespan across devices
-- device pipelines are independent once partitioned, exactly the
embarrassing parallelism the column partition buys.

``run_multi_gpu`` executes functionally (bit-exact, slices
concatenated); ``estimate_multi_gpu`` prices arbitrary scale through
the same per-device estimator the single-GPU benches use.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import Algorithm
from repro.core.framework import SNPComparisonFramework
from repro.core.planner import derive_config
from repro.errors import ModelError, ReproError, ShardExecutionError
from repro.gpu.arch import GPUArchitecture
from repro.model.endtoend import EndToEndEstimate, estimate_end_to_end
from repro.multigpu.partition import DeviceSlice, partition_database
from repro.multigpu.system import MultiGPUSystem
from repro.observability.counters import DEVICES_DROPPED
from repro.observability.tracer import get_tracer
from repro.resilience.report import ResilienceReport
from repro.resilience.retry import Disposition, classify
from repro.resilience.runtime import get_resilience

__all__ = ["MultiGPUReport", "run_multi_gpu", "estimate_multi_gpu", "scaling_series"]


@dataclass
class MultiGPUReport:
    """Node-level timing of one multi-GPU run.

    ``dropped_devices`` lists device indices lost during the run (their
    database slices were re-partitioned across the survivors);
    ``resilience`` carries the fault-tolerance accounting when a
    resilience context was active.
    """

    system: str
    algorithm: str
    n_devices_used: int
    slices: list[DeviceSlice]
    per_device: list[EndToEndEstimate] = field(default_factory=list)
    dropped_devices: list[int] = field(default_factory=list)
    resilience: ResilienceReport | None = None

    @property
    def makespan_s(self) -> float:
        """Node end-to-end time: the slowest device's pipeline."""
        return max((e.end_to_end_s for e in self.per_device), default=0.0)

    @property
    def total_kernel_word_ops(self) -> int:
        return sum(e.kernel_word_ops for e in self.per_device)

    def speedup_over(self, single_device_seconds: float) -> float:
        if self.makespan_s <= 0:
            return float("inf")
        return single_device_seconds / self.makespan_s

    def parallel_efficiency(self, single_device_seconds: float) -> float:
        """Speedup divided by device count (1.0 = perfect scaling)."""
        return self.speedup_over(single_device_seconds) / max(1, self.n_devices_used)


def _adjusted_arch(system: MultiGPUSystem, n_active: int) -> GPUArchitecture:
    """The device architecture with the interconnect-adjusted host link."""
    per_device_bw = system.interconnect.effective_host_bandwidth(n_active)
    memory = dataclasses.replace(
        system.device.memory, host_bandwidth_gbs=per_device_bw
    )
    return dataclasses.replace(system.device, memory=memory)


def run_multi_gpu(
    system: MultiGPUSystem,
    algorithm: Algorithm | str,
    a_bits: np.ndarray,
    b_bits: np.ndarray,
    workers: int | None = None,
    backend: str = "auto",
) -> tuple[np.ndarray, MultiGPUReport]:
    """Functional multi-GPU run: bit-exact table plus node timing.

    The full query operand goes to every device; database columns are
    partitioned.  The returned table equals the single-device result
    exactly (asserted by tests).

    ``workers > 1`` computes every device slice on the sharded host
    engine; because the engine registry keys pools by worker count
    (:func:`repro.parallel.get_engine`), all simulated devices share
    **one** thread pool rather than spawning one per device.

    ``backend`` forwards to each device's framework.
    """
    algorithm = Algorithm(algorithm) if isinstance(algorithm, str) else algorithm
    a = np.asarray(a_bits)
    b = np.asarray(b_bits)
    if a.ndim != 2 or b.ndim != 2:
        raise ModelError("run_multi_gpu: operands must be 2-D binary matrices")
    config = derive_config(system.device, algorithm)
    slices = partition_database(b.shape[0], system.n_devices, align=config.n_r)
    active = [s for s in slices if not s.is_empty]
    if not active:
        raise ModelError("run_multi_gpu: empty database")
    arch = _adjusted_arch(system, len(active))

    obs = get_tracer()
    res = get_resilience()
    events_before = res.injector.n_fired()
    table = np.zeros((a.shape[0], b.shape[0]), dtype=np.int64)
    report = MultiGPUReport(
        system=system.name,
        algorithm=algorithm.value,
        n_devices_used=len(active),
        slices=slices,
    )
    sub_reports: list[ResilienceReport] = []
    dropped: list[int] = []
    # Work queue of (device, rows) assignments.  The happy path drains
    # it in partition order; a device-lost fault re-partitions the
    # failed assignment's rows across the surviving devices and keeps
    # draining (graceful degradation; see docs/RESILIENCE.md).
    pending: deque[DeviceSlice] = deque(active)
    with obs.span(
        "multigpu.run",
        system=system.name,
        algorithm=algorithm.value,
        devices=len(active),
    ):
        while pending:
            dev_slice = pending.popleft()
            try:
                with obs.span(
                    "multigpu.device",
                    device=dev_slice.device_index,
                    rows=dev_slice.n_rows,
                ):
                    res.injector.check(
                        "device", target=dev_slice.device_index
                    )
                    framework = SNPComparisonFramework(
                        arch,
                        algorithm,
                        workers=workers,
                        backend=backend,
                    )
                    slice_table, run_report = framework.run(
                        a, b[dev_slice.row_start : dev_slice.row_stop]
                    )
            except ReproError as exc:
                if classify(exc) is not Disposition.DEGRADE:
                    raise
                dropped.append(dev_slice.device_index)
                obs.counters.add(DEVICES_DROPPED)
                survivors = [
                    s.device_index
                    for s in active
                    if s.device_index not in dropped
                ]
                if not survivors:
                    raise ShardExecutionError(
                        f"run_multi_gpu: every device lost (last: device "
                        f"{dev_slice.device_index}); no survivors to "
                        f"re-partition onto"
                    ) from exc
                for sub in partition_database(
                    dev_slice.n_rows, len(survivors), align=config.n_r
                ):
                    if sub.is_empty:
                        continue
                    pending.append(
                        DeviceSlice(
                            device_index=survivors[sub.device_index],
                            row_start=dev_slice.row_start + sub.row_start,
                            row_stop=dev_slice.row_start + sub.row_stop,
                        )
                    )
                continue
            table[:, dev_slice.row_start : dev_slice.row_stop] = slice_table
            if run_report.resilience is not None:
                sub_reports.append(run_report.resilience)
            report.per_device.append(
                EndToEndEstimate(
                    device=arch.name,
                    algorithm=algorithm.value,
                    m=run_report.m,
                    n=run_report.n,
                    k_bits=run_report.k_bits,
                    init_s=run_report.init_s,
                    h2d_s=run_report.h2d_s,
                    kernel_s=run_report.kernel_s,
                    d2h_s=run_report.d2h_s,
                    end_to_end_s=run_report.end_to_end_s,
                    n_tiles=run_report.n_tiles,
                    kernel_word_ops=run_report.word_ops,
                )
            )
    report.dropped_devices = dropped
    report.n_devices_used = len(active) - len(dropped)
    if res.active:
        events = tuple(res.injector.fired()[events_before:])
        totals = ResilienceReport.combine(sub_reports)
        report.resilience = ResilienceReport(
            faults_injected=len(events),
            retries=totals.retries,
            quarantined=totals.quarantined,
            tiles_verified=totals.tiles_verified,
            verify_mismatches=totals.verify_mismatches,
            devices_dropped=len(dropped),
            events=events,
        )
    return table, report


def estimate_multi_gpu(
    system: MultiGPUSystem,
    algorithm: Algorithm | str,
    m: int,
    n: int,
    k_bits: int,
    double_buffering: bool = True,
) -> MultiGPUReport:
    """Price a multi-GPU run at arbitrary (paper+) scale."""
    algorithm = Algorithm(algorithm) if isinstance(algorithm, str) else algorithm
    config = derive_config(system.device, algorithm)
    slices = partition_database(n, system.n_devices, align=config.n_r)
    active = [s for s in slices if not s.is_empty]
    if not active:
        raise ModelError("estimate_multi_gpu: empty database")
    arch = _adjusted_arch(system, len(active))
    report = MultiGPUReport(
        system=system.name,
        algorithm=algorithm.value,
        n_devices_used=len(active),
        slices=slices,
    )
    for dev_slice in active:
        report.per_device.append(
            estimate_end_to_end(
                arch,
                algorithm,
                m,
                dev_slice.n_rows,
                k_bits,
                double_buffering=double_buffering,
            )
        )
    return report


def scaling_series(
    system: MultiGPUSystem,
    algorithm: Algorithm | str,
    m: int,
    n: int,
    k_bits: int,
) -> list[dict[str, float]]:
    """Strong-scaling sweep: 1..n_devices over a fixed problem."""
    single = estimate_multi_gpu(system.subsystem(1), algorithm, m, n, k_bits)
    baseline = single.makespan_s
    series = []
    d = 1
    counts = []
    while d < system.n_devices:
        counts.append(d)
        d *= 2
    counts.append(system.n_devices)
    for count in counts:
        rep = estimate_multi_gpu(system.subsystem(count), algorithm, m, n, k_bits)
        series.append(
            {
                "devices": count,
                "makespan_s": rep.makespan_s,
                "speedup": rep.speedup_over(baseline),
                "efficiency": rep.parallel_efficiency(baseline),
            }
        )
    return series
