"""The portable SNP-comparison framework: the paper's headline artifact.

:class:`SNPComparisonFramework` ties the stack together the way the
OpenCL implementation does:

1. select a device (by name or architecture object),
2. derive the software configuration from its hardware features
   (:mod:`repro.core.planner`; users "only identify the hardware
   features of the GPU"),
3. compile the parameterized kernel against the device,
4. pack the binary operands into padded device bitvectors,
5. run the tiled, double-buffered transfer/compute/read pipeline,
6. crop padding and return the comparison table plus an itemized
   :class:`~repro.core.profiles.RunReport`.

The same object also answers "what would the CPU baseline take"
(:meth:`cpu_reference_seconds`) so callers can reproduce the paper's
end-to-end comparisons directly.
"""

from __future__ import annotations

import numpy as np

from repro.blis.microkernel import ComparisonOp
from repro.core.config import Algorithm, KernelConfig
from repro.core.packing import PackedOperand, crop_result, pack_operand
from repro.core.pipeline import run_pipeline
from repro.core.planner import derive_config
from repro.core.profiles import RunReport
from repro.cpu.timing import CPUTimingModel
from repro.errors import ConfigurationError
from repro.gpu.arch import GPUArchitecture, get_gpu
from repro.gpu.device import CommandQueue, Context, Device
from repro.gpu.kernel import SnpKernel
from repro.kernels import get_backend
from repro.observability.counters import SIM_DEVICE_SECONDS
from repro.observability.report import MetricsReport
from repro.observability.tracer import get_tracer
from repro.resilience.report import ResilienceReport
from repro.resilience.runtime import get_resilience

__all__ = ["SNPComparisonFramework"]


class SNPComparisonFramework:
    """End-to-end driver for one (device, algorithm) pair.

    Parameters
    ----------
    device:
        Device name (``"GTX 980"``, ``"Titan V"``, ``"Vega 64"``, or a
        microarchitecture alias) or a :class:`GPUArchitecture`.
    algorithm:
        Which comparison to run; decides the micro-kernel and the
        core-grid tuning.
    config:
        Explicit configuration override; default derives it from the
        device's hardware features (published Table II tunings for the
        evaluation devices).
    prenegate:
        Mixture analysis only: force (or forbid) the pre-negated
        database variant; default follows the device's fused-AND-NOT
        support (Section VI-E1).
    double_buffering:
        Overlap transfers with compute (the paper's default); disable
        for the ablation comparison.
    workers:
        Host threads for the functional compute.  ``workers > 1``
        shards each kernel launch across the process-wide pool
        (:mod:`repro.parallel`); results stay bit-exact and the
        simulated device timing is unchanged.  Default (``None``)
        keeps the serial functional path.
    gram:
        Allow Gram mode: single-tile self-comparisons with a symmetric
        op compute only the upper triangle and mirror the rest (see
        ``docs/PERF.md``).  ``False`` forces the full-output path
        (useful for benchmarking the symmetry win).
    backend:
        Kernel-ABI backend (:mod:`repro.kernels`) for the functional
        tables: ``"auto"`` (``REPRO_BACKEND`` env, then the tuner's
        per-machine winner on sharded runs, then ``blis``/``blas`` by
        the size rule) or an explicit registered name such as
        ``"blas"``, ``"blis"`` or ``"cnative"``.
    """

    def __init__(
        self,
        device: str | GPUArchitecture,
        algorithm: Algorithm | str = Algorithm.LD,
        config: KernelConfig | None = None,
        prenegate: bool | None = None,
        double_buffering: bool = True,
        workers: int | None = None,
        gram: bool = True,
        backend: str = "auto",
        executor: str = "auto",
    ) -> None:
        self.arch = get_gpu(device) if isinstance(device, str) else device
        self.algorithm = (
            Algorithm(algorithm) if isinstance(algorithm, str) else algorithm
        )
        self.prenegate = prenegate
        self.double_buffering = double_buffering
        self.workers = workers
        self.gram = gram
        if backend != "auto":
            get_backend(backend)  # unknown names fail at construction
        self.backend = backend
        self.executor = executor
        self.config = config or derive_config(
            self.arch, self.algorithm, prenegate=prenegate
        )
        if self.config.n_cores > self.arch.n_c:
            raise ConfigurationError(
                f"SNPComparisonFramework: configuration uses "
                f"{self.config.n_cores} cores, device has {self.arch.n_c}"
            )
        self.kernel = SnpKernel.compile(
            self.arch,
            self.config.op,
            m_c=self.config.m_c,
            m_r=self.config.m_r,
            k_c=self.config.k_c,
            n_r=self.config.n_r,
            grid_rows=self.config.grid_rows,
            grid_cols=self.config.grid_cols,
        )
        self._cpu_model = CPUTimingModel()
        #: Command queue of the most recent :meth:`run_packed`; the CLI
        #: uses it to export the simulated device lanes alongside host
        #: spans in one merged Chrome trace.
        self.last_queue: CommandQueue | None = None

    # -- operand preparation --------------------------------------------------

    def pack(self, bits: np.ndarray, negate: bool = False) -> PackedOperand:
        """Pack a binary matrix for this framework's device."""
        return pack_operand(
            bits,
            word_bits=self.arch.word_bits,
            row_multiple=self.config.m_r,
            negate=negate,
        )

    @property
    def database_needs_prenegation(self) -> bool:
        """Whether the right operand must be packed negated."""
        return self.config.op is ComparisonOp.AND_PRENEGATED

    # -- execution --------------------------------------------------------------

    def run(
        self,
        a_bits: np.ndarray,
        b_bits: np.ndarray | None = None,
    ) -> tuple[np.ndarray, RunReport]:
        """Compare ``a_bits`` rows against ``b_bits`` rows (binary matrices).

        ``b_bits=None`` compares ``a_bits`` against itself (the LD
        case).  Mixture pre-negation is applied automatically to the
        right operand when the configuration calls for it.
        """
        # Widen the metrics window over packing too: ``run_packed``
        # scopes its own capture, so re-derive the delta from before the
        # operands were packed and overwrite the narrower report.
        obs = get_tracer()
        counters_before = obs.counters.snapshot() if obs.enabled else None
        spans_before = obs.n_spans()
        a_arr = np.asarray(a_bits)
        a = self.pack(a_arr)
        # Passing the same matrix for both operands is a self-comparison
        # too; folding it onto the b_bits=None path keeps the packed
        # operands identical, which is what Gram-mode detection keys on.
        if b_bits is not None and np.asarray(b_bits) is a_arr:
            b_bits = None
        if b_bits is None:
            b = (
                self.pack(a_arr, negate=True)
                if self.database_needs_prenegation
                else a
            )
        else:
            b = self.pack(
                np.asarray(b_bits), negate=self.database_needs_prenegation
            )
        if a.n_bits != b.n_bits:
            raise ConfigurationError(
                f"run: operands cover different site counts "
                f"({a.n_bits} vs {b.n_bits})"
            )
        table, report = self.run_packed(a, b)
        if obs.enabled:
            report.metrics = MetricsReport.from_delta(
                obs, counters_before, spans_before
            )
        return table, report

    def run_packed(
        self, a: PackedOperand, b: PackedOperand
    ) -> tuple[np.ndarray, RunReport]:
        """Run with pre-packed operands; returns (cropped table, report)."""
        obs = get_tracer()
        res = get_resilience()
        counters_before = obs.counters.snapshot() if obs.enabled else None
        spans_before = obs.n_spans()
        events_before = res.injector.n_fired()
        with obs.span(
            "framework.run",
            device=self.arch.name,
            algorithm=self.algorithm.value,
            m=a.n_rows,
            n=b.n_rows,
            k_bits=a.n_bits,
        ):
            device = Device(self.arch)
            context: Context = device.create_context()
            queue = context.create_queue()
            self.last_queue = queue

            raw, profiles, plan = run_pipeline(
                queue,
                self.kernel,
                a,
                b,
                double_buffering=self.double_buffering,
                workers=self.workers,
                symmetric=None if self.gram else False,
                backend=self.backend,
                executor=self.executor,
            )
            end_to_end = queue.finish()
            busy = queue.busy_summary()
        obs.counters.add(SIM_DEVICE_SECONDS, end_to_end)

        report = RunReport(
            device=self.arch.name,
            algorithm=self.algorithm.value,
            m=a.n_rows,
            n=b.n_rows,
            k_bits=a.n_bits,
            init_s=context.ready_at,
            h2d_s=busy["h2d"],
            kernel_s=busy["compute"],
            d2h_s=busy["d2h"],
            end_to_end_s=end_to_end,
            n_kernel_launches=len(profiles),
            n_tiles=plan.n_tiles,
            kernel_profiles=profiles,
        )
        if obs.enabled:
            report.metrics = MetricsReport.from_delta(
                obs, counters_before, spans_before
            )
        if res.active:
            events = tuple(res.injector.fired()[events_before:])
            engine_totals = ResilienceReport.combine(
                p.parallel.resilience
                for p in profiles
                if p.parallel is not None and p.parallel.resilience is not None
            )
            # Process-executor runs ship injector events fired inside
            # worker processes (plus synthesized worker-lost records);
            # the engine absorbs them into this process's injector log
            # under an active context, so one slice covers thread,
            # serial and process runs alike.
            report.resilience = ResilienceReport(
                faults_injected=len(events),
                retries=engine_totals.retries
                + sum(p.retries for p in profiles),
                quarantined=engine_totals.quarantined,
                tiles_verified=engine_totals.tiles_verified,
                verify_mismatches=engine_totals.verify_mismatches,
                workers_lost=engine_totals.workers_lost,
                events=events,
            )
        return crop_result(raw, a, b), report

    # -- baselines ---------------------------------------------------------------

    def cpu_reference_seconds(self, m: int, n: int, k_bits: int) -> float:
        """Modeled CPU-baseline time for the same problem (Fig. 6 line)."""
        return self._cpu_model.execution_time(m, n, k_bits)

    def __repr__(self) -> str:
        workers = f", workers={self.workers}" if self.workers else ""
        gram = "" if self.gram else ", gram=False"
        backend = "" if self.backend == "auto" else f", backend={self.backend!r}"
        executor = (
            "" if self.executor == "auto" else f", executor={self.executor!r}"
        )
        return (
            f"SNPComparisonFramework(device={self.arch.name!r}, "
            f"algorithm={self.algorithm.value!r}, op={self.config.op.value!r}, "
            f"grid={self.config.grid_rows}x{self.config.grid_cols}"
            f"{workers}{gram}{backend}{executor})"
        )
