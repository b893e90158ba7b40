"""The portable SNP-comparison framework: the paper's headline artifact.

:class:`SNPComparisonFramework` ties the stack together the way the
OpenCL implementation does:

1. select a device (by name or architecture object),
2. derive the software configuration from its hardware features
   (:mod:`repro.core.planner`; users "only identify the hardware
   features of the GPU"),
3. compile the parameterized kernel against the device,
4. pack the binary operands into padded device bitvectors,
5. price the tiled, double-buffered transfer/compute/read pipeline on
   the simulated device (a timing-only schedule),
6. compute the comparison table once on the host, crop padding and
   return it plus an itemized :class:`~repro.core.profiles.RunReport`.

Step 6 alone is :meth:`SNPComparisonFramework.compute`, for callers
that never read a report (the identity service).

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
from repro.errors import ConfigurationError, DatasetError, KernelLaunchError
from repro.gpu.arch import GPUArchitecture, get_gpu
from repro.gpu.device import CommandQueue, Context, Device
from repro.gpu.kernel import SnpKernel
from repro.kernels import get_backend
from repro.observability.counters import SIM_DEVICE_SECONDS
from repro.observability.report import MetricsReport
from repro.observability.tracer import get_tracer
from repro.parallel.engine import ParallelReport, get_engine
from repro.resilience.report import ResilienceReport
from repro.resilience.runtime import get_resilience
from repro.util.bitops import words_needed
from repro.util.validation import check_workers

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
        Host threads for the table (:mod:`repro.parallel`): ``None`` or
        ``1`` computes it as one shard on the caller's thread; a larger
        integer shards it across the process-wide pool once the table
        reaches the engine's crossover, with self-comparisons on the
        triangular plan.  Results stay bit-exact and the simulated
        device timing is unchanged.  Anything else raises
        :class:`~repro.errors.ConfigurationError`.
    backend:
        Kernel-ABI backend (:mod:`repro.kernels`) for the host table:
        ``"auto"`` (``REPRO_BACKEND`` env, then the shape rule:
        ``cnative`` once loaded, else ``numpy``/``blas`` by the shorter
        operand's rows) or an explicit registered name such as
        ``"numpy"``, ``"blas"`` or ``"cnative"``, which runs as named.
    """

    def __init__(
        self,
        device: str | GPUArchitecture,
        algorithm: Algorithm | str = Algorithm.LD,
        config: KernelConfig | None = None,
        prenegate: bool | None = None,
        double_buffering: bool = True,
        workers: int | None = None,
        backend: str = "auto",
    ) -> None:
        self.arch = get_gpu(device) if isinstance(device, str) else device
        self.algorithm = (
            Algorithm(algorithm) if isinstance(algorithm, str) else algorithm
        )
        self.prenegate = prenegate
        self.double_buffering = double_buffering
        if workers is not None:
            check_workers("SNPComparisonFramework: workers", workers)
        self.workers = workers
        if backend != "auto":
            get_backend(backend)  # unknown names fail at construction
        self.backend = backend
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
        table, report = self.run_packed(a, b)
        if obs.enabled:
            report.metrics = MetricsReport.from_delta(
                obs, counters_before, spans_before
            )
        return table, report

    def run_packed(
        self, a: PackedOperand, b: PackedOperand
    ) -> tuple[np.ndarray, RunReport]:
        """Run with pre-packed operands; returns (cropped table, report).

        The simulated device schedule (:func:`run_pipeline`) prices the
        run first -- its ``alloc``/``kernel`` fault hooks fire at the
        same ordinals as a device would see them -- then :meth:`compute`
        produces the table.
        """
        self._check_operands(a, b)
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
            profiles, plan = run_pipeline(
                queue,
                self.kernel,
                a.padded_rows,
                b.padded_rows,
                a.k_words,
                double_buffering=self.double_buffering,
            )
            table, parallel = self.compute(a, b)
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
            backend=parallel.backend,
            parallel=parallel,
        )
        if obs.enabled:
            report.metrics = MetricsReport.from_delta(
                obs, counters_before, spans_before
            )
        if res.active:
            events = tuple(res.injector.fired()[events_before:])
            engine = parallel.resilience or ResilienceReport()
            report.resilience = ResilienceReport(
                faults_injected=len(events),
                retries=engine.retries + sum(p.retries for p in profiles),
                quarantined=engine.quarantined,
                tiles_verified=engine.tiles_verified,
                verify_mismatches=engine.verify_mismatches,
                events=events,
            )
        return table, report

    def compute(
        self, a: PackedOperand, b: PackedOperand
    ) -> tuple[np.ndarray, ParallelReport]:
        """The cropped table of two packed operands, and the engine's report.

        One host call on the kernel's blocking plan.  No simulated device
        runs, so no ``alloc``/``kernel`` fault hook fires here.
        """
        self._check_operands(a, b)
        op = self.kernel.op
        plan = self.kernel.blocking_plan(a.padded_rows, b.padded_rows, a.k_words)
        with get_tracer().span(
            "kernel.execute",
            kernel=f"snp_{op.value}",
            device=self.arch.name,
            m=plan.m,
            n=plan.n,
            k=plan.k,
        ):
            raw, parallel = get_engine(self.workers or 1, self.backend).run(
                a.words, b.words, op, plan=plan
            )
        if raw.shape == (a.n_rows, b.n_rows):
            # No padding to strip, and the host call allocated ``raw``
            # for this call alone: hand it over without a copy.
            return raw, parallel
        return crop_result(raw, a, b), parallel

    def _check_operands(self, a: PackedOperand, b: PackedOperand) -> None:
        if a.n_bits != b.n_bits:
            raise ConfigurationError(
                f"compute: operands cover different site counts "
                f"({a.n_bits} vs {b.n_bits})"
            )
        if a.n_bits == 0:
            raise DatasetError(
                "compute: operands have zero sites; there is nothing "
                "to compare"
            )
        expected = np.uint32 if self.arch.word_bits == 32 else np.uint64
        if a.words.dtype != expected or b.words.dtype != expected:
            raise KernelLaunchError(
                f"compute: operands must be {expected.__name__} on "
                f"{self.arch.name}, got {a.words.dtype}/{b.words.dtype}"
            )
        k = words_needed(a.n_bits, self.arch.word_bits)
        if a.words.ndim != 2 or b.words.ndim != 2 or (a.k_words, b.k_words) != (k, k):
            raise KernelLaunchError(
                f"compute: operand shapes {a.words.shape} / "
                f"{b.words.shape} inconsistent with {a.n_bits} sites "
                f"({k} words)"
            )

    # -- baselines ---------------------------------------------------------------

    def cpu_reference_seconds(self, m: int, n: int, k_bits: int) -> float:
        """Modeled CPU-baseline time for the same problem (Fig. 6 line)."""
        return self._cpu_model.execution_time(m, n, k_bits)

    def __repr__(self) -> str:
        workers = f", workers={self.workers}" if self.workers else ""
        backend = "" if self.backend == "auto" else f", backend={self.backend!r}"
        return (
            f"SNPComparisonFramework(device={self.arch.name!r}, "
            f"algorithm={self.algorithm.value!r}, op={self.config.op.value!r}, "
            f"grid={self.config.grid_rows}x{self.config.grid_cols}"
            f"{workers}{backend})"
        )
