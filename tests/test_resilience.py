"""Tests for repro.resilience: faults, retry, engine/multi-GPU tolerance.

Covers the fault-injection schedule language, the deterministic
injector, retry/backoff policy and classification, the engine's
degradation ladder (retry -> quarantine -> ShardExecutionError), spot
verification against bit flips, multi-GPU degraded mode, the chaos
harness, and the satellite hardening (streaming input validation).
"""

import numpy as np
import pytest

from repro.blis.gemm import bit_gemm_reference
from repro.blis.microkernel import ComparisonOp
from repro.cli import main
from repro.core.config import Algorithm
from repro.core.framework import SNPComparisonFramework
from repro.core.ld import linkage_disequilibrium
from repro.core.streaming import StreamingIdentitySearch
from repro.errors import (
    AllocationError,
    ConfigurationError,
    DatasetError,
    FaultInjectedError,
    KernelLaunchError,
    ModelError,
    PackingError,
    ShardExecutionError,
)
from repro.multigpu.executor import run_multi_gpu
from repro.multigpu.system import QUAD_GTX980
from repro.parallel.engine import ParallelEngine
from repro.resilience import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    NULL_INJECTOR,
    ResilienceContext,
    ResilienceReport,
    RetryPolicy,
    call_with_retry,
    classify,
    get_resilience,
    resilient,
)
from repro.resilience.chaos import SCENARIOS, run_chaos_case
from repro.resilience.retry import Disposition
from repro.snp.generator import PopulationModel, generate_population
from repro.snp.io import write_snptxt
from repro.util.bitops import pack_bits


@pytest.fixture(scope="module")
def operands():
    rng = np.random.default_rng(11)
    bits_a = (rng.random((48, 400)) < 0.4).astype(np.uint8)
    bits_b = (rng.random((40, 400)) < 0.5).astype(np.uint8)
    return pack_bits(bits_a, 32), pack_bits(bits_b, 32)


def fast_policy(**kwargs) -> RetryPolicy:
    """A retry policy that never sleeps (tests assert schedules instead)."""
    kwargs.setdefault("max_attempts", 4)
    kwargs.setdefault("base_delay_s", 0.0)
    kwargs.setdefault("jitter", 0.0)
    return RetryPolicy(**kwargs)


# -- spec language -------------------------------------------------------------


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="gamma-ray")

    def test_negative_target_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="shard", target=-1)

    def test_nonpositive_count_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="shard", count=0)

    def test_token_round_trip(self):
        for spec in (
            FaultSpec(kind="kernel"),
            FaultSpec(kind="shard", target=3),
            FaultSpec(kind="slow", target=1, count=2),
        ):
            plan = FaultPlan.from_spec(spec.to_token())
            assert plan.specs == (spec,)


class TestFaultPlan:
    def test_from_spec_parses_targets_counts_and_seed(self):
        plan = FaultPlan.from_spec("kernel:1, shard@0:2 ,slow@1,bitflip@0,seed=7")
        assert plan.seed == 7
        assert plan.count("kernel") == 1
        assert plan.count("shard") == 2
        assert plan.count("slow") == 1
        assert plan.count("bitflip") == 1
        assert plan.n_scheduled == 5

    def test_spec_round_trip(self):
        plan = FaultPlan.from_spec("kernel:2,shard@1:2,device@3,seed=9")
        assert FaultPlan.from_spec(plan.to_spec()) == plan

    @pytest.mark.parametrize(
        "bad", ["bogus", "kernel:x", "shard@y", "seed=z", "shard@1:0"]
    )
    def test_bad_tokens_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_spec(bad)

    def test_random_is_seed_deterministic(self):
        assert FaultPlan.random(42) == FaultPlan.random(42)
        assert FaultPlan.random(1) != FaultPlan.random(2)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_respects_target_bound(self, seed):
        plan = FaultPlan.random(seed, max_shard_target=1)
        for spec in plan.specs:
            if spec.kind in ("shard", "slow", "bitflip"):
                assert 0 <= spec.target <= 1


# -- injector ------------------------------------------------------------------


class TestFaultInjector:
    def test_kernel_fires_on_scheduled_ordinals_only(self):
        injector = FaultInjector(FaultPlan.from_spec("kernel@1:2"))
        injector.check("kernel")  # ordinal 0: clean
        with pytest.raises(FaultInjectedError):
            injector.check("kernel")  # ordinal 1
        with pytest.raises(FaultInjectedError):
            injector.check("kernel")  # ordinal 2
        injector.check("kernel")  # ordinal 3: past the burst
        assert injector.fired_count("kernel") == 2

    def test_device_fault_is_permanent(self):
        injector = FaultInjector(FaultPlan.from_spec("device@2"))
        injector.check("device", target=1)  # other device: clean
        for _ in range(3):  # lost devices never come back
            with pytest.raises(FaultInjectedError) as err:
                injector.check("device", target=2)
            assert err.value.kind == "device"

    def test_shard_sequence_consumes_shard_then_slow(self):
        sleeps = []
        plan = FaultPlan.from_spec("shard@0:2,slow@0:1")
        injector = FaultInjector(plan, sleep=sleeps.append)
        kinds = []
        for attempt in range(4):
            try:
                injector.check_shard(0, attempt)
                kinds.append("ok")
            except FaultInjectedError as exc:
                kinds.append(exc.kind)
        assert kinds == ["shard", "shard", "slow", "ok"]
        assert sleeps == [plan.slow_delay_s]
        injector.check_shard(1, 0)  # untargeted shard: clean
        assert injector.n_fired() == 3

    def test_corrupt_block_flips_one_value_within_budget(self):
        plan = FaultPlan.from_spec("bitflip@0,seed=5")
        block = np.arange(24, dtype=np.int64).reshape(4, 6)
        first = FaultInjector(plan).corrupt_block(block, 0)
        assert (first != block).sum() == 1
        # Deterministic: a second injector corrupts identically.
        assert np.array_equal(FaultInjector(plan).corrupt_block(block, 0), first)

    def test_corrupt_block_budget_exhausts(self):
        injector = FaultInjector(FaultPlan.from_spec("bitflip@0"))
        block = np.ones((3, 3), dtype=np.int64)
        assert not np.array_equal(injector.corrupt_block(block, 0), block)
        # Budget spent: subsequent calls pass the block through.
        assert np.array_equal(injector.corrupt_block(block, 0), block)
        # Untargeted shard never corrupted.
        assert np.array_equal(injector.corrupt_block(block, 1), block)

    def test_null_injector_is_inert(self):
        block = np.ones((2, 2), dtype=np.int64)
        NULL_INJECTOR.check("kernel")
        NULL_INJECTOR.check_shard(0, 0)
        assert NULL_INJECTOR.corrupt_block(block, 0) is block
        assert NULL_INJECTOR.n_fired() == 0
        assert not NULL_INJECTOR.enabled


# -- retry policy and classification -------------------------------------------


class TestRetryPolicy:
    def test_backoff_schedule_is_seed_deterministic(self):
        a = RetryPolicy(max_attempts=5, seed=3)
        b = RetryPolicy(max_attempts=5, seed=3)
        assert [a.backoff_delay(i) for i in range(4)] == [
            b.backoff_delay(i) for i in range(4)
        ]

    def test_backoff_grows_and_caps_without_jitter(self):
        policy = RetryPolicy(
            max_attempts=8,
            base_delay_s=0.001,
            multiplier=2.0,
            max_delay_s=0.004,
            jitter=0.0,
        )
        delays = [policy.backoff_delay(i) for i in range(4)]
        assert delays == [0.001, 0.002, 0.004, 0.004]

    def test_wait_uses_injected_sleep(self):
        slept = []
        policy = RetryPolicy(
            max_attempts=3,
            base_delay_s=0.5,
            max_delay_s=2.0,
            jitter=0.0,
            sleep=slept.append,
        )
        policy.wait(0)
        policy.wait(1)
        assert slept == [0.5, 1.0]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"jitter": 2.0},
            {"multiplier": 0.5},
            {"base_delay_s": -1.0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)


class TestClassify:
    @pytest.mark.parametrize("kind", ["kernel", "alloc", "shard", "slow"])
    def test_injected_transients_retry(self, kind):
        exc = FaultInjectedError("x", kind=kind, target=0, attempt=0)
        assert classify(exc) is Disposition.RETRY

    def test_device_lost_degrades(self):
        exc = FaultInjectedError("x", kind="device", target=0, attempt=0)
        assert classify(exc) is Disposition.DEGRADE

    def test_allocation_error_retries(self):
        assert classify(AllocationError("oom")) is Disposition.RETRY

    @pytest.mark.parametrize(
        "exc",
        [
            ConfigurationError("x"),
            PackingError("x"),
            DatasetError("x"),
            ModelError("x"),
            KernelLaunchError("x"),
            ValueError("x"),
        ],
    )
    def test_everything_else_is_fatal(self, exc):
        assert classify(exc) is Disposition.FATAL


class TestCallWithRetry:
    def test_recovers_after_transient_failures(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise FaultInjectedError(
                    "t", kind="alloc", target=0, attempt=len(calls)
                )
            return "ok"

        seen = []
        result = call_with_retry(
            flaky, fast_policy(), on_retry=lambda i, e: seen.append(i)
        )
        assert result == "ok"
        assert len(calls) == 3
        assert seen == [0, 1]

    def test_exhausted_budget_raises_last_error(self):
        def always():
            raise FaultInjectedError("t", kind="shard", target=0, attempt=0)

        with pytest.raises(FaultInjectedError):
            call_with_retry(always, fast_policy(max_attempts=2))

    def test_fatal_error_is_not_retried(self):
        calls = []

        def fatal():
            calls.append(1)
            raise DatasetError("bad data")

        with pytest.raises(DatasetError):
            call_with_retry(fatal, fast_policy())
        assert len(calls) == 1


# -- context -------------------------------------------------------------------


class TestResilienceContext:
    def test_default_context_is_inactive(self):
        assert not ResilienceContext().active
        assert not get_resilience().active

    def test_activation_criteria(self):
        assert ResilienceContext(policy=fast_policy(max_attempts=2)).active
        assert ResilienceContext(verify_sample=0.5).active
        plan = FaultPlan.from_spec("kernel:1")
        assert ResilienceContext(injector=FaultInjector(plan)).active

    def test_verify_sample_validated(self):
        with pytest.raises(ConfigurationError):
            ResilienceContext(verify_sample=1.5)

    def test_should_verify_extremes_and_determinism(self):
        assert not ResilienceContext(verify_sample=0.0).should_verify(0)
        assert ResilienceContext(verify_sample=1.0).should_verify(7)
        ctx = ResilienceContext(verify_sample=0.5, verify_seed=3)
        picks = [ctx.should_verify(i) for i in range(64)]
        assert picks == [ctx.should_verify(i) for i in range(64)]
        assert any(picks) and not all(picks)

    def test_resilient_scope_restores_previous(self):
        before = get_resilience()
        with resilient(plan="kernel:1") as ctx:
            assert get_resilience() is ctx
            assert ctx.active
        assert get_resilience() is before


class TestResilienceReport:
    def test_clean_and_combine(self):
        assert ResilienceReport().clean
        total = ResilienceReport.combine(
            [
                ResilienceReport(faults_injected=1, retries=2),
                ResilienceReport(quarantined=1, devices_dropped=3),
            ]
        )
        assert not total.clean
        assert (total.faults_injected, total.retries) == (1, 2)
        assert (total.quarantined, total.devices_dropped) == (1, 3)

    def test_summary_mentions_fired_events(self):
        report = ResilienceReport(
            faults_injected=1,
            events=(
                __import__(
                    "repro.resilience.faults", fromlist=["FiredFault"]
                ).FiredFault(kind="shard", target=0, attempt=0, site="shard"),
            ),
        )
        assert "shard@0#0" in str(report)


# -- engine degradation ladder -------------------------------------------------


class TestEngineResilience:
    def test_transient_shard_faults_retry_to_bit_exact(self, operands):
        a, b = operands
        reference = bit_gemm_reference(a, b, ComparisonOp.AND)
        engine = ParallelEngine(workers=2, backend="blas")
        with resilient(plan="shard@0:2,slow@1:1", policy=fast_policy()):
            c, report = engine.run(a, b, ComparisonOp.AND, force_parallel=True)
        assert np.array_equal(c, reference)
        res = report.resilience
        assert res is not None
        assert res.faults_injected == 3
        assert res.retries == 3
        assert res.quarantined == 0
        assert report.n_retries == 3

    def test_exhausted_budget_quarantines_bit_exact(self, operands):
        a, b = operands
        reference = bit_gemm_reference(a, b, ComparisonOp.XOR)
        engine = ParallelEngine(workers=2, backend="blas")
        with resilient(
            plan="shard@0:3", policy=fast_policy(max_attempts=2)
        ):
            c, report = engine.run(a, b, ComparisonOp.XOR, force_parallel=True)
        assert np.array_equal(c, reference)
        assert report.n_quarantined == 1
        assert report.resilience.quarantined == 1
        profile = report.shard_profiles[0]
        assert profile.quarantined and profile.retries == 1

    def test_quarantine_disabled_raises_shard_error(self, operands):
        a, b = operands
        engine = ParallelEngine(workers=2, backend="blas")
        with resilient(
            plan="shard@0:3",
            policy=fast_policy(max_attempts=2, quarantine=False),
        ):
            with pytest.raises(ShardExecutionError) as err:
                engine.run(a, b, ComparisonOp.AND, force_parallel=True)
        assert err.value.shard_id == 0
        assert "after 2 attempt(s)" in str(err.value)

    def test_bitflip_caught_by_spot_verification(self, operands):
        a, b = operands
        reference = bit_gemm_reference(a, b, ComparisonOp.AND)
        engine = ParallelEngine(workers=2, backend="blas")
        with resilient(plan="bitflip@0,seed=3", verify_sample=1.0):
            c, report = engine.run(a, b, ComparisonOp.AND, force_parallel=True)
        assert np.array_equal(c, reference)
        res = report.resilience
        assert res.verify_mismatches == 1
        assert res.tiles_verified == len(report.shard_profiles)

    def test_bitflip_unverified_corrupts_silently(self, operands):
        # The negative control: without verification the flip lands --
        # proving the guard (not luck) restores bit-exactness above.
        a, b = operands
        reference = bit_gemm_reference(a, b, ComparisonOp.AND)
        engine = ParallelEngine(workers=2, backend="blas")
        with resilient(plan="bitflip@0,seed=3"):
            c, _ = engine.run(a, b, ComparisonOp.AND, force_parallel=True)
        assert not np.array_equal(c, reference)
        assert (c != reference).sum() == 1

    def test_serial_path_shares_the_fault_model(self, operands):
        a, b = operands
        reference = bit_gemm_reference(a, b, ComparisonOp.AND)
        engine = ParallelEngine(workers=1)
        with resilient(plan="shard@0:1", policy=fast_policy()):
            c, report = engine.run(a, b, ComparisonOp.AND)
        assert not report.used_parallel
        assert np.array_equal(c, reference)
        assert report.n_retries == 1
        assert report.resilience.faults_injected == 1

    def test_inactive_context_reports_no_resilience(self, operands):
        a, b = operands
        engine = ParallelEngine(workers=2, backend="blas")
        c, report = engine.run(a, b, ComparisonOp.AND, force_parallel=True)
        assert report.resilience is None
        assert np.array_equal(c, bit_gemm_reference(a, b, ComparisonOp.AND))


# -- framework-level hooks (kernel launches, allocations) ----------------------


class TestFrameworkResilience:
    @pytest.fixture(scope="class")
    def dataset(self):
        rng = np.random.default_rng(23)
        a = rng.integers(0, 2, size=(24, 256), dtype=np.uint8)
        b = rng.integers(0, 2, size=(16, 256), dtype=np.uint8)
        return a, b

    def test_kernel_launch_retry_is_bit_exact(self, dataset):
        a, b = dataset
        framework = SNPComparisonFramework("GTX 980", Algorithm.LD)
        reference, _ = framework.run(a, b)
        with resilient(plan="kernel:1", policy=fast_policy()):
            table, report = framework.run(a, b)
        assert np.array_equal(table, reference)
        res = report.resilience
        assert res is not None
        assert res.faults_injected == 1
        assert res.retries == 1

    def test_allocation_fault_retries_through_pipeline(self, dataset):
        a, b = dataset
        framework = SNPComparisonFramework("GTX 980", Algorithm.LD)
        reference, _ = framework.run(a, b)
        with resilient(plan="alloc:1", policy=fast_policy()):
            table, _ = framework.run(a, b)
        assert np.array_equal(table, reference)

    def test_allocation_fault_fatal_without_budget(self, dataset):
        a, b = dataset
        framework = SNPComparisonFramework("GTX 980", Algorithm.LD)
        with resilient(plan="alloc:1"):
            with pytest.raises(FaultInjectedError):
                framework.run(a, b)

    def test_serial_run_verifies_and_faults_shard_zero(self):
        # Without workers the table is one shard, shard 0: the bit flip
        # lands on it and full verification repairs it.
        cohort = np.random.default_rng(29).integers(
            0, 2, size=(64, 300), dtype=np.uint8
        )
        reference = linkage_disequilibrium(cohort)
        with resilient(plan="bitflip@0,seed=3", verify_sample=1.0):
            result = linkage_disequilibrium(cohort)
        assert not result.report.parallel.used_parallel
        assert np.array_equal(result.counts, reference.counts)
        res = result.report.resilience
        assert res.faults_injected == 1
        assert res.tiles_verified == 1
        assert res.verify_mismatches == 1


# -- multi-GPU degraded mode ---------------------------------------------------


class TestMultiGPUDegradation:
    @pytest.fixture(scope="class")
    def dataset(self):
        rng = np.random.default_rng(31)
        a = rng.integers(0, 2, size=(8, 128), dtype=np.uint8)
        b = rng.integers(0, 2, size=(4096, 128), dtype=np.uint8)
        return a, b

    def test_lost_device_repartitions_bit_exact(self, dataset):
        a, b = dataset
        reference, ref_report = run_multi_gpu(QUAD_GTX980, "ld", a, b)
        assert ref_report.n_devices_used > 1  # the fault must have a target
        with resilient(plan="device@1"):
            table, report = run_multi_gpu(QUAD_GTX980, "ld", a, b)
        assert np.array_equal(table, reference)
        assert report.dropped_devices == [1]
        assert report.n_devices_used == ref_report.n_devices_used - 1
        res = report.resilience
        assert res is not None
        assert res.devices_dropped == 1
        assert res.faults_injected >= 1

    def test_all_devices_lost_raises(self, dataset):
        a, b = dataset
        spec = ",".join(f"device@{i}" for i in range(4))
        with resilient(plan=spec):
            with pytest.raises(ShardExecutionError, match="every device lost"):
                run_multi_gpu(QUAD_GTX980, "ld", a, b)


# -- chaos harness -------------------------------------------------------------


class TestChaos:
    @pytest.mark.parametrize("seed", [1, 4])
    def test_randomized_schedule_bit_exact_with_exact_counters(self, seed):
        # Default sizing keeps the run above the parallel crossover,
        # so shard-addressed faults have real shards to hit.
        result = run_chaos_case("identity", seed)
        assert result.bit_exact
        assert result.counters_match, (
            f"expected {result.expected}, observed {result.observed}"
        )
        assert result.passed

    def test_unknown_app_rejected(self):
        with pytest.raises(ConfigurationError):
            run_chaos_case("nosuch", 1)

    @pytest.mark.parametrize("scenario", list(SCENARIOS))
    def test_every_registered_scenario_passes(self, scenario):
        result = run_chaos_case(scenario, 1)
        assert result.scenario == scenario
        assert result.passed, result.summary()

    def test_cli_runs_the_registry(self, capsys):
        from repro.resilience.chaos import main as chaos_main

        assert chaos_main(["--scenarios", "ld,latency", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "scenario=ld seed=2" in out
        assert "scenario=latency seed=2" in out
        assert "2/2 cases passed" in out
        with pytest.raises(SystemExit) as exc:
            chaos_main(["--scenarios", "nosuch"])
        assert exc.value.code == 2
        for removed in ("--apps", "--device", "--rows", "--sites", "--workers"):
            with pytest.raises(SystemExit):
                chaos_main([removed, "1"])


# -- CLI flags -----------------------------------------------------------------


class TestCLIResilience:
    @pytest.fixture
    def dataset_file(self, tmp_path):
        ds = generate_population(PopulationModel(16, 48, block_size=8), rng=0)
        path = tmp_path / "panel.snptxt"
        write_snptxt(path, ds)
        return str(path)

    def test_ld_with_injection_recovers_and_reports(self, dataset_file, capsys):
        code = main(
            [
                "ld",
                "--input",
                dataset_file,
                "--inject-faults",
                "kernel:1,seed=2",
                "--retries",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "faults injected" in out

    def test_bad_fault_spec_is_a_usage_error(self, dataset_file):
        code = main(
            ["ld", "--input", dataset_file, "--inject-faults", "bogus-kind"]
        )
        assert code == 2

    @pytest.mark.parametrize("kind", ["kernel", "alloc", "device"])
    def test_serve_refuses_fault_kinds_without_a_service_hook(
        self, dataset_file, kind, capsys
    ):
        # A served search never schedules the simulated device, and
        # ``device`` faults exist only in the multi-GPU executor: such a
        # plan would silently inject nothing, so it is a usage error.
        code = main([
            "serve", "--database", dataset_file, "--port", "0",
            "--inject-faults", f"{kind}:1,latency:1",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"--inject-faults {kind} cannot fire in the service" in err
        assert (
            "shard, slow, bitflip, latency, disk-corrupt, client-disconnect"
            in err
        )


# -- satellite: streaming input validation -------------------------------------


class TestStreamingValidation:
    def make_search(self):
        rng = np.random.default_rng(2)
        queries = rng.integers(0, 2, size=(3, 64), dtype=np.uint8)
        return StreamingIdentitySearch(queries, k=2, device="GTX 980")

    def test_rejects_wrong_rank_queries(self):
        with pytest.raises(DatasetError, match="2-D"):
            StreamingIdentitySearch(np.ones(8, dtype=np.uint8))

    def test_rejects_float_queries(self):
        with pytest.raises(DatasetError, match="dtype"):
            StreamingIdentitySearch(np.ones((2, 8), dtype=np.float64))

    def test_rejects_nonbinary_queries(self):
        bad = np.full((2, 8), 2, dtype=np.uint8)
        with pytest.raises(DatasetError, match="non-binary"):
            StreamingIdentitySearch(bad)

    def test_accepts_bool_queries(self):
        search = StreamingIdentitySearch(np.ones((2, 64), dtype=bool))
        assert search.n_queries == 2

    def test_bad_batch_fails_before_state_mutation(self):
        search = self.make_search()
        good = np.zeros((4, 64), dtype=np.uint8)
        search.add_batch(good)
        before = [search.matches(i) for i in range(search.n_queries)]
        for bad in (
            np.ones(64, dtype=np.uint8),  # wrong rank
            np.ones((4, 64), dtype=np.float32),  # wrong dtype
            np.full((4, 64), 3, dtype=np.int64),  # non-binary
            np.full((4, 64), -1, dtype=np.int8),  # negative
        ):
            with pytest.raises(DatasetError):
                search.add_batch(bad)
        assert search.rows_seen == 4
        assert search.batches_seen == 1
        assert [search.matches(i) for i in range(search.n_queries)] == before

