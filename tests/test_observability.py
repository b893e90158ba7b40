"""Observability layer: tracer, counters, trace export, regression gate.

Covers the invariants the layer promises:

* span nesting and thread attribution in the recording tracer;
* counter *exactness* -- POPC word-ops equal the closed form
  ``m * n * k`` on every execution path (serial drivers, sharded engine
  across worker counts and shard strategies), and packed bytes equal
  ``padded_rows * k_words * word_bytes``;
* the disabled default is a true no-op (shared null span, null
  counters, nothing recorded);
* the merged Chrome-trace export is schema-valid JSON with one host
  pid plus one pid per simulated device;
* the regression gate round-trips record -> compare cleanly and fails
  on a synthetic 2x slowdown, an exact-counter drift, and a missing
  metric.
"""

import json
import threading

import numpy as np
import pytest

from repro.blis.gemm import bit_gemm, bit_gemm_blocked
from repro.core.framework import SNPComparisonFramework
from repro.observability import (
    GEMM_CALLS,
    GEMM_WORD_OPS,
    KERNEL_LAUNCHES,
    NULL_TRACER,
    PACK_BYTES,
    PACK_OPERANDS,
    SHARDS_EXECUTED,
    MetricsReport,
    NullTracer,
    Tracer,
    disable,
    enable,
    get_tracer,
    merged_trace_events,
    set_tracer,
    write_merged_trace,
)
from repro.observability.regress import (
    DETERMINISTIC_COUNTERS,
    Metric,
    compare_metrics,
    load_metrics,
    metric,
    record_baseline,
    run_counted,
    write_metrics,
)
from repro.parallel.engine import ParallelEngine
from repro.util.bitops import pack_bits


@pytest.fixture(autouse=True)
def _restore_tracer():
    """Every test leaves the process tracer as it found it (disabled)."""
    previous = set_tracer(None)
    yield
    set_tracer(previous)


def make_packed(m, n, k_words, word_bits=32, seed=0):
    rng = np.random.default_rng(seed)
    sites = k_words * word_bits
    a = (rng.random((m, sites)) < 0.4).astype(np.uint8)
    b = (rng.random((n, sites)) < 0.4).astype(np.uint8)
    return pack_bits(a, word_bits), pack_bits(b, word_bits)


# -- tracer ---------------------------------------------------------------------


class TestTracer:
    def test_nesting_records_parent_and_depth(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
        records = {r.name: r for r in tracer.spans()}
        assert records["outer"].depth == 0
        assert records["outer"].parent_id is None
        assert records["inner"].depth == 1
        assert records["inner"].parent_id == records["outer"].span_id
        assert outer.name == "outer"

    def test_completion_order_and_durations(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        names = [r.name for r in tracer.spans()]
        assert names == ["b", "a"]  # inner closes first
        for record in tracer.spans():
            assert record.end >= record.start

    def test_attrs_via_kwargs_and_set(self):
        tracer = Tracer()
        with tracer.span("s", m=3).set(n=4):
            pass
        (record,) = tracer.spans()
        assert record.attrs == {"m": 3, "n": 4}

    def test_threads_get_independent_stacks(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)

        def work(label):
            with tracer.span("thread-root", label=label):
                barrier.wait()
                with tracer.span("thread-child", label=label):
                    pass

        threads = [
            threading.Thread(target=work, args=(i,), name=f"obs-test-{i}")
            for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        records = tracer.spans()
        assert len(records) == 4
        roots = [r for r in records if r.name == "thread-root"]
        children = [r for r in records if r.name == "thread-child"]
        # Depth is per-thread: both roots sit at 0 even though the two
        # threads overlapped (the barrier guarantees they did).
        assert {r.depth for r in roots} == {0}
        assert {r.depth for r in children} == {1}
        by_label = {r.attrs["label"]: r.span_id for r in roots}
        for child in children:
            assert child.parent_id == by_label[child.attrs["label"]]
        assert {r.thread for r in records} == {"obs-test-0", "obs-test-1"}

    def test_span_totals_aggregates_by_name(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("repeat"):
                pass
        count, total = tracer.span_totals()["repeat"]
        assert count == 3
        assert total >= 0.0

    def test_enable_disable_swap_global(self):
        assert get_tracer() is NULL_TRACER
        tracer = enable()
        assert get_tracer() is tracer
        assert tracer.enabled
        disable()
        assert get_tracer() is NULL_TRACER


class TestNullPath:
    def test_null_tracer_records_nothing(self):
        null = NullTracer()
        with null.span("anything", key="value") as span:
            span.set(more=1)
        assert null.spans() == []
        assert null.n_spans() == 0
        assert null.span_totals() == {}

    def test_null_span_is_shared_singleton(self):
        null = NullTracer()
        assert null.span("a") is null.span("b")

    def test_null_counters_stay_empty(self):
        null = NullTracer()
        null.counters.add(GEMM_WORD_OPS, 10**9)
        assert null.counters.get(GEMM_WORD_OPS) == 0
        assert null.counters.snapshot() == {}
        assert not null.counters.enabled

    def test_disabled_default_sees_no_counts_from_real_work(self):
        # The process default is the null tracer; run real instrumented
        # work and confirm nothing sticks anywhere.
        pa, pb = make_packed(16, 32, 4)
        bit_gemm(pa, pb, "and", backend="blas")
        assert get_tracer().counters.snapshot() == {}
        assert get_tracer().n_spans() == 0


# -- counter exactness ----------------------------------------------------------


class TestCounterExactness:
    M, N, KW = 64, 192, 16

    def expected_word_ops(self):
        return self.M * self.N * self.KW

    def test_serial_fast_driver(self):
        tracer = enable()
        pa, pb = make_packed(self.M, self.N, self.KW)
        bit_gemm(pa, pb, "and", backend="blas")
        assert tracer.counters.get(GEMM_WORD_OPS) == self.expected_word_ops()
        assert tracer.counters.get(GEMM_CALLS) == 1

    def test_serial_blocked_driver(self):
        tracer = enable()
        pa, pb = make_packed(self.M, self.N, self.KW)
        bit_gemm_blocked(pa, pb, "and")
        assert tracer.counters.get(GEMM_WORD_OPS) == self.expected_word_ops()
        assert tracer.counters.get(GEMM_CALLS) == 1

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize(
        "backend",
        [pytest.param("blas", id="gemm"), pytest.param("blis", id="blocked")],
    )
    def test_sharded_engine_all_paths(self, workers, backend):
        """Word-ops are exact however the work is partitioned."""
        tracer = enable()
        pa, pb = make_packed(self.M, self.N, self.KW)
        engine = ParallelEngine(workers=workers, backend=backend)
        try:
            _, report = engine.run(pa, pb, "and", force_parallel=workers > 1)
        finally:
            engine.shutdown()
        assert tracer.counters.get(GEMM_WORD_OPS) == self.expected_word_ops()
        assert tracer.counters.get(GEMM_CALLS) == 1
        assert tracer.counters.get(SHARDS_EXECUTED) == max(1, report.n_shards)
        assert report.metrics is not None
        assert report.metrics.counter(GEMM_WORD_OPS) == self.expected_word_ops()

    def test_framework_pack_bytes_closed_form(self):
        tracer = enable()
        fw = SNPComparisonFramework("GTX 980", "ld")
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2, size=(60, 500), dtype=np.uint8)
        _, report = fw.run(bits)
        global_bytes = tracer.counters.get(PACK_BYTES)
        packed = fw.pack(bits)  # adds to the global registry, not the report
        expected_bytes = (
            packed.padded_rows * packed.k_words * packed.words.itemsize
        )
        assert report.metrics is not None
        # LD packs one operand (B aliases A).
        assert report.metrics.counter(PACK_OPERANDS) == 1
        assert report.metrics.counter(PACK_BYTES) == expected_bytes
        assert report.metrics.counter(KERNEL_LAUNCHES) == report.n_kernel_launches
        assert global_bytes == expected_bytes

    def test_metrics_delta_scopes_to_one_run(self):
        enable()
        pa, pb = make_packed(32, 64, 8)
        engine = ParallelEngine(workers=1)
        try:
            _, first = engine.run(pa, pb, "and")
            _, second = engine.run(pa, pb, "and")
        finally:
            engine.shutdown()
        ops = 32 * 64 * 8
        # Each report sees only its own run, not the accumulated total.
        assert first.metrics.counter(GEMM_WORD_OPS) == ops
        assert second.metrics.counter(GEMM_WORD_OPS) == ops


# -- metrics report -------------------------------------------------------------


class TestMetricsReport:
    def test_json_round_trip(self):
        tracer = enable()
        with tracer.span("work"):
            tracer.counters.add(GEMM_WORD_OPS, 42)
        report = MetricsReport.from_tracer(tracer)
        clone = MetricsReport.from_json(report.to_json())
        assert clone.counter(GEMM_WORD_OPS) == 42
        assert clone.span_total("work") == report.span_total("work")
        assert json.dumps(report.to_json())  # JSON-serializable

    def test_summary_lines_render(self):
        report = MetricsReport(counters={GEMM_WORD_OPS: 7})
        text = str(report)
        assert GEMM_WORD_OPS in text
        assert "counters:" in text


# -- trace export ---------------------------------------------------------------


def _run_traced_framework():
    tracer = enable()
    fw = SNPComparisonFramework("GTX 980", "ld")
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, size=(40, 300), dtype=np.uint8)
    fw.run(bits)
    return tracer, fw


class TestTraceExport:
    def test_merged_schema_is_valid(self):
        tracer, fw = _run_traced_framework()
        events = merged_trace_events(tracer, [fw.last_queue])
        assert events
        pids = {e["pid"] for e in events}
        assert "host" in pids
        assert "GTX 980" in pids
        for event in events:
            assert event["ph"] in ("M", "X")
            assert "name" in event and "pid" in event
            if event["ph"] == "X":
                assert event["ts"] >= 0.0
                assert event["dur"] >= 0.0
                assert "tid" in event
            else:
                assert event["name"] in ("process_name", "thread_name")
        # Host spans made it across with their lineage args.
        host_names = {
            e["name"] for e in events if e["ph"] == "X" and e["pid"] == "host"
        }
        assert {"framework.run", "pipeline.run", "kernel.execute"} <= host_names

    def test_duplicate_device_pids_are_suffixed(self):
        tracer, fw = _run_traced_framework()
        queue = fw.last_queue
        events = merged_trace_events(tracer, [queue, queue])
        pids = {e["pid"] for e in events}
        assert "GTX 980" in pids
        assert "GTX 980 [1]" in pids

    def test_write_merged_trace_file(self, tmp_path):
        tracer, fw = _run_traced_framework()
        path = tmp_path / "trace.json"
        n_events = write_merged_trace(path, tracer, [fw.last_queue])
        data = json.loads(path.read_text(encoding="utf-8"))
        assert isinstance(data, list)
        assert len(data) == n_events > 0

    def test_export_without_queues_is_host_only(self):
        tracer = enable()
        with tracer.span("solo"):
            pass
        events = merged_trace_events(tracer)
        assert {e["pid"] for e in events} == {"host"}


# -- regression gate ------------------------------------------------------------


def _count_sample(word_ops):
    counters = get_tracer().counters
    counters.add("gemm.popc_word_ops", word_ops)
    counters.add("gemm.calls", 1)
    counters.add("shards.executed", 8)
    counters.add("time.host_engine_s", 0.3)  # nondeterministic: must NOT be gated


def _sweep_payload(scale=1.0, word_ops=128 * 512 * 32):
    """A scaling-sweep bench payload in the bench schema."""
    entries = [metric("word_ops", word_ops, "exact")]
    for w in (1, 4):
        entries += [
            metric(f"workers{w}.seconds", 0.01 * scale / w, "timing"),
            metric(f"workers{w}.speedup", float(w), "ratio"),
            metric(f"workers{w}.bit_exact", True, "exact"),
            metric(f"workers{w}.n_shards", 2 * w, "exact"),
        ]
    _, counters = run_counted(lambda: _count_sample(word_ops))
    return {"metrics": entries + counters}


class TestRegressionGate:
    def _record(self, tmp_path, name="sweep", **kwargs):
        fresh = tmp_path / f"{name}.json"
        fresh.write_text(json.dumps(_sweep_payload(**kwargs)), encoding="utf-8")
        return fresh

    def test_round_trip_clean(self, tmp_path):
        fresh = self._record(tmp_path)
        metrics = load_metrics([fresh])
        baseline = record_baseline("test", metrics)
        comparisons = compare_metrics(baseline, load_metrics([fresh]))
        assert comparisons
        assert not any(c.failed for c in comparisons)

    def test_nondeterministic_counters_not_gated(self, tmp_path):
        fresh = self._record(tmp_path)
        names = {m.name for m in load_metrics([fresh])}
        assert "sweep:counter.gemm.popc_word_ops" in names
        assert not any("time.host_engine_s" in n for n in names)
        assert "time.host_engine_s" not in DETERMINISTIC_COUNTERS

    def test_synthetic_2x_slowdown_fails(self, tmp_path):
        baseline = record_baseline("test", load_metrics([self._record(tmp_path)]))
        slow = self._record(tmp_path, name="sweep2", scale=2.0)
        slow_metrics = [
            m.__class__(m.name.replace("sweep2:", "sweep:"), m.value, m.kind)
            for m in load_metrics([slow])
        ]
        comparisons = compare_metrics(baseline, slow_metrics, timing_tolerance=0.30)
        regressed = [c for c in comparisons if c.status == "regressed"]
        assert regressed
        assert all(c.kind == "timing" for c in regressed)

    def test_exact_counter_drift_fails(self, tmp_path):
        baseline = record_baseline("test", load_metrics([self._record(tmp_path)]))
        drifted = self._record(tmp_path, name="sweep3", word_ops=999)
        metrics = [
            m.__class__(m.name.replace("sweep3:", "sweep:"), m.value, m.kind)
            for m in load_metrics([drifted])
        ]
        failed = {c.name for c in compare_metrics(baseline, metrics) if c.failed}
        assert "sweep:word_ops" in failed
        assert "sweep:counter.gemm.popc_word_ops" in failed

    def test_missing_metric_fails(self, tmp_path):
        fresh = self._record(tmp_path)
        baseline = record_baseline("test", load_metrics([fresh]))
        partial = [m for m in load_metrics([fresh]) if "workers4" not in m.name]
        comparisons = compare_metrics(baseline, partial)
        missing = [c for c in comparisons if c.status == "missing"]
        assert missing
        assert all(c.failed for c in missing)

    def test_cli_record_compare_round_trip(self, tmp_path):
        from repro.observability.regress import main as regress_main

        fresh = self._record(tmp_path)
        baseline_path = tmp_path / "baseline.json"
        assert (
            regress_main(
                ["record", "--name", "t", "--out", str(baseline_path), str(fresh)]
            )
            == 0
        )
        report_path = tmp_path / "report.json"
        assert (
            regress_main(
                [
                    "compare",
                    "--baseline",
                    str(baseline_path),
                    "--report",
                    str(report_path),
                    str(fresh),
                ]
            )
            == 0
        )
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["failed"] == 0

    def test_cli_compare_exits_nonzero_on_slowdown(self, tmp_path):
        from repro.observability.regress import main as regress_main

        clean_dir = tmp_path / "clean"
        slow_dir = tmp_path / "slow"
        for d in (clean_dir, slow_dir):
            d.mkdir()
        (clean_dir / "sweep.json").write_text(
            json.dumps(_sweep_payload()), encoding="utf-8"
        )
        (slow_dir / "sweep.json").write_text(
            json.dumps(_sweep_payload(scale=2.0)), encoding="utf-8"
        )
        baseline_path = tmp_path / "baseline.json"
        regress_main(
            [
                "record",
                "--name",
                "t",
                "--out",
                str(baseline_path),
                str(clean_dir / "sweep.json"),
            ]
        )
        assert (
            regress_main(
                ["compare", "--baseline", str(baseline_path), str(slow_dir / "sweep.json")]
            )
            == 1
        )

    def test_run_counted_restores_tracer_and_returns_result(self):
        previous = get_tracer()
        result, counters = run_counted(lambda: _count_sample(7) or "done")
        assert result == "done"
        assert get_tracer() is previous
        assert [c["name"] for c in counters] == [
            "counter.gemm.calls",
            "counter.gemm.popc_word_ops",
            "counter.shards.executed",
        ]
        assert all(c["kind"] == "exact" for c in counters)

    def test_write_metrics_round_trips(self, tmp_path):
        path = tmp_path / "bench.json"
        write_metrics(path, _sweep_payload()["metrics"])
        names = {m.name for m in load_metrics([path])}
        assert "bench:workers4.n_shards" in names
        assert json.loads(path.read_text(encoding="utf-8")).keys() == {"metrics"}

    def test_pytest_benchmark_json_still_read(self, tmp_path):
        path = tmp_path / "table1.json"
        path.write_text(
            json.dumps(
                {"benchmarks": [{"name": "bench_x", "stats": {"mean": 0.5}}]}
            ),
            encoding="utf-8",
        )
        (m,) = load_metrics([path])
        assert (m.name, m.value, m.kind) == ("table1:bench_x.mean_s", 0.5, "timing")

    @pytest.mark.parametrize(
        "entry, problem",
        [
            ({"value": 1.0, "kind": "exact"}, "missing name"),
            ({"name": "x", "kind": "exact"}, "missing value"),
            ({"name": "x", "value": 1.0}, "missing kind"),
            ({"name": "x", "value": 1.0, "kind": "fuzzy"}, "unknown kind 'fuzzy'"),
            ({"name": "x", "value": "1.0", "kind": "exact"}, "non-numeric value"),
            ({"name": "x", "value": True, "kind": "exact"}, "non-numeric value"),
            ({"name": "x", "value": None, "kind": "timing"}, "non-numeric value"),
            ({"name": "word_ops", "value": 2.0, "kind": "exact"}, "repeated name"),
            ({"name": 3, "value": 2.0, "kind": "exact"}, "name must be"),
            ("word_ops", "not an object"),
        ],
    )
    def test_malformed_entry_rejected(self, tmp_path, entry, problem):
        from repro.observability.regress import main as regress_main

        payload = _sweep_payload()
        payload["metrics"].append(entry)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            load_metrics([path])
        message = str(exc.value)
        assert str(path) in message
        assert repr(entry) in message
        assert problem in message
        out = tmp_path / "b.json"
        assert regress_main(["record", "--name", "t", "--out", str(out), str(path)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload",
        [
            {"rows": [], "problem": {}, "word_ops": 1},  # a pre-schema sweep
            {"counters": {"gemm.calls": 1}},  # a MetricsReport
            {"metrics": {"word_ops": 1}},
            [1, 2],
        ],
    )
    def test_foreign_formats_rejected(self, tmp_path, payload):
        path = tmp_path / "old.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match="old.json"):
            load_metrics([path])


class TestNonFiniteGate:
    """NaN/inf measurements must fail the gate, never slide into "ok".

    NaN makes every ordered comparison false, so before the explicit
    guard a NaN timing or ratio fell through to the "ok"/"within
    tolerance" branch and CI reported green on a measurement that never
    happened.
    """

    def _one(self, kind, fresh_value, base_value=1.0):
        baseline = record_baseline("t", [Metric("m:x", base_value, kind)])
        (comparison,) = compare_metrics(baseline, [Metric("m:x", fresh_value, kind)])
        return comparison

    @pytest.mark.parametrize("kind", ["exact", "timing", "ratio"])
    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf")]
    )
    def test_non_finite_fresh_regresses_every_kind(self, kind, bad):
        comparison = self._one(kind, bad)
        assert comparison.status == "regressed"
        assert comparison.failed
        assert "non-finite fresh value" in comparison.detail

    @pytest.mark.parametrize("kind", ["exact", "timing", "ratio"])
    def test_non_finite_baseline_regresses_every_kind(self, kind):
        comparison = self._one(kind, 1.0, base_value=float("nan"))
        assert comparison.status == "regressed"
        assert "non-finite baseline value" in comparison.detail
        assert "re-record" in comparison.detail

    def test_finite_values_unaffected(self):
        assert self._one("timing", 1.0).status == "ok"
        assert self._one("exact", 1.0).status == "ok"
