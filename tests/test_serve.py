"""Tests for repro.serve: index residency, coalescing, service, wire.

Covers the :class:`ProfileIndex` shard/tail lifecycle (build, reopen,
append barrier, sealing, validation), the :class:`CoalescingBatcher`
contract (burst coalescing, per-payload exception isolation, contract
violations, close semantics), :class:`IdentityService` bit-exactness
against :class:`StreamingIdentitySearch` (burst vs trickle, first-seen
tie-breaking, both residency paths), the word-ops amortization the
coalescer exists for (exact counters), the solo-fallback isolation
ladder, tenant accounting, and the JSON-lines TCP front end.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.streaming import StreamingIdentitySearch
from repro.errors import ConfigurationError, DatasetError, ReproError
from repro.observability.counters import (
    GEMM_WORD_OPS,
    PACK_OPERANDS,
    SERVE_BATCH_ROWS,
    SERVE_BATCHES,
    SERVE_COALESCED_BATCHES,
    SERVE_QUERIES,
    SERVE_REQUEST_FAILURES,
    SERVE_SOLO_FALLBACKS,
)
from repro.observability.tracer import Tracer, set_tracer
from repro.serve import (
    BackgroundServer,
    CoalescingBatcher,
    IdentityService,
    ProfileIndex,
    ServiceClient,
)
from repro.serve.metrics import LatencyWindow

SITES = 96


@pytest.fixture()
def tracer():
    t = Tracer()
    previous = set_tracer(t)
    yield t
    set_tracer(previous)


def make_db(rows, sites=SITES, seed=7, duplicates=0):
    """A binary profile matrix; ``duplicates`` repeats the first row."""
    rng = np.random.default_rng(seed)
    db = rng.integers(0, 2, size=(rows, sites), dtype=np.uint8)
    for i in range(duplicates):
        db[1 + i] = db[0]
    return db


def oracle(queries, db_chunks, k):
    search = StreamingIdentitySearch(queries, k=k)
    for chunk in db_chunks:
        search.add_batch(chunk)
    return search.all_matches()


# -- ProfileIndex ---------------------------------------------------------------


class TestProfileIndex:
    def test_build_shards_and_reopen(self, tmp_path):
        db = make_db(70)
        with ProfileIndex.build(tmp_path, db, shard_rows=32) as index:
            assert index.n_rows == 70
            assert index.n_bits == SITES
            assert index.n_segments == 3  # 32 + 32 + 6
        # Reopen from the files alone; global order must match.
        with ProfileIndex(tmp_path) as reopened:
            assert reopened.n_rows == 70
            whole = np.vstack(list(reopened.iter_bits(chunk_rows=16)))
            assert np.array_equal(whole, db)

    def test_append_returns_global_range(self, tmp_path):
        db = make_db(10)
        with ProfileIndex.build(tmp_path, db, shard_rows=32) as index:
            start, stop = index.append(make_db(4, seed=9))
            assert (start, stop) == (10, 14)
            start, stop = index.append(make_db(1, seed=11))
            assert (start, stop) == (14, 15)
            assert index.n_rows == 15

    def test_append_auto_seals_at_shard_rows(self, tmp_path):
        with ProfileIndex.build(tmp_path, make_db(4), shard_rows=4) as index:
            index.append(make_db(4, seed=1))
            shards = sorted(p.name for p in tmp_path.glob("*.snpbin"))
            assert shards == ["shard-000000.snpbin", "shard-000001.snpbin"]
            # Row order survives the seal.
            whole = np.vstack(list(index.iter_bits()))
            assert np.array_equal(whole[:4], make_db(4))
            assert np.array_equal(whole[4:], make_db(4, seed=1))

    def test_manual_seal_keeps_row_order(self, tmp_path):
        with ProfileIndex.build(tmp_path, make_db(6), shard_rows=100) as index:
            extra = make_db(3, seed=3)
            index.append(extra)
            before = np.vstack(list(index.iter_bits()))
            assert index.seal() is not None
            assert index.seal() is None  # nothing left to seal
            after = np.vstack(list(index.iter_bits()))
            assert np.array_equal(before, after)

    def test_memory_index_requires_n_bits(self):
        with pytest.raises(DatasetError, match="n_bits is required"):
            ProfileIndex()
        index = ProfileIndex(n_bits=SITES)
        index.append(make_db(5))
        assert index.n_rows == 5
        assert index.seal() is None  # memory-only: seal is a no-op

    def test_rejects_mismatched_sites_and_non_binary(self):
        index = ProfileIndex(n_bits=SITES)
        with pytest.raises(DatasetError, match="sites"):
            index.append(make_db(2, sites=SITES + 1))
        with pytest.raises(DatasetError, match="non-binary"):
            index.append(np.full((2, SITES), 3, dtype=np.uint8))

    def test_reopen_rejects_mixed_widths(self, tmp_path):
        ProfileIndex.build(tmp_path / "a", make_db(4), shard_rows=4)
        ProfileIndex.build(tmp_path / "b", make_db(4, sites=40), shard_rows=4)
        (tmp_path / "b" / "shard-000000.snpbin").rename(
            tmp_path / "a" / "shard-999999.snpbin"
        )
        with pytest.raises(DatasetError, match="sites"):
            ProfileIndex(tmp_path / "a")

    def test_snapshot_is_immutable_view(self):
        index = ProfileIndex(n_bits=SITES)
        index.append(make_db(3))
        snap = index.snapshot()
        index.append(make_db(2, seed=5))
        assert sum(s.n_rows for s in snap) == 3
        assert sum(s.n_rows for s in index.snapshot()) == 5


# -- CoalescingBatcher ----------------------------------------------------------


class TestCoalescingBatcher:
    def test_burst_coalesces_into_one_batch(self):
        batches = []

        def execute(payloads):
            batches.append(list(payloads))
            return [p * 10 for p in payloads]

        with CoalescingBatcher(execute, window_s=0.05, max_rows=64) as batcher:
            futures = [batcher.submit(i) for i in range(5)]
            assert [f.result(timeout=10) for f in futures] == [
                0, 10, 20, 30, 40,
            ]
        assert len(batches) == 1
        assert batches[0] == [0, 1, 2, 3, 4]  # admission order

    def test_exception_outcome_fails_only_that_future(self):
        def execute(payloads):
            return [
                ValueError(f"bad {p}") if p == "poison" else p.upper()
                for p in payloads
            ]

        with CoalescingBatcher(execute, window_s=0.05) as batcher:
            good = batcher.submit("ok")
            bad = batcher.submit("poison")
            also_good = batcher.submit("fine")
            assert good.result(timeout=10) == "OK"
            assert also_good.result(timeout=10) == "FINE"
            with pytest.raises(ValueError, match="bad poison"):
                bad.result(timeout=10)

    def test_executor_raise_fails_whole_batch(self):
        def execute(payloads):
            raise RuntimeError("boom")

        with CoalescingBatcher(execute, window_s=0.02) as batcher:
            futures = [batcher.submit(i) for i in range(3)]
            for future in futures:
                with pytest.raises(RuntimeError, match="boom"):
                    future.result(timeout=10)

    def test_wrong_outcome_count_is_contract_violation(self):
        with CoalescingBatcher(lambda ps: [1], window_s=0.05) as batcher:
            a = batcher.submit("x")
            b = batcher.submit("y")
            with pytest.raises(RuntimeError, match="outcomes"):
                a.result(timeout=10)
            with pytest.raises(RuntimeError, match="outcomes"):
                b.result(timeout=10)

    def test_max_rows_cuts_batches(self):
        sizes = []

        def execute(payloads):
            sizes.append(len(payloads))
            return list(payloads)

        with CoalescingBatcher(execute, window_s=0.05, max_rows=2) as batcher:
            futures = [batcher.submit(i) for i in range(5)]
            for future in futures:
                future.result(timeout=10)
        assert max(sizes) <= 2
        assert sum(sizes) == 5

    def test_submit_after_close_raises(self):
        batcher = CoalescingBatcher(lambda ps: list(ps))
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit(1)

    def test_close_drains_queued_work(self):
        release = threading.Event()

        def execute(payloads):
            release.wait(timeout=10)
            return list(payloads)

        batcher = CoalescingBatcher(execute, window_s=0.0)
        future = batcher.submit("queued")
        release.set()
        batcher.close()
        assert future.result(timeout=10) == "queued"

    def test_validates_parameters(self):
        with pytest.raises(ValueError, match="window_s"):
            CoalescingBatcher(lambda ps: ps, window_s=-1)
        with pytest.raises(ValueError, match="max_rows"):
            CoalescingBatcher(lambda ps: ps, max_rows=0)


# -- IdentityService ------------------------------------------------------------


def make_service(tmp_path, db, k=5, shard_rows=24, word_bits=32, **kw):
    index = ProfileIndex.build(
        tmp_path, db, shard_rows=shard_rows, word_bits=word_bits
    )
    return IdentityService(index, k=k, **kw)


class TestIdentityServiceExactness:
    def test_bit_exact_vs_streaming_multi_shard(self, tmp_path, tracer):
        db = make_db(70, duplicates=3)  # ties exercise first-seen order
        queries = make_db(6, seed=21)
        expected = oracle(queries, [db], k=4)
        with make_service(tmp_path, db, k=4) as service:
            with service.index:
                assert service.search(queries) == expected

    def test_burst_vs_trickle_identical_topk(self, tmp_path, tracer):
        db = make_db(50, duplicates=5)
        query_sets = [make_db(1, seed=100 + i) for i in range(8)]
        oracles = [oracle(q, [db], k=6) for q in query_sets]
        with make_service(tmp_path, db, k=6) as service:
            with service.index:
                trickle = [service.search(q) for q in query_sets]
                burst = service.search_many(query_sets)
        assert trickle == oracles
        assert burst == oracles

    @pytest.mark.parametrize("word_bits", [32, 64])
    def test_both_residency_paths_bit_exact(self, tmp_path, tracer, word_bits):
        db = make_db(40)
        queries = make_db(3, seed=33)
        expected = oracle(queries, [db], k=5)
        with make_service(tmp_path, db, word_bits=word_bits) as service:
            with service.index:
                before = tracer.counters.get(PACK_OPERANDS)
                assert service.search(queries) == expected
                packs = tracer.counters.get(PACK_OPERANDS) - before
        n_segments = -(-40 // 24)
        if word_bits == 32:
            # Zero-repack residency: shard words are the operand; only
            # the query panel is packed.
            assert packs == 1
        else:
            assert packs == 1 + n_segments

    def test_append_barrier_visible_to_later_queries(self, tmp_path, tracer):
        db = make_db(30)
        with make_service(tmp_path, db, k=40, shard_rows=16) as service:
            with service.index:
                probe = make_db(1, seed=50)
                start, stop = service.append(probe)  # its own exact match
                assert (start, stop) == (30, 31)
                matches = service.search(probe)[0]
                assert any(
                    m.database_index == 30 and m.distance == 0
                    for m in matches
                )
                # And the offline oracle over the same post-append
                # database agrees on the full top-k.
                full = np.vstack([db, probe])
                assert [matches] == oracle(probe, [full], k=40)

    def test_mixed_tail_and_shards_bit_exact(self, tmp_path, tracer):
        db = make_db(30)
        extra = make_db(7, seed=61)
        queries = make_db(2, seed=62)
        with make_service(tmp_path, db, shard_rows=16) as service:
            with service.index:
                service.append(extra)
                expected = oracle(queries, [db, extra], k=5)
                assert service.search(queries) == expected
                # Sealing the tail changes segment identities, not
                # results.
                service.index.seal()
                assert service.search(queries) == expected


class TestIdentityServiceAmortization:
    def test_coalesced_word_ops_at_most_0_6x_solo(self, tmp_path, tracer):
        db = make_db(48)
        query_sets = [make_db(1, seed=200 + i) for i in range(8)]
        with make_service(tmp_path, db) as service:
            with service.index:
                before = tracer.counters.get(GEMM_WORD_OPS)
                for q in query_sets:
                    service.search_many([q])
                mid = tracer.counters.get(GEMM_WORD_OPS)
                service.search_many(query_sets)
                after = tracer.counters.get(GEMM_WORD_OPS)
        solo = (mid - before) / len(query_sets)
        coalesced = (after - mid) / len(query_sets)
        assert solo > 0
        assert coalesced <= 0.6 * solo

    def test_serve_counters_account_batches(self, tmp_path, tracer):
        db = make_db(30)
        query_sets = [make_db(1, seed=300 + i) for i in range(4)]
        with make_service(tmp_path, db) as service:
            with service.index:
                service.search_many(query_sets)
                service.search(query_sets[0])
        assert tracer.counters.get(SERVE_QUERIES) == 5
        assert tracer.counters.get(SERVE_BATCHES) == 2
        assert tracer.counters.get(SERVE_COALESCED_BATCHES) == 1
        assert tracer.counters.get(SERVE_BATCH_ROWS) == 5


class TestIdentityServiceIsolation:
    def test_poisoned_request_degrades_to_solo(self, tmp_path, tracer):
        db = make_db(30)
        good_a = make_db(1, seed=400)
        good_b = make_db(1, seed=401)
        with make_service(tmp_path, db) as service:
            with service.index:
                original = service._run_panel

                def flaky(requests, snapshot):
                    if any(r.tenant == "poison" for r in requests):
                        raise RuntimeError("poisoned query")
                    return original(requests, snapshot)

                service._run_panel = flaky  # type: ignore[method-assign]
                requests = [
                    service._validate(good_a, None, "ok"),
                    service._validate(good_a, None, "poison"),
                    service._validate(good_b, None, "ok"),
                ]
                outcomes = service._execute_batch(requests)
        assert outcomes[0] == oracle(good_a, [db], k=5)
        assert isinstance(outcomes[1], RuntimeError)
        assert outcomes[2] == oracle(good_b, [db], k=5)
        assert tracer.counters.get(SERVE_SOLO_FALLBACKS) == 3
        assert tracer.counters.get(SERVE_REQUEST_FAILURES) == 1

    def test_ledger_records_failures_per_tenant(self, tmp_path, tracer):
        db = make_db(20)
        q = make_db(1, seed=500)
        with make_service(tmp_path, db) as service:
            with service.index:
                def down(*args):
                    raise RuntimeError("down")

                service._run_panel = down  # type: ignore[method-assign]
                with pytest.raises(RuntimeError):
                    service.search(q, tenant="lab-a")
                summary = service.ledger.summary()
        assert summary["lab-a"]["queries"] == 1
        assert summary["lab-a"]["failures"] == 1


class TestIdentityServiceValidation:
    def test_rejects_bad_requests(self, tmp_path, tracer):
        db = make_db(20)
        with make_service(tmp_path, db) as service:
            with service.index:
                with pytest.raises(DatasetError, match="sites"):
                    service.search(make_db(1, sites=SITES + 8))
                with pytest.raises(DatasetError, match="non-empty"):
                    service.search(np.empty((0, SITES), dtype=np.uint8))
                with pytest.raises(DatasetError, match="k="):
                    service.search(make_db(1), k=0)
                # Fractional, boolean and string k are not counts.
                for bad_k in (2.5, True, "5"):
                    with pytest.raises(DatasetError, match="positive integer"):
                        service.search(make_db(1), k=bad_k)
                with pytest.raises(DatasetError, match="tenant"):
                    service.search(make_db(1), tenant="")

    def test_rejects_bad_constructor_k(self, tmp_path):
        db = make_db(10)
        index = ProfileIndex.build(tmp_path, db, shard_rows=8)
        with index:
            with pytest.raises(DatasetError, match="k="):
                IdentityService(index, k=0)
            for bad_k in (2.5, True, "5"):
                with pytest.raises(DatasetError, match="positive integer"):
                    IdentityService(index, k=bad_k)

    def test_submit_after_close_raises(self, tmp_path, tracer):
        db = make_db(10)
        service = make_service(tmp_path, db)
        with service.index:
            service.close()
            with pytest.raises(ConfigurationError, match="closed"):
                service.search(make_db(1))

    def test_search_many_empty_is_empty(self, tmp_path, tracer):
        with make_service(tmp_path, make_db(10)) as service:
            with service.index:
                assert service.search_many([]) == []


# -- tenant accounting ----------------------------------------------------------


class TestAccounting:
    def test_stats_reports_tenants_and_counters(self, tmp_path, tracer):
        db = make_db(30)
        with make_service(tmp_path, db, shard_rows=16) as service:
            with service.index:
                service.search(make_db(1, seed=600), tenant="lab-a")
                service.search(make_db(2, seed=601), tenant="lab-b")
                stats = service.stats()
        assert stats["index"]["n_rows"] == 30
        assert stats["index"]["segments"] == 2
        tenants = stats["tenants"]
        assert tenants["lab-a"]["queries"] == 1
        assert tenants["lab-b"]["rows"] == 2
        assert tenants["lab-a"]["p99_s"] > 0.0
        assert stats["counters"][SERVE_QUERIES] == 2

    def test_latency_window_percentiles(self):
        window = LatencyWindow(maxlen=8)
        assert window.percentile(99) == 0.0  # empty window
        for v in (0.01, 0.02, 0.03, 0.04):
            window.observe(v)
        assert window.percentile(50) == pytest.approx(0.025)
        assert window.percentile(99) <= 0.04


# -- TCP front end --------------------------------------------------------------


class TestServer:
    def test_wire_round_trip(self, tmp_path, tracer):
        db = make_db(40, duplicates=2)
        queries = make_db(2, seed=700)
        expected = oracle(queries, [db], k=5)
        with make_service(tmp_path, db, window_s=0.01) as service:
            with service.index:
                with BackgroundServer(service) as (host, port):
                    with ServiceClient(host, port) as client:
                        assert client.ping()
                        assert client.search(queries, k=5) == expected
                        start, stop = client.append(make_db(3, seed=701))
                        assert (start, stop) == (40, 43)
                        stats = client.stats()
                        assert stats["index"]["n_rows"] == 43

    def test_wire_errors_keep_connection_usable(self, tmp_path, tracer):
        db = make_db(20)
        with make_service(tmp_path, db, window_s=0.01) as service:
            with service.index:
                with BackgroundServer(service) as (host, port):
                    with ServiceClient(host, port) as client:
                        with pytest.raises(ReproError, match="sites"):
                            client.search(make_db(1, sites=8))
                        with pytest.raises(ReproError, match="unknown op"):
                            client._call({"op": "nope"})
                        # Typed errors, never a wrong answer: fractions
                        # must not decode as zeros, huge integers must
                        # not overflow, k must be a positive integer.
                        fractional = [[0.9] * SITES]
                        with pytest.raises(ReproError, match="DatasetError.*dtype"):
                            client._call({"op": "search", "queries": fractional})
                        with pytest.raises(ReproError, match="DatasetError.*dtype"):
                            client._call({"op": "append", "profiles": [[0.5] * SITES]})
                        huge = [[2**70] + [0] * (SITES - 1)]
                        with pytest.raises(ReproError, match="DatasetError.*dtype"):
                            client._call({"op": "search", "queries": huge})
                        for bad_k in (2.5, True, "5"):
                            with pytest.raises(ReproError, match="DatasetError"):
                                client.search(make_db(1), k=bad_k)
                        assert service.index.n_rows == 20  # nothing appended
                        assert client.ping()  # still alive

    def test_concurrent_clients_coalesce_and_match_oracle(
        self, tmp_path, tracer
    ):
        db = make_db(60, duplicates=4)
        query_sets = [make_db(1, seed=800 + i) for i in range(6)]
        oracles = [oracle(q, [db], k=5) for q in query_sets]
        results = [None] * len(query_sets)
        with make_service(tmp_path, db, window_s=0.05) as service:
            with service.index:
                with BackgroundServer(service) as (host, port):
                    barrier = threading.Barrier(len(query_sets))

                    def worker(i):
                        with ServiceClient(host, port) as client:
                            barrier.wait()
                            results[i] = client.search(query_sets[i], k=5)

                    threads = [
                        threading.Thread(target=worker, args=(i,))
                        for i in range(len(query_sets))
                    ]
                    for t in threads:
                        t.start()
                    for t in threads:
                        t.join(timeout=60)
        assert results == oracles
        # Every request was served; concurrency makes the exact batch
        # split timing-dependent, so gate the row total, not the cut.
        assert tracer.counters.get(SERVE_BATCH_ROWS) == len(query_sets)
        assert tracer.counters.get(SERVE_BATCHES) >= 1


# -- live window behaviour -------------------------------------------------------


class TestLiveWindow:
    def test_submits_within_window_share_a_batch(self, tmp_path, tracer):
        db = make_db(30)
        query_sets = [make_db(1, seed=900 + i) for i in range(4)]
        with make_service(
            tmp_path, db, window_s=0.2, max_batch_rows=64
        ) as service:
            with service.index:
                futures = [service.submit(q) for q in query_sets]
                for future, q in zip(futures, query_sets):
                    assert future.result(timeout=30) == oracle(q, [db], k=5)
        assert tracer.counters.get(SERVE_BATCHES) == 1
        assert tracer.counters.get(SERVE_COALESCED_BATCHES) == 1

    def test_mid_batch_append_visible_after_barrier(self, tmp_path, tracer):
        """A query admitted after append() returned sees the new rows."""
        db = make_db(30)
        probe = make_db(1, seed=950)
        with make_service(
            tmp_path, db, k=31, window_s=0.05, shard_rows=16
        ) as service:
            with service.index:
                first = service.submit(make_db(1, seed=951))
                start, _stop = service.append(probe)
                second = service.submit(probe)
                first.result(timeout=30)
                matches = second.result(timeout=30)[0]
                assert any(
                    m.database_index == start and m.distance == 0
                    for m in matches
                )

    def test_window_bounds_added_latency(self, tmp_path, tracer):
        db = make_db(20)
        with make_service(tmp_path, db, window_s=0.02) as service:
            with service.index:
                begin = time.perf_counter()
                service.search(make_db(1, seed=960))
                elapsed = time.perf_counter() - begin
        assert elapsed < 10.0  # window closes; the request is not stuck
