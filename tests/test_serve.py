"""Tests for repro.serve: index residency, coalescing, service, wire.

Covers the :class:`ProfileIndex` shard/tail lifecycle (build, reopen,
append barrier, sealing, validation), the :class:`CoalescingBatcher`
contract (a burst queued behind a running batch is the next batch,
per-payload exception isolation, contract violations, close
semantics), :class:`IdentityService` bit-exactness against
:class:`StreamingIdentitySearch` (burst vs trickle, first-seen
tie-breaking, both residency paths), the word-ops amortization the
coalescer exists for (exact counters), the solo-fallback isolation
ladder, request and tenant caps, tenant accounting, and the JSON-lines
TCP front end.  Tests that need requests to queue behind a batch hold
the dispatcher on an event, never on a timer.
"""

import contextlib
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.identity import identity_search
from repro.core.streaming import Match, StreamingIdentitySearch
from repro.errors import ConfigurationError, DatasetError, ReproError
from repro.observability.counters import (
    GEMM_WORD_OPS,
    IO_CHUNKS_VERIFIED,
    PACK_OPERANDS,
    SERVE_BATCH_ROWS,
    SERVE_BATCHES,
    SERVE_COALESCED_BATCHES,
    SERVE_QUERIES,
    SERVE_REQUEST_FAILURES,
    SERVE_SOLO_FALLBACKS,
)
from repro.observability.tracer import Tracer, set_tracer
from repro.resilience import FaultInjector, FaultPlan, ResilienceContext, set_resilience
from repro.serve import (
    BackgroundServer,
    CoalescingBatcher,
    IdentityService,
    ProfileIndex,
    ServiceClient,
)
from repro.serve.metrics import (
    MAX_TENANT_CHARS,
    MAX_TENANTS,
    LatencyWindow,
    TenantLedger,
)

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


@contextlib.contextmanager
def held_dispatcher():
    """Hold the next served batch at its latency hook until released.

    A one-shot ``latency`` fault whose sleep waits on an event: the
    first batch any service runs blocks before packing, so requests
    submitted meanwhile queue behind it, deterministically.  Yields
    ``(held, release)``: ``held`` is set once the batch is held.
    """
    held = threading.Event()
    release = threading.Event()

    def hold(_seconds):
        held.set()
        release.wait(timeout=30)

    injector = FaultInjector(FaultPlan.from_spec("latency:1"), sleep=hold)
    previous = set_resilience(ResilienceContext(injector=injector))
    try:
        yield held, release
    finally:
        release.set()
        set_resilience(previous)


def dense_oracle(queries, db, k):
    """Top-k by (distance, row) sorted straight off the full table."""
    full = identity_search(queries, db).distances
    rows = np.arange(db.shape[0])
    return [
        [Match(int(d[i]), int(i)) for i in np.lexsort((rows, d))[:k]]
        for d in full
    ]


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

    def test_seal_after_a_gap_keeps_every_shard(self, tmp_path):
        db = make_db(12)
        ProfileIndex.build(tmp_path, db, shard_rows=4).close()
        # A shard moved out of the glob (as fsck --quarantine does)
        # leaves shard-000001 and shard-000002; the next seal must not
        # overwrite the latter.
        (tmp_path / "shard-000000.snpbin").unlink()
        extra = make_db(4, seed=13)
        with ProfileIndex(tmp_path, shard_rows=4) as index:
            index.append(extra)
        with ProfileIndex(tmp_path) as reopened:
            whole = np.vstack(list(reopened.iter_bits()))
        assert sorted(p.name for p in tmp_path.glob("*.snpbin")) == [
            "shard-000001.snpbin", "shard-000002.snpbin", "shard-000003.snpbin"
        ]
        assert np.array_equal(whole, np.vstack([db[4:], extra]))

    def test_memory_index_requires_n_bits(self):
        with pytest.raises(DatasetError, match="n_bits is required"):
            ProfileIndex()
        index = ProfileIndex(n_bits=SITES)
        index.append(make_db(5))
        assert index.n_rows == 5
        index.append(make_db(3, seed=1))
        # Memory-only: the tail seals into one in-memory block, no file.
        assert index.seal() is None
        assert index.n_segments == 1
        assert index.n_rows == 8

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

    def test_append_copies_the_callers_rows(self):
        base = make_db(8)
        kept = base.copy()
        index = ProfileIndex(n_bits=SITES, shard_rows=100)
        index.append(base[:4])  # a view of the caller's buffer
        base[0] ^= 1  # which the caller then reuses
        index.seal()
        index.append(base)
        assert base.flags.writeable  # not frozen under its owner
        whole = np.vstack(list(index.iter_bits()))
        assert np.array_equal(whole, np.vstack([kept[:4], base]))

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
        release = threading.Event()
        running = threading.Event()
        batches = []

        def execute(payloads):
            batches.append(list(payloads))
            running.set()
            release.wait(timeout=10)
            return [p * 10 for p in payloads]

        with CoalescingBatcher(execute, max_rows=64) as batcher:
            try:
                first = batcher.submit(-1)
                assert running.wait(timeout=10)  # dispatched alone, at once
                futures = [batcher.submit(i) for i in range(5)]
            finally:
                release.set()
            assert first.result(timeout=10) == -10
            assert [f.result(timeout=10) for f in futures] == [
                0, 10, 20, 30, 40,
            ]
        # The burst queued behind the running batch is the next batch.
        assert batches == [[-1], [0, 1, 2, 3, 4]]  # admission order

    def test_exception_outcome_fails_only_that_future(self):
        def execute(payloads):
            return [
                ValueError(f"bad {p}") if p == "poison" else p.upper()
                for p in payloads
            ]

        with CoalescingBatcher(execute) as batcher:
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

        with CoalescingBatcher(execute) as batcher:
            futures = [batcher.submit(i) for i in range(3)]
            for future in futures:
                with pytest.raises(RuntimeError, match="boom"):
                    future.result(timeout=10)

    def test_wrong_outcome_count_is_contract_violation(self):
        # One outcome too many, however the two requests are cut.
        with CoalescingBatcher(lambda ps: [1] * (len(ps) + 1)) as batcher:
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

        with CoalescingBatcher(execute, max_rows=2) as batcher:
            futures = [batcher.submit(i) for i in range(5)]
            for future in futures:
                future.result(timeout=10)
        assert max(sizes) <= 2
        assert sum(sizes) == 5

    def test_cancelled_request_does_not_strand_its_peers(self):
        release = threading.Event()
        entered = threading.Event()
        seen = []

        def execute(payloads):
            seen.append(list(payloads))
            entered.set()
            release.wait(timeout=10)
            return [p.upper() for p in payloads]

        with CoalescingBatcher(execute) as batcher:
            first = batcher.submit("a")
            assert entered.wait(timeout=10)  # "a" runs and blocks
            cancelled = batcher.submit("b")
            peer = batcher.submit("c")
            assert cancelled.cancel()
            release.set()
            assert first.result(timeout=10) == "A"
            assert peer.result(timeout=5) == "C"
            # The one thread survives to run later requests.
            assert batcher.submit("d").result(timeout=5) == "D"
            # A cut left empty by cancellations still lets a drain finish.
            release.clear()
            entered.clear()
            running = batcher.submit("x")
            assert entered.wait(timeout=10)
            assert batcher.submit("e").cancel()
            release.set()
            assert running.result(timeout=10) == "X"
            start = time.perf_counter()
            assert batcher.wait_idle(timeout=5)
            assert time.perf_counter() - start < 1.0  # woken, not timed out
        assert all("b" not in batch and "e" not in batch for batch in seen)

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

        batcher = CoalescingBatcher(execute)
        future = batcher.submit("queued")
        release.set()
        batcher.close()
        assert future.result(timeout=10) == "queued"

    def test_validates_parameters(self):
        with pytest.raises(ValueError, match="max_rows"):
            CoalescingBatcher(lambda ps: ps, max_rows=0)


# -- IdentityService ------------------------------------------------------------


def make_service(tmp_path, db, k=5, shard_rows=24, word_bits=32, **kw):
    index = ProfileIndex.build(
        tmp_path, db, shard_rows=shard_rows, word_bits=word_bits
    )
    return IdentityService(index, k=k, **kw)


class TestIdentityServiceExactness:
    @pytest.mark.parametrize("k", [1, 4, 75])  # 75: more than the 70 rows
    def test_bit_exact_vs_streaming_multi_shard(self, tmp_path, tracer, k):
        db = make_db(70, duplicates=3)  # ties exercise first-seen order
        queries = make_db(6, seed=21)
        expected = oracle(queries, [db], k=k)
        assert expected == dense_oracle(queries, db, k)
        with make_service(tmp_path, db, k=k) as service:
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
        # Shard words are the operand: a view of the map in the device
        # width (32), converted without unpacking in any other (64).
        # Only the query panel is packed; each shard's one CRC chunk is
        # verified as it is read.
        assert packs == 1
        assert tracer.counters.get(IO_CHUNKS_VERIFIED) == -(-40 // 24)

    def test_memory_index_seals_every_shard_rows(self, tracer):
        db = make_db(40, sites=40, duplicates=3)
        index = ProfileIndex(n_bits=40, shard_rows=8)
        for start in range(0, 40, 4):
            index.append(db[start : start + 4])
        # Every second append seals the tail into one in-memory block.
        assert index.n_segments == 5
        assert np.array_equal(np.vstack(list(index.iter_bits())), db)
        queries = make_db(3, sites=40, seed=34)
        with IdentityService(index, k=6) as service:
            assert service.search(queries) == dense_oracle(queries, db, 6)

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

    def test_resident_cache_holds_only_the_latest_snapshot(
        self, tmp_path, tracer
    ):
        # Sealing gives a tail's rows a new sid; the operands cached
        # under the old sids must go, not pile up with every append.
        with make_service(tmp_path, make_db(64), shard_rows=64) as service:
            with service.index:
                for i in range(40):
                    service.append(make_db(16, seed=200 + i))
                    service.search(make_db(1, seed=300 + i))
                live = {segment.sid for segment in service.index.snapshot()}
                assert set(service._packed) == live

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

    def test_rejects_query_set_over_the_batch_budget(self, tmp_path, tracer):
        db = make_db(20)
        at_budget = make_db(4, seed=1)
        with make_service(tmp_path, db, max_batch_rows=4) as service:
            with service.index:
                assert service.search(at_budget) == oracle(at_budget, [db], k=5)
                with pytest.raises(DatasetError, match="5 query rows.* 4 rows"):
                    service.search(make_db(5, seed=2))
                with pytest.raises(DatasetError, match="5 query rows.* 4 rows"):
                    service.search_many([make_db(5, seed=2)])
                with BackgroundServer(service) as (host, port):
                    with ServiceClient(host, port) as client:
                        with pytest.raises(ReproError, match="DatasetError.*5 query rows"):
                            client.search(make_db(5, seed=2))
                        assert client.search(at_budget) == oracle(at_budget, [db], k=5)
        assert tracer.counters.get(SERVE_BATCH_ROWS) == 8  # never batched

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

    def test_ledger_holds_at_most_max_tenants(self):
        # Eight threads race 512 new tenants for 256 accounts.
        ledger = TenantLedger()
        per_worker = MAX_TENANTS // 4
        results = [None] * 8

        def admit(w):
            results[w] = [ledger.admit(f"w{w}-{i}") for i in range(per_worker)]

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=admit, args=(w,)) for w in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert sum(sum(r) for r in results) == MAX_TENANTS
        assert len(ledger.tenants()) == MAX_TENANTS
        ledger.record("late", rows=1, seconds=0.001)  # not accounted
        assert "late" not in ledger.tenants()
        known = ledger.tenants()[0]
        assert ledger.admit(known)  # known tenants keep their account

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
        with make_service(tmp_path, db) as service:
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
        with make_service(tmp_path, db) as service:
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

    def test_tenant_caps_refuse_over_the_wire(self, tmp_path, tracer):
        db = make_db(20)
        query = make_db(1, seed=710)
        expected = oracle(query, [db], k=5)
        with make_service(tmp_path, db) as service:
            with service.index:
                with BackgroundServer(service) as (host, port):
                    with ServiceClient(host, port) as client:
                        for i in range(MAX_TENANTS):
                            client.search(query, tenant=f"lab-{i}")
                        with pytest.raises(
                            ReproError, match=f"DatasetError.*{MAX_TENANTS} tenants"
                        ):
                            client.search(query, tenant="one-too-many")
                        assert client.search(query, tenant="lab-0") == expected
                        with pytest.raises(ReproError, match="DatasetError.*characters"):
                            client.search(query, tenant="x" * (MAX_TENANT_CHARS + 1))
                        # A non-string tenant is refused, not stringified.
                        for bad in (7, ["lab-1"], None):
                            with pytest.raises(ReproError, match="DatasetError.*tenant"):
                                client._call(
                                    {"op": "search", "queries": query.tolist(),
                                     "tenant": bad}
                                )
                        assert client.ping()
                assert len(service.ledger.tenants()) == MAX_TENANTS

    def test_concurrent_clients_coalesce_and_match_oracle(
        self, tmp_path, tracer
    ):
        db = make_db(60, duplicates=4)
        query_sets = [make_db(1, seed=800 + i) for i in range(6)]
        oracles = [oracle(q, [db], k=5) for q in query_sets]
        results = [None] * len(query_sets)
        with make_service(tmp_path, db) as service:
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

    @pytest.mark.parametrize(
        "signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"]
    )
    def test_cli_serve_drains_on_signal_with_sigint_ignored(
        self, tmp_path, signum
    ):
        # A server started as a background job of a non-interactive
        # shell inherits SIGINT ignored; SIGINT and SIGTERM must still
        # drain it to a clean exit.
        from repro.snp.dataset import SNPDataset
        from repro.snp.io import save_dataset_npz

        database = tmp_path / "db.npz"
        save_dataset_npz(str(database), SNPDataset(matrix=make_db(20)))
        launcher = (
            "import os, signal, sys\n"
            "signal.signal(signal.SIGINT, signal.SIG_IGN)\n"
            "os.execv(sys.executable, [sys.executable, '-m', 'repro.cli', *sys.argv[1:]])\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.Popen(
            [sys.executable, "-c", launcher, "serve", "--database", str(database),
             "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        watchdog = threading.Timer(60, proc.kill)
        watchdog.start()
        try:
            for line in proc.stdout:
                if line.startswith("listening on"):
                    break
            proc.send_signal(signum)
            proc.communicate(timeout=10)
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0


# -- live dispatch behaviour ----------------------------------------------------


class TestLiveDispatch:
    def test_idle_service_dispatches_at_once(self, tmp_path, tracer):
        db = make_db(20)
        query = make_db(1, seed=960)
        with make_service(tmp_path, db) as service:
            with service.index, held_dispatcher() as (held, release):
                future = service.submit(query)
                # Cut and running with no other request to wait for.
                assert held.wait(timeout=30)
                assert service.health()["queued_requests"] == 0
                release.set()
                assert future.result(timeout=30) == oracle(query, [db], k=5)
        assert tracer.counters.get(SERVE_BATCHES) == 1
        assert tracer.counters.get(SERVE_COALESCED_BATCHES) == 0

    def test_requests_queued_behind_a_batch_share_the_next(
        self, tmp_path, tracer
    ):
        db = make_db(30)
        first = make_db(1, seed=899)
        query_sets = [make_db(1, seed=900 + i) for i in range(4)]
        with make_service(tmp_path, db, max_batch_rows=64) as service:
            with service.index, held_dispatcher() as (held, release):
                running = service.submit(first)
                assert held.wait(timeout=30)
                futures = [service.submit(q) for q in query_sets]
                assert service.health()["queued_requests"] == 4
                release.set()
                assert running.result(timeout=30) == oracle(first, [db], k=5)
                for future, q in zip(futures, query_sets):
                    assert future.result(timeout=30) == oracle(q, [db], k=5)
        assert tracer.counters.get(SERVE_BATCHES) == 2
        assert tracer.counters.get(SERVE_COALESCED_BATCHES) == 1
        assert tracer.counters.get(SERVE_BATCH_ROWS) == 5

    def test_mid_batch_append_visible_after_barrier(self, tmp_path, tracer):
        """A query admitted after append() returned sees the new rows."""
        db = make_db(30)
        probe = make_db(1, seed=950)
        with make_service(tmp_path, db, k=31, shard_rows=16) as service:
            with service.index, held_dispatcher() as (held, release):
                first = service.submit(make_db(1, seed=951))
                assert held.wait(timeout=30)  # the append lands mid-batch
                start, _stop = service.append(probe)
                second = service.submit(probe)
                release.set()
                first.result(timeout=30)
                matches = second.result(timeout=30)[0]
                assert any(
                    m.database_index == start and m.distance == 0
                    for m in matches
                )
