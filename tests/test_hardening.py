"""Overload, deadline and lifecycle-hardening tests for the serving stack.

Covers the :class:`Deadline` primitive, bounded admission on
:class:`CoalescingBatcher` (queue and row budgets, ``retry_after_ms``
hints priced at the last batch's wall time, deadline rejection at
admission and at batch cut), the
:class:`CircuitBreaker` state machine (trip, cooldown, half-open probe,
re-trip), service-level drain/health/shed flows, end-to-end deadline
and overload replies over the JSON-lines wire protocol, the thread-leak
guards on :class:`CoalescingBatcher.close` / :class:`BackgroundServer`,
and :class:`ChunkStream`'s deterministic close.
"""

import queue
import threading
import time

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    OverloadedError,
    ReproError,
)
from repro.io_stream import ArraySource, ChunkStream
from repro.observability.counters import (
    SERVE_BREAKER_TRIPS,
    SERVE_DEADLINE_EXCEEDED,
    SERVE_SHED,
    STREAM_PRODUCER_LEAKED,
)
from repro.observability.tracer import Tracer, set_tracer
from repro.resilience import Deadline
from repro.serve import (
    BackgroundServer,
    CircuitBreaker,
    CoalescingBatcher,
    IdentityService,
    ProfileIndex,
    ServiceClient,
)

SITES = 96


@pytest.fixture()
def tracer():
    t = Tracer()
    previous = set_tracer(t)
    yield t
    set_tracer(previous)


def make_db(rows, sites=SITES, seed=7):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(rows, sites), dtype=np.uint8)


def make_service(db, **kw):
    index = ProfileIndex(n_bits=db.shape[1])
    index.append(db)
    kw.setdefault("device", "GTX 980")
    return IdentityService(index, k=3, **kw)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


# -- Deadline ------------------------------------------------------------------


class TestDeadline:
    def test_remaining_and_expiry(self):
        clock = FakeClock()
        dl = Deadline.after(2.0, clock=clock)
        assert dl.remaining() == pytest.approx(2.0)
        assert not dl.expired
        clock.now = 2.5
        assert dl.expired
        assert dl.remaining() == 0.0
        assert dl.overrun() == pytest.approx(0.5)

    def test_check_raises_with_overrun(self):
        clock = FakeClock()
        dl = Deadline.after(1.0, clock=clock)
        dl.check("fold")  # within budget: no-op
        clock.now = 1.25
        with pytest.raises(DeadlineExceededError) as exc_info:
            dl.check("fold")
        assert exc_info.value.overrun_s == pytest.approx(0.25)

    def test_remaining_ms_floors_and_clamps(self):
        clock = FakeClock()
        dl = Deadline.after(0.5, clock=clock)
        assert dl.remaining_ms() == 500
        clock.now = 0.4995  # 0.5 ms left: floors to 0
        assert dl.remaining_ms() == 0
        clock.now = 2.0  # long expired: clamped, not negative
        assert dl.remaining_ms() == 0


# -- bounded admission ---------------------------------------------------------


class TestBoundedAdmission:
    def _blocked_batcher(self, executed=None, **kw):
        """A batcher whose executor blocks until ``release`` is set,
        appending each payload it runs to ``executed`` when given."""
        release = threading.Event()
        entered = threading.Event()

        def execute(payloads):
            if executed is not None:
                executed.extend(payloads)
            entered.set()
            release.wait(timeout=30)
            return [None] * len(payloads)

        batcher = CoalescingBatcher(execute, **kw)
        return batcher, release, entered

    def test_queue_full_sheds_with_retry_hint(self, tracer):
        # "running" holds the dispatcher, so "queued" takes the one
        # queue slot and the admission bound is hit deterministically.
        batcher, release, entered = self._blocked_batcher(max_queue=1)
        try:
            batcher.submit("running")
            assert entered.wait(timeout=10)
            queued = batcher.submit("queued")
            with pytest.raises(OverloadedError) as exc_info:
                batcher.submit("shed")
            assert exc_info.value.reason == "queue_full"
            assert exc_info.value.retry_after_ms >= 1
        finally:
            release.set()
            batcher.close()
        # The admitted request still completes (graceful drain, not drop).
        assert queued.result(timeout=10) is None
        assert tracer.counters.get(SERVE_SHED) == 1

    def test_retry_hint_prices_the_last_batch(self, tracer):
        release = threading.Event()
        entered = threading.Event()

        def execute(payloads):
            if payloads == ["slow"]:
                time.sleep(0.05)  # a measured batch of at least 50 ms
            else:
                entered.set()
                release.wait(timeout=30)
            return [None] * len(payloads)

        batcher = CoalescingBatcher(execute, max_rows=1, max_queue=1)
        try:
            batcher.submit("slow").result(timeout=10)
            batcher.submit("running")
            assert entered.wait(timeout=10)
            batcher.submit("queued")
            with pytest.raises(OverloadedError) as exc_info:
                batcher.submit("shed")
        finally:
            release.set()
            batcher.close()
        # 1 running + 1 queued + 1 new row at 1 row per batch: three
        # batches ahead, each priced at the last batch's >= 50 ms.
        assert exc_info.value.retry_after_ms >= 150

    def test_inflight_row_budget_sheds(self, tracer):
        batcher, release, entered = self._blocked_batcher(max_inflight_rows=8)
        try:
            batcher.submit("a", rows=6)
            assert entered.wait(timeout=10)  # 6 rows now executing
            with pytest.raises(OverloadedError, match="row budget"):
                batcher.submit("b", rows=3)  # 6 + 3 > 8
            batcher.submit("c", rows=2)  # 6 + 2 == 8: admitted
        finally:
            release.set()
            batcher.close()
        assert tracer.counters.get(SERVE_SHED) == 1

    def test_queue_bound_holds_while_a_batch_runs(self, tracer):
        # The dispatcher thread runs the batch it cut, so arrivals wait
        # in the bounded queue rather than an executor's unbounded one.
        batcher, release, entered = self._blocked_batcher(max_queue=1)
        admitted = shed = 0
        try:
            batcher.submit("running")
            assert entered.wait(timeout=10)
            for i in range(20):
                try:
                    batcher.submit(i)
                    admitted += 1
                except OverloadedError:
                    shed += 1
                time.sleep(0.005)  # room for a dispatcher to cut
            assert batcher.queued_requests == 1
        finally:
            release.set()
            batcher.close()
        assert (admitted, shed) == (1, 19)
        assert tracer.counters.get(SERVE_SHED) == 19

    def test_expired_deadline_rejected_at_admission(self, tracer):
        clock = FakeClock()
        dl = Deadline.after(1.0, clock=clock)
        clock.now = 2.0
        with CoalescingBatcher(lambda p: [None] * len(p)) as batcher:
            with pytest.raises(DeadlineExceededError) as exc_info:
                batcher.submit("a", deadline=dl)
            assert exc_info.value.overrun_s == pytest.approx(1.0)
        assert tracer.counters.get(SERVE_DEADLINE_EXCEEDED) == 1

    def test_deadline_expiring_in_queue_fails_at_cut(self, tracer):
        """A budget that lapses while queued never reaches compute."""
        executed = []
        batcher, release, entered = self._blocked_batcher(executed)
        clock = FakeClock()
        try:
            batcher.submit("running")
            assert entered.wait(timeout=10)
            future = batcher.submit(
                "doomed", deadline=Deadline.after(1.0, clock=clock)
            )
            clock.now = 2.0  # the budget lapses behind the running batch
        finally:
            release.set()
            batcher.close()
        with pytest.raises(DeadlineExceededError):
            future.result(timeout=10)
        assert executed == ["running"]  # the executor never saw "doomed"
        assert tracer.counters.get(SERVE_DEADLINE_EXCEEDED) == 1

    def test_wait_idle_reports_quiescence(self):
        batcher, release, entered = self._blocked_batcher()
        try:
            batcher.submit("a")
            assert entered.wait(timeout=10)
            assert not batcher.wait_idle(timeout=0.05)  # still executing
            release.set()
            assert batcher.wait_idle(timeout=10)
            assert batcher.queued_requests == 0
            assert batcher.inflight_rows == 0
        finally:
            release.set()
            batcher.close()


# -- circuit breaker -----------------------------------------------------------


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self, tracer):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, cooldown_s=5.0, clock=clock)
        breaker.record_failure()
        breaker.record_success()  # resets the consecutive run
        for _ in range(3):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert 0 < breaker.retry_after_ms() <= 5000
        assert tracer.counters.get(SERVE_BREAKER_TRIPS) == 1

    def test_half_open_admits_one_probe(self, tracer):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=1.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.now = 1.5  # cooldown elapsed
        assert breaker.state == "half-open"
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # only one probe at a time
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_probe_failure_re_trips(self, tracer):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=1.0, clock=clock)
        breaker.record_failure()
        clock.now = 1.5
        assert breaker.allow()
        breaker.record_failure()  # the probe failed
        assert breaker.state == "open"
        assert breaker.trips == 2
        assert tracer.counters.get(SERVE_BREAKER_TRIPS) == 2

    def test_validates_parameters(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(cooldown_s=0)


# -- service drain / health / shed ---------------------------------------------


class TestServiceOverload:
    def test_breaker_trip_sheds_submissions(self, tracer):
        db = make_db(40)
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=60.0)
        with make_service(db, breaker=breaker) as service:
            with service.index:
                service._run_panel = lambda *a, **kw: (_ for _ in ()).throw(
                    ReproError("backend down")
                )
                with pytest.raises(ReproError):
                    service.search(make_db(1, seed=1))
                assert breaker.state == "open"
                with pytest.raises(OverloadedError) as exc_info:
                    service.search(make_db(1, seed=2))
        assert exc_info.value.reason == "breaker_open"
        assert exc_info.value.retry_after_ms > 0
        assert tracer.counters.get(SERVE_BREAKER_TRIPS) == 1
        assert tracer.counters.get(SERVE_SHED) == 1

    def test_breaker_recovers_after_cooldown(self, tracer):
        db = make_db(40)
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=0.05)
        with make_service(db, breaker=breaker) as service:
            with service.index:
                original = service._run_panel
                service._run_panel = lambda *a, **kw: (_ for _ in ()).throw(
                    ReproError("backend down")
                )
                with pytest.raises(ReproError):
                    service.search(make_db(1, seed=1))
                service._run_panel = original  # backend healed
                time.sleep(0.1)  # cooldown elapses: half-open probe
                assert service.search(make_db(1, seed=2))
                assert breaker.state == "closed"

    def test_drain_stops_admission_and_finishes_inflight(self, tracer):
        db = make_db(40)
        with make_service(db) as service:
            with service.index:
                future = service.submit(make_db(1, seed=3))
                assert service.drain(timeout=30)
                assert future.result(timeout=30)  # in-flight completed
                with pytest.raises(OverloadedError) as exc_info:
                    service.search(make_db(1, seed=4))
                assert exc_info.value.reason == "shutting_down"
                assert service.state() == "draining"
                assert service.health()["draining"] is True
        assert tracer.counters.get(SERVE_SHED) == 1

    def test_health_snapshot_when_ready(self, tracer):
        db = make_db(40)
        with make_service(db) as service:
            with service.index:
                health = service.health()
        assert health["state"] == "ready"
        assert health["breaker"] == "closed"
        assert health["breaker_trips"] == 0
        assert health["queued_requests"] == 0
        assert health["index_rows"] == 40

    def test_deadline_rejects_before_compute(self, tracer):
        db = make_db(40)
        with make_service(db) as service:
            with service.index:
                clock = FakeClock()
                dl = Deadline.after(1.0, clock=clock)
                clock.now = 2.0
                with pytest.raises(DeadlineExceededError):
                    service.search(make_db(1, seed=5), deadline=dl)
                # A float deadline is a relative budget in seconds; a
                # generous one passes through untouched.
                assert service.search(make_db(1, seed=6), deadline=30.0)
        assert tracer.counters.get(SERVE_DEADLINE_EXCEEDED) == 1


# -- wire protocol -------------------------------------------------------------


class TestWireHardening:
    def test_deadline_ms_maps_to_typed_error(self, tracer):
        db = make_db(40)
        with make_service(db) as service:
            with service.index:
                with BackgroundServer(service) as (host, port):
                    with ServiceClient(host, port) as client:
                        # A 1 us budget has lapsed by admission, before
                        # any batch could run it.
                        with pytest.raises(DeadlineExceededError) as exc_info:
                            client.search(make_db(1, seed=8), deadline_ms=0.001)
                        assert exc_info.value.overrun_s >= 0
                        # A generous budget answers normally.
                        assert client.search(make_db(1, seed=9), deadline_ms=60000)
        assert tracer.counters.get(SERVE_DEADLINE_EXCEEDED) == 1

    def test_invalid_deadline_ms_rejected(self, tracer):
        db = make_db(40)
        with make_service(db) as service:
            with service.index:
                with BackgroundServer(service) as (host, port):
                    with ServiceClient(host, port) as client:
                        with pytest.raises(ReproError, match="deadline_ms"):
                            client._call(
                                {
                                    "op": "search",
                                    "queries": [[0] * SITES],
                                    "deadline_ms": "soon",
                                }
                            )
                        with pytest.raises(ReproError, match="positive"):
                            client.search(make_db(1, seed=1), deadline_ms=-5)
                        # json parses NaN/Infinity: neither may become a
                        # budget that never expires; true is not 1 ms.
                        for bad in (float("nan"), float("inf"), True):
                            with pytest.raises(ReproError, match="deadline_ms"):
                                client.search(make_db(1, seed=1), deadline_ms=bad)
                        assert client.ping()  # connection stays usable

    def test_health_verb_and_server_drain(self, tracer):
        db = make_db(40)
        with make_service(db) as service:
            with service.index:
                server = BackgroundServer(service)
                host, port = server.start()
                try:
                    with ServiceClient(host, port) as client:
                        assert client.health()["state"] == "ready"
                        assert server._server is not None
                        server._server._draining = True
                        with pytest.raises(OverloadedError) as exc_info:
                            client.search(make_db(1, seed=2))
                        assert exc_info.value.reason == "shutting_down"
                        assert client.health()["state"] == "draining"
                        assert client.ping()  # non-search ops still served
                finally:
                    server.stop()
        assert tracer.counters.get(SERVE_SHED) == 1

    def test_shed_reply_carries_retry_after(self, tracer):
        db = make_db(40)
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=60.0)
        with make_service(db, breaker=breaker) as service:
            with service.index:
                breaker.record_failure()  # trip it directly
                with BackgroundServer(service) as (host, port):
                    with ServiceClient(host, port) as client:
                        with pytest.raises(OverloadedError) as exc_info:
                            client.search(make_db(1, seed=3))
        assert exc_info.value.reason == "breaker_open"
        assert exc_info.value.retry_after_ms > 0


# -- thread-leak guards --------------------------------------------------------


class TestLeakGuards:
    def test_batcher_close_raises_on_leaked_dispatcher(self):
        batcher = CoalescingBatcher(lambda p: [None] * len(p))
        batcher.close()  # the real dispatcher drains cleanly
        release = threading.Event()
        wedged = threading.Thread(target=release.wait, daemon=True)
        wedged.start()
        batcher._closed = False
        batcher._dispatcher = wedged
        try:
            with pytest.raises(RuntimeError, match="thread leaked"):
                batcher.close(timeout=0.1)
        finally:
            release.set()

    def test_background_server_start_timeout_reaps_thread(self, monkeypatch):
        from repro.serve import server as server_mod

        async def wedged_start(self):
            # Never reports an address, but honors request_stop -- the
            # reap path in BackgroundServer.start must signal and join.
            await self._stop.wait()
            return (self.host, self.port)

        monkeypatch.setattr(server_mod.IdentityServer, "start", wedged_start)
        db = make_db(20)
        with make_service(db) as service:
            with service.index:
                background = BackgroundServer(service, start_timeout_s=0.2)
                with pytest.raises(ReproError, match="did not report"):
                    background.start()
                assert background._thread is None  # reaped, not leaked

    def test_background_server_stop_raises_on_leaked_thread(self):
        db = make_db(20)
        with make_service(db) as service:
            with service.index:
                background = BackgroundServer(service)
                release = threading.Event()
                wedged = threading.Thread(target=release.wait, daemon=True)
                wedged.start()
                background._thread = wedged
                try:
                    with pytest.raises(RuntimeError, match="thread leaked"):
                        background.stop(timeout=0.1)
                finally:
                    release.set()


# -- ChunkStream deterministic close -------------------------------------------


class _WedgedSource(ArraySource):
    """A source whose chunk iterator blocks until released."""

    def __init__(self, bits, gate):
        super().__init__(bits)
        self._gate = gate

    def chunks(self, chunk_rows):
        self._gate.wait(timeout=30)
        yield from super().chunks(chunk_rows)


class TestChunkStreamClose:
    def test_abandoned_consumer_closes_cleanly(self):
        bits = make_db(64, sites=32)
        stream = ChunkStream(ArraySource(bits), chunk_rows=8)
        iterator = iter(stream)
        next(iterator)  # take one chunk, abandon the rest
        # The producer is parked on the full hand-off queue; close must
        # drain it and join instead of deadlocking.
        stream.close()
        assert stream._thread is None

    def test_close_is_idempotent_after_exhaustion(self):
        bits = make_db(16, sites=32)
        stream = ChunkStream(ArraySource(bits), chunk_rows=8)
        assert len(list(stream)) == 2
        stream.close()
        stream.close()

    def test_wedged_producer_counted_and_raised(self, tracer):
        gate = threading.Event()
        bits = make_db(16, sites=32)
        stream = ChunkStream(_WedgedSource(bits, gate), chunk_rows=8)
        out = queue.Queue(maxsize=1)
        producer = threading.Thread(
            target=stream._producer, args=(out,), daemon=True
        )
        stream._queue = out
        stream._thread = producer
        producer.start()  # wedges inside the source read
        try:
            with pytest.raises(RuntimeError, match="thread leaked"):
                stream.close(timeout=0.2)
        finally:
            gate.set()  # release so the thread dies with the test
        assert tracer.counters.get(STREAM_PRODUCER_LEAKED) == 1
        producer.join(timeout=10)
        assert not producer.is_alive()
