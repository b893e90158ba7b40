"""Chaos harness: seeded fault plans, bit-exact answers, exact counters.

The resilience layer's end-to-end test rig (and CI's ``chaos-smoke``
job).  One registry, :data:`SCENARIOS`, holds every scenario; each runs
under a seeded :class:`~repro.resilience.faults.FaultPlan` and is held
to the same two standards:

1. **Zero wrong answers** -- a faulted run returns the fault-free
   reference bit for bit, or (service scenarios) a typed error
   (:class:`~repro.errors.DeadlineExceededError`,
   :class:`~repro.errors.OverloadedError`,
   :class:`~repro.errors.IntegrityError`).  Transient faults, injected
   delays, vanishing clients and corrupt bytes must never surface as a
   silently wrong table or match.
2. **Exact counter gates** -- every scheduled fault fired, and the
   retry / verification / ``serve.*`` / ``io.*`` counters match what
   the plan implies, firing for firing.

Engine scenarios (``ld``, ``identity``, ``mixture``) run one
application fault-free for a reference table, then again under
:meth:`FaultPlan.random` with retries, quarantine and full spot
verification engaged: ``retries == #shard + #slow + #kernel``
firings, ``verify_mismatches == #bitflip`` firings, ``quarantined ==
0`` (the retry budget always exceeds the scheduled burst lengths).
Datasets exceed the engine's parallel crossover (the sharded path is
what shard-addressed faults target) and the kernel backend is pinned
to ``"blas"``: ``"auto"`` switches to ``cnative`` when its background
build lands, so a pinned backend keeps every run on one kernel.

Service scenarios drive :class:`~repro.serve.service.IdentityService`:

``latency``
    The first *K* micro-batches sleep ``slow_delay_s`` before packing
    (:meth:`FaultInjector.service_delay`).  Requests riding those
    batches carry deadlines shorter than the injected delay, so each
    must be rejected -- ``serve.deadline_exceeded == K`` exactly --
    while undelayed requests return bit-exact results.

``disconnect``
    *K* of the harness's TCP clients hang up right after sending their
    search (:meth:`FaultInjector.should_disconnect`).  The server must
    absorb the dead connections: every request is still admitted and
    computed (``serve.queries`` exact), surviving clients get bit-exact
    answers, and the server stays ``ready`` for new connections.

``disk-corrupt``
    One seeded bit is flipped inside the *last* ``.snpbin`` shard of a
    directory-backed index (:meth:`FaultInjector.should_corrupt_disk`
    picks the shard, the harness flips the byte).  Every search touching
    the shard must fail with an :class:`~repro.errors.IntegrityError`
    (CRC detection is exact: ``io.crc_failures`` counts one per verify
    attempt), repeated failures trip the circuit breaker, ``fsck``
    quarantines the shard, and the reopened index serves the healthy
    rows bit-exactly.  Targeting the last shard keeps the surviving
    rows' global indices stable, so the post-quarantine oracle is just
    the same database truncated.

Usage::

    python -m repro.resilience.chaos --scenarios ld,latency --seeds 1,2,3

Both flags default to everything (all six scenarios, seeds 1,2,3); the
CLI exits 1 if any case fails.
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.config import Algorithm
from repro.core.framework import SNPComparisonFramework
from repro.core.streaming import Match
from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    IntegrityError,
    OverloadedError,
)
from repro.gpu.arch import get_gpu
from repro.io_stream.format import SNPBIN2_HEADER_BYTES
from repro.io_stream.fsck import fsck_directory
from repro.observability.counters import (
    IO_CHUNKS_VERIFIED,
    IO_CRC_FAILURES,
    SERVE_BREAKER_TRIPS,
    SERVE_DEADLINE_EXCEEDED,
    SERVE_QUERIES,
    SERVE_SHED,
)
from repro.observability.tracer import Tracer, set_tracer
from repro.resilience.faults import FaultPlan
from repro.resilience.retry import RetryPolicy
from repro.resilience.runtime import resilient
from repro.serve.index import ProfileIndex
from repro.serve.overload import CircuitBreaker
from repro.serve.server import BackgroundServer, ServiceClient
from repro.serve.service import IdentityService

__all__ = ["SCENARIOS", "ChaosResult", "run_chaos_case", "run_chaos", "main"]

#: The simulated device every scenario runs on.
_DEVICE = "GTX 980"


@dataclass
class ChaosResult:
    """Outcome of one (scenario, seed) chaos case."""

    scenario: str
    seed: int
    plan_spec: str
    bit_exact: bool
    zero_wrong_answers: bool = True
    expected: dict[str, int] = field(default_factory=dict)
    observed: dict[str, int] = field(default_factory=dict)

    @property
    def counters_match(self) -> bool:
        return self.expected == self.observed

    @property
    def passed(self) -> bool:
        return self.bit_exact and self.zero_wrong_answers and self.counters_match

    def summary(self) -> str:
        status = "ok" if self.passed else "FAIL"
        line = (
            f"[{status}] scenario={self.scenario} seed={self.seed} "
            f"plan={self.plan_spec!r}"
        )
        if not self.bit_exact:
            line += " BIT-MISMATCH"
        if not self.zero_wrong_answers:
            line += " WRONG-ANSWER"
        if not self.counters_match:
            line += f" expected={self.expected} observed={self.observed}"
        return line


# -- engine scenarios: ld, identity, mixture -----------------------------------

#: Scenario -> framework algorithm.
_APP_ALGORITHMS = {
    "ld": Algorithm.LD,
    "identity": Algorithm.FASTID_IDENTITY,
    "mixture": Algorithm.FASTID_MIXTURE,
}

#: 256 x 256 rows over 2048 sites is 2^22 word-ops on a 32-bit-word
#: device -- above the engine's parallel crossover (2^21), so
#: shard-addressed faults have shards to hit.
_ENGINE_ROWS = 256
_ENGINE_SITES = 2048
_ENGINE_WORKERS = 4

#: Dataset seed per app (fixed: the *fault schedule* is what varies).
_DATA_SEEDS = {"ld": 101, "identity": 202, "mixture": 303}

#: Retry budget: strictly above the longest per-shard firing sequence
#: FaultPlan.random can schedule (shard count <= 2 plus slow count <= 2
#: on one target), so transient faults always recover without
#: quarantine and the expected counters are exact.
_CHAOS_ATTEMPTS = 5


def _engine_dataset(app: str) -> tuple[np.ndarray, np.ndarray | None]:
    """Deterministic binary operands for one application."""
    rng = np.random.default_rng(_DATA_SEEDS[app])
    shape = (_ENGINE_ROWS, _ENGINE_SITES)
    a = rng.integers(0, 2, size=shape, dtype=np.uint8)
    if app == "ld":
        return a, None  # self-comparison (Gram mode)
    return a, rng.integers(0, 2, size=shape, dtype=np.uint8)


def _engine_case(app: str, seed: int) -> ChaosResult:
    """One application under one seeded random fault schedule.

    The fault-free reference run and the faulted run share the
    framework instance, dataset, worker count and pinned ``"blas"``
    kernel backend; only the resilience context differs.
    """
    a_bits, b_bits = _engine_dataset(app)
    framework = SNPComparisonFramework(
        _DEVICE, _APP_ALGORITHMS[app], workers=_ENGINE_WORKERS, backend="blas"
    )
    reference, _ = framework.run(a_bits, b_bits)

    plan = FaultPlan.random(seed, max_shard_target=1)
    policy = RetryPolicy(
        max_attempts=_CHAOS_ATTEMPTS, base_delay_s=0.0, jitter=0.0, seed=seed
    )
    with resilient(plan=plan, policy=policy, verify_sample=1.0) as ctx:
        table, report = framework.run(a_bits, b_bits)

    res = report.resilience
    assert res is not None  # the context is active by construction
    expected = {
        "faults_injected": plan.n_scheduled,
        "retries": (
            plan.count("shard") + plan.count("slow") + plan.count("kernel")
        ),
        "quarantined": 0,
        "verify_mismatches": plan.count("bitflip"),
        "fired_shard": plan.count("shard"),
        "fired_slow": plan.count("slow"),
        "fired_kernel": plan.count("kernel"),
        "fired_bitflip": plan.count("bitflip"),
    }
    observed = {
        "faults_injected": res.faults_injected,
        "retries": res.retries,
        "quarantined": res.quarantined,
        "verify_mismatches": res.verify_mismatches,
        "fired_shard": ctx.injector.fired_count("shard"),
        "fired_slow": ctx.injector.fired_count("slow"),
        "fired_kernel": ctx.injector.fired_count("kernel"),
        "fired_bitflip": ctx.injector.fired_count("bitflip"),
    }
    return ChaosResult(
        scenario=app,
        seed=seed,
        plan_spec=plan.to_spec(),
        bit_exact=bool(np.array_equal(table, reference)),
        expected=expected,
        observed=observed,
    )


# -- service scenarios: latency, disconnect, disk-corrupt ----------------------

#: Database / query geometry (small: the faults are the point).
_SERVE_ROWS = 256
_SERVE_SITES = 512
_SHARD_ROWS = 64
_N_REQUESTS = 4
_QUERY_ROWS = 4
_SERVE_DATA_SEED = 424242

#: Injected service delay and the (shorter) deadline riding it.  The
#: sleep *guarantees* the budget expires, so the gate is exact on any
#: machine: expiry needs only ``delay > budget``, never a fast host.
_LATENCY_DELAY_S = 0.25
_LATENCY_BUDGET_S = 0.1


def _serve_dataset() -> tuple[np.ndarray, list[np.ndarray]]:
    rng = np.random.default_rng(_SERVE_DATA_SEED)
    profiles = rng.integers(0, 2, size=(_SERVE_ROWS, _SERVE_SITES), dtype=np.uint8)
    queries = [
        rng.integers(0, 2, size=(_QUERY_ROWS, _SERVE_SITES), dtype=np.uint8)
        for _ in range(_N_REQUESTS)
    ]
    return profiles, queries


def _service(index: ProfileIndex, **kwargs: object) -> IdentityService:
    return IdentityService(
        index,
        k=3,
        device=_DEVICE,
        window_s=0.001,
        max_batch_rows=1024,
        **kwargs,  # type: ignore[arg-type]
    )


def _reference(
    profiles: np.ndarray, queries: list[np.ndarray]
) -> list[list[list[Match]]]:
    """Fault-free per-request results over an in-memory index."""
    index = ProfileIndex(n_bits=profiles.shape[1])
    index.append(profiles)
    with _service(index) as service:
        return [service.search(q) for q in queries]


def _counters(tracer: Tracer, *names: str) -> dict[str, int]:
    snapshot = tracer.counters.snapshot()
    return {name: int(snapshot.get(name, 0)) for name in names}


def _latency_case(seed: int) -> ChaosResult:
    profiles, queries = _serve_dataset()
    reference = _reference(profiles, queries)
    n_delayed = 1 + seed % 2
    plan = FaultPlan.from_spec(
        f"latency:{n_delayed},seed={seed}", slow_delay_s=_LATENCY_DELAY_S
    )

    index = ProfileIndex(n_bits=profiles.shape[1])
    index.append(profiles)
    tracer = Tracer()
    previous = set_tracer(tracer)
    deadline_errors = 0
    overruns_positive = True
    wrong = False
    exact = True
    try:
        with resilient(plan=plan) as ctx, _service(index) as service:
            # Sequential submits (each awaited) make batch i carry
            # request i, so the first ``n_delayed`` latency ordinals hit
            # exactly the deadline-carrying requests.
            for i, q in enumerate(queries):
                budget = _LATENCY_BUDGET_S if i < n_delayed else None
                try:
                    matches = service.search(q, deadline=budget)
                except DeadlineExceededError as exc:
                    deadline_errors += 1
                    if exc.overrun_s <= 0:
                        overruns_positive = False
                    continue
                if i < n_delayed:
                    wrong = True  # a delayed request must not answer
                if matches != reference[i]:
                    exact = False
            fired = ctx.injector.fired_count("latency")
    finally:
        set_tracer(previous)

    observed = _counters(tracer, SERVE_DEADLINE_EXCEEDED, SERVE_SHED)
    observed["fired_latency"] = fired
    observed["deadline_errors"] = deadline_errors
    expected = {
        SERVE_DEADLINE_EXCEEDED: n_delayed,
        SERVE_SHED: 0,
        "fired_latency": n_delayed,
        "deadline_errors": n_delayed,
    }
    return ChaosResult(
        scenario="latency",
        seed=seed,
        plan_spec=plan.to_spec(),
        bit_exact=exact,
        zero_wrong_answers=not wrong and overruns_positive,
        expected=expected,
        observed=observed,
    )


def _send_and_vanish(host: str, port: int, queries: np.ndarray) -> None:
    """Send a search request, then hang up without reading the reply."""
    with socket.create_connection((host, port), timeout=10.0) as sock:
        message = {"op": "search", "queries": queries.tolist(), "id": 0}
        sock.sendall(json.dumps(message).encode() + b"\n")
        # Graceful FIN right after the request: the line is delivered,
        # the server computes, and its reply write lands on a dead
        # connection -- which must cost exactly nothing.


def _wait_for(predicate: Callable[[], bool], timeout_s: float = 10.0) -> bool:
    deadline = time.perf_counter() + timeout_s
    while time.perf_counter() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def _disconnect_case(seed: int) -> ChaosResult:
    profiles, queries = _serve_dataset()
    reference = _reference(profiles, queries)
    n_disconnect = 1 + seed % 2
    plan = FaultPlan.from_spec(f"client-disconnect:{n_disconnect},seed={seed}")

    index = ProfileIndex(n_bits=profiles.shape[1])
    index.append(profiles)
    tracer = Tracer()
    previous = set_tracer(tracer)
    exact = True
    healthy_after = False
    try:
        with resilient(plan=plan) as ctx, _service(index) as service:
            with BackgroundServer(service) as (host, port):
                for i, q in enumerate(queries):
                    if ctx.injector.should_disconnect():
                        _send_and_vanish(host, port, q)
                        continue
                    with ServiceClient(host, port) as client:
                        if client.search(q) != reference[i]:
                            exact = False
                # Every request -- including the abandoned ones -- must
                # have been admitted and executed; the dead connections
                # must not wedge the server.
                _wait_for(
                    lambda: int(tracer.counters.get(SERVE_QUERIES)) >= _N_REQUESTS
                )
                with ServiceClient(host, port) as probe:
                    healthy_after = (
                        probe.ping()
                        and probe.health().get("state") == "ready"
                    )
            fired = ctx.injector.fired_count("client-disconnect")
    finally:
        set_tracer(previous)

    observed = _counters(tracer, SERVE_QUERIES, SERVE_SHED)
    observed["fired_disconnect"] = fired
    observed["healthy_after"] = int(healthy_after)
    expected = {
        SERVE_QUERIES: _N_REQUESTS,
        SERVE_SHED: 0,
        "fired_disconnect": n_disconnect,
        "healthy_after": 1,
    }
    return ChaosResult(
        scenario="disconnect",
        seed=seed,
        plan_spec=plan.to_spec(),
        bit_exact=exact,
        expected=expected,
        observed=observed,
    )


def _flip_bit_in_shard(path: Path, seed: int) -> None:
    """Flip one seeded bit inside the shard's packed data region."""
    rng = np.random.default_rng(seed)
    size = path.stat().st_size
    data_start = SNPBIN2_HEADER_BYTES
    data_stop = size - 4  # keep the CRC table intact: corrupt the data
    offset = int(rng.integers(data_start, data_stop))
    bit = int(rng.integers(0, 8))
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)[0]
        fh.seek(offset)
        fh.write(bytes([byte ^ (1 << bit)]))


def _disk_corrupt_case(seed: int) -> ChaosResult:
    profiles, queries = _serve_dataset()
    n_shards = _SERVE_ROWS // _SHARD_ROWS
    last_seq = n_shards - 1
    healthy_rows = _SHARD_ROWS * last_seq
    reference_healthy = _reference(profiles[:healthy_rows], queries)
    plan = FaultPlan.from_spec(f"disk-corrupt@{last_seq}:1,seed={seed}")
    word_bits = get_gpu(_DEVICE).word_bits

    exact = True
    wrong = False
    failed = 0
    shed = 0
    tracer = Tracer()
    with tempfile.TemporaryDirectory(prefix="chaos-disk-corrupt-") as tmp:
        directory = Path(tmp) / "shards"
        index = ProfileIndex.build(
            directory, profiles, shard_rows=_SHARD_ROWS, word_bits=word_bits
        )
        index.close()
        previous = set_tracer(tracer)
        try:
            with resilient(plan=plan) as ctx:
                for seq in range(n_shards):
                    if ctx.injector.should_corrupt_disk(seq):
                        _flip_bit_in_shard(
                            directory / f"shard-{seq:06d}.snpbin", seed
                        )
                fired = ctx.injector.fired_count("disk-corrupt")
                # Three requests fail on the corrupt shard (tripping the
                # breaker at threshold 3); the fourth is shed by the
                # open breaker before touching the index.
                breaker = CircuitBreaker(failure_threshold=3, cooldown_s=60.0)
                with ProfileIndex(directory) as corrupt_index:
                    with _service(corrupt_index, breaker=breaker) as service:
                        for q in queries:
                            try:
                                service.search(q)
                                wrong = True  # corruption must never answer
                            except IntegrityError:
                                failed += 1
                            except OverloadedError as exc:
                                if exc.reason == "breaker_open":
                                    shed += 1
        finally:
            set_tracer(previous)

        report = fsck_directory(directory, quarantine=True)
        quarantined = sum(
            1 for f in report.files if f.quarantined_to is not None
        )

        with ProfileIndex(directory) as reopened:
            if reopened.n_rows != healthy_rows:
                exact = False
            else:
                with _service(reopened) as service:
                    for i, q in enumerate(queries):
                        if service.search(q) != reference_healthy[i]:
                            exact = False

    observed = _counters(
        tracer,
        IO_CRC_FAILURES,
        IO_CHUNKS_VERIFIED,
        SERVE_BREAKER_TRIPS,
        SERVE_SHED,
    )
    observed["fired_disk_corrupt"] = fired
    observed["failed_requests"] = failed
    observed["shed_requests"] = shed
    observed["fsck_corrupt"] = report.n_corrupt
    observed["quarantined"] = quarantined
    expected = {
        # Each failing request verifies the corrupt shard twice (panel
        # attempt + solo fallback); healthy shards verify once, then
        # stay cached for the reader's lifetime.
        IO_CRC_FAILURES: 2 * 3,
        IO_CHUNKS_VERIFIED: last_seq,
        SERVE_BREAKER_TRIPS: 1,
        SERVE_SHED: 1,
        "fired_disk_corrupt": 1,
        "failed_requests": 3,
        "shed_requests": 1,
        "fsck_corrupt": 1,
        "quarantined": 1,
    }
    return ChaosResult(
        scenario="disk-corrupt",
        seed=seed,
        plan_spec=plan.to_spec(),
        bit_exact=exact,
        zero_wrong_answers=not wrong,
        expected=expected,
        observed=observed,
    )


#: Every scenario, in CLI order: scenario name -> case runner(seed).
SCENARIOS: dict[str, Callable[[int], ChaosResult]] = {
    "ld": lambda seed: _engine_case("ld", seed),
    "identity": lambda seed: _engine_case("identity", seed),
    "mixture": lambda seed: _engine_case("mixture", seed),
    "latency": _latency_case,
    "disconnect": _disconnect_case,
    "disk-corrupt": _disk_corrupt_case,
}


def run_chaos_case(scenario: str, seed: int) -> ChaosResult:
    """Run one registered scenario under one seed."""
    if scenario not in SCENARIOS:
        raise ConfigurationError(
            f"run_chaos_case: unknown scenario {scenario!r} "
            f"(valid: {', '.join(SCENARIOS)})"
        )
    return SCENARIOS[scenario](seed)


def run_chaos(
    scenarios: tuple[str, ...] = tuple(SCENARIOS),
    seeds: tuple[int, ...] = (1, 2, 3),
) -> list[ChaosResult]:
    """The full matrix: every scenario under every seed."""
    return [
        run_chaos_case(scenario, seed) for scenario in scenarios for seed in seeds
    ]


def _csv(text: str) -> list[str]:
    return [token.strip() for token in text.split(",") if token.strip()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.resilience.chaos",
        description="Chaos harness: seeded fault plans, bit-exact answers, "
        "exact counter gates",
    )
    parser.add_argument(
        "--scenarios",
        default=",".join(SCENARIOS),
        help=f"comma-separated scenarios (default: all of {', '.join(SCENARIOS)})",
    )
    parser.add_argument(
        "--seeds",
        default="1,2,3",
        help="comma-separated schedule seeds (default: 1,2,3)",
    )
    args = parser.parse_args(argv)

    scenarios = tuple(_csv(args.scenarios))
    unknown = [s for s in scenarios if s not in SCENARIOS]
    if unknown:
        parser.error(
            f"unknown scenario(s) {', '.join(unknown)} "
            f"(valid: {', '.join(SCENARIOS)})"
        )
    try:
        seeds = tuple(int(token) for token in _csv(args.seeds))
    except ValueError:
        parser.error(f"--seeds expects comma-separated integers, got {args.seeds!r}")
    results = run_chaos(scenarios=scenarios, seeds=seeds)
    for result in results:
        print(result.summary())
    n_failed = sum(1 for r in results if not r.passed)
    print(f"chaos: {len(results) - n_failed}/{len(results)} cases passed")
    return 1 if n_failed else 0


if __name__ == "__main__":
    sys.exit(main())
