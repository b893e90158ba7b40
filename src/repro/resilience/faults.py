"""Deterministic fault injection for the simulated device stack.

A :class:`FaultPlan` is a *schedule*: a seeded, fully deterministic
description of which simulated faults fire at which instrumented hook
points.  The instrumented layers (:mod:`repro.core.pipeline`,
:mod:`repro.gpu.device`, :mod:`repro.parallel.engine`,
:mod:`repro.multigpu.executor`) consult the process-global injector at
their hook *sites*; with the default :data:`NULL_INJECTOR` installed
every hook is a no-op attribute check plus an empty call -- the same
zero-overhead pattern as the null tracer.

Fault kinds and their addressing:

``kernel`` / ``alloc``
    Ordinal-indexed: every check of that kind consumes one invocation
    ordinal (kernel launches and buffer allocations are enqueued
    sequentially, so ordinals are deterministic).  A spec
    ``kernel@t:c`` fires on ordinals ``t .. t+c-1`` -- with a retry
    loop around the hook this models *transient* failure: ``c``
    consecutive attempts fail, the next succeeds.
``shard`` / ``slow``
    Shard-addressed: a spec targets one shard id, and the shard's
    attempt number indexes into the target's scheduled sequence --
    all ``shard`` firings first, then all ``slow`` firings, one per
    attempt (shards run concurrently, so attempt-based addressing
    keeps the schedule deterministic under any thread interleaving,
    and sequential consumption guarantees every scheduled firing
    actually fires given a sufficient retry budget).  ``slow`` sleeps
    :attr:`FaultPlan.slow_delay_s` first, modeling a hung shard that a
    watchdog eventually kills; both raise a retryable
    :class:`~repro.errors.FaultInjectedError`.
``device``
    Device-addressed: the device is *lost* -- every check against that
    device index fires, so retrying on the same device can never
    succeed; the multi-GPU executor must drop it and re-partition.
``bitflip``
    Shard-addressed silent corruption: the shard's computed output
    tile has one bit flipped (position drawn from the plan seed) and
    *no error is raised* -- only the spot-verification guard can catch
    it.
``latency``
    Ordinal-indexed service-tier delay: each serving micro-batch
    consults :meth:`FaultInjector.service_delay` before executing, and
    a scheduled firing sleeps :attr:`FaultPlan.slow_delay_s` *without
    raising* -- modeling a slow backend that deadline propagation and
    admission control must absorb (the chaos harness's ``latency``
    scenario).
``disk-corrupt``
    Shard-file corruption: ``disk-corrupt@S`` schedules sealed shard
    file ``S`` of a serving index to have one bit flipped *on disk*
    (the chaos harness's ``disk-corrupt`` scenario flips the bit; the
    injector only decides and records via
    :meth:`FaultInjector.should_corrupt_disk`).  The
    SNPBIN02 per-chunk CRCs must turn this into a loud
    :class:`~repro.errors.IntegrityError`, never a wrong answer.
``client-disconnect``
    Ordinal-indexed client death: the Nth client connection of a chaos
    run hangs up right after sending its request
    (:meth:`FaultInjector.should_disconnect`); the server must absorb
    the broken pipe without failing unrelated requests.

Spec strings (CLI ``--inject-faults``) are comma-separated tokens
``kind[@target][:count]`` plus an optional ``seed=N``::

    kernel:1,shard@0:2,slow@1,bitflip@0,seed=7
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import ConfigurationError, FaultInjectedError
from repro.observability.counters import FAULTS_INJECTED
from repro.observability.tracer import get_tracer

__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "FiredFault",
    "FaultInjector",
    "NullInjector",
    "NULL_INJECTOR",
]

#: Every fault kind the injector understands.
FAULT_KINDS = (
    "kernel", "alloc", "device", "shard", "slow", "bitflip",
    "latency", "disk-corrupt", "client-disconnect",
)

#: Kinds addressed by invocation ordinal (sequential hook sites).
_ORDINAL_KINDS = frozenset({"kernel", "alloc"})

#: Kinds addressed by (shard id, attempt).
_SHARD_KINDS = frozenset({"shard", "slow", "bitflip"})


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: ``count`` firings at ``target``."""

    kind: str
    target: int = 0
    count: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"FaultSpec: unknown fault kind {self.kind!r} "
                f"(valid: {', '.join(FAULT_KINDS)})"
            )
        if self.target < 0:
            raise ConfigurationError(
                f"FaultSpec: target must be >= 0, got {self.target}"
            )
        if self.count <= 0:
            raise ConfigurationError(
                f"FaultSpec: count must be positive, got {self.count}"
            )

    def to_token(self) -> str:
        """The spec-string token this spec round-trips through."""
        token = self.kind
        if self.target:
            token += f"@{self.target}"
        if self.count != 1:
            token += f":{self.count}"
        return token


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic schedule of simulated faults."""

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0
    slow_delay_s: float = 0.002

    @classmethod
    def from_spec(cls, spec: str, slow_delay_s: float = 0.002) -> "FaultPlan":
        """Parse a CLI spec string (see module docstring)."""
        specs: list[FaultSpec] = []
        seed = 0
        for raw_token in spec.split(","):
            token = raw_token.strip()
            if not token:
                continue
            if token.startswith("seed="):
                try:
                    seed = int(token[len("seed="):])
                except ValueError as exc:
                    raise ConfigurationError(
                        f"FaultPlan: bad seed in {token!r}"
                    ) from exc
                continue
            kind, target, count = token, 0, 1
            if ":" in kind:
                kind, count_text = kind.rsplit(":", 1)
                try:
                    count = int(count_text)
                except ValueError as exc:
                    raise ConfigurationError(
                        f"FaultPlan: bad count in {token!r}"
                    ) from exc
            if "@" in kind:
                kind, target_text = kind.split("@", 1)
                try:
                    target = int(target_text)
                except ValueError as exc:
                    raise ConfigurationError(
                        f"FaultPlan: bad target in {token!r}"
                    ) from exc
            specs.append(FaultSpec(kind=kind, target=target, count=count))
        return cls(specs=tuple(specs), seed=seed, slow_delay_s=slow_delay_s)

    @classmethod
    def random(
        cls,
        seed: int,
        max_shard_target: int = 1,
        kinds: Sequence[str] = ("kernel", "shard", "slow", "bitflip"),
        slow_delay_s: float = 0.001,
    ) -> "FaultPlan":
        """A randomized (but seed-deterministic) chaos schedule.

        Shard-addressed faults target ids in
        ``[0, max_shard_target]`` -- callers should pick a bound that
        is guaranteed to exist in the runs they drive.
        """
        rng = random.Random(seed)
        specs: list[FaultSpec] = []
        for kind in kinds:
            n = rng.randint(0, 2)
            for _ in range(n):
                if kind in _ORDINAL_KINDS:
                    specs.append(
                        FaultSpec(kind=kind, target=0, count=rng.randint(1, 2))
                    )
                    break  # ordinal kinds: one contiguous burst
                target = rng.randint(0, max_shard_target)
                count = 1 if kind == "bitflip" else rng.randint(1, 2)
                if any(
                    s.kind == kind and s.target == target for s in specs
                ):
                    continue
                specs.append(FaultSpec(kind=kind, target=target, count=count))
        return cls(specs=tuple(specs), seed=seed, slow_delay_s=slow_delay_s)

    def to_spec(self) -> str:
        """Round-trippable spec string (includes the seed)."""
        tokens = [spec.to_token() for spec in self.specs]
        tokens.append(f"seed={self.seed}")
        return ",".join(tokens)

    def count(self, kind: str) -> int:
        """Total scheduled firings of one kind."""
        return sum(s.count for s in self.specs if s.kind == kind)

    @property
    def n_scheduled(self) -> int:
        """Total scheduled firings across every kind."""
        return sum(s.count for s in self.specs)


@dataclass(frozen=True)
class FiredFault:
    """One fault that actually fired (the injector's event log)."""

    kind: str
    target: int
    attempt: int
    site: str


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at the instrumented hook sites.

    Thread-safe: shard hooks run concurrently on the engine pool.  The
    injector keeps an event log of fired faults
    (:meth:`fired`), which the chaos harness diffs around a run the
    same way metrics scoping diffs counters.
    """

    enabled = True

    def __init__(
        self,
        plan: FaultPlan,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.plan = plan
        self._sleep = sleep
        self._lock = threading.Lock()
        self._ordinals: dict[str, int] = {}
        self._consumed: dict[tuple[str, int], int] = {}
        self._fired: list[FiredFault] = []

    # -- internals -------------------------------------------------------------

    def _record(self, kind: str, target: int, attempt: int, site: str) -> None:
        with self._lock:
            self._fired.append(
                FiredFault(kind=kind, target=target, attempt=attempt, site=site)
            )
        get_tracer().counters.add(FAULTS_INJECTED)

    def _next_ordinal(self, kind: str) -> int:
        with self._lock:
            ordinal = self._ordinals.get(kind, 0)
            self._ordinals[kind] = ordinal + 1
            return ordinal

    def _ordinal_spec_hit(self, kind: str, ordinal: int) -> bool:
        return any(
            s.kind == kind and s.target <= ordinal < s.target + s.count
            for s in self.plan.specs
        )

    def _shard_budget(self, kind: str, shard_id: int) -> int:
        return sum(
            s.count
            for s in self.plan.specs
            if s.kind == kind and s.target == shard_id
        )

    # -- hook sites ------------------------------------------------------------

    def check(self, kind: str, target: int | None = None, attempt: int = 0) -> None:
        """Ordinal/device hook: raise if the plan schedules a fault here.

        ``kernel`` and ``alloc`` consume one invocation ordinal per
        call; ``device`` checks the given device index (lost devices
        fire on every check).
        """
        if kind in _ORDINAL_KINDS:
            ordinal = self._next_ordinal(kind)
            if self._ordinal_spec_hit(kind, ordinal):
                self._record(kind, ordinal, attempt, site=kind)
                raise FaultInjectedError(
                    f"injected {kind} fault (ordinal {ordinal}, "
                    f"attempt {attempt})",
                    kind=kind,
                    target=ordinal,
                    attempt=attempt,
                )
            return
        if kind == "device":
            device = 0 if target is None else target
            if any(
                s.kind == "device" and s.target == device
                for s in self.plan.specs
            ):
                self._record("device", device, attempt, site="device")
                raise FaultInjectedError(
                    f"injected device-lost fault (device {device})",
                    kind="device",
                    target=device,
                    attempt=attempt,
                )
            return
        raise ConfigurationError(
            f"FaultInjector.check: unsupported kind {kind!r} at this site"
        )

    def check_shard(self, shard_id: int, attempt: int) -> None:
        """Shard hook: transient shard failure and hung-shard faults.

        The attempt number indexes into the shard's scheduled firing
        sequence (``shard`` firings first, then ``slow``), so every
        scheduled fault fires exactly once given a sufficient retry
        budget -- even when both kinds target the same shard.
        """
        shard_budget = self._shard_budget("shard", shard_id)
        if attempt < shard_budget:
            self._record("shard", shard_id, attempt, site="shard")
            raise FaultInjectedError(
                f"injected shard fault (shard {shard_id}, attempt {attempt})",
                kind="shard",
                target=shard_id,
                attempt=attempt,
            )
        if attempt < shard_budget + self._shard_budget("slow", shard_id):
            self._record("slow", shard_id, attempt, site="shard")
            if self.plan.slow_delay_s > 0:
                self._sleep(self.plan.slow_delay_s)
            raise FaultInjectedError(
                f"injected slow-shard timeout (shard {shard_id}, "
                f"attempt {attempt})",
                kind="slow",
                target=shard_id,
                attempt=attempt,
            )

    def service_delay(self, site: str = "serve.batch") -> float:
        """Service-tier latency hook: sleep when the plan schedules it.

        Each call consumes one ``latency`` invocation ordinal (serving
        micro-batches execute sequentially per dispatcher, so ordinals
        are deterministic).  A scheduled firing sleeps
        :attr:`FaultPlan.slow_delay_s` and returns the delay -- it does
        *not* raise, modeling a slow backend rather than a broken one.
        Returns 0.0 when nothing fired.
        """
        ordinal = self._next_ordinal("latency")
        if not self._ordinal_spec_hit("latency", ordinal):
            return 0.0
        self._record("latency", ordinal, 0, site=site)
        if self.plan.slow_delay_s > 0:
            self._sleep(self.plan.slow_delay_s)
        return self.plan.slow_delay_s

    def should_corrupt_disk(self, shard_seq: int) -> bool:
        """Disk-corruption hook: ``True`` when shard file ``shard_seq``
        is scheduled for an on-disk bit flip.

        Consumes one firing of the ``disk-corrupt`` budget for the
        target per call and records the fired event; the caller (the
        chaos harness's ``disk-corrupt`` scenario) performs the actual
        on-disk flip.
        """
        with self._lock:
            key = ("disk-corrupt", shard_seq)
            used = self._consumed.get(key, 0)
            budget = sum(
                s.count
                for s in self.plan.specs
                if s.kind == "disk-corrupt" and s.target == shard_seq
            )
            if used >= budget:
                return False
            self._consumed[key] = used + 1
        self._record("disk-corrupt", shard_seq, used, site="disk")
        return True

    def should_disconnect(self) -> bool:
        """Client-disconnect hook: ``True`` when this connection ordinal
        is scheduled to hang up after sending its request.

        Each call consumes one ``client-disconnect`` invocation ordinal
        (the chaos harness opens connections sequentially).
        """
        ordinal = self._next_ordinal("client-disconnect")
        if not self._ordinal_spec_hit("client-disconnect", ordinal):
            return False
        self._record("client-disconnect", ordinal, 0, site="client")
        return True

    def corrupt_block(self, block: np.ndarray, shard_id: int) -> np.ndarray:
        """Bit-flip hook: silently corrupt one element of an output tile.

        Fires at most ``count`` times per targeted shard; the flipped
        bit position is drawn from the plan seed, so the corruption is
        reproducible.  Returns the (possibly corrupted) tile.
        """
        with self._lock:
            key = ("bitflip", shard_id)
            used = self._consumed.get(key, 0)
            budget = sum(
                s.count
                for s in self.plan.specs
                if s.kind == "bitflip" and s.target == shard_id
            )
            if used >= budget:
                return block
            self._consumed[key] = used + 1
        self._record("bitflip", shard_id, used, site="shard_output")
        rng = np.random.default_rng((self.plan.seed << 8) ^ (shard_id + 1))
        corrupted = block.copy()
        index = int(rng.integers(corrupted.size))
        bit = int(rng.integers(8))
        corrupted.flat[index] = int(corrupted.flat[index]) ^ (1 << bit)
        return corrupted

    # -- inspection ------------------------------------------------------------

    def fired(self) -> list[FiredFault]:
        """Every fault fired so far, in firing order."""
        with self._lock:
            return list(self._fired)

    def n_fired(self) -> int:
        with self._lock:
            return len(self._fired)

    def fired_count(self, kind: str) -> int:
        """Fired faults of one kind."""
        with self._lock:
            return sum(1 for f in self._fired if f.kind == kind)


class NullInjector:
    """Disabled injector: every hook is a no-op (the process default)."""

    enabled = False

    def check(self, kind: str, target: int | None = None, attempt: int = 0) -> None:
        pass

    def check_shard(self, shard_id: int, attempt: int) -> None:
        pass

    def service_delay(self, site: str = "serve.batch") -> float:
        return 0.0

    def should_corrupt_disk(self, shard_seq: int) -> bool:
        return False

    def should_disconnect(self) -> bool:
        return False

    def corrupt_block(self, block: np.ndarray, shard_id: int) -> np.ndarray:
        return block

    def fired(self) -> list[FiredFault]:
        return []

    def n_fired(self) -> int:
        return 0

    def fired_count(self, kind: str) -> int:
        return 0


#: The process-wide disabled injector (one attribute check per hook).
NULL_INJECTOR = NullInjector()
