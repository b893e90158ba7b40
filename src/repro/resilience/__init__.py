"""Fault injection and fault-tolerant execution (the unhappy path).

The paper's target workloads run for hours against database-scale
inputs (FastID identity search, PLINK-scale LD scans); a transient
device fault or one corrupted partial result must not invalidate a
whole run.  This package makes the unhappy path a first-class,
*testable* subsystem:

* :mod:`repro.resilience.faults` -- a seeded, deterministic
  :class:`FaultPlan` evaluated by a process-global
  :class:`FaultInjector` at instrumented hook points in the executor,
  device stack, parallel engine and multi-GPU executor (null-injector
  default: one attribute check on the hot path).
* :mod:`repro.resilience.retry` -- :class:`RetryPolicy` (bounded
  exponential backoff, seeded jitter, injectable clock/sleep) and the
  :func:`classify` error classifier mapping the
  :class:`~repro.errors.ReproError` hierarchy onto
  retryable / degradable / fatal dispositions.
* :mod:`repro.resilience.runtime` -- the scoped
  :class:`ResilienceContext` (:func:`resilient`, :func:`get_resilience`)
  carrying the injector, policy and spot-verification rate.
* :mod:`repro.resilience.report` -- :class:`ResilienceReport`, the
  per-run accounting attached to ``ParallelReport`` / ``RunReport`` /
  ``MultiGPUReport``.
* :mod:`repro.resilience.chaos` -- the chaos harness: one registry of
  engine scenarios (LD, identity, mixture) and service scenarios
  (latency, disconnect, disk corruption) under seeded fault plans,
  gated on bit-exact answers and exact counters (CI's ``chaos-smoke``
  job).  Not imported here: it drives :mod:`repro.serve`, which
  imports this package.

Degradation ladder (see ``docs/RESILIENCE.md``): retry in place with
backoff -> re-queue the shard -> quarantine the shard onto the serial
reference path (bit-exact) -> drop a lost device and re-partition ->
raise :class:`~repro.errors.ShardExecutionError`.  Corrupt results are
never returned silently; the optional spot-verification guard
re-checks sampled output tiles against the serial popcount reference.
"""

from repro.resilience.deadline import Deadline, DeadlineExceededError
from repro.resilience.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    FiredFault,
    NULL_INJECTOR,
    NullInjector,
)
from repro.resilience.report import ResilienceReport
from repro.resilience.retry import (
    DEFAULT_POLICY,
    Disposition,
    RetryPolicy,
    call_with_retry,
    classify,
)
from repro.resilience.runtime import (
    DEFAULT_CONTEXT,
    ResilienceContext,
    get_resilience,
    resilient,
    set_resilience,
)

__all__ = [
    "Deadline",
    "DeadlineExceededError",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "FiredFault",
    "NULL_INJECTOR",
    "NullInjector",
    "ResilienceReport",
    "DEFAULT_POLICY",
    "Disposition",
    "RetryPolicy",
    "call_with_retry",
    "classify",
    "DEFAULT_CONTEXT",
    "ResilienceContext",
    "get_resilience",
    "resilient",
    "set_resilience",
]
