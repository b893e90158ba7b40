"""Chaos harness: randomized fault schedules, bit-exact acceptance.

The resilience layer's end-to-end test rig (and CI's ``chaos-smoke``
job): run each application (LD, identity search, mixture analysis)
fault-free to get a reference table, then re-run it under a seeded
:meth:`~repro.resilience.faults.FaultPlan.random` schedule of injected
transient faults with retries, quarantine and full spot verification
engaged, and assert two things:

1. **Bit-exactness** -- the faulted run's table equals the fault-free
   reference exactly.  Transient faults must be absorbed, never
   corrupt the comparison table.
2. **Exact counter gates** -- every scheduled fault fired, and the
   retry / verification counters match what the schedule implies:
   ``retries == #shard + #slow + #kernel`` firings,
   ``verify_mismatches == #bitflip`` firings, ``quarantined == 0``
   (the retry budget always exceeds the scheduled burst lengths).

Datasets are sized so the engine's parallel crossover is exceeded
(the sharded path is what the shard-addressed faults target) and the
kernel backend is pinned to ``"blas"`` so the persisted host tuner
cannot make runs diverge between hosts.

Usage::

    python -m repro.resilience.chaos --apps ld,identity,mixture \
        --seeds 1,2,3
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import Algorithm
from repro.core.framework import SNPComparisonFramework
from repro.errors import ConfigurationError
from repro.resilience.faults import FaultPlan
from repro.resilience.retry import RetryPolicy
from repro.resilience.runtime import resilient

__all__ = ["ChaosResult", "run_chaos_case", "run_chaos", "main"]

#: Applications the harness drives (framework algorithm values).
CHAOS_APPS = ("ld", "identity", "mixture")

#: App aliases -> framework Algorithm values.
_APP_ALGORITHMS = {
    "ld": "ld",
    "identity": "fastid_identity",
    "mixture": "fastid_mixture",
}

#: Default problem size: 256 x 256 rows over 2048 sites is 2^22
#: word-ops on a 32-bit-word device -- above the engine's parallel
#: crossover (2^21), so shard-addressed faults have shards to hit.
DEFAULT_ROWS = 256
DEFAULT_SITES = 2048

#: Dataset seed per app (fixed: the *fault schedule* is what varies).
_DATA_SEEDS = {"ld": 101, "identity": 202, "mixture": 303}

#: Retry budget: strictly above the longest per-shard firing sequence
#: FaultPlan.random can schedule (shard count <= 2 plus slow count <= 2
#: on one target), so transient faults always recover without
#: quarantine and the expected counters are exact.
_CHAOS_ATTEMPTS = 5


@dataclass
class ChaosResult:
    """Outcome of one (app, seed) chaos case."""

    app: str
    seed: int
    plan_spec: str
    n_scheduled: int
    bit_exact: bool
    expected: dict[str, int] = field(default_factory=dict)
    observed: dict[str, int] = field(default_factory=dict)

    @property
    def counters_match(self) -> bool:
        return self.expected == self.observed

    @property
    def passed(self) -> bool:
        return self.bit_exact and self.counters_match

    def summary(self) -> str:
        status = "ok" if self.passed else "FAIL"
        line = (
            f"[{status}] app={self.app} seed={self.seed} "
            f"plan={self.plan_spec!r} scheduled={self.n_scheduled}"
        )
        if not self.bit_exact:
            line += " BIT-MISMATCH"
        if not self.counters_match:
            line += f" expected={self.expected} observed={self.observed}"
        return line


def _chaos_dataset(
    app: str, rows: int, sites: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """Deterministic binary operands for one application."""
    rng = np.random.default_rng(_DATA_SEEDS[app])
    a = rng.integers(0, 2, size=(rows, sites), dtype=np.uint8)
    if app == "ld":
        return a, None  # self-comparison (Gram mode)
    b = rng.integers(0, 2, size=(rows, sites), dtype=np.uint8)
    return a, b


def run_chaos_case(
    app: str,
    seed: int,
    device: str = "GTX 980",
    rows: int = DEFAULT_ROWS,
    sites: int = DEFAULT_SITES,
    workers: int = 4,
) -> ChaosResult:
    """Run one application under one seeded fault schedule.

    The fault-free reference run and the faulted run share the
    framework instance, dataset, worker count and pinned ``"blas"``
    kernel backend; only the resilience context differs.
    """
    if app not in CHAOS_APPS:
        raise ConfigurationError(
            f"run_chaos_case: unknown app {app!r} "
            f"(valid: {', '.join(CHAOS_APPS)})"
        )
    a_bits, b_bits = _chaos_dataset(app, rows, sites)
    framework = SNPComparisonFramework(
        device, Algorithm(_APP_ALGORITHMS[app]), workers=workers, backend="blas"
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
        app=app,
        seed=seed,
        plan_spec=plan.to_spec(),
        n_scheduled=plan.n_scheduled,
        bit_exact=bool(np.array_equal(table, reference)),
        expected=expected,
        observed=observed,
    )


def run_chaos(
    apps: tuple[str, ...] = CHAOS_APPS,
    seeds: tuple[int, ...] = (1, 2, 3),
    device: str = "GTX 980",
    rows: int = DEFAULT_ROWS,
    sites: int = DEFAULT_SITES,
    workers: int = 4,
) -> list[ChaosResult]:
    """The full chaos matrix: every app under every seeded schedule."""
    return [
        run_chaos_case(
            app, seed, device=device, rows=rows, sites=sites, workers=workers
        )
        for app in apps
        for seed in seeds
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Chaos harness: seeded fault schedules, bit-exact gates"
    )
    parser.add_argument(
        "--apps",
        default=",".join(CHAOS_APPS),
        help="comma-separated applications (default: all)",
    )
    parser.add_argument(
        "--seeds",
        default="1,2,3",
        help="comma-separated schedule seeds (default: 1,2,3)",
    )
    parser.add_argument("--device", default="GTX 980")
    parser.add_argument("--rows", type=int, default=DEFAULT_ROWS)
    parser.add_argument("--sites", type=int, default=DEFAULT_SITES)
    parser.add_argument("--workers", type=int, default=4)
    args = parser.parse_args(argv)

    apps = tuple(t.strip() for t in args.apps.split(",") if t.strip())
    seeds = tuple(int(t) for t in args.seeds.split(",") if t.strip())
    results = run_chaos(
        apps=apps,
        seeds=seeds,
        device=args.device,
        rows=args.rows,
        sites=args.sites,
        workers=args.workers,
    )
    for result in results:
        print(result.summary())
    n_failed = sum(1 for r in results if not r.passed)
    print(
        f"chaos: {len(results) - n_failed}/{len(results)} cases passed "
        f"({sum(r.n_scheduled for r in results)} faults scheduled)"
    )
    return 1 if n_failed else 0


if __name__ == "__main__":
    sys.exit(main())
