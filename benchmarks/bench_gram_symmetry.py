"""Gram-mode symmetry win: triangular shard plans vs the full path.

All three paper workloads are self-comparisons at heart (LD compares a
site table against itself; the FastID self-scans do the same), so the
output satisfies ``C == C.T`` and the engine can compute only the
diagonal + upper-triangular shards, reflecting the rest
(:meth:`repro.parallel.plan.ShardPlan.triangular`).  This bench pins an
LD-shaped self-comparison and demonstrates:

* **bit-exactness** -- the triangular table is byte-identical to
  :func:`repro.blis.gemm.bit_gemm_reference`;
* **op savings** -- the Gram pass computes well under the full
  ``m * n * k`` word-ops (the exact count is gated by CI through the
  deterministic ``gemm.popc_word_ops`` / ``shards.mirrored`` counters);
* **speedup** -- in full mode, Gram mode at ``workers=4`` beats the
  best serial full-output driver by at least 1.5x.

Runs two ways:

* under pytest-benchmark, like the other benches::

      PYTHONPATH=src python -m pytest benchmarks/bench_gram_symmetry.py --benchmark-only

* standalone, for the CI jobs (``--json`` writes the bench-schema
  metrics :mod:`repro.observability.regress` gates)::

      PYTHONPATH=src python benchmarks/bench_gram_symmetry.py --smoke --json gram.json
"""

import argparse
import sys
import time

import numpy as np

from repro.blis.gemm import bit_gemm_reference
from repro.blis.microkernel import ComparisonOp
from repro.observability.regress import metric, run_counted, write_metrics
from repro.parallel import ParallelEngine

#: The benchmark problem: one LD-shaped self-comparison.  Square by
#: construction -- Gram mode only exists for self-comparisons.
FULL_PROBLEM = dict(m=1024, k_words=128)

#: CI smoke problem: small enough for a cold shared runner but still
#: above the engine's serial/parallel crossover (2^21 word-ops).
SMOKE_PROBLEM = dict(m=512, k_words=32)

WORKERS = 4
SPEEDUP_FLOOR = 1.5

#: ``"auto"`` switches to ``cnative`` when its background build lands,
#: so every engine in this bench pins the BLAS kernel backend to keep
#: every run on one kernel.
BACKEND = "blas"


def make_operand(m, k_words, rng=0):
    rng = np.random.default_rng(rng)
    return rng.integers(0, 2**64, size=(m, k_words), dtype=np.uint64)


def time_run(engine, a, symmetric, repeats=3):
    """Best-of-``repeats`` seconds for one configuration, plus outputs."""
    best = float("inf")
    table = report = None
    for _ in range(repeats):
        start = time.perf_counter()
        table, report = engine.run(
            a, a, ComparisonOp.AND,
            force_parallel=engine.workers > 1,
            symmetric=symmetric,
        )
        best = min(best, time.perf_counter() - start)
    return best, table, report


def collect_counters(problem):
    """Deterministic counters of one untimed Gram-mode sharded run.

    Schema entries; the Gram-relevant ones are ``gemm.popc_word_ops``,
    which counts *computed* ops only, and ``shards.mirrored``.
    """
    a = make_operand(**problem)
    engine = ParallelEngine(workers=WORKERS, backend=BACKEND)
    try:
        _, counters = run_counted(
            lambda: engine.run(a, a, ComparisonOp.AND, force_parallel=True)
        )
    finally:
        engine.shutdown()
    return counters


def run_bench(problem, repeats=3):
    """Time serial-full vs gram@workers; returns a JSON-ready dict."""
    a = make_operand(**problem)
    expected = bit_gemm_reference(a, a, ComparisonOp.AND)
    full_ops = problem["m"] * problem["m"] * problem["k_words"]

    serial = ParallelEngine(workers=1, backend=BACKEND)
    gram = ParallelEngine(workers=WORKERS, backend=BACKEND)
    full = ParallelEngine(workers=WORKERS, backend=BACKEND)
    try:
        serial_s, serial_table, _ = time_run(serial, a, False, repeats)
        gram_s, gram_table, gram_report = time_run(gram, a, None, repeats)
        full_s, _, _ = time_run(full, a, False, repeats)
    finally:
        serial.shutdown()
        gram.shutdown()
        full.shutdown()

    plan = gram_report.shard_plan
    return {
        "problem": dict(problem),
        "repeats": repeats,
        "word_ops_full": full_ops,
        "word_ops_computed": plan.total_word_ops(),
        "op_ratio": plan.total_word_ops() / full_ops,
        "n_shards": gram_report.n_shards,
        "n_mirrored": gram_report.n_mirrored,
        "serial_full_s": serial_s,
        "gram_s": gram_s,
        "parallel_full_s": full_s,
        "speedup_vs_serial": serial_s / gram_s,
        "speedup_vs_parallel_full": full_s / gram_s,
        "bit_exact": bool(
            (gram_table == expected).all() and (serial_table == expected).all()
        ),
    }


def render(result):
    p = result["problem"]
    return "\n".join([
        f"gram symmetry  (m=n={p['m']}, k={p['k_words']} words, "
        f"workers={WORKERS})",
        f"  computed word-ops   {result['word_ops_computed']:>12}  "
        f"({result['op_ratio']:.3f}x of full {result['word_ops_full']})",
        f"  shards              {result['n_shards']:>12}  "
        f"({result['n_mirrored']} mirrored)",
        f"  serial full         {result['serial_full_s']:>11.4f}s",
        f"  parallel full       {result['parallel_full_s']:>11.4f}s",
        f"  gram                {result['gram_s']:>11.4f}s  "
        f"({result['speedup_vs_serial']:.2f}x vs serial, "
        f"{result['speedup_vs_parallel_full']:.2f}x vs parallel full)",
        f"  bit-exact           {'yes' if result['bit_exact'] else 'NO':>12}",
    ])


# -- pytest-benchmark entries ---------------------------------------------------

try:
    import pytest
except ImportError:  # pragma: no cover - pytest always present in CI
    pytest = None

if pytest is not None:

    @pytest.mark.artifact("gram-symmetry")
    def bench_gram_speedup(benchmark):
        """Time the full comparison; assert exactness and the floor."""
        result = benchmark.pedantic(
            run_bench, args=(FULL_PROBLEM,), rounds=1, iterations=1
        )
        print("\n" + render(result))
        assert result["bit_exact"]
        assert result["speedup_vs_serial"] >= SPEEDUP_FLOOR

    @pytest.mark.artifact("gram-symmetry")
    def bench_gram_workers4(benchmark):
        """Time one workers=4 Gram run on the full problem."""
        a = make_operand(**FULL_PROBLEM)
        engine = ParallelEngine(workers=WORKERS, backend=BACKEND)
        try:
            table, report = benchmark(
                engine.run, a, a, ComparisonOp.AND, force_parallel=True
            )
        finally:
            engine.shutdown()
        assert report.symmetric
        assert (table == table.T).all()


# -- standalone CLI (CI jobs) ----------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small problem, single repeat, no speedup floor (CI smoke)",
    )
    parser.add_argument("--json", help="write the bench-schema metrics to this path")
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="timing repeats per configuration (default: 3, smoke: 1)",
    )
    args = parser.parse_args(argv)

    problem = SMOKE_PROBLEM if args.smoke else FULL_PROBLEM
    repeats = args.repeats if args.repeats is not None else (1 if args.smoke else 3)
    result = run_bench(problem, repeats=repeats)
    print(render(result))

    if args.json:
        # Deterministic counters for the regression gate (untimed pass)
        # plus one coarse timing to watch.
        span = metric("span.gram.bench.total_s", result["gram_s"], "timing")
        write_metrics(args.json, collect_counters(problem) + [span])
        print(f"\nwrote {args.json}")

    if not result["bit_exact"]:
        print("FAIL: Gram table differs from bit_gemm_reference", file=sys.stderr)
        return 1
    if not args.smoke and result["speedup_vs_serial"] < SPEEDUP_FLOOR:
        print(
            f"FAIL: gram speedup {result['speedup_vs_serial']:.2f}x below "
            f"the {SPEEDUP_FLOOR}x floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
