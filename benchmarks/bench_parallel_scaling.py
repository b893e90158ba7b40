"""Parallel-engine scaling: sharded bit-GEMM vs the serial drivers.

Sweeps the :class:`repro.parallel.ParallelEngine` over worker counts on
one LD-shaped problem and demonstrates two properties:

* **bit-exactness** -- every worker count returns a table byte-identical
  to :func:`repro.blis.gemm.bit_gemm_reference`;
* **speedup** -- at ``workers=4`` the sharded engine beats the best
  serial driver by at least 1.5x.  The shards run the ``blas`` kernel
  backend (float32 BLAS GEMMs over unpacked bits), as does the serial
  baseline; on multicore hosts thread overlap is the win.

Runs two ways:

* under pytest-benchmark, like the other benches::

      PYTHONPATH=src python -m pytest benchmarks/bench_parallel_scaling.py --benchmark-only

* standalone, for the CI jobs (``--json`` writes the bench-schema
  metrics :mod:`repro.observability.regress` gates)::

      PYTHONPATH=src python benchmarks/bench_parallel_scaling.py --smoke --json timings.json

A third mode races every available kernel-ABI backend
(:mod:`repro.kernels`) single-threaded against the reference panel and
gates every *compiled* backend at :data:`COMPILED_SPEEDUP_FLOOR`::

      PYTHONPATH=src python benchmarks/bench_parallel_scaling.py --backends --json backend-race.json
"""

import argparse
import sys
import time

import numpy as np

from repro.blis.gemm import bit_gemm_reference
from repro.blis.microkernel import ComparisonOp
from repro.observability.regress import metric, run_counted, write_metrics
from repro.parallel import ParallelEngine
from repro.util.bitops import pack_bits

#: The benchmark problem: an LD-shaped table (m queries x n database
#: rows over k packed words).  Chosen so the serial fallback takes the
#: blas backend, giving the parallel engine its hardest baseline.
FULL_PROBLEM = dict(m=512, n=2048, k_words=128)

#: The CI smoke problem: same shape family, small enough for a
#: seconds-long job on a cold shared runner.
SMOKE_PROBLEM = dict(m=128, n=512, k_words=32)

WORKER_SWEEP = (1, 2, 4)
SPEEDUP_FLOOR = 1.5

#: Single-thread floor for compiled kernel backends vs the reference
#: panel (the issue's >=5x acceptance bar; measured wins are larger).
COMPILED_SPEEDUP_FLOOR = 5.0


def make_operands(m, n, k_words, word_bits=32, rng=0):
    rng = np.random.default_rng(rng)
    sites = k_words * word_bits
    bits_a = (rng.random((m, sites)) < 0.4).astype(np.uint8)
    bits_b = (rng.random((n, sites)) < 0.4).astype(np.uint8)
    return pack_bits(bits_a, word_bits), pack_bits(bits_b, word_bits)


def time_workers(pa, pb, workers, repeats=3, op=ComparisonOp.AND):
    """Best-of-``repeats`` seconds for one worker count, plus the table.

    ``workers=1`` takes the engine's serial fallback (the best serial
    driver for the problem size); ``workers>1`` forces the sharded path.
    """
    engine = ParallelEngine(workers=workers)
    try:
        best = float("inf")
        table = None
        for _ in range(repeats):
            start = time.perf_counter()
            table, report = engine.run(
                pa, pb, op, force_parallel=workers > 1
            )
            best = min(best, time.perf_counter() - start)
    finally:
        engine.shutdown()
    return best, table, report


def collect_counters(problem, workers=WORKER_SWEEP[-1], op=ComparisonOp.AND):
    """Deterministic counters of one untimed sharded run (schema entries)."""
    pa, pb = make_operands(**problem)
    engine = ParallelEngine(workers=workers)
    try:
        _, counters = run_counted(
            lambda: engine.run(pa, pb, op, force_parallel=workers > 1)
        )
    finally:
        engine.shutdown()
    return counters


def run_sweep(problem, repeats=3, workers_sweep=WORKER_SWEEP):
    """Sweep worker counts; returns a JSON-ready dict.

    The serial baseline (``workers=1``) anchors the speedup column;
    regression baselines name the rows ``workers{N}.*``.
    """
    pa, pb = make_operands(**problem)
    expected = bit_gemm_reference(pa, pb, ComparisonOp.AND)
    rows = []
    serial_best = None
    for workers in workers_sweep:
        best, table, report = time_workers(pa, pb, workers, repeats=repeats)
        if serial_best is None:
            serial_best = best
        rows.append({
            "workers": workers,
            "seconds": best,
            "speedup": serial_best / best,
            "backend": report.backend,
            "n_shards": report.n_shards,
            "bit_exact": bool((table == expected).all()),
        })
    return {
        "problem": dict(problem),
        "repeats": repeats,
        "word_ops": problem["m"] * problem["n"] * problem["k_words"],
        "rows": rows,
    }


def run_backend_race(problem, repeats=3, op=ComparisonOp.AND):
    """Race every available kernel backend single-thread vs the reference.

    Times the reference panel (:func:`bit_gemm_reference`) as the
    baseline, then each available registered backend through
    :func:`repro.blis.gemm.bit_gemm`.  Every table is checked
    bit-exact, and one untimed instrumented pass per backend asserts
    the word-op accounting is backend-invariant.
    """
    from repro.blis.gemm import bit_gemm
    from repro.kernels import available_backends

    pa, pb = make_operands(**problem)
    ref_best = float("inf")
    expected = None
    for _ in range(repeats):
        start = time.perf_counter()
        expected = bit_gemm_reference(pa, pb, op)
        ref_best = min(ref_best, time.perf_counter() - start)

    rows = []
    counters = None
    for be in available_backends():
        info = be.info
        best = float("inf")
        table = None
        for _ in range(repeats):
            start = time.perf_counter()
            table = bit_gemm(pa, pb, op, backend=info.name)
            best = min(best, time.perf_counter() - start)
        _, backend_counters = run_counted(
            lambda: bit_gemm(pa, pb, op, backend=info.name)
        )
        if counters is None:
            counters = backend_counters
        rows.append({
            "name": info.name,
            "kind": info.kind,
            "version": info.version,
            "compiled": info.compiled,
            "seconds": best,
            "speedup": ref_best / best,
            "bit_exact": bool((table == expected).all()),
            "counters_invariant": backend_counters == counters,
        })
    return {
        "problem": dict(problem),
        "repeats": repeats,
        "word_ops": problem["m"] * problem["n"] * problem["k_words"],
        "reference_seconds": ref_best,
        "backends": rows,
        "counters": counters or [],
    }


def race_metrics(result):
    """The race as bench-schema entries (what the regression gate reads)."""
    entries = [metric("word_ops", result["word_ops"], "exact")]
    for row in result["backends"]:
        base = f"backend.{row['name']}"
        entries += [
            metric(f"{base}.seconds", row["seconds"], "timing"),
            metric(f"{base}.speedup", row["speedup"], "ratio"),
            metric(f"{base}.bit_exact", row["bit_exact"], "exact"),
            metric(f"{base}.counters_invariant", row["counters_invariant"], "exact"),
        ]
    return entries + result["counters"]


def sweep_metrics(result):
    """The sweep as bench-schema entries (what the regression gate reads)."""
    entries = [metric("word_ops", result["word_ops"], "exact")]
    for row in result["rows"]:
        base = f"workers{row['workers']}"
        entries += [
            metric(f"{base}.seconds", row["seconds"], "timing"),
            metric(f"{base}.speedup", row["speedup"], "ratio"),
            metric(f"{base}.bit_exact", row["bit_exact"], "exact"),
            metric(f"{base}.n_shards", row["n_shards"], "exact"),
        ]
    return entries


def render_backends(result):
    lines = [
        "kernel-backend race  (m={m}, n={n}, k={k_words} words, "
        "single thread)".format(**result["problem"]),
        f"reference panel: {result['reference_seconds']:.4f} s",
        f"{'backend':>10} {'kind':>10} {'compiled':>9} {'seconds':>9} "
        f"{'speedup':>8} {'bit-exact':>10}",
    ]
    for row in result["backends"]:
        lines.append(
            f"{row['name']:>10} {row['kind']:>10} "
            f"{'yes' if row['compiled'] else 'no':>9} "
            f"{row['seconds']:>9.4f} {row['speedup']:>7.2f}x "
            f"{'yes' if row['bit_exact'] else 'NO':>10}"
        )
    return "\n".join(lines)


def check_backend_race(result, enforce_floor=True):
    """Gate a backend-race result; returns a list of failure strings."""
    failures = []
    for row in result["backends"]:
        if not row["bit_exact"]:
            failures.append(
                f"backend {row['name']} differs from bit_gemm_reference"
            )
        if not row["counters_invariant"]:
            failures.append(
                f"backend {row['name']} drifted the word-op counters"
            )
        if (
            enforce_floor
            and row["compiled"]
            and row["speedup"] < COMPILED_SPEEDUP_FLOOR
        ):
            failures.append(
                f"compiled backend {row['name']} speedup "
                f"{row['speedup']:.2f}x below the "
                f"{COMPILED_SPEEDUP_FLOOR}x floor"
            )
    return failures


def render(result):
    lines = [
        "parallel scaling  (m={m}, n={n}, k={k_words} words)".format(
            **result["problem"]
        ),
        f"{'workers':>8} {'seconds':>9} {'speedup':>8} "
        f"{'shards':>7} {'backend':>8} {'bit-exact':>10}",
    ]
    for row in result["rows"]:
        lines.append(
            f"{row['workers']:>8} {row['seconds']:>9.4f} "
            f"{row['speedup']:>7.2f}x {row['n_shards']:>7} "
            f"{row['backend']:>8} "
            f"{'yes' if row['bit_exact'] else 'NO':>10}"
        )
    return "\n".join(lines)


# -- pytest-benchmark entries ---------------------------------------------------

try:
    import pytest
except ImportError:  # pragma: no cover - pytest always present in CI
    pytest = None

if pytest is not None:

    @pytest.mark.artifact("parallel-scaling")
    def bench_parallel_speedup(benchmark):
        """Time the full sweep; assert exactness and the 1.5x floor."""
        result = benchmark.pedantic(
            run_sweep, args=(FULL_PROBLEM,), rounds=1, iterations=1
        )
        print("\n" + render(result))
        assert all(row["bit_exact"] for row in result["rows"])
        final = result["rows"][-1]
        assert final["workers"] == 4
        assert final["speedup"] >= SPEEDUP_FLOOR

    @pytest.mark.artifact("parallel-scaling")
    def bench_parallel_workers4(benchmark):
        """Time one workers=4 sharded run on the full problem."""
        pa, pb = make_operands(**FULL_PROBLEM)
        engine = ParallelEngine(workers=4)
        try:
            table, _ = benchmark(
                engine.run, pa, pb, ComparisonOp.AND, force_parallel=True
            )
        finally:
            engine.shutdown()
        expected = bit_gemm_reference(pa, pb, ComparisonOp.AND)
        assert (table[0] == expected[0]).all()


# -- standalone CLI (CI smoke job) ----------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small problem, single repeat, no speedup floor (CI smoke)",
    )
    parser.add_argument("--json", help="write the bench-schema metrics to this path")
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="timing repeats per worker count (default: 3, smoke: 1)",
    )
    parser.add_argument(
        "--backends", action="store_true",
        help="race the kernel-ABI backends single-thread vs the "
        "reference panel instead of sweeping worker counts; compiled "
        f"backends must beat {COMPILED_SPEEDUP_FLOOR}x (unless --smoke)",
    )
    args = parser.parse_args(argv)

    problem = SMOKE_PROBLEM if args.smoke else FULL_PROBLEM
    repeats = args.repeats if args.repeats is not None else (1 if args.smoke else 3)

    if args.backends:
        result = run_backend_race(problem, repeats=repeats)
        print(render_backends(result))
        if args.json:
            write_metrics(args.json, race_metrics(result))
            print(f"\nwrote {args.json}")
        failures = check_backend_race(result, enforce_floor=not args.smoke)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if failures else 0

    result = run_sweep(problem, repeats=repeats)
    print(render(result))

    if args.json:
        # Deterministic counters for the regression gate (untimed pass).
        write_metrics(args.json, sweep_metrics(result) + collect_counters(problem))
        print(f"\nwrote {args.json}")

    if not all(row["bit_exact"] for row in result["rows"]):
        print("FAIL: parallel table differs from bit_gemm_reference",
              file=sys.stderr)
        return 1
    if not args.smoke:
        final = result["rows"][-1]
        if final["speedup"] < SPEEDUP_FLOOR:
            print(
                f"FAIL: workers={final['workers']} speedup "
                f"{final['speedup']:.2f}x below the {SPEEDUP_FLOOR}x floor",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
