"""Streaming LD pruning & clumping: bit-exactness and window residency.

The :mod:`repro.core.ldops` operators consume block-rows of the Gram
output and keep only a trailing window of kept-site state, so they
must produce *bit-identical* decisions no matter how the site stream
is chunked.  This bench builds a correlated site-major panel and
demonstrates, for both operators:

* **chunk invariance** -- the chunked streaming pass (small
  ``chunk_rows``) equals a single-chunk in-memory pass, kept sets,
  blockers and clump assignments alike;
* **reference agreement** -- both equal a brute-force dense reference
  evaluated over the full ``sites x sites`` count matrix with the same
  exact-integer r^2 predicate;
* **bounded residency** -- ``ldops.window_peak_sites`` never exceeds
  the window, the O(window^2) resident-state claim CI gates exactly;
* **determinism** -- the ``ldops.*`` counters are exact functions of
  the pinned problem and are regression-gated;
* **one answer on both band paths** -- the chunked passes run on a
  ``numpy`` framework (the NumPy band and the Python scans) and on a
  ``cnative`` one (the library's fused prune scan and band-hits pass),
  and must agree bit for bit: every result field and every
  deterministic counter.  Each arm's pass times are reported; without
  a C compiler the ``cnative`` arm reads as unavailable.

Runs two ways:

* under pytest-benchmark, like the other benches::

      PYTHONPATH=src python -m pytest benchmarks/bench_ldops.py --benchmark-only

* standalone, for the CI jobs (``--json`` writes the bench-schema
  metrics :mod:`repro.observability.regress` gates)::

      PYTHONPATH=src python benchmarks/bench_ldops.py --smoke --json ldops.json
"""

import argparse
import sys
import time

import numpy as np

from repro.core.config import Algorithm
from repro.core.framework import SNPComparisonFramework
from repro.core.ldops import ld_clump, ld_prune, r2_exceeds
from repro.kernels import get_backend
from repro.observability.regress import metric, run_counted, write_metrics

#: The raced band paths: the NumPy band with the Python scans, and the
#: native library's fused prune scan and band-hits pass.
BAND_BACKENDS = ("numpy", "cnative")

#: Timed passes per arm (the best one is reported).
RACE_REPEATS = 3

#: Full problem: a chromosome-arm-sized scan (window in sites).
FULL_PROBLEM = dict(
    n_sites=1536, n_obs=256, window=64, prune_r2=0.2, clump_r2=0.5,
    chunk_rows=192,
)

#: CI smoke problem: a few chunks on a cold shared runner.
SMOKE_PROBLEM = dict(
    n_sites=160, n_obs=64, window=24, prune_r2=0.2, clump_r2=0.5,
    chunk_rows=48,
)


def make_panel(problem, seed=0):
    """Correlated site-major panel plus per-site clump scores."""
    rng = np.random.default_rng(seed)
    sites = rng.integers(
        0, 2, size=(problem["n_sites"], problem["n_obs"]), dtype=np.uint8
    )
    # Every third site is a noisy copy of its predecessor so the window
    # actually prunes/absorbs instead of scanning independent noise.
    for i in range(1, problem["n_sites"]):
        if i % 3 == 0:
            sites[i] = sites[i - 1]
            flips = rng.integers(
                0, problem["n_obs"], size=max(1, problem["n_obs"] // 16)
            )
            sites[i, flips] ^= 1
    scores = rng.random(problem["n_sites"])
    return sites, scores


def dense_prune_reference(sites, window, r2):
    """Brute-force greedy pruning over the dense count matrix."""
    wide = sites.astype(np.int64)
    joint = wide @ wide.T
    counts = sites.sum(axis=1).astype(int)
    n_obs = int(sites.shape[1])
    kept = []
    for i in range(sites.shape[0]):
        blocked = any(
            i - j <= window - 1
            and r2_exceeds(
                int(joint[i, j]), counts[j], counts[i], n_obs, r2, strict=True
            )
            for j in kept
        )
        if not blocked:
            kept.append(i)
    return kept


def dense_clump_reference(sites, scores, window, r2):
    """Brute-force rank-order greedy clumping over the dense counts."""
    wide = sites.astype(np.int64)
    joint = wide @ wide.T
    counts = sites.sum(axis=1).astype(int)
    n_obs = int(sites.shape[1])
    n = sites.shape[0]
    rank = lambda s: (-float(scores[s]), s)  # noqa: E731
    assignment = np.full(n, -1, dtype=np.int64)
    index_sites = []
    for s in sorted(range(n), key=rank):
        absorbers = [
            j
            for j in index_sites
            if abs(s - j) <= window - 1
            and r2_exceeds(
                int(joint[s, j]), counts[j], counts[s], n_obs, r2,
                strict=False,
            )
        ]
        if absorbers:
            assignment[s] = min(absorbers, key=rank)
        else:
            assignment[s] = s
            index_sites.append(s)
    return assignment


def collect_counters(problem, sites, scores):
    """Deterministic ldops/stream counters of one untimed chunked
    prune+clump pass (schema entries; the two operators' counters sum)."""

    def prune_and_clump():
        ld_prune(
            sites, problem["window"], problem["prune_r2"],
            chunk_rows=problem["chunk_rows"],
        )
        ld_clump(
            sites, scores, problem["window"], problem["clump_r2"],
            chunk_rows=problem["chunk_rows"],
        )

    _, counters = run_counted(prune_and_clump)
    return counters


def _outcome(pruned, clumped):
    """Every decision and statistic of one prune + clump pass."""
    return (
        pruned.kept.tolist(), pruned.pruned.tolist(), pruned.blocker.tolist(),
        pruned.pairs_tested, pruned.peak_window_sites, pruned.simulated_seconds,
        clumped.assignment.tolist(), clumped.clumps, clumped.pairs_tested,
        clumped.peak_window_sites, clumped.simulated_seconds,
    )


def race_band_paths(problem, sites, scores):
    """The chunked prune and clump on each band path of
    :data:`BAND_BACKENDS`: per arm its availability and best pass
    times, plus whether every available arm gave the same outcome and
    the same deterministic counters."""
    arms, answers = {}, []
    for backend in BAND_BACKENDS:
        info = get_backend(backend).info
        if not info.available:
            arms[backend] = {"available": False, "reason": info.unavailable_reason}
            continue
        framework = SNPComparisonFramework("Titan V", Algorithm.LD, backend=backend)

        def prune():
            return ld_prune(
                sites, problem["window"], problem["prune_r2"],
                chunk_rows=problem["chunk_rows"], framework=framework,
            )

        def clump():
            return ld_clump(
                sites, scores, problem["window"], problem["clump_r2"],
                chunk_rows=problem["chunk_rows"], framework=framework,
            )

        pruned, prune_counters = run_counted(prune)
        clumped, clump_counters = run_counted(clump)
        answers.append(
            (_outcome(pruned, clumped), prune_counters + clump_counters)
        )
        arm = {"available": True}
        for op, run in (("prune", prune), ("clump", clump)):
            times = []
            for _ in range(RACE_REPEATS):
                start = time.perf_counter()
                run()
                times.append(time.perf_counter() - start)
            arm[f"{op}_s"] = min(times)
        arms[backend] = arm
    return arms, all(answer == answers[0] for answer in answers)


def run_bench(problem):
    """Chunked vs in-memory vs dense reference, and the band paths
    raced; returns a JSON-ready dict."""
    sites, scores = make_panel(problem)
    window = problem["window"]
    in_memory_rows = problem["n_sites"] + 1  # single chunk

    start = time.perf_counter()
    prune_chunked = ld_prune(
        sites, window, problem["prune_r2"],
        chunk_rows=problem["chunk_rows"],
    )
    prune_wall = time.perf_counter() - start
    prune_whole = ld_prune(
        sites, window, problem["prune_r2"],
        chunk_rows=in_memory_rows,
    )

    start = time.perf_counter()
    clump_chunked = ld_clump(
        sites, scores, window, problem["clump_r2"],
        chunk_rows=problem["chunk_rows"],
    )
    clump_wall = time.perf_counter() - start
    clump_whole = ld_clump(
        sites, scores, window, problem["clump_r2"],
        chunk_rows=in_memory_rows,
    )

    chunked_matches_inmemory = (
        np.array_equal(prune_chunked.kept, prune_whole.kept)
        and np.array_equal(prune_chunked.pruned, prune_whole.pruned)
        and np.array_equal(prune_chunked.blocker, prune_whole.blocker)
        and np.array_equal(clump_chunked.assignment, clump_whole.assignment)
    )
    dense_kept = dense_prune_reference(sites, window, problem["prune_r2"])
    dense_assignment = dense_clump_reference(
        sites, scores, window, problem["clump_r2"]
    )
    matches_dense_reference = (
        prune_chunked.kept.tolist() == dense_kept
        and clump_chunked.assignment.tolist() == dense_assignment.tolist()
    )
    peak = max(
        prune_chunked.peak_window_sites, clump_chunked.peak_window_sites
    )
    arms, band_paths_agree = race_band_paths(problem, sites, scores)

    return {
        "problem": dict(problem),
        "ldops": {
            "prune_kept": int(prune_chunked.kept.size),
            "prune_pruned": int(prune_chunked.pruned.size),
            "clump_count": len(clump_chunked.clumps),
            "clump_absorbed": int(
                problem["n_sites"] - len(clump_chunked.clumps)
            ),
            "peak_window_sites": int(peak),
            "window": int(window),
            "chunked_matches_inmemory": bool(chunked_matches_inmemory),
            "matches_dense_reference": bool(matches_dense_reference),
            "window_bound_ok": bool(peak <= window),
            "band_paths_agree": bool(band_paths_agree),
        },
        "band_paths": arms,
        "prune_wall_s": prune_wall,
        "clump_wall_s": clump_wall,
        "prune_pairs_tested": prune_chunked.pairs_tested,
        "clump_pairs_tested": clump_chunked.pairs_tested,
        "simulated_s": (
            prune_chunked.simulated_seconds + clump_chunked.simulated_seconds
        ),
    }


def render(result):
    p = result["problem"]
    ld = result["ldops"]
    return "\n".join([
        f"ld prune/clump  ({p['n_sites']} sites x {p['n_obs']} obs, "
        f"window={p['window']}, chunk_rows={p['chunk_rows']})",
        f"  prune r2>{p['prune_r2']}      kept {ld['prune_kept']}, "
        f"pruned {ld['prune_pruned']}  "
        f"({result['prune_pairs_tested']} pairs, "
        f"{result['prune_wall_s']:.4f}s)",
        f"  clump r2>={p['clump_r2']}     {ld['clump_count']} clumps, "
        f"{ld['clump_absorbed']} absorbed  "
        f"({result['clump_pairs_tested']} pairs, "
        f"{result['clump_wall_s']:.4f}s)",
        f"  window residency    {ld['peak_window_sites']} / {ld['window']} "
        f"sites  ({'ok' if ld['window_bound_ok'] else 'EXCEEDED'})",
        f"  chunked == whole    "
        f"{'yes' if ld['chunked_matches_inmemory'] else 'NO'}",
        f"  matches dense ref   "
        f"{'yes' if ld['matches_dense_reference'] else 'NO'}",
        *(
            f"  {backend:<8} band     "
            + (
                f"prune {arm['prune_s']:.4f}s, clump {arm['clump_s']:.4f}s"
                if arm["available"]
                else f"unavailable ({arm['reason']})"
            )
            for backend, arm in result["band_paths"].items()
        ),
        f"  band paths agree    "
        f"{'yes' if ld['band_paths_agree'] else 'NO'}",
    ])


# -- pytest-benchmark entries ---------------------------------------------------

try:
    import pytest
except ImportError:  # pragma: no cover - pytest always present in CI
    pytest = None

if pytest is not None:

    @pytest.mark.artifact("ldops")
    def bench_ldops_equivalence(benchmark):
        """Time the full equivalence comparison; assert every gate."""
        result = benchmark.pedantic(
            run_bench, args=(FULL_PROBLEM,), rounds=1, iterations=1
        )
        print("\n" + render(result))
        assert result["ldops"]["chunked_matches_inmemory"]
        assert result["ldops"]["matches_dense_reference"]
        assert result["ldops"]["window_bound_ok"]
        assert result["ldops"]["band_paths_agree"]

    @pytest.mark.artifact("ldops")
    def bench_ldops_prune_pass(benchmark):
        """Time one chunked streaming prune over the full problem."""
        sites, _ = make_panel(FULL_PROBLEM)
        result = benchmark(
            ld_prune, sites, FULL_PROBLEM["window"],
            FULL_PROBLEM["prune_r2"],
            chunk_rows=FULL_PROBLEM["chunk_rows"],
        )
        assert result.peak_window_sites <= FULL_PROBLEM["window"]


# -- standalone CLI (CI jobs) ----------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small problem for CI smoke on shared runners",
    )
    parser.add_argument("--json", help="write the bench-schema metrics to this path")
    args = parser.parse_args(argv)

    problem = SMOKE_PROBLEM if args.smoke else FULL_PROBLEM
    result = run_bench(problem)
    print(render(result))

    if args.json:
        # The exact outcome and gates, the deterministic counters of an
        # untimed pass, the two pass timings and each band arm's.
        sites, scores = make_panel(problem)
        write_metrics(
            args.json,
            [metric(name, value, "exact") for name, value in result["ldops"].items()]
            + collect_counters(problem, sites, scores)
            + [
                metric(f"span.ldops.{op}_pass.total_s", result[f"{op}_wall_s"], "timing")
                for op in ("prune", "clump")
            ]
            + [
                metric(f"span.ldops.{op}_pass.{backend}.total_s", arm[f"{op}_s"], "timing")
                for backend, arm in result["band_paths"].items()
                if arm["available"]
                for op in ("prune", "clump")
            ],
        )
        print(f"\nwrote {args.json}")

    failed = [
        gate
        for gate in (
            "chunked_matches_inmemory",
            "matches_dense_reference",
            "window_bound_ok",
            "band_paths_agree",
        )
        if not result["ldops"][gate]
    ]
    if failed:
        print(f"FAIL: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
