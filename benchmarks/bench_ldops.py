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
  the pinned problem and are regression-gated.

Runs two ways:

* under pytest-benchmark, like the other benches::

      PYTHONPATH=src python -m pytest benchmarks/bench_ldops.py --benchmark-only

* standalone, for the CI jobs (writes a JSON the regression gate
  ingests)::

      PYTHONPATH=src python benchmarks/bench_ldops.py --smoke --json ldops.json
"""

import argparse
import json
import sys
import time

import numpy as np

from repro.core.ldops import ld_clump, ld_prune, r2_exceeds

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
    """Deterministic ldops/stream counters for one chunked prune+clump
    pass (untimed, fresh tracer; the two operators' counters sum)."""
    from repro.observability.regress import DETERMINISTIC_COUNTERS
    from repro.observability.tracer import Tracer, set_tracer

    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        ld_prune(
            sites, problem["window"], problem["prune_r2"],
            chunk_rows=problem["chunk_rows"],
        )
        ld_clump(
            sites, scores, problem["window"], problem["clump_r2"],
            chunk_rows=problem["chunk_rows"],
        )
    finally:
        set_tracer(previous)
    return {
        name: value
        for name, value in sorted(tracer.counters.snapshot().items())
        if name in DETERMINISTIC_COUNTERS
    }


def run_bench(problem):
    """Chunked vs in-memory vs dense reference; returns a JSON-ready dict."""
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
        },
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
    parser.add_argument("--json", help="write the result dict to this path")
    args = parser.parse_args(argv)

    problem = SMOKE_PROBLEM if args.smoke else FULL_PROBLEM
    result = run_bench(problem)
    result["mode"] = "smoke" if args.smoke else "full"
    sites, scores = make_panel(problem)
    result["counters"] = collect_counters(problem, sites, scores)
    result["spans"] = [
        {
            "name": "ldops.prune_pass",
            "total_s": result["prune_wall_s"],
        },
        {
            "name": "ldops.clump_pass",
            "total_s": result["clump_wall_s"],
        },
    ]
    print(render(result))

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2)
        print(f"\nwrote {args.json}")

    failed = [
        gate
        for gate in (
            "chunked_matches_inmemory",
            "matches_dense_reference",
            "window_bound_ok",
        )
        if not result["ldops"][gate]
    ]
    if failed:
        print(f"FAIL: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
