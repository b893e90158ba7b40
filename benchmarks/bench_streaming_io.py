"""Streaming ingest: double-buffered prefetch overlap vs synchronous reads.

The out-of-core path is only worth having if ingest actually overlaps
compute (Beyer & Bientinesi's HDD-to-GPU streaming result).  This bench
writes a packed ``.snpbin`` reference database, streams it through
:class:`repro.core.streaming.StreamingMixture` twice -- once with the
double-buffered prefetch producer, once synchronously -- and
demonstrates:

* **bit-exactness** -- the streamed scores equal
  :func:`repro.core.mixture.mixture_analysis` on the in-memory matrix;
* **overlap** -- in full mode, consumer stall time stays under
  ``STALL_CEILING`` (25%) of producer read time at the default chunk
  size, while the synchronous pass by definition stalls for 100% of it;
* **determinism** -- ``stream.chunks`` / ``stream.bytes_read`` are
  exact for the pinned problem and gated by CI.

Runs two ways:

* under pytest-benchmark, like the other benches::

      PYTHONPATH=src python -m pytest benchmarks/bench_streaming_io.py --benchmark-only

* standalone, for the CI jobs (``--json`` writes the bench-schema
  metrics :mod:`repro.observability.regress` gates)::

      PYTHONPATH=src python benchmarks/bench_streaming_io.py --smoke --json streaming.json
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.mixture import mixture_analysis
from repro.core.streaming import StreamingMixture
from repro.io_stream import SnpbinSource, write_snpbin
from repro.observability.regress import metric, run_counted, write_metrics

#: The benchmark problem: a packed reference database streamed against
#: a small fixed mixture set (the paper's 20M-profile shape in miniature).
FULL_PROBLEM = dict(rows=4096, sites=16384, n_mixtures=32, chunk_rows=256)

#: CI smoke problem: a handful of chunks on a cold shared runner.
SMOKE_PROBLEM = dict(rows=512, sites=1024, n_mixtures=4, chunk_rows=128)

#: Full-mode gate: consumer stall under this fraction of read time.
STALL_CEILING = 0.25


def make_inputs(problem, rng=0):
    rng = np.random.default_rng(rng)
    database = rng.integers(
        0, 2, size=(problem["rows"], problem["sites"]), dtype=np.uint8
    )
    mixtures = rng.integers(
        0, 2, size=(problem["n_mixtures"], problem["sites"]), dtype=np.uint8
    )
    return database, mixtures


def stream_once(path, mixtures, chunk_rows, prefetch):
    """One full streamed pass; returns (wall_s, stats, scores)."""
    streamer = StreamingMixture(mixtures)
    with SnpbinSource(path) as source:
        start = time.perf_counter()
        stats = streamer.consume(source, chunk_rows, prefetch=prefetch)
        wall = time.perf_counter() - start
    return wall, stats, streamer.result().scores


def collect_counters(path, mixtures, chunk_rows):
    """Deterministic stream counters of one untimed pass (schema entries)."""
    _, counters = run_counted(
        lambda: stream_once(path, mixtures, chunk_rows, prefetch=True)
    )
    return counters


def run_bench(problem, workdir):
    """Prefetch vs sync over one ``.snpbin``; returns a JSON-ready dict."""
    database, mixtures = make_inputs(problem)
    path = Path(workdir) / "bench-db.snpbin"
    write_snpbin(path, database)
    expected = mixture_analysis(database, mixtures).scores

    chunk_rows = problem["chunk_rows"]
    sync_wall, sync_stats, sync_scores = stream_once(
        path, mixtures, chunk_rows, prefetch=False
    )
    pre_wall, pre_stats, pre_scores = stream_once(
        path, mixtures, chunk_rows, prefetch=True
    )

    return {
        "problem": dict(problem),
        "chunks": pre_stats.chunks,
        "bytes_read": pre_stats.bytes_read,
        "prefetch_wall_s": pre_wall,
        "prefetch_read_s": pre_stats.read_s,
        "prefetch_stall_s": pre_stats.stall_s,
        "stall_fraction": pre_stats.stall_fraction,
        "sync_wall_s": sync_wall,
        "sync_stall_fraction": sync_stats.stall_fraction,
        "overlap_speedup": sync_wall / pre_wall if pre_wall else 1.0,
        "bit_exact": bool(
            np.array_equal(pre_scores, expected)
            and np.array_equal(sync_scores, expected)
        ),
    }


def render(result):
    p = result["problem"]
    return "\n".join([
        f"streaming ingest  ({p['rows']} rows x {p['sites']} sites, "
        f"chunk_rows={p['chunk_rows']}, {result['chunks']} chunks, "
        f"{result['bytes_read']} packed bytes)",
        f"  sync pass           {result['sync_wall_s']:>11.4f}s  "
        f"(stall == read by definition)",
        f"  prefetch pass       {result['prefetch_wall_s']:>11.4f}s  "
        f"({result['overlap_speedup']:.2f}x)",
        f"  producer read       {result['prefetch_read_s']:>11.4f}s",
        f"  consumer stall      {result['prefetch_stall_s']:>11.4f}s  "
        f"({result['stall_fraction']:.1%} of read, ceiling "
        f"{STALL_CEILING:.0%})",
        f"  bit-exact           {'yes' if result['bit_exact'] else 'NO':>12}",
    ])


# -- pytest-benchmark entries ---------------------------------------------------

try:
    import pytest
except ImportError:  # pragma: no cover - pytest always present in CI
    pytest = None

if pytest is not None:

    @pytest.mark.artifact("streaming-io")
    def bench_streaming_prefetch(benchmark, tmp_path):
        """Time the full prefetch-vs-sync comparison; assert the gates."""
        result = benchmark.pedantic(
            run_bench, args=(FULL_PROBLEM, tmp_path), rounds=1, iterations=1
        )
        print("\n" + render(result))
        assert result["bit_exact"]
        assert result["stall_fraction"] < STALL_CEILING

    @pytest.mark.artifact("streaming-io")
    def bench_streaming_pass(benchmark, tmp_path):
        """Time one prefetched streamed pass over the full problem."""
        database, mixtures = make_inputs(FULL_PROBLEM)
        path = tmp_path / "db.snpbin"
        write_snpbin(path, database)
        _, stats, _ = benchmark(
            stream_once, path, mixtures, FULL_PROBLEM["chunk_rows"], True
        )
        assert stats.chunks == -(-FULL_PROBLEM["rows"] // FULL_PROBLEM["chunk_rows"])


# -- standalone CLI (CI jobs) ----------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small problem, no stall ceiling (CI smoke on shared runners)",
    )
    parser.add_argument("--json", help="write the bench-schema metrics to this path")
    args = parser.parse_args(argv)

    problem = SMOKE_PROBLEM if args.smoke else FULL_PROBLEM
    with tempfile.TemporaryDirectory(prefix="repro-bench-streaming-") as tmp:
        result = run_bench(problem, tmp)
        # Deterministic counters for the regression gate (untimed pass)
        # plus one coarse timing to watch.
        counters = collect_counters(
            Path(tmp) / "bench-db.snpbin",
            make_inputs(problem)[1],
            problem["chunk_rows"],
        )
    print(render(result))

    if args.json:
        span = metric(
            "span.streaming.prefetch_pass.total_s", result["prefetch_wall_s"], "timing"
        )
        write_metrics(args.json, counters + [span])
        print(f"\nwrote {args.json}")

    if not result["bit_exact"]:
        print(
            "FAIL: streamed scores differ from the in-memory path",
            file=sys.stderr,
        )
        return 1
    if not args.smoke and result["stall_fraction"] >= STALL_CEILING:
        print(
            f"FAIL: prefetch stall {result['stall_fraction']:.1%} of read "
            f"time is above the {STALL_CEILING:.0%} ceiling",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
