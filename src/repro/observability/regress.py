"""Benchmark-regression gating: record a baseline, compare fresh runs.

GEMMbench's lesson (Lokhmotov, arXiv:1511.03742) is that reproducible
GEMM work needs *recorded* baselines, not one-off timings.  This module
is the recording half of that loop for this repo's benchmark JSON
outputs, and the comparison tool the ``bench-regression`` CI job calls:

    python -m repro.observability.regress record \
        --name ci-bench --out benchmarks/baselines/ci-bench.json \
        parallel-scaling-smoke.json table1.json

    python -m repro.observability.regress compare \
        --baseline benchmarks/baselines/ci-bench.json \
        --timing-tolerance 0.30 --report regression-report.json \
        parallel-scaling-smoke.json table1.json

Input files are *flattened* into named metrics of three kinds:

* ``exact``   -- must match the baseline bit-for-bit (counters,
  shard counts, bit-exactness flags);
* ``timing``  -- seconds, lower is better; a fresh value above
  ``baseline * (1 + tolerance)`` is a regression;
* ``ratio``   -- dimensionless, higher is better (speedups); a fresh
  value below ``baseline * (1 - tolerance)`` is a regression.

Supported input formats (auto-detected per file):

* pytest-benchmark JSON (``--benchmark-json``): per-benchmark mean
  seconds as ``timing`` metrics;
* ``bench_parallel_scaling.py --json`` sweeps: per-worker seconds
  (``timing``), speedups (``ratio``), word-ops / shard counts /
  bit-exactness and deterministic observability counters (``exact``);
* ``bench_parallel_scaling.py --backends --json`` races: per-backend
  seconds (``timing``), speedup vs the reference panel (``ratio``),
  bit-exactness / counter invariance and the word-op counters
  (``exact``).  Backends present only in the fresh run (e.g.
  ``cnative`` on a runner with a compiler, where the baseline was
  recorded without one) are ignored, so one baseline serves every
  runner;
* metrics-report JSON (:meth:`repro.observability.report.MetricsReport.to_json`):
  deterministic counters as ``exact``, span totals as ``timing``.

Metric names are prefixed with the input file's stem, so record and
compare must see the same file names -- which CI guarantees by
regenerating the same artifacts every run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

__all__ = [
    "Metric",
    "Comparison",
    "flatten_metrics",
    "load_metrics",
    "compare_metrics",
    "record_baseline",
    "main",
]

KIND_EXACT = "exact"
KIND_TIMING = "timing"
KIND_RATIO = "ratio"

#: Counters that are bit-deterministic across runs and machines and may
#: therefore be gated exactly.  (Cache hit/miss *splits* race under the
#: thread pool; their sum is deterministic but is derivable from these.)
DETERMINISTIC_COUNTERS = (
    "gemm.popc_word_ops",
    "gemm.calls",
    "pack.operands",
    "pack.bytes_packed",
    "shards.executed",
    "shards.mirrored",
    "kernel.launches",
    "stream.chunks",
    "stream.bytes_read",
    # Serving counters are deterministic under *forced* batches (the
    # bench/smoke mode); live-window counts depend on arrival timing.
    "serve.queries",
    "serve.batches",
    "serve.coalesced_batches",
    "serve.batch_rows",
    # Robustness counters: exact by construction in the chaos-serve and
    # overload scenarios (fault plans are seeded, admission bounds are
    # forced), so any drift is a real behaviour change.
    "serve.shed",
    "serve.deadline_exceeded",
    "serve.breaker_trips",
    "io.crc_failures",
    "io.chunks_verified",
    # LD prune/clump counters are exact functions of (panel, window,
    # r2) for a pinned chunk size; pairs_tested and window_peak_sites
    # are additionally invariant under chunking by construction.
    "ldops.sites_seen",
    "ldops.sites_kept",
    "ldops.sites_pruned",
    "ldops.pairs_tested",
    "ldops.clumps_formed",
    "ldops.sites_absorbed",
    "ldops.window_peak_sites",
)

#: Default relative tolerance for ``timing``/``ratio`` metrics -- wide
#: enough for shared CI runners (the bench-regression job passes 0.30).
DEFAULT_TIMING_TOLERANCE = 0.30


@dataclass(frozen=True)
class Metric:
    """One named benchmark observation."""

    name: str
    value: float
    kind: str  # KIND_EXACT | KIND_TIMING | KIND_RATIO


@dataclass(frozen=True)
class Comparison:
    """The verdict for one baseline metric against a fresh run."""

    name: str
    kind: str
    baseline: float
    fresh: float | None
    status: str  # "ok" | "regressed" | "improved" | "missing"
    detail: str

    @property
    def failed(self) -> bool:
        return self.status in ("regressed", "missing")


# -- flattening ----------------------------------------------------------------


def flatten_metrics(data: dict[str, Any], prefix: str) -> list[Metric]:
    """Flatten one benchmark JSON payload into named metrics."""
    if "benchmarks" in data:
        return _flatten_pytest_benchmark(data, prefix)
    if "serving" in data:
        return _flatten_serving(data, prefix)
    if "ldops" in data:
        return _flatten_ldops(data, prefix)
    if "backends" in data and "problem" in data:
        return _flatten_backend_race(data, prefix)
    if "rows" in data and "problem" in data:
        return _flatten_scaling_sweep(data, prefix)
    if "counters" in data:
        return _flatten_metrics_report(data, prefix)
    raise ValueError(f"{prefix}: unrecognized benchmark JSON format")


def _flatten_pytest_benchmark(data: dict[str, Any], prefix: str) -> list[Metric]:
    metrics = []
    for bench in data.get("benchmarks", []):
        name = bench.get("name", "unnamed")
        stats = bench.get("stats", {})
        if "mean" in stats:
            metrics.append(
                Metric(f"{prefix}:{name}.mean_s", float(stats["mean"]), KIND_TIMING)
            )
    return metrics


def _flatten_scaling_sweep(data: dict[str, Any], prefix: str) -> list[Metric]:
    metrics = [
        Metric(f"{prefix}:word_ops", float(data["word_ops"]), KIND_EXACT)
    ]
    for row in data.get("rows", []):
        base = f"workers{row['workers']}"
        metrics.append(
            Metric(f"{prefix}:{base}.seconds", float(row["seconds"]), KIND_TIMING)
        )
        metrics.append(
            Metric(f"{prefix}:{base}.speedup", float(row["speedup"]), KIND_RATIO)
        )
        metrics.append(
            Metric(
                f"{prefix}:{base}.bit_exact",
                float(bool(row["bit_exact"])),
                KIND_EXACT,
            )
        )
        metrics.append(
            Metric(
                f"{prefix}:{base}.n_shards", float(row["n_shards"]), KIND_EXACT
            )
        )
    for name, value in sorted(data.get("counters", {}).items()):
        if name in DETERMINISTIC_COUNTERS:
            metrics.append(
                Metric(f"{prefix}:counter.{name}", float(value), KIND_EXACT)
            )
    return metrics


def _flatten_backend_race(data: dict[str, Any], prefix: str) -> list[Metric]:
    metrics = [
        Metric(f"{prefix}:word_ops", float(data["word_ops"]), KIND_EXACT)
    ]
    for row in data.get("backends", []):
        name = row["name"]
        metrics.append(
            Metric(
                f"{prefix}:backend.{name}.seconds",
                float(row["seconds"]),
                KIND_TIMING,
            )
        )
        metrics.append(
            Metric(
                f"{prefix}:backend.{name}.speedup",
                float(row["speedup"]),
                KIND_RATIO,
            )
        )
        metrics.append(
            Metric(
                f"{prefix}:backend.{name}.bit_exact",
                float(bool(row["bit_exact"])),
                KIND_EXACT,
            )
        )
        metrics.append(
            Metric(
                f"{prefix}:backend.{name}.counters_invariant",
                float(bool(row["counters_invariant"])),
                KIND_EXACT,
            )
        )
    for name, value in sorted(data.get("counters", {}).items()):
        if name in DETERMINISTIC_COUNTERS:
            metrics.append(
                Metric(f"{prefix}:counter.{name}", float(value), KIND_EXACT)
            )
    return metrics


def _flatten_serving(data: dict[str, Any], prefix: str) -> list[Metric]:
    """Serving-bench payloads (``benchmarks/bench_serving.py``).

    Work accounting (word-ops per query, occupancy, bit-exactness) is
    exact; the amortization speedup is a higher-is-better ratio; the
    latency percentiles and QPS ride the timing/ratio tolerances (the
    baseline pins wider per-metric tolerances for them -- shared-runner
    latency is the noisiest thing this gate watches; see docs/PERF.md).
    """
    serving = data["serving"]
    metrics = [
        Metric(
            f"{prefix}:word_ops_per_query_solo",
            float(serving["word_ops_per_query_solo"]),
            KIND_EXACT,
        ),
        Metric(
            f"{prefix}:word_ops_per_query_coalesced",
            float(serving["word_ops_per_query_coalesced"]),
            KIND_EXACT,
        ),
        Metric(
            f"{prefix}:amortization_speedup",
            float(serving["amortization_speedup"]),
            KIND_RATIO,
        ),
        Metric(
            f"{prefix}:batch_occupancy",
            float(serving["batch_occupancy"]),
            KIND_EXACT,
        ),
        Metric(
            f"{prefix}:bit_exact", float(bool(serving["bit_exact"])), KIND_EXACT
        ),
        Metric(f"{prefix}:p50_s", float(serving["p50_s"]), KIND_TIMING),
        Metric(f"{prefix}:p99_s", float(serving["p99_s"]), KIND_TIMING),
        Metric(f"{prefix}:qps", float(serving["qps"]), KIND_RATIO),
    ]
    # Overload-flood gates (added with the hardening work): the
    # admitted/shed split is forced by the admission bounds, so every
    # one of these is exact.  Absent in pre-hardening JSONs.
    overload = data.get("overload")
    if overload is not None:
        for name in (
            "submitted",
            "admitted",
            "shed",
            "deadline_rejections",
        ):
            metrics.append(
                Metric(
                    f"{prefix}:overload.{name}",
                    float(overload[name]),
                    KIND_EXACT,
                )
            )
        for name in (
            "shed_all_have_retry_hint",
            "conservation_ok",
            "accepted_bit_exact",
            "deadline_overrun_bounded",
        ):
            metrics.append(
                Metric(
                    f"{prefix}:overload.{name}",
                    float(bool(overload[name])),
                    KIND_EXACT,
                )
            )
    for name, value in sorted(data.get("counters", {}).items()):
        if name in DETERMINISTIC_COUNTERS:
            metrics.append(
                Metric(f"{prefix}:counter.{name}", float(value), KIND_EXACT)
            )
    return metrics


def _flatten_ldops(data: dict[str, Any], prefix: str) -> list[Metric]:
    """LD prune/clump bench payloads (``benchmarks/bench_ldops.py``).

    Everything here is exact: the kept/clump cardinalities, the
    chunked-vs-in-memory and brute-force-reference equivalence flags,
    the window residency bound, and the deterministic ``ldops.*``
    counters.  One wall-clock span rides the timing tolerance.
    """
    ldops = data["ldops"]
    metrics = []
    for name in (
        "prune_kept",
        "prune_pruned",
        "clump_count",
        "clump_absorbed",
        "peak_window_sites",
        "window",
    ):
        metrics.append(
            Metric(f"{prefix}:{name}", float(ldops[name]), KIND_EXACT)
        )
    for name in (
        "chunked_matches_inmemory",
        "matches_dense_reference",
        "window_bound_ok",
    ):
        metrics.append(
            Metric(f"{prefix}:{name}", float(bool(ldops[name])), KIND_EXACT)
        )
    for name, value in sorted(data.get("counters", {}).items()):
        if name in DETERMINISTIC_COUNTERS:
            metrics.append(
                Metric(f"{prefix}:counter.{name}", float(value), KIND_EXACT)
            )
    for span in data.get("spans", []):
        metrics.append(
            Metric(
                f"{prefix}:span.{span['name']}.total_s",
                float(span["total_s"]),
                KIND_TIMING,
            )
        )
    return metrics


def _flatten_metrics_report(data: dict[str, Any], prefix: str) -> list[Metric]:
    metrics = []
    for name, value in sorted(data.get("counters", {}).items()):
        if name in DETERMINISTIC_COUNTERS:
            metrics.append(
                Metric(f"{prefix}:counter.{name}", float(value), KIND_EXACT)
            )
    for span in data.get("spans", []):
        metrics.append(
            Metric(
                f"{prefix}:span.{span['name']}.total_s",
                float(span["total_s"]),
                KIND_TIMING,
            )
        )
    return metrics


def load_metrics(paths: list[str | Path]) -> list[Metric]:
    """Load and flatten every input file (stem-prefixed, order stable)."""
    metrics: list[Metric] = []
    for path in paths:
        path = Path(path)
        data = json.loads(path.read_text(encoding="utf-8"))
        metrics.extend(flatten_metrics(data, path.stem))
    return metrics


# -- baseline record/compare ---------------------------------------------------


def record_baseline(
    name: str, metrics: list[Metric], tolerances: dict[str, float] | None = None
) -> dict[str, Any]:
    """Build the baseline JSON document for ``metrics``.

    ``tolerances`` optionally pins a per-metric relative tolerance that
    overrides the compare-time default (configurable thresholds per
    metric, keyed by full metric name).
    """
    doc: dict[str, Any] = {
        "format": "repro-bench-baseline/1",
        "name": name,
        "metrics": {},
    }
    for metric in metrics:
        entry: dict[str, Any] = {"value": metric.value, "kind": metric.kind}
        if tolerances and metric.name in tolerances:
            entry["tolerance"] = tolerances[metric.name]
        doc["metrics"][metric.name] = entry
    return doc


def compare_metrics(
    baseline: dict[str, Any],
    fresh: list[Metric],
    timing_tolerance: float = DEFAULT_TIMING_TOLERANCE,
) -> list[Comparison]:
    """Compare fresh metrics against a baseline document.

    Every baseline metric must be present in the fresh run (``missing``
    fails); fresh-only metrics are ignored (they become part of the
    baseline the next time it is re-recorded).
    """
    fresh_by_name = {m.name: m for m in fresh}
    comparisons: list[Comparison] = []
    for name, entry in baseline.get("metrics", {}).items():
        kind = entry["kind"]
        base_value = float(entry["value"])
        tolerance = float(entry.get("tolerance", timing_tolerance))
        fresh_metric = fresh_by_name.get(name)
        if fresh_metric is None:
            comparisons.append(
                Comparison(
                    name=name,
                    kind=kind,
                    baseline=base_value,
                    fresh=None,
                    status="missing",
                    detail="metric absent from fresh run",
                )
            )
            continue
        value = fresh_metric.value
        # Non-finite values must fail loudly for every kind: NaN makes
        # every comparison below false, so a NaN timing/ratio would
        # otherwise slide into the "ok" branch and the CI gate would
        # report green on a measurement that never happened.
        if not math.isfinite(value) or not math.isfinite(base_value):
            bad = "fresh" if not math.isfinite(value) else "baseline"
            comparisons.append(
                Comparison(
                    name=name,
                    kind=kind,
                    baseline=base_value,
                    fresh=value,
                    status="regressed",
                    detail=(
                        f"non-finite {bad} value "
                        f"(baseline={base_value}, fresh={value}); "
                        f"re-record or fix the producing benchmark"
                    ),
                )
            )
            continue
        if kind == KIND_EXACT:
            if value == base_value:
                status, detail = "ok", "exact match"
            else:
                status = "regressed"
                detail = f"expected exactly {base_value}, got {value}"
        elif kind == KIND_TIMING:
            limit = base_value * (1.0 + tolerance)
            if value > limit:
                status = "regressed"
                detail = (
                    f"{value:.6f}s exceeds {base_value:.6f}s "
                    f"+{tolerance:.0%} (limit {limit:.6f}s)"
                )
            elif value < base_value:
                status, detail = "improved", f"{value:.6f}s under baseline"
            else:
                status, detail = "ok", f"within +{tolerance:.0%}"
        elif kind == KIND_RATIO:
            floor = base_value * (1.0 - tolerance)
            if value < floor:
                status = "regressed"
                detail = (
                    f"{value:.3f} below {base_value:.3f} "
                    f"-{tolerance:.0%} (floor {floor:.3f})"
                )
            elif value > base_value:
                status, detail = "improved", f"{value:.3f} above baseline"
            else:
                status, detail = "ok", f"within -{tolerance:.0%}"
        else:
            raise ValueError(f"{name}: unknown metric kind {kind!r}")
        comparisons.append(
            Comparison(
                name=name,
                kind=kind,
                baseline=base_value,
                fresh=value,
                status=status,
                detail=detail,
            )
        )
    return comparisons


def render_comparisons(comparisons: list[Comparison]) -> str:
    """Text report: one line per metric, worst statuses first."""
    order = {"missing": 0, "regressed": 1, "improved": 2, "ok": 3}
    lines = [
        f"{'status':<10} {'kind':<7} {'metric':<52} detail",
    ]
    for comp in sorted(comparisons, key=lambda c: (order[c.status], c.name)):
        lines.append(
            f"{comp.status:<10} {comp.kind:<7} {comp.name:<52} {comp.detail}"
        )
    n_failed = sum(c.failed for c in comparisons)
    lines.append(
        f"-- {len(comparisons)} metrics compared, {n_failed} regression(s)"
    )
    return "\n".join(lines)


# -- CLI -----------------------------------------------------------------------


def _parse_tolerances(specs: list[str] | None) -> dict[str, float]:
    tolerances: dict[str, float] = {}
    for spec in specs or []:
        name, sep, value = spec.rpartition("=")
        if not sep or not name:
            raise ValueError(
                f"--tolerance expects NAME=VALUE, got {spec!r}"
            )
        tolerances[name] = float(value)
    return tolerances


def _cmd_record(args: argparse.Namespace) -> int:
    metrics = load_metrics(args.inputs)
    tolerances = _parse_tolerances(args.tolerance)
    unknown = set(tolerances) - {m.name for m in metrics}
    if unknown:
        raise ValueError(
            f"--tolerance names not among recorded metrics: "
            f"{', '.join(sorted(unknown))}"
        )
    doc = record_baseline(args.name, metrics, tolerances=tolerances)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"recorded {len(metrics)} metrics to {out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    baseline = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
    fresh = load_metrics(args.inputs)
    comparisons = compare_metrics(
        baseline, fresh, timing_tolerance=args.timing_tolerance
    )
    print(render_comparisons(comparisons))
    if args.report:
        report = {
            "baseline": str(args.baseline),
            "timing_tolerance": args.timing_tolerance,
            "results": [
                {
                    "name": c.name,
                    "kind": c.kind,
                    "baseline": c.baseline,
                    "fresh": c.fresh,
                    "status": c.status,
                    "detail": c.detail,
                }
                for c in comparisons
            ],
            "failed": sum(c.failed for c in comparisons),
        }
        Path(args.report).write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote comparison report to {args.report}")
    return 1 if any(c.failed for c in comparisons) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.observability.regress",
        description="Record benchmark baselines and gate fresh runs against them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser("record", help="write a baseline from benchmark JSONs")
    record.add_argument("--name", required=True, help="baseline name")
    record.add_argument("--out", required=True, help="baseline JSON output path")
    record.add_argument(
        "--tolerance",
        action="append",
        metavar="NAME=VALUE",
        help="pin a per-metric relative tolerance in the baseline "
        "(full metric name; repeatable; overrides --timing-tolerance "
        "at compare time)",
    )
    record.add_argument("inputs", nargs="+", help="benchmark JSON files")
    record.set_defaults(func=_cmd_record)

    compare = sub.add_parser(
        "compare", help="compare fresh benchmark JSONs against a baseline"
    )
    compare.add_argument("--baseline", required=True, help="baseline JSON path")
    compare.add_argument(
        "--timing-tolerance",
        type=float,
        default=DEFAULT_TIMING_TOLERANCE,
        help="relative tolerance for timing/ratio metrics (default 0.30)",
    )
    compare.add_argument(
        "--report", help="write the per-metric comparison report JSON here"
    )
    compare.add_argument("inputs", nargs="+", help="fresh benchmark JSON files")
    compare.set_defaults(func=_cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args))
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
