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

Every bench the gate reads writes one schema::

    {"metrics": [{"name": "word_ops", "value": 2097152.0, "kind": "exact"},
                 ...]}

built with :func:`metric`, :func:`run_counted` (the deterministic
counters of one instrumented pass) and :func:`write_metrics`.  The only
other accepted input is pytest-benchmark JSON (``--benchmark-json``),
whose per-benchmark mean seconds become ``timing`` metrics.  Three
kinds:

* ``exact``   -- must match the baseline bit-for-bit (counters,
  shard counts, bit-exactness flags);
* ``timing``  -- seconds, lower is better; a fresh value above
  ``baseline * (1 + tolerance)`` is a regression;
* ``ratio``   -- dimensionless, higher is better (speedups); a fresh
  value below ``baseline * (1 - tolerance)`` is a regression.

A malformed entry (a missing field, an unknown kind, a non-numeric
value, a name repeated within one file) fails the load with a
:class:`ValueError` naming the file and the entry; the CLI exits 2.

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
from typing import Any, Callable, TypeVar

from repro.observability.tracer import Tracer, set_tracer

__all__ = [
    "Metric",
    "Comparison",
    "metric",
    "run_counted",
    "write_metrics",
    "flatten_metrics",
    "load_metrics",
    "compare_metrics",
    "record_baseline",
    "main",
]

KIND_EXACT = "exact"
KIND_TIMING = "timing"
KIND_RATIO = "ratio"
KINDS = (KIND_EXACT, KIND_TIMING, KIND_RATIO)

_T = TypeVar("_T")

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
    # bench/smoke mode); live batches' counts depend on arrival timing.
    "serve.queries",
    "serve.batches",
    "serve.coalesced_batches",
    "serve.batch_rows",
    # Robustness counters: exact by construction in the service chaos
    # scenarios and the serving bench's overload flood (fault plans are
    # seeded, admission bounds are forced), so any drift is a real
    # behaviour change.
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


# -- the bench schema ----------------------------------------------------------


def metric(name: str, value: float, kind: str) -> dict[str, Any]:
    """One schema entry: ``{"name", "value", "kind"}``."""
    return {"name": name, "value": float(value), "kind": kind}


def run_counted(run: Callable[[], _T]) -> tuple[_T, list[dict[str, Any]]]:
    """Run ``run()`` once under a fresh tracer, then restore the previous one.

    Returns its result and the :data:`DETERMINISTIC_COUNTERS` it moved,
    as ``counter.<name>`` exact entries in counter-name order.
    """
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        result = run()
    finally:
        set_tracer(previous)
    counters = [
        metric(f"counter.{name}", value, KIND_EXACT)
        for name, value in sorted(tracer.counters.snapshot().items())
        if name in DETERMINISTIC_COUNTERS
    ]
    return result, counters


def write_metrics(path: str | Path, metrics: list[dict[str, Any]]) -> None:
    """Write one bench's entries as ``{"metrics": [...]}``."""
    Path(path).write_text(
        json.dumps({"metrics": metrics}, indent=2) + "\n", encoding="utf-8"
    )


def flatten_metrics(data: Any, prefix: str) -> list[Metric]:
    """Read one bench JSON payload into ``prefix``-named metrics.

    Accepts the bench schema and pytest-benchmark's ``--benchmark-json``
    (per-benchmark mean seconds as ``timing``).  A malformed schema
    entry raises :class:`ValueError` naming the entry.
    """
    if isinstance(data, dict) and "benchmarks" in data:
        return [
            Metric(
                f"{prefix}:{bench.get('name', 'unnamed')}.mean_s",
                float(bench["stats"]["mean"]),
                KIND_TIMING,
            )
            for bench in data["benchmarks"]
            if "mean" in bench.get("stats", {})
        ]
    entries = data.get("metrics") if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise ValueError('expected {"metrics": [...]} or pytest-benchmark JSON')
    metrics: list[Metric] = []
    seen: set[str] = set()
    for entry in entries:
        problem = _entry_problem(entry, seen)
        if problem:
            raise ValueError(f"metric entry {entry!r}: {problem}")
        seen.add(entry["name"])
        metrics.append(
            Metric(f"{prefix}:{entry['name']}", float(entry["value"]), entry["kind"])
        )
    return metrics


def _entry_problem(entry: Any, seen: set[str]) -> str | None:
    """Why one schema entry is malformed, or ``None``."""
    if not isinstance(entry, dict):
        return "not an object"
    missing = [key for key in ("name", "value", "kind") if key not in entry]
    if missing:
        return f"missing {', '.join(missing)}"
    if not isinstance(entry["name"], str) or not entry["name"]:
        return "name must be a non-empty string"
    if entry["kind"] not in KINDS:
        return f"unknown kind {entry['kind']!r} (valid: {', '.join(KINDS)})"
    value = entry["value"]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return f"non-numeric value {value!r}"
    if entry["name"] in seen:
        return f"repeated name {entry['name']!r}"
    return None


def load_metrics(paths: list[str | Path]) -> list[Metric]:
    """Load every input file (stem-prefixed names, order stable)."""
    metrics: list[Metric] = []
    for path in paths:
        path = Path(path)
        data = json.loads(path.read_text(encoding="utf-8"))
        try:
            metrics.extend(flatten_metrics(data, path.stem))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
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
