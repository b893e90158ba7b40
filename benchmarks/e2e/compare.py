"""Compare two run sets written by ``run.py --json``.

    python benchmarks/e2e/compare.py A.json B.json

For every workload and end-to-end metric, prints each set's median and
quartiles (``statistics.quantiles(values, n=4)``), the spread (quartile
distance over the median) and the change of B's median against A's.
A row is flagged when the medians differ by more than the metric's
``BENCHMARK.json`` bound, or when either set's spread exceeds it
(``setup_s`` excepted); the exit code is 1 if any row is flagged.  Two sets of the same commit
should flag nothing -- that is how the bounds were set.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]


def load_runs(path: Path) -> list[dict[str, Any]]:
    runs: list[dict[str, Any]] = json.loads(path.read_text())["runs"]
    return runs


def values(runs: list[dict[str, Any]], workload: str, metric: str) -> list[float]:
    return [
        run["workloads"][workload]["end_to_end"][metric]
        for run in runs
        if workload in run["workloads"]
    ]


def summary(vals: list[float]) -> tuple[float, float, float]:
    """``(median, first quartile, third quartile)``."""
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return statistics.median(vals), q1, q3


def spread(vals: list[float]) -> float:
    med, q1, q3 = summary(vals)
    return (q3 - q1) / med


def compare(
    a: list[dict[str, Any]], b: list[dict[str, Any]], bench: dict[str, Any]
) -> list[dict[str, Any]]:
    rows = []
    for workload in (w["name"] for w in bench["workloads"]):
        for metric in bench["end_to_end"]:
            va, vb = values(a, workload, metric["name"]), values(b, workload, metric["name"])
            if not va or not vb:
                continue
            med_a, med_b = summary(va)[0], summary(vb)[0]
            change = (med_b - med_a) / med_a
            bound = metric["bound"]
            rows.append({
                "workload": workload,
                "metric": metric["name"],
                "a": summary(va),
                "b": summary(vb),
                "spread_a": spread(va),
                "spread_b": spread(vb),
                "change": change,
                "bound": bound,
                # Set-up is measured a few times per run, so only its
                # median has to hold; its spread is reported, not gated.
                "flagged": abs(change) > bound
                or (metric["name"] != "setup_s" and max(spread(va), spread(vb)) > bound),
            })
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(load_runs(args.a), load_runs(args.b), bench)
    print(
        f"{'workload':<15} {'metric':<13} {'A median [q1, q3]':>30} {'spread':>7} "
        f"{'B median [q1, q3]':>30} {'spread':>7} {'change':>8} {'bound':>6}"
    )
    for r in rows:
        a, b = r["a"], r["b"]
        print(
            f"{r['workload']:<15} {r['metric']:<13} "
            f"{a[0]:>10.4g} [{a[1]:>8.4g}, {a[2]:>8.4g}] {r['spread_a']:>7.1%} "
            f"{b[0]:>10.4g} [{b[1]:>8.4g}, {b[2]:>8.4g}] {r['spread_b']:>7.1%} "
            f"{r['change']:>+8.1%} {r['bound']:>6.0%}{'  FLAG' if r['flagged'] else ''}"
        )
    flagged = sum(r["flagged"] for r in rows)
    print(f"{len(rows)} rows, {flagged} flagged")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
