"""End-to-end benchmark: SNP-comparison workloads timed whole, split by layer.

    PYTHONPATH=src python benchmarks/e2e/run.py --seed 0 [--workload NAME]
        [--seconds N] [--trace [0|1]] [--json RUNS.json]

For each workload (all four unless ``--workload`` names one) the
benchmark generates the inputs from the seed (untimed), runs the
workload in fresh subprocesses, checks every answer against an
independent oracle (:mod:`oracles`) and prints every metric by name
with its unit.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics, or with ``--trace 1`` the per-layer metrics of a separate
traced run (the untraced and traced runs then get half the time each,
and their difference is ``trace_overhead_frac``).  The metric names,
units and worsening bounds live in ``BENCHMARK.json`` at the repository
root.  The exit code is 0 only when every answer was correct.

``--json FILE`` appends this run, with the host probe (:mod:`host`), to
the run set in ``FILE``; :mod:`compare` compares two such sets.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

import host as host_probe
import serve
from procs import HERE, ROOT, Child, ChildError

sys.path.insert(0, str(ROOT / "src"))

#: Launches per run whose launch-to-ready time is ``setup_s`` (median).
SETUP_RUNS = 3
#: A run of one workload must finish well inside three minutes.
WORKLOAD_BUDGET_S = 170.0


def load_benchmark() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _is_event(name: str):
    def predicate(line: str) -> bool:
        return line.startswith("{") and json.loads(line).get("event") == name

    return predicate


# -- batch workloads ----------------------------------------------------------


def _run_worker(
    spec_path: Path, scratch: Path, seconds: float, flags: list[str], budget: float
) -> tuple[float, dict[str, Any] | None]:
    child = Child(
        [str(HERE / "worker.py"), str(spec_path), "--seconds", str(seconds), *flags], scratch
    )
    try:
        ready_at, _ = child.wait_line(_is_event("ready"), timeout=budget)
        setup_s = ready_at - child.started
        done = None
        if "--setup-only" not in flags:
            _, line = child.wait_line(_is_event("done"), timeout=budget)
            done = json.loads(line)
    finally:
        code = child.stop()
    if code != 0:
        raise ChildError(f"worker exited with {code}:\n{child.stderr_tail()}")
    return setup_s, done


def _batch_failures(spec: dict[str, Any], op_checks: list[dict[str, Any]]) -> int:
    expect = spec["expect"]
    failed = 0
    for got in op_checks:
        if spec["workload"] == "ld-gram":
            ok = got["counts"] == expect["counts"] and all(
                math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
                for a, b in zip(got["r2"], expect["r2"])
            )
        elif spec["workload"] == "mixture-scan":
            ok = got["scores"] == expect["scores"]
        else:
            ok = got["kept"] == expect["kept"]
        failed += not ok
    return failed


def measure_batch(
    spec: dict[str, Any], rundir: Path, seconds: float, trace: bool, deadline: float
) -> dict[str, Any]:
    spec_path = rundir / "inputs" / "spec.json"

    def budget() -> float:
        return max(deadline - time.perf_counter(), 1.0)

    setups = []
    if not trace:
        for i in range(SETUP_RUNS - 1):
            setup_s, _ = _run_worker(
                spec_path, rundir / f"setup-{i}", 0, ["--setup-only"], budget()
            )
            setups.append(setup_s)
    runs: list[tuple[str, float, list[str]]] = [("run", seconds / 2 if trace else seconds, [])]
    if trace:
        runs.append(("traced", seconds / 2, ["--trace"]))
    out: dict[str, Any] = {"attempted": 0, "failed": 0, "errors": []}
    for tag, secs, flags in runs:
        setup_s, done = _run_worker(spec_path, rundir / tag, secs, flags, budget())
        assert done is not None
        checks = [op["check"] for op in done["ops"]]
        out["attempted"] += len(checks) + (done["error"] is not None)
        out["failed"] += _batch_failures(spec, checks) + (done["error"] is not None)
        if done["error"]:
            out["errors"].append(done["error"])
        ops_s = [op["s"] for op in done["ops"]]
        if tag == "run":
            setups.append(setup_s)
            out.update(ops_s=ops_s, busy_s=sum(ops_s), peak_rss_mib=done["peak_rss_mib"])
        else:
            out["trace"] = {
                "ops_s": ops_s,
                "layers": done["layers"],
                "counters": done["counters"],
                "checks": checks,
            }
    out["setup_s"] = setups
    return out


# -- identity-serve -----------------------------------------------------------


def measure_serve(
    spec: dict[str, Any], rundir: Path, seconds: float, trace: bool, seed: int
) -> dict[str, Any]:
    setups, errors = [], []
    for i in range(0 if trace else SETUP_RUNS - 1):
        setup_s, stop_errors = serve.setup_only(spec, rundir, f"setup-{i}")
        setups.append(setup_s)
        errors += stop_errors
    result = serve.run(spec, rundir, seconds / 2 if trace else seconds, seed, False, "run")
    out: dict[str, Any] = {
        "setup_s": setups + [result["setup_s"]],
        "ops_s": result["ops_s"],
        "busy_s": result["window_s"],
        "peak_rss_mib": result["peak_rss_mib"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "errors": errors + result["errors"],
    }
    if trace:
        traced = serve.run(spec, rundir, seconds / 2, seed, True, "traced")
        out["attempted"] += traced["attempted"]
        out["failed"] += traced["failed"]
        out["errors"] += traced["errors"]
        out["trace"] = traced
    return out


# -- metrics ------------------------------------------------------------------


def end_to_end(m: dict[str, Any]) -> dict[str, float]:
    ops = m["ops_s"]
    return {
        "setup_s": statistics.median(m["setup_s"]),
        "op_p50_ms": statistics.median(ops) * 1e3,
        "ops_per_s": len(ops) / m["busy_s"],
        "peak_rss_mib": m["peak_rss_mib"],
    }


def _words(bits: int) -> int:
    from workloads import WORD_BITS

    return -(-bits // WORD_BITS)


def _useful_word_ops(spec: dict[str, Any], trace: dict[str, Any]) -> float:
    """Word-ops whose results the workload uses, over the traced jobs."""
    p, jobs = spec["params"], len(trace["ops_s"])
    if spec["workload"] == "ld-gram":
        n = p["sites"]
        return jobs * n * (n + 1) / 2 * _words(p["samples"])  # the Gram triangle
    if spec["workload"] == "mixture-scan":
        return jobs * p["references"] * p["mixtures"] * _words(p["sites"])
    pairs = sum(c["pairs_tested"] for c in trace["checks"])
    return pairs * _words(p["samples"])  # ld-prune: pairs the r^2 rule tested


def _serve_trace(spec: dict[str, Any], m: dict[str, Any]) -> dict[str, Any]:
    """Per-search view of the traced server: a search waits for its whole
    batch, so each batch's layer times count once per request in it."""
    from repro.core.config import Algorithm
    from repro.core.planner import derive_config
    from repro.gpu.arch import get_gpu

    traced = m["trace"]
    batches = traced["trace"]["batches"]
    requests = sum(b["requests"] for b in batches)
    latency = statistics.fmean(traced["ops_s"])
    layers: dict[str, float] = {}
    for b in batches:
        for layer, seconds in b["layers"].items():
            layers[layer] = layers.get(layer, 0.0) + b["requests"] * seconds
    m_r = derive_config(get_gpu("Titan V"), Algorithm.FASTID_IDENTITY).m_r
    rows = sum(b["rows"] for b in batches)
    padded = sum(-(-b["rows"] // m_r) * m_r for b in batches)
    counters = traced["trace"]["metrics"]["counters"]
    computed = counters.get("gemm.popc_word_ops", 0)
    return {
        "ops": requests,
        "wall_s": latency * requests,
        "layers": layers,
        "gemm_busy_s": sum(b["layers"].get("gemm", 0.0) for b in batches),
        "counters": counters,
        # Padding rows are the waste: every batch compares m_r-padded
        # query rows against the whole index.
        "useful_word_ops": computed * rows / padded if padded else 0.0,
        "p50_s": statistics.median(traced["ops_s"]),
        "fold_batch_frac": sum(b["layers"].get("fold", 0.0) for b in batches)
        / sum(b["duration"] for b in batches),
        "segments_end": batches[-1]["segments"] if batches else 0,
        "seals": traced["seals"],
        "append_per_search": statistics.median(traced["append_s"])
        / statistics.median(traced["ops_s"])
        if traced["append_s"]
        else 0.0,
    }


def _batch_trace(spec: dict[str, Any], m: dict[str, Any]) -> dict[str, Any]:
    trace = m["trace"]
    layers = dict(trace["layers"])
    counters = trace["counters"]
    # Waiting on the prefetch producer is ingest time on the critical path.
    layers["io_stream"] = layers.get("io_stream", 0.0) + counters.get(
        "stream.prefetch_stall_s", 0.0
    )
    return {
        "ops": len(trace["ops_s"]),
        "wall_s": sum(trace["ops_s"]),
        "layers": layers,
        "gemm_busy_s": layers.get("gemm", 0.0),
        "counters": counters,
        "useful_word_ops": _useful_word_ops(spec, trace),
        "p50_s": statistics.median(trace["ops_s"]),
    }


def per_layer(spec: dict[str, Any], m: dict[str, Any], host: dict[str, Any]) -> dict[str, float]:
    from workloads import WORD_BITS

    t = _serve_trace(spec, m) if spec["workload"] == "identity-serve" else _batch_trace(spec, m)
    ops, wall, layers, c = t["ops"], t["wall_s"], t["layers"], t["counters"]

    def frac(layer: str) -> float:
        return layers.get(layer, 0.0) / wall

    read_s = c.get("stream.read_s", 0.0)
    read_rate = c.get("stream.bytes_read", 0) / read_s if read_s else 0.0
    word_ops = c.get("gemm.popc_word_ops", 0)
    word_rate = word_ops / t["gemm_busy_s"] if t["gemm_busy_s"] else 0.0
    fracs = {
        name: frac(name)
        for name in ("io_stream", "packing", "pipeline", "gemm", "ld_stats", "ldops", "fold")
    }
    return {
        # Demoted from the end-to-end set: a dozen jobs carry no p99, and
        # the served p99 rests on a few hundred searches (README).
        "op_p99_ms": float(np.percentile(m["ops_s"], 99)) * 1e3,
        **{f"{name}.frac": value for name, value in fracs.items()},
        "io_stream.read_frac": read_s / wall,
        "io_stream.bytes_read": c.get("stream.bytes_read", 0) / ops,
        "io_stream.read_gbs": read_rate / 1e9,
        "io_stream.bw_frac": read_rate / host["copy_bytes_per_s"],
        "io_stream.chunks_verified": c.get("io.chunks_verified", 0) / ops,
        "packing.s": layers.get("packing", 0.0) / ops,
        "packing.operands": c.get("pack.operands", 0) / ops,
        "packing.bytes": c.get("pack.bytes_packed", 0) / ops,
        "pipeline.s": layers.get("pipeline", 0.0) / ops,
        "pipeline.calls": c.get("kernel.launches", 0) / ops,
        "gemm.s": layers.get("gemm", 0.0) / ops,
        "gemm.calls": c.get("gemm.calls", 0) / ops,
        "gemm.word_ops": word_ops / ops,
        "gemm.word_ops_per_s": word_rate,
        "gemm.ceiling_frac": word_rate / (host["sgemm_flops"] / (2 * WORD_BITS)),
        "gemm.useful_frac": t["useful_word_ops"] / word_ops if word_ops else 0.0,
        "ldops.pairs_tested": c.get("ldops.pairs_tested", 0) / ops,
        "fold.batch_frac": t.get("fold_batch_frac", 0.0),
        "batcher.occupancy": c.get("serve.batch_rows", 0) / max(c.get("serve.batches", 0), 1),
        "batcher.coalesced_frac": c.get("serve.coalesced_batches", 0)
        / max(c.get("serve.batches", 0), 1),
        "index.segments_end": t.get("segments_end", 0),
        "index.seals": t.get("seals", 0),
        "index.append_per_search": t.get("append_per_search", 0.0),
        "unattributed_frac": 1.0 - sum(fracs.values()),
        "trace_overhead_frac": t["p50_s"] / statistics.median(m["ops_s"]) - 1.0,
    }


# -- driver -------------------------------------------------------------------


def run_workload(
    name: str, args: argparse.Namespace, host: dict[str, Any] | None
) -> dict[str, Any]:
    import workloads

    deadline = time.perf_counter() + WORKLOAD_BUDGET_S
    rundir = args.workdir / f"{name}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    try:
        spec = workloads.prepare(name, args.seed, args.scale, rundir / "inputs")
        if name == "identity-serve":
            m = measure_serve(spec, rundir, args.seconds, bool(args.trace), args.seed)
        else:
            m = measure_batch(spec, rundir, args.seconds, bool(args.trace), deadline)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    if not m["ops_s"]:
        raise ChildError(f"{name}: no operation completed: {m['errors']}")
    record: dict[str, Any] = {
        "attempted": m["attempted"],
        "failed": m["failed"],
        "errors": m["errors"],
        "samples": {"ops": len(m["ops_s"]), "setup_runs": len(m["setup_s"])},
        "end_to_end": end_to_end(m),
    }
    if args.trace:
        assert host is not None
        record["per_layer"] = per_layer(spec, m, host)
    return record


def _print_metrics(title: str, values: dict[str, float], units: dict[str, str]) -> None:
    print(f"  {title}:")
    for name, value in values.items():
        print(f"    {name:<28} {value:>16.6g} {units[name]}")


def main(argv: list[str] | None = None) -> int:
    bench = load_benchmark()
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, action="append")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--json", type=Path, help="append this run to a run-set file")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--workdir", type=Path, default=ROOT / ".bench_build" / "e2e")
    args = parser.parse_args(argv)

    # Measure the checkout's own sources, never an installed copy.
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no package under test at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    try:
        import workloads  # noqa: F401  (imports the package under test)
    except ImportError as exc:
        print(f"error: cannot import the package under test: {exc}", file=sys.stderr)
        return 2

    host = None
    if args.trace or args.json:
        host = host_probe.probe(args.workdir / "host.json")
    results = {}
    for name in args.workload or names:
        try:
            record = run_workload(name, args, host)
        except ChildError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for section in ("end_to_end", "per_layer"):
            if section in record:  # BENCHMARK.json order; a missing metric raises
                record[section] = {m["name"]: record[section][m["name"]] for m in bench[section]}
        results[name] = record
        print(f"{name}: {record['attempted']} ops attempted, {record['failed']} failed")
        for error in record["errors"]:
            print(f"  error: {error}")
        _print_metrics("end-to-end", record["end_to_end"], units)
        if args.trace:
            _print_metrics("per-layer (traced run)", record["per_layer"], units)

    if args.json:
        runs = json.loads(args.json.read_text())["runs"] if args.json.exists() else []
        runs.append({
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "scale": args.scale, "host": host, "workloads": results,
        })
        args.json.write_text(json.dumps({"runs": runs}, indent=1))

    section = "per_layer" if args.trace else "end_to_end"
    metrics: dict[str, dict[str, Any]] = {}
    for name, record in results.items():
        prefix = "" if len(results) == 1 else f"{name}/"
        for metric, value in record[section].items():
            metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
