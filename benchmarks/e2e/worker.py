"""The process under test for the batch workloads.

    python benchmarks/e2e/worker.py SPEC.json --seconds S [--setup-only] [--trace]

Set-up (imports, opening inputs, constructing the framework) ends with a
``ready`` line on stdout; the benchmark times launch-to-ready as
``setup_s``.  Jobs then repeat until ``S`` seconds have passed, each
timed alone; the answer checks run between jobs, outside the timing.
The last line reports every job's time and check values.

With ``--trace`` a recording tracer is installed before set-up and each
job's spans are split into layers (:mod:`layers`); the public calls the
program does not span (``LDResult.r_squared``) are timed here.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Callable

import numpy as np

from layers import layer_seconds
from oracles import digest
from procs import peak_rss_mib

Job = Callable[[], tuple[Any, dict[str, float]]]
Check = Callable[[Any], dict[str, Any]]

DEVICE = "Titan V"


def emit(event: str, **fields: Any) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


def setup_ld_gram(inputs: dict[str, Any]) -> tuple[Job, Check]:
    from repro import linkage_disequilibrium
    from repro.snp.io import load_dataset_npz

    cohort = load_dataset_npz(inputs["cohort"])
    pairs = inputs["r2_pairs"]

    def job() -> tuple[Any, dict[str, float]]:
        result = linkage_disequilibrium(cohort, device=DEVICE, compare="sites")
        start = time.perf_counter()
        r2 = result.r_squared
        return (result.counts, r2), {"ld_stats": time.perf_counter() - start}

    def check(answer: Any) -> dict[str, Any]:
        counts, r2 = answer
        return {"counts": digest(counts), "r2": [float(r2[i, j]) for i, j in pairs]}

    return job, check


def setup_mixture_scan(inputs: dict[str, Any]) -> tuple[Job, Check]:
    from repro.core.config import Algorithm
    from repro.core.framework import SNPComparisonFramework
    from repro.core.streaming import StreamingMixture

    mixtures = np.load(inputs["mixtures"])
    framework = SNPComparisonFramework(DEVICE, Algorithm.FASTID_MIXTURE)

    def job() -> tuple[Any, dict[str, float]]:
        scan = StreamingMixture(mixtures, framework=framework)
        scan.consume(inputs["references"], chunk_rows=inputs["chunk_rows"])
        return scan.result().scores, {}

    def check(scores: Any) -> dict[str, Any]:
        return {"scores": digest(scores)}

    return job, check


def setup_ld_prune(inputs: dict[str, Any]) -> tuple[Job, Check]:
    from repro.core.config import Algorithm
    from repro.core.framework import SNPComparisonFramework
    from repro.core.ldops import ld_prune

    framework = SNPComparisonFramework(DEVICE, Algorithm.LD)

    def job() -> tuple[Any, dict[str, float]]:
        result = ld_prune(
            inputs["sites"], window=inputs["window"], r2=inputs["r2"],
            chunk_rows=inputs["chunk_rows"], framework=framework,
        )
        return result, {}

    def check(result: Any) -> dict[str, Any]:
        return {"kept": digest(result.kept), "pairs_tested": int(result.pairs_tested)}

    return job, check


SETUP = {
    "ld-gram": setup_ld_gram,
    "mixture-scan": setup_mixture_scan,
    "ld-prune": setup_ld_prune,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spec")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from repro.observability.tracer import Tracer, set_tracer

        tracer = Tracer()
        set_tracer(tracer)
    with open(args.spec) as fh:
        spec = json.load(fh)
    job, check = SETUP[spec["workload"]](spec["inputs"])
    emit("ready")
    if args.setup_only:
        return 0

    ops: list[dict[str, Any]] = []
    error = None
    layers: dict[str, float] = {}
    counters: dict[str, float] = {}
    deadline = time.perf_counter() + args.seconds
    while True:
        if tracer is not None:
            spans_before = tracer.n_spans()
            counters_before = tracer.counters.snapshot()
        start = time.perf_counter()
        try:
            answer, measured = job()
        except Exception as exc:  # a failed job is reported, not fatal
            error = f"{type(exc).__name__}: {exc}"
            break
        seconds = time.perf_counter() - start
        if tracer is not None:
            split = layer_seconds(tracer.spans()[spans_before:])
            for layer, value in [*split.items(), *measured.items()]:
                layers[layer] = layers.get(layer, 0.0) + value
            delta = tracer.counters.diff(counters_before, tracer.counters.snapshot())
            for name, value in delta.items():
                counters[name] = counters.get(name, 0) + value
        ops.append({"s": seconds, "check": check(answer)})
        del answer  # else two answers are resident during the next job
        if time.perf_counter() >= deadline:
            break
    emit(
        "done",
        ops=ops,
        error=error,
        peak_rss_mib=peak_rss_mib("self"),
        layers=layers,
        counters=counters,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
