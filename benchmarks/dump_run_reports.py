"""Dump every simulated timing a framework run reports, for diffing.

Runs the three applications on the three evaluation devices, each
single-tile and on a memory-starved copy of the device that needs
several tiles, with double buffering on and off, serial and on two
host threads.  Also runs device-tier fault plans (``kernel``/``alloc``)
under a retry policy.  For every run it prints the table's digest, the
``RunReport`` timing fields, ``n_tiles``, ``n_kernel_launches``, the
device queue's events (label, start, end), the deterministic counters
and the fired faults.

The output is deterministic, so two checkouts can be compared line for
line; a refactor of the host side should change no timing line::

    PYTHONPATH=src python benchmarks/dump_run_reports.py > after.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys

import numpy as np

from repro.core.config import Algorithm
from repro.core.framework import SNPComparisonFramework
from repro.gpu.arch import ALL_GPUS, GPUArchitecture
from repro.observability.tracer import Tracer, set_tracer
from repro.resilience.retry import RetryPolicy
from repro.resilience.runtime import resilient
from repro.util.units import mib

FIELDS = (
    "init_s", "h2d_s", "kernel_s", "d2h_s", "end_to_end_s",
    "n_tiles", "n_kernel_launches", "word_ops",
)
COUNTERS = (
    "gemm.calls", "gemm.popc_word_ops", "kernel.launches",
    "resilience.kernel_retries", "shards.executed", "shards.mirrored",
    "pack.operands", "pack.bytes_packed", "resilience.faults_injected",
)
FAULT_PLANS = ("kernel@1", "alloc@2", "kernel@0:2,alloc@1", "kernel@3,alloc@4")


def starved(arch: GPUArchitecture) -> GPUArchitecture:
    """The device with 8 KiB allocations: the problems below need tiles."""
    return dataclasses.replace(
        arch, max_alloc_bytes=8 * 1024, global_memory_bytes=mib(4)
    )


def operands(algorithm: Algorithm) -> tuple[np.ndarray, np.ndarray | None]:
    rng = np.random.default_rng(0)
    a = (rng.random((16, 320)) < 0.4).astype(np.uint8)
    b = (rng.random((700, 320)) < 0.4).astype(np.uint8)
    if algorithm is Algorithm.LD:
        return b[:64], None  # a 64-row self-comparison: 2 starved tiles
    return a, b


def dump(tag: str, fw: SNPComparisonFramework) -> list[str]:
    """One run, traced on a fresh tracer; returns its report lines."""
    a, b = operands(fw.algorithm)
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        table, report = fw.run(a, b)
    finally:
        set_tracer(previous)
    digest = hashlib.sha1(np.ascontiguousarray(table).tobytes()).hexdigest()
    lines = [f"== {tag}", f"table {digest} {table.shape} {table.dtype}"]
    lines += [f"{name} {getattr(report, name)!r}" for name in FIELDS]
    lines += [
        f"event {e.label} {e.started_at!r} {e.ended_at!r}"
        for e in fw.last_queue.events
    ]
    counters = tracer.counters.snapshot()
    lines += [f"counter {name} {counters.get(name, 0)}" for name in COUNTERS]
    if report.resilience is not None:
        lines += [
            f"fired {e.kind} {e.target} {e.attempt}"
            for e in report.resilience.events
        ]
    return lines


def main() -> None:
    lines: list[str] = []
    for arch in ALL_GPUS:
        for algorithm in Algorithm:
            for tiles, device in (("single", arch), ("multi", starved(arch))):
                for double_buffering in (True, False):
                    for workers in (None, 2):
                        fw = SNPComparisonFramework(
                            device,
                            algorithm,
                            double_buffering=double_buffering,
                            workers=workers,
                        )
                        tag = (
                            f"{arch.name} {algorithm.value} {tiles} "
                            f"double_buffering={double_buffering} workers={workers}"
                        )
                        lines += dump(tag, fw)
    policy = RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0)
    for plan in FAULT_PLANS:
        for tiles, device in (("single", ALL_GPUS[0]), ("multi", starved(ALL_GPUS[0]))):
            with resilient(plan=plan, policy=policy):
                fw = SNPComparisonFramework(device, Algorithm.FASTID_IDENTITY)
                lines += dump(f"faults {plan} {tiles}", fw)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
