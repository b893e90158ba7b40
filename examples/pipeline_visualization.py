"""Visualizing the double-buffered pipeline (Section VI-A1).

Schedules the same tiled FastID problem with and without double
buffering on a memory-constrained device, renders both schedules as
ASCII Gantt charts, and exports a Chrome-trace JSON (load it at
chrome://tracing or ui.perfetto.dev) for the overlapped run.  The
schedule is timing-only, so it needs the problem's extents, not its
data.

Run:  python examples/pipeline_visualization.py
"""

import dataclasses
import tempfile
from pathlib import Path

from repro.blis.microkernel import ComparisonOp
from repro.bench.gantt import overlap_fraction, render_gantt
from repro.core.pipeline import run_pipeline
from repro.gpu.arch import GTX_980
from repro.gpu.device import Device
from repro.gpu.kernel import SnpKernel
from repro.gpu.tracing import write_chrome_trace


def build_queue(double_buffering: bool):
    """A GTX-980-like device shrunk so the problem needs many tiles."""
    arch = dataclasses.replace(GTX_980, max_alloc_bytes=96 * 1024)
    # 32 queries x 4,608 database profiles x 1,024 sites (32 words).
    queries, database, k_words = 32, 4608, 1024 // 32
    kernel = SnpKernel.compile(
        arch, ComparisonOp.XOR, m_c=32, m_r=4, k_c=383, n_r=768,
        grid_rows=1, grid_cols=16,
    )
    queue = Device(arch).create_context().create_queue()
    _, plan = run_pipeline(
        queue, kernel, queries, database, k_words,
        double_buffering=double_buffering,
    )
    return queue, plan


def main() -> None:
    for label, enabled in (("WITHOUT double buffering", False),
                           ("WITH double buffering", True)):
        queue, plan = build_queue(enabled)
        print(f"--- {label} ({plan.n_tiles} tiles) ---")
        print(render_gantt(queue, width=68))
        print(f"end-to-end: {queue.finish() * 1e3:.3f} ms "
              f"(overlap hides {overlap_fraction(queue) * 100:.0f}% of engine "
              f"busy-time)\n")

    queue, _ = build_queue(True)
    out = Path(tempfile.gettempdir()) / "repro_pipeline_trace.json"
    n_events = write_chrome_trace(queue, out)
    print(f"wrote {n_events} trace events to {out}")
    print("open chrome://tracing (or ui.perfetto.dev) and load the file "
          "to inspect the schedule interactively")


if __name__ == "__main__":
    main()
