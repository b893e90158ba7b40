"""Run the real ``repro.cli`` with a recording tracer, then dump its spans.

    python benchmarks/e2e/traced_server.py OUT.json serve --index DIR ...

Installs :class:`repro.observability.tracer.Tracer`, calls
``repro.cli.main`` with the remaining arguments (the CLI keeps a tracer
it finds installed), and after the server stops writes the per-batch
layer split (:func:`layers.batch_layers`) and
``MetricsReport.to_json()`` to ``OUT.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro import cli
from repro.observability.report import MetricsReport
from repro.observability.tracer import Tracer, set_tracer

from layers import batch_layers


def main(argv: list[str]) -> int:
    out, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    set_tracer(tracer)
    code = cli.main(cli_args)
    out.write_text(json.dumps({
        "code": code,
        "batches": batch_layers(tracer.spans()),
        "metrics": MetricsReport.from_tracer(tracer).to_json(),
    }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
