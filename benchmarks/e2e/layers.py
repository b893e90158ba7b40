"""Split traced wall time into the program's layers from its own spans.

The program already records host spans (``repro.observability.tracer``)
at its layer boundaries.  A span's *self time* is its duration minus
the durations of its child spans, so summing self times by layer never
counts an interval twice.  Layer names follow the modules:

==============  ==========================================================
layer           spans (self time)
==============  ==========================================================
``packing``     ``pack.operand`` (``repro.core.packing``)
``pipeline``    ``framework.run``, ``pipeline.run``, ``pipeline.tile``,
                ``kernel.execute``, ``parallel.run`` (core.framework,
                core.pipeline, gpu)
``gemm``        ``gemm.fast``, ``gemm.backend``, ``gemm.blocked``,
                ``parallel.shard`` (blis, kernels, parallel)
``ldops``       ``stream.chunk`` of an LD prune/clump pass
``io_stream``   ``stream.chunk`` of a mixture scan (chunk validation on
                the consumer), plus the prefetch stall counter
``fold``        ``serve.batch`` (the service's per-row top-k fold)
==============  ==========================================================

Spans the table does not name belong to no layer: their time is
unattributed (it is still subtracted from their parent's self time).
"""

from __future__ import annotations

from typing import Any, Iterable

SPAN_LAYER = {
    "pack.operand": "packing",
    "framework.run": "pipeline",
    "pipeline.run": "pipeline",
    "pipeline.tile": "pipeline",
    "kernel.execute": "pipeline",
    "parallel.run": "pipeline",
    "gemm.fast": "gemm",
    "gemm.backend": "gemm",
    "gemm.blocked": "gemm",
    "parallel.shard": "gemm",
    "serve.batch": "fold",
}

#: ``stream.chunk`` spans carry the streaming workload as an attribute.
STREAM_CHUNK_LAYER = {
    "ld-prune": "ldops",
    "clump": "ldops",
    "mixture": "io_stream",
}


def layer_of(span: Any) -> str | None:
    if span.name == "stream.chunk":
        return STREAM_CHUNK_LAYER.get(span.attrs.get("workload"))
    return SPAN_LAYER.get(span.name)


def self_times(spans: Iterable[Any]) -> dict[int, float]:
    """``{span_id: duration minus child durations}``."""
    spans = list(spans)
    out = {s.span_id: s.duration for s in spans}
    for s in spans:
        if s.parent_id in out:
            out[s.parent_id] -= s.duration
    return out


def layer_seconds(spans: Iterable[Any]) -> dict[str, float]:
    """Self time summed per layer over ``spans``."""
    spans = list(spans)
    selfs = self_times(spans)
    totals: dict[str, float] = {}
    for s in spans:
        layer = layer_of(s)
        if layer is not None:
            totals[layer] = totals.get(layer, 0.0) + selfs[s.span_id]
    return totals


def batch_layers(spans: Iterable[Any]) -> list[dict[str, Any]]:
    """Per ``serve.batch`` span: its size, duration and layer split.

    Every span is charged to the ``serve.batch`` it descends from, so
    the layer times of one batch sum to (at most) its duration.
    """
    spans = list(spans)
    by_id = {s.span_id: s for s in spans}
    selfs = self_times(spans)
    batches: dict[int, dict[str, Any]] = {}
    for s in spans:
        if s.name == "serve.batch":
            batches[s.span_id] = {
                "requests": int(s.attrs.get("requests", 0)),
                "rows": int(s.attrs.get("rows", 0)),
                "segments": int(s.attrs.get("segments", 0)),
                "start": s.start,
                "duration": s.duration,
                "layers": {},
            }
    for s in spans:
        layer = layer_of(s)
        if layer is None:
            continue
        node = s
        while node is not None and node.span_id not in batches:
            node = by_id.get(node.parent_id) if node.parent_id is not None else None
        if node is None:
            continue
        layers = batches[node.span_id]["layers"]
        layers[layer] = layers.get(layer, 0.0) + selfs[s.span_id]
    return sorted(batches.values(), key=lambda b: b["start"])
