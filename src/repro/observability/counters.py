"""Counters registry: exact, thread-safe accounting of what a run did.

Counters complement spans: a span says *when* something happened on the
host, a counter says *how much* of it happened in total.  The catalogue
below names every counter the instrumented layers emit; values are
plain integers (byte counts, operation counts) or floats (seconds), so
tests can assert them against closed-form expectations -- e.g. the
POPC word-op count of a bit-GEMM is exactly ``m * n * k_words``
regardless of worker count or kernel backend.

The registry follows the tracer's null-object pattern
(:mod:`repro.observability.tracer`): the disabled default is
:data:`NULL_COUNTERS`, whose :meth:`~NullCounters.add` is an empty
method, so instrumented hot paths pay one no-op call when observability
is off.
"""

from __future__ import annotations

import threading

__all__ = [
    "CounterRegistry",
    "NullCounters",
    "NULL_COUNTERS",
    "COUNTER_CATALOGUE",
    "PACK_OPERANDS",
    "PACK_BYTES",
    "GEMM_CALLS",
    "GEMM_WORD_OPS",
    "KERNEL_LAUNCHES",
    "SHARDS_EXECUTED",
    "SHARDS_MIRRORED",
    "HOST_ENGINE_SECONDS",
    "SIM_DEVICE_SECONDS",
    "STREAM_CHUNKS",
    "STREAM_BYTES_READ",
    "STREAM_READ_SECONDS",
    "STREAM_PREFETCH_STALL_SECONDS",
    "STREAM_CHUNK_RETRIES",
    "STREAM_PREFILTER_FALLBACKS",
    "FAULTS_INJECTED",
    "SHARD_RETRIES",
    "SHARDS_QUARANTINED",
    "KERNEL_RETRIES",
    "DEVICES_DROPPED",
    "WORKERS_LOST",
    "VERIFY_MISMATCHES",
    "TILES_VERIFIED",
    "SERVE_QUERIES",
    "SERVE_BATCHES",
    "SERVE_COALESCED_BATCHES",
    "SERVE_BATCH_ROWS",
    "SERVE_SOLO_FALLBACKS",
    "SERVE_REQUEST_FAILURES",
    "SERVE_APPENDED_PROFILES",
    "SERVE_SHED",
    "SERVE_DEADLINE_EXCEEDED",
    "SERVE_BREAKER_TRIPS",
    "IO_CRC_FAILURES",
    "IO_CHUNKS_VERIFIED",
    "STREAM_PRODUCER_LEAKED",
    "LDOPS_SITES_SEEN",
    "LDOPS_SITES_KEPT",
    "LDOPS_SITES_PRUNED",
    "LDOPS_PAIRS_TESTED",
    "LDOPS_CLUMPS_FORMED",
    "LDOPS_SITES_ABSORBED",
    "LDOPS_WINDOW_PEAK_SITES",
]

# -- counter names (the catalogue) ---------------------------------------------

#: Operands packed by :func:`repro.core.packing.pack_operand`.
PACK_OPERANDS = "pack.operands"
#: Bytes of packed words produced by operand packing.
PACK_BYTES = "pack.bytes_packed"
#: Bit-GEMM driver invocations (serial drivers and sharded runs alike).
GEMM_CALLS = "gemm.calls"
#: POPC word operations executed: ``m * n * k_words`` per logical GEMM,
#: counted exactly once whichever driver or kernel backend ran it.
GEMM_WORD_OPS = "gemm.popc_word_ops"
#: Simulated kernel launches through :func:`repro.gpu.executor.execute_kernel`.
KERNEL_LAUNCHES = "kernel.launches"
#: Shards executed by the parallel engine (serial fallback counts 1).
SHARDS_EXECUTED = "shards.executed"
#: Shards filled by reflecting a computed shard into its transpose
#: slot (Gram mode): these word-ops were *saved*, not executed.
SHARDS_MIRRORED = "shards.mirrored"
#: Host wall-clock seconds spent inside the parallel engine.
HOST_ENGINE_SECONDS = "time.host_engine_s"
#: Simulated device seconds (end-to-end makespans of framework runs).
SIM_DEVICE_SECONDS = "time.simulated_device_s"
#: Chunks consumed by streaming workloads (:mod:`repro.io_stream`).
STREAM_CHUNKS = "stream.chunks"
#: Bytes pulled from chunk-source backing stores (packed on-disk bytes
#: for ``.snpbin`` sources, raw bytes otherwise) -- deterministic for a
#: given source and chunk size.
STREAM_BYTES_READ = "stream.bytes_read"
#: Host wall seconds the prefetch producer spent reading + preparing
#: chunks (runs on the background thread under double buffering).
STREAM_READ_SECONDS = "stream.read_s"
#: Host wall seconds the *consumer* stalled waiting for the next chunk;
#: with effective prefetch overlap this is much smaller than
#: ``stream.read_s``.
STREAM_PREFETCH_STALL_SECONDS = "stream.prefetch_stall_s"
#: Streaming chunks re-run after a retryable failure (the per-chunk
#: rung of the resilience ladder).
STREAM_CHUNK_RETRIES = "stream.chunk_retries"
#: Streaming identity batches folded without the vectorized top-k
#: pre-filter (heap not yet full, e.g. k close to the database size).
STREAM_PREFILTER_FALLBACKS = "stream.prefilter_fallbacks"
#: Simulated faults fired by the deterministic injector
#: (:mod:`repro.resilience.faults`); 0 in production runs.
FAULTS_INJECTED = "resilience.faults_injected"
#: Shard executions re-queued after a retryable failure.
SHARD_RETRIES = "resilience.shard_retries"
#: Shards that exhausted their retry budget and were recomputed on the
#: serial reference path (bit-exact graceful degradation).
SHARDS_QUARANTINED = "resilience.shards_quarantined"
#: Kernel launches retried after a transient launch failure.
KERNEL_RETRIES = "resilience.kernel_retries"
#: Devices dropped from a multi-GPU run after being lost mid-run
#: (their slices were re-partitioned across survivors).
DEVICES_DROPPED = "resilience.devices_dropped"
#: Worker processes lost mid-run by the process shard executor (their
#: claimed shards were re-enqueued onto the surviving workers).
WORKERS_LOST = "resilience.workers_lost"
#: Spot-verification mismatches: a sampled output tile disagreed with
#: the serial popcount reference and was recomputed.
VERIFY_MISMATCHES = "resilience.verify_mismatches"
#: Output tiles re-checked against the serial reference by the
#: spot-verification guard (``verify_sample > 0``).
TILES_VERIFIED = "resilience.tiles_verified"
#: Query requests accepted by the identity service
#: (:mod:`repro.serve`): one per submitted query set.
SERVE_QUERIES = "serve.queries"
#: Micro-batches executed by the serving batcher (coalesced or solo).
SERVE_BATCHES = "serve.batches"
#: Micro-batches that merged >= 2 requests into one bit-GEMM panel --
#: the amortization the coalescing window exists to create.
SERVE_COALESCED_BATCHES = "serve.coalesced_batches"
#: Query rows admitted into micro-batches (occupancy numerator:
#: ``serve.batch_rows / serve.batches`` is mean rows per panel).
SERVE_BATCH_ROWS = "serve.batch_rows"
#: Requests re-run alone after their batch failed post-retry (the
#: isolation rung: one poisoned query cannot fail its batch peers).
SERVE_SOLO_FALLBACKS = "serve.solo_fallbacks"
#: Requests that ultimately failed and returned an error to the caller.
SERVE_REQUEST_FAILURES = "serve.request_failures"
#: Profiles appended to the resident index while serving.
SERVE_APPENDED_PROFILES = "serve.appended_profiles"
#: Requests shed by admission control (bounded queue, open breaker, or
#: graceful drain) instead of being queued unboundedly; each shed reply
#: carries a ``retry_after_ms`` hint.
SERVE_SHED = "serve.shed"
#: Requests rejected (or abandoned mid-fold) because their deadline
#: expired before a result could be produced.
SERVE_DEADLINE_EXCEEDED = "serve.deadline_exceeded"
#: Circuit-breaker trips: the backend failed repeatedly and the breaker
#: opened (half-open probes that fail re-trip and re-count).
SERVE_BREAKER_TRIPS = "serve.breaker_trips"
#: ``.snpbin`` CRC verification failures: a header or data chunk did
#: not match its stored checksum (each failing verification attempt
#: counts once; 0 in healthy runs).
IO_CRC_FAILURES = "io.crc_failures"
#: ``.snpbin`` data chunks whose CRC32 was verified on first read
#: (lazy verify-on-read; each chunk counts once per reader).
IO_CHUNKS_VERIFIED = "io.chunks_verified"
#: Prefetch producer threads that failed to join within the close
#: deadline (a leak guard; 0 in healthy runs).
STREAM_PRODUCER_LEAKED = "stream.producer_leaked"
#: Sites scanned by an LD prune/clump pass (:mod:`repro.core.ldops`).
LDOPS_SITES_SEEN = "ldops.sites_seen"
#: Sites surviving a windowed LD pruning pass.
LDOPS_SITES_KEPT = "ldops.sites_kept"
#: Sites removed by a windowed LD pruning pass.
LDOPS_SITES_PRUNED = "ldops.sites_pruned"
#: (site, window-neighbor) pairs whose r^2 predicate was evaluated --
#: exact and invariant under chunking (the scan tests each needed pair
#: once, whichever block it streamed in with).
LDOPS_PAIRS_TESTED = "ldops.pairs_tested"
#: Index variants (clumps) formed by a clumping pass.
LDOPS_CLUMPS_FORMED = "ldops.clumps_formed"
#: Sites absorbed into another site's clump.
LDOPS_SITES_ABSORBED = "ldops.sites_absorbed"
#: Peak sites simultaneously resident in the sliding window -- the
#: O(window^2) memory claim in measurable form (<= window always).
LDOPS_WINDOW_PEAK_SITES = "ldops.window_peak_sites"

#: Every counter the instrumented layers emit, with a one-line meaning.
COUNTER_CATALOGUE: dict[str, str] = {
    PACK_OPERANDS: "operands packed for the device (pack_operand calls)",
    PACK_BYTES: "bytes of packed words produced by operand packing",
    GEMM_CALLS: "bit-GEMM driver invocations",
    GEMM_WORD_OPS: "POPC word operations (m*n*k_words per GEMM, exact)",
    KERNEL_LAUNCHES: "simulated kernel launches",
    SHARDS_EXECUTED: "shards executed by the parallel engine",
    SHARDS_MIRRORED: "shards filled by transpose reflection (Gram mode)",
    HOST_ENGINE_SECONDS: "host wall seconds inside the parallel engine",
    SIM_DEVICE_SECONDS: "simulated device seconds (framework makespans)",
    STREAM_CHUNKS: "chunks consumed by streaming workloads",
    STREAM_BYTES_READ: "bytes pulled from chunk-source backing stores",
    STREAM_READ_SECONDS: "host seconds reading/preparing chunks (producer)",
    STREAM_PREFETCH_STALL_SECONDS: "host seconds the consumer waited on chunks",
    STREAM_CHUNK_RETRIES: "streaming chunks re-run after retryable failures",
    STREAM_PREFILTER_FALLBACKS: "identity batches folded without the top-k pre-filter",
    FAULTS_INJECTED: "simulated faults fired by the injector",
    SHARD_RETRIES: "shard executions re-queued after retryable failures",
    SHARDS_QUARANTINED: "shards recomputed on the serial reference path",
    KERNEL_RETRIES: "kernel launches retried after transient failures",
    DEVICES_DROPPED: "devices dropped and re-partitioned mid multi-GPU run",
    WORKERS_LOST: "worker processes lost and re-partitioned mid-run",
    VERIFY_MISMATCHES: "spot-verification mismatches (tiles recomputed)",
    TILES_VERIFIED: "output tiles re-checked against the serial reference",
    SERVE_QUERIES: "query requests accepted by the identity service",
    SERVE_BATCHES: "micro-batches executed by the serving batcher",
    SERVE_COALESCED_BATCHES: "micro-batches that merged >= 2 requests",
    SERVE_BATCH_ROWS: "query rows admitted into micro-batches",
    SERVE_SOLO_FALLBACKS: "requests re-run alone after a batch failure",
    SERVE_REQUEST_FAILURES: "requests that returned an error to the caller",
    SERVE_APPENDED_PROFILES: "profiles appended to the resident index",
    SERVE_SHED: "requests shed by admission control (with retry_after_ms)",
    SERVE_DEADLINE_EXCEEDED: "requests rejected/abandoned on an expired deadline",
    SERVE_BREAKER_TRIPS: "circuit-breaker trips after repeated backend failures",
    IO_CRC_FAILURES: "snpbin header/chunk CRC verification failures",
    IO_CHUNKS_VERIFIED: "snpbin data chunks CRC-verified on first read",
    STREAM_PRODUCER_LEAKED: "prefetch producers that outlived their close deadline",
    LDOPS_SITES_SEEN: "sites scanned by an LD prune/clump pass",
    LDOPS_SITES_KEPT: "sites surviving a windowed LD pruning pass",
    LDOPS_SITES_PRUNED: "sites removed by a windowed LD pruning pass",
    LDOPS_PAIRS_TESTED: "window pairs whose r^2 predicate was evaluated",
    LDOPS_CLUMPS_FORMED: "index variants (clumps) formed by a clumping pass",
    LDOPS_SITES_ABSORBED: "sites absorbed into another site's clump",
    LDOPS_WINDOW_PEAK_SITES: "peak sites resident in the sliding LD window",
}


class CounterRegistry:
    """Thread-safe monotonic counters keyed by catalogue name.

    ``add`` is the only mutator the instrumented code uses; snapshots
    are plain dicts, so a caller can diff two snapshots to scope the
    accounting to one run (:meth:`diff`).
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values: dict[str, float] = {}

    def add(self, name: str, value: float = 1) -> None:
        """Increment ``name`` by ``value`` (creating it at 0)."""
        with self._lock:
            self._values[name] = self._values.get(name, 0) + value

    def get(self, name: str) -> float:
        """Current value of ``name`` (0 if never incremented)."""
        with self._lock:
            return self._values.get(name, 0)

    def snapshot(self) -> dict[str, float]:
        """Copy of every counter's current value."""
        with self._lock:
            return dict(self._values)

    def reset(self) -> None:
        """Zero every counter."""
        with self._lock:
            self._values.clear()

    @staticmethod
    def diff(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
        """Per-counter change between two snapshots (zero deltas dropped)."""
        out: dict[str, float] = {}
        for name, value in after.items():
            delta = value - before.get(name, 0)
            if delta:
                out[name] = delta
        return out


class NullCounters:
    """Disabled registry: every operation is a no-op.

    The single instance :data:`NULL_COUNTERS` is what instrumented code
    sees when observability is off; ``add`` has an empty body, so the
    hot-path cost is one attribute lookup and one call.
    """

    enabled = False

    def add(self, name: str, value: float = 1) -> None:
        pass

    def get(self, name: str) -> float:
        return 0

    def snapshot(self) -> dict[str, float]:
        return {}

    def reset(self) -> None:
        pass


#: The process-wide disabled registry (see :data:`~repro.observability.tracer.NULL_TRACER`).
NULL_COUNTERS = NullCounters()
