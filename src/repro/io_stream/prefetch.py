"""Double-buffered chunk prefetch: overlap ingest with compute.

:class:`ChunkStream` iterates a :class:`~repro.io_stream.sources.ChunkSource`
(or its :class:`~repro.io_stream.sources.PackedSource` view, which the
streaming workloads use) with a background producer thread: while the
consumer runs chunk *i* through the engine, the producer reads chunk
*i+1* -- for a packed view that includes the CRC check of a
``.snpbin``'s words, or the binary check and packing of any other
source's rows.  This is the host-layer mirror of the pipeline's
simulated device double buffering, and the access pattern Beyer &
Bientinesi show sustains peak throughput when streaming from disk:
with compute per chunk >= read time per chunk, the consumer never
stalls after the first chunk.

Accounting is split across the two sides and lands in the
observability counters:

* ``stream.read_s`` -- producer wall seconds producing chunks;
* ``stream.prefetch_stall_s`` -- consumer wall seconds blocked waiting
  for a chunk (the overlap *failure* time; the benchmark gate keeps
  this well under the read time);
* ``stream.chunks`` / ``stream.bytes_read`` -- volume, deterministic
  for a given source and chunk size.

With ``prefetch=False`` the same interface runs synchronously (every
read stalls the consumer by definition), which is the comparison
baseline ``benchmarks/bench_streaming_io.py`` demonstrates against.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Any, Iterator

from repro.errors import DatasetError
from repro.io_stream.sources import ChunkSource, PackedSource
from repro.observability.counters import (
    STREAM_BYTES_READ,
    STREAM_CHUNKS,
    STREAM_PREFETCH_STALL_SECONDS,
    STREAM_PRODUCER_LEAKED,
    STREAM_READ_SECONDS,
)
from repro.observability.tracer import get_tracer

__all__ = ["StreamStats", "ChunkStream"]

#: Producer->consumer queue entries: ("chunk", payload) | ("error", exc)
#: | ("done", None).
_Item = tuple[str, Any]


@dataclass
class StreamStats:
    """Aggregate accounting for one streamed pass."""

    chunks: int = 0
    bytes_read: int = 0
    read_s: float = 0.0
    stall_s: float = 0.0

    @property
    def stall_fraction(self) -> float:
        """Stall time as a fraction of read time (0 = perfect overlap)."""
        return self.stall_s / self.read_s if self.read_s > 0 else 0.0


class ChunkStream:
    """Iterate a chunk source with (optional) background prefetch.

    Parameters
    ----------
    source:
        Where the rows come from: the iterator yields its chunks, bit
        matrices for a :class:`ChunkSource`, device operands for a
        :class:`PackedSource`.
    chunk_rows:
        Rows per chunk.
    prefetch:
        ``True`` (default) runs the producer on a background thread
        with a one-chunk hand-off queue (double buffering);
        ``False`` reads synchronously -- same semantics, no overlap.

    Iterate at most once; ``stats`` is valid during and after the pass.
    """

    def __init__(
        self,
        source: ChunkSource | PackedSource,
        chunk_rows: int,
        prefetch: bool = True,
    ) -> None:
        if chunk_rows <= 0:
            raise DatasetError(
                f"ChunkStream: chunk_rows must be positive, got {chunk_rows}"
            )
        self.source = source
        self.chunk_rows = chunk_rows
        self.prefetch = prefetch
        self.stats = StreamStats()
        self._started = False
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._queue: "queue.Queue[_Item]" | None = None

    # -- producer side ---------------------------------------------------------

    def _produce_one(self, chunk_iter: Iterator[Any]) -> _Item | None:
        """Produce the next chunk, accounting the producer time."""
        obs = get_tracer()
        start = time.perf_counter()
        try:
            chunk = next(chunk_iter)
        except StopIteration:
            return None
        raw_bytes = self.source.chunk_nbytes(chunk)
        elapsed = time.perf_counter() - start
        self.stats.read_s += elapsed
        self.stats.bytes_read += raw_bytes
        obs.counters.add(STREAM_READ_SECONDS, elapsed)
        obs.counters.add(STREAM_BYTES_READ, raw_bytes)
        return ("chunk", chunk)

    def _put(self, out: "queue.Queue[_Item]", item: _Item) -> bool:
        """Hand an item to the consumer, yielding to the stop flag.

        A plain blocking ``put`` deadlocks if the consumer abandons the
        iterator without draining (the hand-off queue stays full
        forever); polling with a short timeout keeps the producer
        responsive to :meth:`close`.  Returns ``False`` when stopped.
        """
        while not self._stop.is_set():
            try:
                out.put(item, timeout=0.05)
                return True
            except queue.Full:
                continue
        return False

    def _producer(self, out: "queue.Queue[_Item]") -> None:
        chunk_iter = iter(self.source.chunks(self.chunk_rows))
        try:
            while not self._stop.is_set():
                item = self._produce_one(chunk_iter)
                if item is None:
                    break
                if not self._put(out, item):
                    return
            self._put(out, ("done", None))
        except BaseException as exc:  # propagate to the consumer
            self._put(out, ("error", exc))

    # -- consumer side ---------------------------------------------------------

    def _iter_prefetched(self) -> Iterator[Any]:
        obs = get_tracer()
        out: "queue.Queue[_Item]" = queue.Queue(maxsize=1)
        self._queue = out
        self._thread = threading.Thread(
            target=self._producer, args=(out,), name="snp-chunk-prefetch", daemon=True
        )
        self._thread.start()
        try:
            while True:
                start = time.perf_counter()
                kind, payload = out.get()
                stall = time.perf_counter() - start
                self.stats.stall_s += stall
                obs.counters.add(STREAM_PREFETCH_STALL_SECONDS, stall)
                if kind == "done":
                    return
                if kind == "error":
                    raise payload
                self.stats.chunks += 1
                obs.counters.add(STREAM_CHUNKS)
                yield payload
        finally:
            self.close()

    def _iter_sync(self) -> Iterator[Any]:
        """Synchronous baseline: every read stalls the consumer."""
        obs = get_tracer()
        chunk_iter = iter(self.source.chunks(self.chunk_rows))
        while True:
            item = self._produce_one(chunk_iter)
            if item is None:
                return
            kind, payload = item
            # The consumer waited for the whole read: stall == read.
            stall = self.stats.read_s - self.stats.stall_s
            self.stats.stall_s = self.stats.read_s
            obs.counters.add(STREAM_PREFETCH_STALL_SECONDS, stall)
            self.stats.chunks += 1
            obs.counters.add(STREAM_CHUNKS)
            yield payload

    def __iter__(self) -> Iterator[Any]:
        if self._started:
            raise DatasetError("ChunkStream: already consumed (one-shot)")
        self._started = True
        return self._iter_prefetched() if self.prefetch else self._iter_sync()

    def close(self, timeout: float = 5.0) -> None:
        """Stop the producer thread, deterministically (idempotent).

        Sets the stop flag, drains the hand-off queue (unblocking a
        producer stuck on a full queue) and joins with a *bounded*
        wait.  A producer that outlives the bound -- wedged inside a
        source read it cannot abandon -- is counted under
        ``stream.producer_leaked`` and raised, instead of the old
        unbounded spin that could hang teardown forever.
        """
        self._stop.set()
        thread = self._thread
        out = self._queue
        self._thread = None
        self._queue = None
        if thread is None:
            return
        deadline = time.perf_counter() + max(timeout, 0.0)
        while thread.is_alive() and time.perf_counter() < deadline:
            if out is not None:
                try:
                    out.get_nowait()
                except queue.Empty:
                    pass
            thread.join(timeout=0.05)
        if thread.is_alive():
            get_tracer().counters.add(STREAM_PRODUCER_LEAKED)
            raise RuntimeError(
                f"ChunkStream.close: producer thread failed to join within "
                f"{timeout}s -- thread leaked"
            )
