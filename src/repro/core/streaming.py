"""Streaming workloads: unbounded inputs through the bounded pipeline.

The Fig. 8 workload at production scale never wants the full
``queries x 20M`` distance matrix -- casework needs the best few
candidates per query -- and a 20M-profile database does not fit in
host memory in the first place.  This module runs all three paper
workloads over data fed in chunks:

* :class:`StreamingIdentitySearch` -- incremental top-k FastID search
  (memory stays ``O(queries x k)`` regardless of database size);
* :class:`StreamingLD` -- all-pairs LD accumulated block-row by
  block-row (only two chunks of input are resident at a time);
* :class:`StreamingMixture` -- reference profiles streamed against a
  fixed mixture set.

Each workload accepts anything
:func:`repro.io_stream.sources.as_chunk_source` can adapt -- in-memory
arrays, ``.snpbin`` maps, NPZ files, or plain batch iterators -- and
consumes it through the double-buffered prefetch executor
(:class:`repro.io_stream.prefetch.ChunkStream`): a background thread
reads chunk *i+1* while chunk *i* runs through the engine.  Every
chunk is retried under the active resilience policy
(:mod:`repro.resilience`) before the error propagates, and per-chunk
spans/counters (``stream.chunks``, ``stream.bytes_read``,
``stream.prefetch_stall_s``) land in the observability layer.

Chunked execution is *bit-exact* against the in-memory path: the
comparisons are exact integer popcount arithmetic, so chunk boundaries
cannot change any result, and top-k ties are broken by database order
(first seen wins) independent of batching -- properties the
equivalence tests pin down.  See ``docs/STREAMING.md``.
"""

from __future__ import annotations

import heapq
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.core.config import Algorithm
from repro.core.framework import SNPComparisonFramework
from repro.core.ld import LDResult
from repro.core.mixture import MixtureResult
from repro.core.profiles import RunReport
from repro.errors import DatasetError
from repro.gpu.arch import GPUArchitecture
from repro.io_stream.prefetch import ChunkStream, StreamStats
from repro.io_stream.sources import ChunkSource, as_chunk_source, materialize_source
from repro.observability.counters import (
    STREAM_CHUNK_RETRIES,
    STREAM_PREFILTER_FALLBACKS,
)
from repro.observability.tracer import get_tracer
from repro.resilience.report import ResilienceReport
from repro.resilience.retry import call_with_retry
from repro.resilience.runtime import get_resilience

__all__ = [
    "Match",
    "StreamingIdentitySearch",
    "StreamingLD",
    "StreamingMixture",
]


def _check_binary_matrix(name: str, data: np.ndarray) -> np.ndarray:
    """Validate one binary operand; returns the checked array.

    Rejects wrong rank, non-integer dtypes and non-binary values with
    messages precise enough to locate the bad feed, *before* any
    search state is mutated.
    """
    arr = np.asarray(data)
    if arr.ndim != 2:
        raise DatasetError(
            f"{name} must be a 2-D binary matrix, got {arr.ndim}-D "
            f"shape {arr.shape}"
        )
    if arr.dtype != np.bool_ and not np.issubdtype(arr.dtype, np.integer):
        raise DatasetError(
            f"{name} has dtype {arr.dtype}; binary matrices must use an "
            f"integer or bool dtype"
        )
    if arr.size:
        # One pass each: min()/max() walk the whole chunk, and this
        # runs on every streamed chunk's hot validation path.
        lo, hi = int(arr.min()), int(arr.max())
        if lo < 0 or hi > 1:
            raise DatasetError(
                f"{name} contains non-binary values "
                f"(min={lo}, max={hi}); entries must be 0 or 1"
            )
    return arr


def _run_chunk(fn: Callable[[], Any]) -> Any:
    """Run one chunk's work under the active resilience retry policy.

    The per-chunk rung of the degradation ladder: shard-level retry and
    quarantine happen inside the engine; anything retryable that still
    escapes (e.g. an allocation fault on the chunk's own launch) is
    retried here before the error propagates to the caller.  Chunk
    workloads only mutate their state *after* the framework run
    returns, so a retried chunk is folded exactly once.
    """
    policy = get_resilience().policy
    if policy.max_attempts <= 1:
        return fn()
    obs = get_tracer()

    def _count_retry(retry_index: int, exc: BaseException) -> None:
        obs.counters.add(STREAM_CHUNK_RETRIES)

    return call_with_retry(fn, policy, on_retry=_count_retry)


def _merged_report(
    framework: SNPComparisonFramework,
    reports: list[RunReport],
    m: int,
    n: int,
    k_bits: int,
) -> RunReport:
    """Aggregate per-chunk reports into one run-shaped report.

    Chunk runs are sequential on the simulated device, so timings and
    launch counts sum; ``m``/``n`` describe the *logical* streamed
    problem, not any single chunk.
    """
    merged = RunReport(
        device=framework.arch.name,
        algorithm=framework.algorithm.value,
        m=m,
        n=n,
        k_bits=k_bits,
    )
    for report in reports:
        merged.init_s += report.init_s
        merged.h2d_s += report.h2d_s
        merged.kernel_s += report.kernel_s
        merged.d2h_s += report.d2h_s
        merged.end_to_end_s += report.end_to_end_s
        merged.n_kernel_launches += report.n_kernel_launches
        merged.n_tiles += report.n_tiles
        merged.kernel_profiles.extend(report.kernel_profiles)
    resilience = [r.resilience for r in reports if r.resilience is not None]
    if resilience:
        merged.resilience = ResilienceReport.combine(resilience)
    return merged


@dataclass(frozen=True, order=True)
class Match:
    """One candidate: ordered by distance, then database index."""

    distance: int
    database_index: int


@dataclass
class _QueryState:
    """Max-heap of the current best-k (stored negated for heapq)."""

    k: int
    heap: list[tuple[int, int]] = field(default_factory=list)  # (-dist, -idx)

    def offer(self, distance: int, index: int) -> None:
        item = (-distance, -index)
        if len(self.heap) < self.k:
            heapq.heappush(self.heap, item)
        elif item > self.heap[0]:
            heapq.heapreplace(self.heap, item)

    def matches(self) -> list[Match]:
        out = [Match(distance=-d, database_index=-i) for d, i in self.heap]
        out.sort()
        return out


class StreamingIdentitySearch:
    """Incremental FastID search against a database fed in batches.

    Parameters
    ----------
    queries:
        Binary ``(n_queries, n_sites)`` matrix, fixed for the session.
    k:
        Candidates retained per query; at most :data:`MAX_K`.  The
        top-k fold relies on a vectorized pre-filter (only rows that
        could enter a full heap are visited in Python); a ``k`` near
        the database size keeps the heaps permanently unfilled and
        degrades every batch to the unfiltered fold, so huge values
        are rejected up front and unfiltered folds are surfaced
        through the ``stream.prefilter_fallbacks`` counter.
    device:
        Simulated device (or architecture) running each batch.
    """

    #: Upper bound on ``k``: beyond this the per-query heaps stop being
    #: "small working state" and callers should compute (and store) the
    #: full distance table instead of a top-k stream.
    MAX_K = 4096

    def __init__(
        self,
        queries: np.ndarray,
        k: int = 5,
        device: str | GPUArchitecture = "Titan V",
        workers: int | None = None,
        backend: str = "auto",
        framework: SNPComparisonFramework | None = None,
    ) -> None:
        q = _check_binary_matrix("StreamingIdentitySearch: queries", queries)
        if q.shape[0] == 0:
            raise DatasetError(
                "StreamingIdentitySearch: queries must be a non-empty 2-D matrix"
            )
        if k <= 0:
            raise DatasetError("StreamingIdentitySearch: k must be positive")
        if k > self.MAX_K:
            raise DatasetError(
                f"StreamingIdentitySearch: k={k} exceeds the supported "
                f"maximum {self.MAX_K}; retain fewer candidates or run "
                f"identity_search for the full distance table"
            )
        self.queries = q
        self.k = k
        self.framework = framework or SNPComparisonFramework(
            device, Algorithm.FASTID_IDENTITY, workers=workers,
            backend=backend,
        )
        self._states = [_QueryState(k=k) for _ in range(q.shape[0])]
        self.rows_seen = 0
        self.batches_seen = 0
        self.simulated_seconds = 0.0

    @property
    def n_queries(self) -> int:
        return int(self.queries.shape[0])

    def add_batch(self, profiles: np.ndarray) -> None:
        """Search one database batch and fold it into the top-k sets.

        Batch rows receive global database indices in arrival order.
        The batch is validated up front -- shape, dtype and
        binary-ness -- so a malformed feed fails with a precise
        :class:`~repro.errors.DatasetError` *before* any state
        (``rows_seen``, top-k heaps) is touched.
        """
        batch = _check_binary_matrix("add_batch: batch", profiles)
        if batch.shape[1] != self.queries.shape[1]:
            raise DatasetError(
                f"add_batch: batch shape {batch.shape} incompatible with "
                f"{self.queries.shape[1]} query sites"
            )
        if batch.shape[0] == 0:
            return
        distances, report = self.framework.run(self.queries, batch)
        self.simulated_seconds += report.end_to_end_s
        base = self.rows_seen
        unfiltered = 0
        for qi in range(self.n_queries):
            row = distances[qi]
            # Only candidates that could enter the heap matter; a
            # vectorized pre-filter keeps the Python loop short.  An
            # unfilled heap (k not yet reached) admits every row -- a
            # full fold, surfaced through the fallback counter.
            state = self._states[qi]
            if len(state.heap) == state.k:
                cutoff = -state.heap[0][0]
                candidate_idx = np.nonzero(row <= cutoff)[0]
            else:
                candidate_idx = np.arange(row.size)
                unfiltered += 1
            for local in candidate_idx:
                state.offer(int(row[local]), base + int(local))
        if unfiltered:
            get_tracer().counters.add(STREAM_PREFILTER_FALLBACKS, unfiltered)
        self.rows_seen += batch.shape[0]
        self.batches_seen += 1

    def consume(
        self,
        source: ChunkSource | np.ndarray | Any,
        chunk_rows: int,
        prefetch: bool = True,
    ) -> StreamStats:
        """Stream an entire chunk source through :meth:`add_batch`.

        Chunks are read (and validated) on the prefetch thread while
        the previous chunk is being searched; each chunk is retried
        under the active resilience policy.  Returns the stream's I/O
        accounting.
        """
        src = as_chunk_source(source)
        obs = get_tracer()
        stream = ChunkStream(src, chunk_rows, prefetch=prefetch)
        for index, chunk in enumerate(stream):
            with obs.span(
                "stream.chunk", workload="identity", index=index,
                rows=int(chunk.shape[0]),
            ):
                _run_chunk(lambda: self.add_batch(chunk))
        return stream.stats

    def matches(self, query_index: int) -> list[Match]:
        """Current best-k matches for one query (sorted)."""
        if not (0 <= query_index < self.n_queries):
            raise DatasetError(
                f"matches: query index {query_index} out of range"
            )
        return self._states[query_index].matches()

    def all_matches(self) -> list[list[Match]]:
        """Best-k sets for every query."""
        return [state.matches() for state in self._states]

    def best(self, query_index: int) -> Match:
        """The single closest candidate for one query."""
        top = self.matches(query_index)
        if not top:
            if self.rows_seen == 0:
                raise DatasetError(
                    "best: no database rows seen yet (rows_seen=0); "
                    "feed batches with add_batch/consume first"
                )
            raise DatasetError(
                f"best: no candidates retained for query {query_index} "
                f"despite rows_seen={self.rows_seen} -- internal top-k "
                f"state error"
            )
        return top[0]


class StreamingLD:
    """Out-of-core all-pairs LD over a streamed entity matrix.

    The LD table is a Gram matrix (``C = A & A.T`` popcounts), so it
    can be accumulated *block-row by block-row*: for each new chunk of
    entity rows, compute the diagonal block (a self-comparison -- the
    symmetric/triangular Gram machinery of :mod:`repro.parallel`
    engages as usual) plus one rectangular block against every earlier
    chunk, mirroring each into its transpose slot.  Only two chunks of
    input are ever resident; the output table is the product and grows
    ``O(n^2)`` as it must.

    Earlier chunks are re-read from the source, so the source must be
    seekable (``.snpbin``, NPZ, arrays); one-shot iterator feeds are
    spooled to a temporary ``.snpbin`` automatically.

    Rows of the source are the *entities* being compared (the paper's
    SNP-string orientation, ``compare="samples"`` in
    :func:`repro.core.ld.linkage_disequilibrium`); site-major LD on an
    out-of-core matrix requires a transposed input file.
    """

    def __init__(
        self,
        device: str | GPUArchitecture = "Titan V",
        workers: int | None = None,
        gram: bool = True,
        backend: str = "auto",
        framework: SNPComparisonFramework | None = None,
    ) -> None:
        self.framework = framework or SNPComparisonFramework(
            device, Algorithm.LD, workers=workers, gram=gram,
            backend=backend,
        )

    def run(
        self,
        source: ChunkSource | np.ndarray | Any,
        chunk_rows: int,
        prefetch: bool = True,
    ) -> LDResult:
        """Stream the source once and return the full :class:`LDResult`."""
        src = as_chunk_source(source)
        obs = get_tracer()
        with tempfile.TemporaryDirectory(prefix="repro-streaming-ld-") as tmp:
            if not src.seekable:
                src = materialize_source(
                    src, Path(tmp) / "spool.snpbin", chunk_rows=chunk_rows
                )
            n = src.n_rows
            assert n is not None  # seekable sources know their size
            n_sites = src.n_sites
            counts = np.zeros((n, n), dtype=np.int64)
            frequencies = np.zeros(n, dtype=np.float64)
            reports: list[RunReport] = []
            row_start = 0
            stream = ChunkStream(src, chunk_rows, prefetch=prefetch)
            for index, chunk in enumerate(stream):
                rows = int(chunk.shape[0])
                si, ei = row_start, row_start + rows
                with obs.span(
                    "stream.chunk", workload="ld", index=index, rows=rows
                ):
                    diag, report = _run_chunk(lambda: self.framework.run(chunk))
                    counts[si:ei, si:ei] = diag
                    reports.append(report)
                    # One rectangular block against every earlier chunk;
                    # AND is symmetric, so the transpose slot is a mirror.
                    for pj in range(0, si, chunk_rows):
                        sj, ej = pj, min(pj + chunk_rows, si)
                        prev = src.read(sj, ej)
                        block, report = _run_chunk(
                            lambda: self.framework.run(prev, chunk)
                        )
                        counts[sj:ej, si:ei] = block
                        counts[si:ei, sj:ej] = block.T
                        reports.append(report)
                    frequencies[si:ei] = (
                        chunk.mean(axis=1) if n_sites else 0.0
                    )
                row_start = ei
        self.last_stats = stream.stats
        return LDResult(
            counts=counts,
            frequencies=frequencies,
            n_observations=n_sites,
            report=_merged_report(self.framework, reports, n, n, n_sites),
        )


class StreamingMixture:
    """FastID mixture analysis over a streamed reference database.

    The mixture set is fixed and small (casework mixtures); the
    reference profiles -- the 20M-profile side -- stream in chunks.
    Scores accumulate row-block by row-block, so each chunk's rows are
    scored exactly as the in-memory path scores them (bit-exact).

    Incremental use mirrors :class:`StreamingIdentitySearch`
    (:meth:`add_batch` / :meth:`result`); :meth:`consume` drives a
    whole chunk source through the prefetch executor.
    """

    def __init__(
        self,
        mixtures: np.ndarray,
        device: str | GPUArchitecture = "Titan V",
        prenegate: bool | None = None,
        workers: int | None = None,
        backend: str = "auto",
        framework: SNPComparisonFramework | None = None,
    ) -> None:
        m = _check_binary_matrix("StreamingMixture: mixtures", mixtures)
        if m.shape[0] == 0:
            raise DatasetError(
                "StreamingMixture: mixtures must be a non-empty 2-D matrix"
            )
        self.mixtures = m
        self.framework = framework or SNPComparisonFramework(
            device,
            Algorithm.FASTID_MIXTURE,
            prenegate=prenegate,
            workers=workers,
            backend=backend,
        )
        self._score_blocks: list[np.ndarray] = []
        self._reports: list[RunReport] = []
        self.rows_seen = 0
        self.batches_seen = 0

    @property
    def n_mixtures(self) -> int:
        return int(self.mixtures.shape[0])

    def add_batch(self, references: np.ndarray) -> None:
        """Score one chunk of reference profiles against the mixtures."""
        batch = _check_binary_matrix("add_batch: references", references)
        if batch.shape[1] != self.mixtures.shape[1]:
            raise DatasetError(
                f"add_batch: references shape {batch.shape} incompatible "
                f"with {self.mixtures.shape[1]} mixture sites"
            )
        if batch.shape[0] == 0:
            return
        scores, report = self.framework.run(batch, self.mixtures)
        self._score_blocks.append(scores)
        self._reports.append(report)
        self.rows_seen += int(batch.shape[0])
        self.batches_seen += 1

    def consume(
        self,
        source: ChunkSource | np.ndarray | Any,
        chunk_rows: int,
        prefetch: bool = True,
    ) -> StreamStats:
        """Stream a whole reference source through :meth:`add_batch`."""
        src = as_chunk_source(source)
        obs = get_tracer()
        stream = ChunkStream(src, chunk_rows, prefetch=prefetch)
        for index, chunk in enumerate(stream):
            with obs.span(
                "stream.chunk", workload="mixture", index=index,
                rows=int(chunk.shape[0]),
            ):
                _run_chunk(lambda: self.add_batch(chunk))
        return stream.stats

    def result(self) -> MixtureResult:
        """The accumulated :class:`MixtureResult` for everything seen."""
        if self._score_blocks:
            scores = np.vstack(self._score_blocks)
        else:
            scores = np.zeros((0, self.n_mixtures), dtype=np.int64)
        return MixtureResult(
            scores=scores,
            prenegated=self.framework.database_needs_prenegation,
            report=_merged_report(
                self.framework,
                self._reports,
                self.rows_seen,
                self.n_mixtures,
                int(self.mixtures.shape[1]),
            ),
        )
