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
consumes it as device operands
(:class:`repro.io_stream.sources.PackedSource`) through the
double-buffered prefetch executor
(:class:`repro.io_stream.prefetch.ChunkStream`): a background thread
produces chunk *i+1* while chunk *i* runs through
:meth:`~repro.core.framework.SNPComparisonFramework.run_packed`.  A
``.snpbin`` chunk is the file's own verified words, so nothing is
unpacked, re-checked or re-packed; the fixed operand (queries,
mixtures) is packed once per object.  The bits entry points
(``add_batch``) check and pack, then join the same packed path.  Every
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

import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.core.config import Algorithm
from repro.core.framework import SNPComparisonFramework
from repro.core.ld import LDResult, ld_framework
from repro.core.mixture import MixtureResult
from repro.core.packing import PackedOperand
from repro.core.profiles import RunReport
from repro.errors import DatasetError
from repro.gpu.arch import GPUArchitecture
from repro.io_stream.prefetch import ChunkStream, StreamStats
from repro.io_stream.sources import (
    ChunkSource,
    PackedSource,
    as_chunk_source,
    materialize_source,
)
from repro.observability.counters import STREAM_CHUNK_RETRIES
from repro.observability.tracer import get_tracer
from repro.resilience.report import ResilienceReport
from repro.resilience.retry import call_with_retry
from repro.resilience.runtime import get_resilience
from repro.util.validation import check_binary_matrix, check_k

__all__ = [
    "Match",
    "StreamingIdentitySearch",
    "StreamingLD",
    "StreamingMixture",
    "TopK",
]


def _run_chunk(fn: Callable[[], Any]) -> Any:
    """Run one chunk's work under the active resilience retry policy.

    The per-chunk rung of the degradation ladder: shard-level retry and
    quarantine happen inside the engine; anything retryable that still
    escapes (e.g. an allocation fault on the chunk's own launch) is
    retried here before the error propagates to the caller.  Chunk
    workloads only mutate their state *after* the framework run
    returns, so a retried chunk is folded exactly once.
    """
    obs = get_tracer()

    def _count_retry(retry_index: int, exc: BaseException) -> None:
        obs.counters.add(STREAM_CHUNK_RETRIES)

    return call_with_retry(fn, get_resilience().policy, on_retry=_count_retry)


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


def _packed_source(
    source: ChunkSource | np.ndarray | Any, framework: SNPComparisonFramework
) -> PackedSource:
    """``source`` as operands in the framework's word width, with rows
    padded to its ``m_r`` (the extents the device schedule prices)."""
    return as_chunk_source(source).packed(
        framework.arch.word_bits, framework.config.m_r
    )


def _consume(
    source: PackedSource,
    chunk_rows: int,
    prefetch: bool,
    workload: str,
    add: Callable[[PackedOperand], None],
) -> StreamStats:
    """Stream ``source``'s operands through ``add``, one span and one
    retried call per chunk; returns the stream's I/O accounting."""
    obs = get_tracer()
    stream = ChunkStream(source, chunk_rows, prefetch=prefetch)
    for index, chunk in enumerate(stream):
        with obs.span(
            "stream.chunk", workload=workload, index=index, rows=chunk.n_rows
        ):
            _run_chunk(lambda: add(chunk))
    return stream.stats


@dataclass(frozen=True, order=True)
class Match:
    """One candidate: ordered by distance, then database index."""

    distance: int
    database_index: int


class TopK:
    """One query's best ``k`` database rows: the one top-k fold.

    :class:`StreamingIdentitySearch` and the identity service
    (:mod:`repro.serve.service`) both fold distances through it in
    database order, so the tie rule -- first seen wins -- lives here
    alone.
    """

    __slots__ = ("k", "distances", "indices")

    def __init__(self, k: int) -> None:
        self.k = k
        self.distances = np.empty(0, dtype=np.int64)
        self.indices = np.empty(0, dtype=np.int64)

    def fold(self, distances: np.ndarray, base: int) -> None:
        """Fold one query's distances to database rows ``base, base + 1, ...``.

        The kept rows go first and hold smaller database indices than
        any new row, so a stable sort by distance orders ties by index
        (first seen wins).  ``np.partition`` first cuts the candidates
        to those within the k-th smallest distance.
        """
        d = np.concatenate((self.distances, distances))
        i = np.concatenate(
            (self.indices, np.arange(base, base + distances.size))
        )
        if d.size > self.k:
            keep = d <= np.partition(d, self.k - 1)[self.k - 1]
            d, i = d[keep], i[keep]
        order = np.argsort(d, kind="stable")[: self.k]
        self.distances, self.indices = d[order], i[order]

    def matches(self) -> list[Match]:
        return [
            Match(distance=d, database_index=i)
            for d, i in zip(self.distances.tolist(), self.indices.tolist())
        ]


class StreamingIdentitySearch:
    """Incremental FastID search against a database fed in batches.

    Parameters
    ----------
    queries:
        Binary ``(n_queries, n_sites)`` matrix, fixed for the session.
    k:
        Candidates retained per query (:class:`TopK`); at most
        :data:`MAX_K`.
    device:
        Simulated device (or architecture) running each batch.
    """

    #: Upper bound on ``k``: each query keeps ``k`` (distance, index)
    #: pairs and every fold copies and sorts up to ``k`` plus the batch's
    #: rows, so beyond this the per-query state stops being small and
    #: callers should compute (and store) the full distance table
    #: instead of a top-k stream.
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
        q = check_binary_matrix("StreamingIdentitySearch: queries", queries)
        if q.shape[0] == 0:
            raise DatasetError(
                "StreamingIdentitySearch: queries must be a non-empty 2-D matrix"
            )
        k = check_k("StreamingIdentitySearch: k", k, self.MAX_K)
        self.queries = q
        self.k = k
        self.framework = framework or SNPComparisonFramework(
            device, Algorithm.FASTID_IDENTITY, workers=workers,
            backend=backend,
        )
        self._packed_queries = self.framework.pack(q)
        self._states = [TopK(k) for _ in range(q.shape[0])]
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
        (``rows_seen``, the top-k sets) is touched.
        """
        batch = check_binary_matrix("add_batch: batch", profiles)
        self._check_sites(batch.shape)
        if batch.shape[0] == 0:
            return
        self._add_packed(self.framework.pack(batch))

    def _check_sites(self, shape: tuple[int, ...]) -> None:
        if shape[1] != self.queries.shape[1]:
            raise DatasetError(
                f"add_batch: batch shape {shape} incompatible with "
                f"{self.queries.shape[1]} query sites"
            )

    def _add_packed(self, batch: PackedOperand) -> None:
        """Search one packed database batch and fold its distances."""
        self._check_sites((batch.n_rows, batch.n_bits))
        distances, report = self.framework.run_packed(
            self._packed_queries, batch
        )
        self.simulated_seconds += report.end_to_end_s
        for state, row in zip(self._states, distances):
            state.fold(row, self.rows_seen)
        self.rows_seen += batch.n_rows
        self.batches_seen += 1

    def consume(
        self,
        source: ChunkSource | np.ndarray | Any,
        chunk_rows: int,
        prefetch: bool = True,
    ) -> StreamStats:
        """Stream an entire chunk source through the packed search.

        Chunks are produced as device operands on the prefetch thread
        while the previous chunk is being searched; each chunk is
        retried under the active resilience policy.  Returns the
        stream's I/O accounting.
        """
        return _consume(
            _packed_source(source, self.framework),
            chunk_rows, prefetch, "identity", self._add_packed,
        )

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
        backend: str = "auto",
        framework: SNPComparisonFramework | None = None,
    ) -> None:
        self.framework = ld_framework(
            "StreamingLD", framework, device, workers=workers,
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
                    src,
                    Path(tmp) / "spool.snpbin",
                    chunk_rows=chunk_rows,
                    word_bits=self.framework.arch.word_bits,
                )
            n = src.n_rows
            assert n is not None  # seekable sources know their size
            n_sites = src.n_sites
            counts = np.zeros((n, n), dtype=np.int64)
            frequencies = np.zeros(n, dtype=np.float64)
            reports: list[RunReport] = []
            row_start = 0
            packed = _packed_source(src, self.framework)
            stream = ChunkStream(packed, chunk_rows, prefetch=prefetch)
            for index, chunk in enumerate(stream):
                si, ei = row_start, row_start + chunk.n_rows
                with obs.span(
                    "stream.chunk", workload="ld", index=index, rows=chunk.n_rows
                ):
                    diag, report = _run_chunk(
                        lambda: self.framework.run_packed(chunk, chunk)
                    )
                    counts[si:ei, si:ei] = diag
                    reports.append(report)
                    # One rectangular block against every earlier chunk;
                    # AND is symmetric, so the transpose slot is a mirror.
                    for pj in range(0, si, chunk_rows):
                        sj, ej = pj, min(pj + chunk_rows, si)
                        prev = packed.read(sj, ej)
                        block, report = _run_chunk(
                            lambda: self.framework.run_packed(prev, chunk)
                        )
                        counts[sj:ej, si:ei] = block
                        counts[si:ei, sj:ej] = block.T
                        reports.append(report)
                    # The diagonal of a self-comparison is each row's
                    # allele count.
                    frequencies[si:ei] = np.diagonal(diag) / n_sites
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
    whole chunk source through the prefetch executor.  The mixtures
    are packed once, pre-negated when the device's configuration says
    so (Vega 64's ``AND_PRENEGATED``), so no chunk pays for either.
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
        m = check_binary_matrix("StreamingMixture: mixtures", mixtures)
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
        self._packed_mixtures = self.framework.pack(
            m, negate=self.framework.database_needs_prenegation
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
        batch = check_binary_matrix("add_batch: references", references)
        self._check_sites(batch.shape)
        if batch.shape[0] == 0:
            return
        self._add_packed(self.framework.pack(batch))

    def _check_sites(self, shape: tuple[int, ...]) -> None:
        if shape[1] != self.mixtures.shape[1]:
            raise DatasetError(
                f"add_batch: references shape {shape} incompatible "
                f"with {self.mixtures.shape[1]} mixture sites"
            )

    def _add_packed(self, batch: PackedOperand) -> None:
        """Score one packed chunk of references against the mixtures."""
        self._check_sites((batch.n_rows, batch.n_bits))
        scores, report = self.framework.run_packed(batch, self._packed_mixtures)
        self._score_blocks.append(scores)
        self._reports.append(report)
        self.rows_seen += batch.n_rows
        self.batches_seen += 1

    def consume(
        self,
        source: ChunkSource | np.ndarray | Any,
        chunk_rows: int,
        prefetch: bool = True,
    ) -> StreamStats:
        """Stream a whole reference source through the packed scoring."""
        return _consume(
            _packed_source(source, self.framework),
            chunk_rows, prefetch, "mixture", self._add_packed,
        )

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
