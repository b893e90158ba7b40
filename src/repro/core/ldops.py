"""Streaming LD pruning and clumping on the bit-GEMM core.

The Gram-mode engine computes the all-pairs LD matrix; this module adds
the two standard downstream consumers (ROADMAP item 4) as *streaming
operators over block-rows* of that Gram output:

* :class:`LDPruner` -- windowed greedy r^2 pruning, the semantics of
  PLINK ``--indep-pairwise <window> 1 <r^2>``: sites are scanned in
  order and a site is kept iff its r^2 against every *previously kept*
  site within the trailing window of ``window`` consecutive sites is
  at or below the threshold (first seen wins, step fixed at 1).
* :class:`LDClumper` -- index-variant clumping, the semantics of PLINK
  ``--clump`` with a site-count window: sites are ranked by a supplied
  score (higher is better, ties broken by site order); in rank order
  each unabsorbed site becomes an *index variant* and absorbs every
  unabsorbed neighbor within the window whose r^2 with it is at or
  above the threshold.

Neither operator ever materializes the full ``sites x sites`` LD
matrix.  Each consumes the streamed site-major input chunk by chunk
(the block-row decomposition :class:`~repro.core.streaming.StreamingLD`
uses) and asks the comparison framework for exactly the two count
blocks a block-row of the Gram output contributes to the active
window: the chunk's diagonal block (a self-comparison -- the
symmetric/triangular Gram machinery engages as usual) and one
rectangular block against the buffered window sites.  Resident LD
state is therefore ``O(window^2)`` regardless of panel size: at most
``window`` buffered site vectors plus the current count blocks (see
``docs/LDOPS.md`` for the precise bound and the clump bookkeeping
caveat).

Decisions are made from *exact integer joint counts* (the bit-GEMM
output), via the shared predicate :func:`r2_exceeds`:

    r^2 = (n c_ab - c_a c_b)^2 / (c_a (n - c_a) c_b (n - c_b))

evaluated as an arbitrary-precision integer numerator/denominator pair,
so results are bit-identical between chunked streaming and in-memory
execution for every chunk size -- a property the tests pin down
against a naive dense reference.  A site with zero variance
(monomorphic) has an undefined r^2; it is treated as 0 (never prunes,
never absorbs, never is absorbed), matching
:attr:`~repro.core.ld.LDResult.r_squared`.

Rows of the streamed source are the *sites* being pruned/clumped
(columns are samples/observations) -- the transpose of a sample-major
:class:`~repro.snp.dataset.SNPDataset` matrix, exactly like
:class:`~repro.core.streaming.StreamingLD` with ``compare="samples"``
reads its entities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.config import Algorithm
from repro.core.framework import SNPComparisonFramework
from repro.errors import DatasetError
from repro.gpu.arch import GPUArchitecture
from repro.io_stream.prefetch import ChunkStream, StreamStats
from repro.io_stream.sources import ChunkSource, as_chunk_source
from repro.observability.counters import (
    LDOPS_CLUMPS_FORMED,
    LDOPS_PAIRS_TESTED,
    LDOPS_SITES_ABSORBED,
    LDOPS_SITES_KEPT,
    LDOPS_SITES_PRUNED,
    LDOPS_SITES_SEEN,
    LDOPS_WINDOW_PEAK_SITES,
)
from repro.observability.tracer import get_tracer

__all__ = [
    "Clump",
    "ClumpResult",
    "LDClumper",
    "LDPruner",
    "PruneResult",
    "ld_clump",
    "ld_prune",
    "r2_exceeds",
]


def r2_exceeds(
    c_ab: int,
    c_a: int,
    c_b: int,
    n_obs: int,
    threshold: float,
    strict: bool,
) -> bool:
    """Whether the pair's r^2 exceeds (or meets) ``threshold``.

    Evaluates ``r^2 = (n c_ab - c_a c_b)^2 / (c_a (n-c_a) c_b (n-c_b))``
    as exact Python integers (no intermediate overflow, no float
    division), comparing the integer numerator against
    ``threshold * denominator``; the only rounding is the final float
    product, applied identically on every path, so the decision is
    bit-identical regardless of how the counts were batched.

    ``strict=True`` tests ``r^2 > threshold`` (pruning); ``False``
    tests ``r^2 >= threshold`` (clump absorption).  A zero-variance
    site (``c == 0`` or ``c == n_obs``) makes the denominator 0: the
    r^2 is undefined and treated as 0, so the predicate is False.
    """
    num_root = n_obs * c_ab - c_a * c_b
    num = num_root * num_root
    den = c_a * (n_obs - c_a) * c_b * (n_obs - c_b)
    if den == 0:
        return False
    bound = threshold * den
    return num > bound if strict else num >= bound


def _check_site_chunk(name: str, chunk: np.ndarray, n_sites: int | None) -> np.ndarray:
    """Validate one site-major chunk (rows = sites, columns = samples)."""
    arr = np.ascontiguousarray(chunk)
    if arr.ndim != 2:
        raise DatasetError(
            f"{name}: expected a 2-D site-major binary chunk, got "
            f"{arr.ndim}-D shape {arr.shape}"
        )
    if arr.dtype != np.bool_ and not np.issubdtype(arr.dtype, np.integer):
        raise DatasetError(
            f"{name}: chunk has dtype {arr.dtype}; binary matrices must "
            f"use an integer or bool dtype"
        )
    if arr.size:
        lo, hi = int(arr.min()), int(arr.max())
        if lo < 0 or hi > 1:
            raise DatasetError(
                f"{name}: chunk contains non-binary values "
                f"(min={lo}, max={hi}); entries must be 0 or 1"
            )
    if n_sites is not None and arr.shape[1] != n_sites:
        raise DatasetError(
            f"{name}: chunk has {arr.shape[1]} observation columns, "
            f"earlier chunks had {n_sites}"
        )
    return arr


def _check_params(name: str, window: int, r2: float) -> None:
    if window < 1:
        raise DatasetError(f"{name}: window must be >= 1, got {window}")
    if not (0.0 <= r2 <= 1.0):
        raise DatasetError(f"{name}: r2 threshold must be in [0, 1], got {r2}")


class _WindowGram:
    """Shared block-row machinery: buffered window sites + count blocks.

    Keeps the site vectors of the trailing window (the only input ever
    re-touched), their per-site allele counts, and computes the two
    count blocks each new chunk needs through the framework's bit-GEMM:
    the chunk's diagonal self-comparison block and the rectangle
    against the buffered rows.  Eviction keeps the buffer at most
    ``window - 1`` rows between chunks, so resident input state is
    bounded by the window, never the panel.
    """

    def __init__(self, window: int, framework: SNPComparisonFramework) -> None:
        self.window = window
        self.framework = framework
        #: Buffered site vectors (rows) still inside some future window.
        self._rows: np.ndarray | None = None
        #: Global site index of each buffered row.
        self._indices: list[int] = []
        #: Per-site allele count of each buffered row.
        self._counts: list[int] = []
        self.n_obs: int | None = None
        self.next_site = 0
        self.simulated_seconds = 0.0

    def blocks(
        self, chunk: np.ndarray
    ) -> tuple[np.ndarray | None, np.ndarray, list[int], list[int], list[int]]:
        """Count blocks + bookkeeping for one new chunk of site rows.

        Returns ``(rect, diag, buf_indices, buf_counts, chunk_counts)``
        where ``rect`` is the ``(buffered, chunk)`` joint-count block
        (``None`` when the buffer is empty), ``diag`` the chunk's
        self-comparison block, and the lists give global indices and
        allele counts aligned with the block axes.
        """
        rect: np.ndarray | None = None
        if self._rows is not None and len(self._indices):
            rect, report = self.framework.run(self._rows, chunk)
            self.simulated_seconds += report.end_to_end_s
        diag, report = self.framework.run(chunk)
        self.simulated_seconds += report.end_to_end_s
        chunk_counts = [int(c) for c in chunk.sum(axis=1)]
        return rect, diag, list(self._indices), list(self._counts), chunk_counts

    def retain(
        self, chunk: np.ndarray, keep_local: list[int], base: int
    ) -> None:
        """Append the chunk rows worth buffering and evict stale ones.

        ``keep_local`` lists the chunk-local rows that future sites may
        still need (kept sites for the pruner, every site for the
        clumper).  Rows whose global index has fallen out of the next
        site's window are dropped.
        """
        if keep_local:
            fresh = chunk[keep_local]
            if self._rows is None or not len(self._indices):
                self._rows = np.array(fresh, copy=True)
            else:
                self._rows = np.concatenate([self._rows, fresh], axis=0)
            counts = chunk.sum(axis=1)
            for local in keep_local:
                self._indices.append(base + local)
                self._counts.append(int(counts[local]))
        # The next site to arrive is ``self.next_site``; it can only
        # pair with indices >= next_site - window + 1.
        horizon = self.next_site - self.window + 1
        alive = [i for i, g in enumerate(self._indices) if g >= horizon]
        if len(alive) != len(self._indices):
            rows = self._rows
            assert rows is not None
            self._rows = np.array(rows[alive], copy=True) if alive else None
            self._indices = [self._indices[i] for i in alive]
            self._counts = [self._counts[i] for i in alive]


@dataclass
class PruneResult:
    """Outcome of one windowed LD pruning pass.

    Attributes
    ----------
    kept:
        Global indices of surviving sites, ascending.
    pruned:
        Global indices of removed sites, ascending.
    blocker:
        For each pruned site, the kept site whose r^2 exceeded the
        threshold (aligned with ``pruned``).
    n_sites:
        Total sites scanned.
    window / r2:
        The parameters the pass ran with.
    pairs_tested:
        Exact number of (new site, kept window site) pairs whose r^2
        was evaluated -- invariant under chunking.
    peak_window_sites:
        Largest number of kept sites simultaneously inside one window
        (including the site being decided) -- the resident-state bound
        the O(window^2) claim rests on; invariant under chunking.
    simulated_seconds:
        Simulated device time of every count block computed.
    stream_stats:
        I/O accounting when driven by :func:`ld_prune` (else ``None``).
    """

    kept: np.ndarray
    pruned: np.ndarray
    blocker: np.ndarray
    n_sites: int
    window: int
    r2: float
    pairs_tested: int
    peak_window_sites: int
    simulated_seconds: float
    stream_stats: StreamStats | None = None


class LDPruner:
    """Streaming windowed LD pruning (PLINK ``--indep-pairwise`` style).

    Feed site-major chunks in order with :meth:`add_chunk`; call
    :meth:`finalize` for the :class:`PruneResult`.  Decisions are
    greedy first-seen-wins: a new site is kept iff its r^2 with every
    previously *kept* site in the trailing ``window`` consecutive
    sites stays at or below ``r2`` (strict ``>`` prunes).  Pruned
    sites leave the window immediately -- they never veto a later
    site -- so the kept set is exactly what PLINK's step-1 greedy scan
    with order-based (rather than MAF-based) pair resolution produces.
    """

    def __init__(
        self,
        window: int,
        r2: float,
        device: str | GPUArchitecture = "Titan V",
        workers: int | None = None,
        gram: bool = True,
        backend: str = "auto",
        executor: str = "auto",
        framework: SNPComparisonFramework | None = None,
    ) -> None:
        _check_params("LDPruner", window, r2)
        self.window = window
        self.r2 = r2
        self.framework = framework or SNPComparisonFramework(
            device, Algorithm.LD, workers=workers, gram=gram,
            backend=backend, executor=executor,
        )
        self._gram = _WindowGram(window, self.framework)
        self._kept: list[int] = []
        self._pruned: list[int] = []
        self._blocker: list[int] = []
        self.pairs_tested = 0
        self.peak_window_sites = 0
        self._finalized = False

    @property
    def sites_seen(self) -> int:
        return self._gram.next_site

    def add_chunk(self, chunk: np.ndarray) -> None:
        """Scan one block of site rows (global order = arrival order)."""
        if self._finalized:
            raise DatasetError("LDPruner: add_chunk after finalize")
        arr = _check_site_chunk("LDPruner.add_chunk", chunk, self._gram.n_obs)
        if arr.shape[0] == 0:
            return
        if arr.shape[1] == 0:
            raise DatasetError(
                "LDPruner.add_chunk: chunk has zero observation columns; "
                "r^2 is undefined on zero observations"
            )
        if self._gram.n_obs is None:
            self._gram.n_obs = int(arr.shape[1])
        n_obs = self._gram.n_obs
        base = self._gram.next_site
        rect, diag, buf_idx, buf_counts, chunk_counts = self._gram.blocks(arr)
        # Kept sites of the trailing window: (global index, allele
        # count, where to find the joint count against a chunk row).
        window_kept: list[tuple[int, int, bool, int]] = [
            (g, c, True, i) for i, (g, c) in enumerate(zip(buf_idx, buf_counts))
        ]
        keep_local: list[int] = []
        for local in range(arr.shape[0]):
            g = base + local
            horizon = g - self.window + 1
            window_kept = [item for item in window_kept if item[0] >= horizon]
            blocked_by = -1
            for other_g, other_count, in_buf, pos in window_kept:
                if in_buf:
                    assert rect is not None
                    joint = int(rect[pos, local])
                else:
                    joint = int(diag[pos, local])
                self.pairs_tested += 1
                if r2_exceeds(
                    joint, other_count, chunk_counts[local], n_obs,
                    self.r2, strict=True,
                ):
                    blocked_by = other_g
                    break
            if blocked_by >= 0:
                self._pruned.append(g)
                self._blocker.append(blocked_by)
                self.peak_window_sites = max(
                    self.peak_window_sites, len(window_kept)
                )
            else:
                self._kept.append(g)
                keep_local.append(local)
                window_kept.append((g, chunk_counts[local], False, local))
                self.peak_window_sites = max(
                    self.peak_window_sites, len(window_kept)
                )
        self._gram.next_site = base + arr.shape[0]
        self._gram.retain(arr, keep_local, base)

    def finalize(self) -> PruneResult:
        """Close the stream and return the result (idempotent counters)."""
        if not self._finalized:
            self._finalized = True
            counters = get_tracer().counters
            counters.add(LDOPS_SITES_SEEN, self.sites_seen)
            counters.add(LDOPS_SITES_KEPT, len(self._kept))
            counters.add(LDOPS_SITES_PRUNED, len(self._pruned))
            counters.add(LDOPS_PAIRS_TESTED, self.pairs_tested)
            counters.add(LDOPS_WINDOW_PEAK_SITES, self.peak_window_sites)
        return PruneResult(
            kept=np.array(self._kept, dtype=np.int64),
            pruned=np.array(self._pruned, dtype=np.int64),
            blocker=np.array(self._blocker, dtype=np.int64),
            n_sites=self.sites_seen,
            window=self.window,
            r2=self.r2,
            pairs_tested=self.pairs_tested,
            peak_window_sites=self.peak_window_sites,
            simulated_seconds=self._gram.simulated_seconds,
        )


@dataclass(frozen=True)
class Clump:
    """One clump: the index variant plus the sites it absorbed."""

    index_site: int
    members: tuple[int, ...]


@dataclass
class ClumpResult:
    """Outcome of one index-variant clumping pass.

    ``assignment[i]`` is the index site that absorbed site ``i`` (its
    own index for index variants).  ``clumps`` lists every clump in
    rank order of its index variant (best score first, ties by site
    order); singleton clumps (no absorbed members) are included.
    """

    clumps: list[Clump]
    assignment: np.ndarray
    n_sites: int
    window: int
    r2: float
    pairs_tested: int
    peak_window_sites: int
    simulated_seconds: float
    stream_stats: StreamStats | None = None

    @property
    def index_sites(self) -> np.ndarray:
        """Index-variant site indices in rank order."""
        return np.array([c.index_site for c in self.clumps], dtype=np.int64)


@dataclass
class _PendingSite:
    """A site whose index/absorbed status is not yet decided."""

    site: int
    #: Above-threshold window neighbors, global indices (both sides).
    edges: list[int] = field(default_factory=list)


class LDClumper:
    """Streaming index-variant clumping (PLINK ``--clump`` style).

    ``scores`` supplies one score per streamed site (higher is better,
    e.g. ``-log10 p``); the array must cover every site that arrives.
    A site is an *index variant* iff no better-ranked index variant
    within the window has r^2 >= the threshold with it; otherwise it is
    absorbed by the best-ranked such index variant.  Rank is
    ``(-score, site order)`` -- ties break toward the earlier site,
    independent of batching.

    The recursion on rank is resolved incrementally: a site's status is
    settled as soon as all its window neighbors have arrived and every
    better-ranked above-threshold neighbor is itself settled, so in
    well-mixed panels pending state stays near the window size.  Only
    above-threshold edges are remembered per pending site; the site
    *vectors* and count blocks stay bounded by the window as in
    :class:`LDPruner`.
    """

    def __init__(
        self,
        window: int,
        r2: float,
        scores: np.ndarray,
        device: str | GPUArchitecture = "Titan V",
        workers: int | None = None,
        gram: bool = True,
        backend: str = "auto",
        executor: str = "auto",
        framework: SNPComparisonFramework | None = None,
    ) -> None:
        _check_params("LDClumper", window, r2)
        score_arr = np.asarray(scores, dtype=np.float64)
        if score_arr.ndim != 1:
            raise DatasetError(
                f"LDClumper: scores must be a 1-D array, got shape "
                f"{score_arr.shape}"
            )
        if not np.all(np.isfinite(score_arr)):
            raise DatasetError("LDClumper: scores must be finite")
        self.window = window
        self.r2 = r2
        self.scores = score_arr
        self.framework = framework or SNPComparisonFramework(
            device, Algorithm.LD, workers=workers, gram=gram,
            backend=backend, executor=executor,
        )
        self._gram = _WindowGram(window, self.framework)
        self._pending: dict[int, _PendingSite] = {}
        #: site -> absorbing index variant (== site for index variants).
        self._assignment: dict[int, int] = {}
        self.pairs_tested = 0
        self.peak_window_sites = 0
        self._finalized = False

    @property
    def sites_seen(self) -> int:
        return self._gram.next_site

    def _rank(self, site: int) -> tuple[float, int]:
        return (-float(self.scores[site]), site)

    def add_chunk(self, chunk: np.ndarray) -> None:
        """Fold one block of site rows into the pending clump state."""
        if self._finalized:
            raise DatasetError("LDClumper: add_chunk after finalize")
        arr = _check_site_chunk("LDClumper.add_chunk", chunk, self._gram.n_obs)
        if arr.shape[0] == 0:
            return
        if arr.shape[1] == 0:
            raise DatasetError(
                "LDClumper.add_chunk: chunk has zero observation columns; "
                "r^2 is undefined on zero observations"
            )
        base = self._gram.next_site
        if base + arr.shape[0] > self.scores.shape[0]:
            raise DatasetError(
                f"LDClumper.add_chunk: streamed sites exceed the "
                f"{self.scores.shape[0]} supplied scores "
                f"(chunk covers sites {base}..{base + arr.shape[0] - 1})"
            )
        if self._gram.n_obs is None:
            self._gram.n_obs = int(arr.shape[1])
        n_obs = self._gram.n_obs
        rect, diag, buf_idx, buf_counts, chunk_counts = self._gram.blocks(arr)
        for local in range(arr.shape[0]):
            g = base + local
            pending = _PendingSite(site=g)
            horizon = g - self.window + 1
            # Earlier neighbors still in the window: buffered rows plus
            # this chunk's own earlier rows (counts from the diagonal
            # self-comparison block).
            for pos, (other_g, other_count) in enumerate(
                zip(buf_idx, buf_counts)
            ):
                if other_g < horizon:
                    continue
                assert rect is not None
                self.pairs_tested += 1
                if r2_exceeds(
                    int(rect[pos, local]), other_count, chunk_counts[local],
                    n_obs, self.r2, strict=False,
                ):
                    pending.edges.append(other_g)
                    other = self._pending.get(other_g)
                    if other is not None:
                        other.edges.append(g)
            for other_local in range(max(0, horizon - base), local):
                other_g = base + other_local
                self.pairs_tested += 1
                if r2_exceeds(
                    int(diag[other_local, local]), chunk_counts[other_local],
                    chunk_counts[local], n_obs, self.r2, strict=False,
                ):
                    pending.edges.append(other_g)
                    other = self._pending.get(other_g)
                    if other is not None:
                        other.edges.append(g)
            self._pending[g] = pending
        self._gram.next_site = base + arr.shape[0]
        window_rows = min(self._gram.next_site, self.window)
        self.peak_window_sites = max(self.peak_window_sites, window_rows)
        self._gram.retain(arr, list(range(arr.shape[0])), base)
        self._resolve(complete_before=self._gram.next_site - self.window + 1)

    def _resolve(self, complete_before: int) -> None:
        """Settle every pending site whose dependencies are settled.

        A site is *complete* once all potential window neighbors have
        arrived (``site + window <= next unseen site``, i.e. its index
        is below ``complete_before``).  A complete site settles when
        every better-ranked above-threshold neighbor is settled: it is
        absorbed by the best-ranked settled *index* neighbor, or
        becomes an index variant itself.
        """
        progressed = True
        while progressed:
            progressed = False
            for g in sorted(self._pending):
                if g >= complete_before:
                    continue
                pending = self._pending[g]
                my_rank = self._rank(g)
                better = [
                    e for e in pending.edges if self._rank(e) < my_rank
                ]
                if any(e not in self._assignment for e in better):
                    continue
                absorbers = [
                    e for e in better if self._assignment[e] == e
                ]
                if absorbers:
                    self._assignment[g] = min(absorbers, key=self._rank)
                else:
                    self._assignment[g] = g
                del self._pending[g]
                progressed = True

    def finalize(self) -> ClumpResult:
        """Close the stream, settle every site, return the result."""
        if not self._finalized:
            self._resolve(complete_before=self._gram.next_site)
            assert not self._pending, "clump resolution did not converge"
            self._finalized = True
            counters = get_tracer().counters
            n = self._gram.next_site
            n_index = sum(1 for s, a in self._assignment.items() if s == a)
            counters.add(LDOPS_SITES_SEEN, n)
            counters.add(LDOPS_CLUMPS_FORMED, n_index)
            counters.add(LDOPS_SITES_ABSORBED, n - n_index)
            counters.add(LDOPS_PAIRS_TESTED, self.pairs_tested)
            counters.add(LDOPS_WINDOW_PEAK_SITES, self.peak_window_sites)
        n = self._gram.next_site
        assignment = np.array(
            [self._assignment[g] for g in range(n)], dtype=np.int64
        )
        members: dict[int, list[int]] = {}
        for g in range(n):
            a = int(assignment[g])
            if a != g:
                members.setdefault(a, []).append(g)
        index_sites = sorted(
            (g for g in range(n) if int(assignment[g]) == g), key=self._rank
        )
        clumps = [
            Clump(index_site=g, members=tuple(members.get(g, [])))
            for g in index_sites
        ]
        return ClumpResult(
            clumps=clumps,
            assignment=assignment,
            n_sites=n,
            window=self.window,
            r2=self.r2,
            pairs_tested=self.pairs_tested,
            peak_window_sites=self.peak_window_sites,
            simulated_seconds=self._gram.simulated_seconds,
        )


def _drive(
    operator: LDPruner | LDClumper,
    source: ChunkSource | np.ndarray | Any,
    chunk_rows: int,
    prefetch: bool,
    workload: str,
) -> StreamStats:
    """Stream a whole source through one operator (with retry + spans)."""
    # Imported here to keep module import light and avoid a cycle at
    # type-check time (streaming imports ld, which shares this package).
    from repro.core.streaming import _run_chunk

    if chunk_rows < 1:
        raise DatasetError(f"ld {workload}: chunk_rows must be >= 1")
    src = as_chunk_source(source)
    obs = get_tracer()
    stream = ChunkStream(src, chunk_rows, prefetch=prefetch)
    for index, chunk in enumerate(stream):
        with obs.span(
            "stream.chunk", workload=workload, index=index,
            rows=int(chunk.shape[0]),
        ):
            _run_chunk(lambda: operator.add_chunk(chunk))
    return stream.stats


def ld_prune(
    source: ChunkSource | np.ndarray | Any,
    window: int,
    r2: float,
    chunk_rows: int = 4096,
    prefetch: bool = True,
    device: str | GPUArchitecture = "Titan V",
    workers: int | None = None,
    gram: bool = True,
    backend: str = "auto",
    executor: str = "auto",
    framework: SNPComparisonFramework | None = None,
) -> PruneResult:
    """Stream a site-major source through :class:`LDPruner` once.

    ``source`` is anything
    :func:`repro.io_stream.sources.as_chunk_source` accepts; rows are
    the sites scanned in order.  Chunk boundaries never change the
    result (bit-identical kept sets for every ``chunk_rows``).
    """
    pruner = LDPruner(
        window, r2, device=device, workers=workers, gram=gram,
        backend=backend, executor=executor, framework=framework,
    )
    stats = _drive(pruner, source, chunk_rows, prefetch, "ld-prune")
    result = pruner.finalize()
    result.stream_stats = stats
    return result


def ld_clump(
    source: ChunkSource | np.ndarray | Any,
    scores: np.ndarray,
    window: int,
    r2: float,
    chunk_rows: int = 4096,
    prefetch: bool = True,
    device: str | GPUArchitecture = "Titan V",
    workers: int | None = None,
    gram: bool = True,
    backend: str = "auto",
    executor: str = "auto",
    framework: SNPComparisonFramework | None = None,
) -> ClumpResult:
    """Stream a site-major source through :class:`LDClumper` once.

    ``scores`` must supply one finite score per streamed site; a
    mismatch raises :class:`~repro.errors.DatasetError` (too few scores
    as soon as a chunk overruns them, too many at finalize).
    """
    clumper = LDClumper(
        window, r2, scores, device=device, workers=workers, gram=gram,
        backend=backend, executor=executor, framework=framework,
    )
    stats = _drive(clumper, source, chunk_rows, prefetch, "clump")
    if clumper.sites_seen != clumper.scores.shape[0]:
        raise DatasetError(
            f"ld_clump: {clumper.scores.shape[0]} scores supplied but the "
            f"source streamed {clumper.sites_seen} sites"
        )
    result = clumper.finalize()
    result.stream_stats = stats
    return result
