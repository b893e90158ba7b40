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
uses), stacks the chunk under the buffered window rows, packs the
stack once and counts only the *window band* of its self-comparison
with :func:`~repro.blis.gemm.bit_gemm_band`: the joint counts of every
chunk row with the (at most ``window - 1``) stack rows above it.
Resident LD state is therefore ``O(chunk * window)`` counts plus at most
``window - 1`` buffered site vectors, regardless of panel size (see
``docs/LDOPS.md`` for the precise bound and the clump bookkeeping
caveat).

Decisions are made from *exact integer joint counts* (the band
output), via the shared predicate :func:`r2_exceeds`:

    r^2 = (n c_ab - c_a c_b)^2 / (c_a (n - c_a) c_b (n - c_b))

evaluated as an exact integer numerator/denominator pair (a whole band
at a time by :func:`r2_exceeds_array`), so results are bit-identical
between chunked streaming and in-memory execution for every chunk size
-- a property the tests pin down against a naive dense reference.  A
site with zero variance (monomorphic) has an undefined r^2; it is
treated as 0 (never prunes, never absorbs, never is absorbed), matching
:attr:`~repro.core.ld.LDResult.r_squared`.

Rows of the streamed source are the *sites* being pruned/clumped
(columns are samples/observations) -- the transpose of a sample-major
:class:`~repro.snp.dataset.SNPDataset` matrix, exactly like
:class:`~repro.core.streaming.StreamingLD` with ``compare="samples"``
reads its entities.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.blis.gemm import bit_gemm_band
from repro.core.config import Algorithm
from repro.core.framework import SNPComparisonFramework
from repro.core.packing import pack_operand
from repro.errors import ConfigurationError, DatasetError
from repro.gpu.arch import GPUArchitecture
from repro.gpu.executor import price_kernel
from repro.gpu.kernel import KernelArgs
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
from repro.util.validation import check_binary_matrix

__all__ = [
    "Clump",
    "ClumpResult",
    "LDClumper",
    "LDPruner",
    "PruneResult",
    "ld_clump",
    "ld_prune",
    "r2_exceeds",
    "r2_exceeds_array",
]

#: Largest observation count :func:`r2_exceeds_array` evaluates in
#: int64: for realizable counts the numerator and the denominator are
#: each at most ``n^4 / 16``, which stays below ``2^53`` up to here, so
#: every int64 -> float64 cast is exact.
INT64_EXACT_MAX_OBS = 19_000


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


def r2_exceeds_array(
    c_ab: np.ndarray,
    c_a: np.ndarray,
    c_b: np.ndarray,
    n_obs: int,
    threshold: float,
    strict: bool,
) -> np.ndarray:
    """Element-wise :func:`r2_exceeds` over broadcast count arrays.

    Counts must be realizable (``max(0, c_a + c_b - n) <= c_ab <=
    min(c_a, c_b)``, as joint popcounts are).  Up to
    :data:`INT64_EXACT_MAX_OBS` observations the numerator and the
    denominator are exact int64 values below ``2^53``, so casting them
    to float64 and comparing against ``threshold * denominator`` gives
    exactly the decision of the scalar predicate's int/float
    comparison.  Above that bound the same arithmetic runs on Python
    integers (object arrays).
    """
    small = n_obs <= INT64_EXACT_MAX_OBS
    dtype = np.int64 if small else object
    c_ab, c_a, c_b = (np.asarray(c, dtype=dtype) for c in (c_ab, c_a, c_b))
    num_root = n_obs * c_ab - c_a * c_b
    num = num_root * num_root
    den = c_a * (n_obs - c_a) * c_b * (n_obs - c_b)
    if small:
        num, den = num.astype(np.float64), den.astype(np.float64)
    bound = threshold * den
    exceeds = num > bound if strict else num >= bound
    return np.asarray(exceeds, dtype=bool) & (den != 0)


def _check_site_chunk(name: str, chunk: np.ndarray, n_sites: int | None) -> np.ndarray:
    """Validate one site-major chunk (rows = sites, columns = samples)."""
    arr = check_binary_matrix(f"{name}: site-major chunk", np.ascontiguousarray(chunk))
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


def _ld_framework(
    name: str,
    device: str | GPUArchitecture,
    framework: SNPComparisonFramework | None,
) -> SNPComparisonFramework:
    """The LD framework whose device packs and prices the bands."""
    if framework is None:
        return SNPComparisonFramework(device, Algorithm.LD)
    if framework.algorithm is not Algorithm.LD:
        raise ConfigurationError(
            f"{name}: framework runs the {framework.algorithm.value!r} "
            f"algorithm; LD pruning and clumping need an 'ld' framework"
        )
    return framework


@dataclass
class _Stack:
    """One chunk stacked under the buffered window rows, plus its band."""

    #: Buffered rows, then the chunk's rows (site vectors).
    rows: np.ndarray
    #: Global site index of each stacked row (ascending).
    indices: np.ndarray
    #: Allele count of each stacked row.
    counts: np.ndarray
    #: How many buffered rows sit above the chunk: chunk row ``local``
    #: is stack row ``buffered + local``.
    buffered: int
    #: ``hits[local, d-1]``: the r^2 test passes between chunk row
    #: ``local`` and the stack row ``d`` positions above it (False
    #: where there is no such row).
    hits: np.ndarray


class _WindowBand:
    """Shared block-row machinery: buffered window rows + count band.

    Keeps the site vectors later sites may still pair with (the only
    input ever re-touched) and their global indices and allele counts.
    Each new chunk is stacked under them, packed once, and the chunk
    rows' first ``min(window, stack rows) - 1`` sub-diagonals are
    counted by :func:`~repro.blis.gemm.bit_gemm_band`.  Buffered rows
    are in ascending site order and no two rows are further apart in
    the stack than in sites, so the band holds every in-window pair of
    a chunk row; callers still filter by global site index.  Eviction
    keeps the buffer at most ``window - 1`` rows between chunks.
    """

    def __init__(self, window: int, framework: SNPComparisonFramework) -> None:
        self.window = window
        self.framework = framework
        self._rows: np.ndarray | None = None
        self._indices = np.empty(0, dtype=np.int64)
        self._counts = np.empty(0, dtype=np.int64)
        self.n_obs: int | None = None
        self.next_site = 0
        self.simulated_seconds = 0.0

    def stack(self, chunk: np.ndarray, r2: float, strict: bool) -> _Stack:
        """Stack, pack and band one validated chunk; decide r^2 on its band."""
        self.n_obs = int(chunk.shape[1])
        buffered = len(self._indices)
        counts = chunk.sum(axis=1, dtype=np.int64)
        rows = chunk if self._rows is None else np.concatenate([self._rows, chunk])
        # No two stack rows are more than len(rows) - 1 apart, so a
        # window wider than the stack adds no band column.
        width = min(self.window - 1, len(rows) - 1)
        indices = np.concatenate(
            [self._indices, np.arange(self.next_site, self.next_site + len(chunk))]
        )
        stack_counts = np.concatenate([self._counts, counts])
        packed = pack_operand(rows, word_bits=self.framework.arch.word_bits)
        band = bit_gemm_band(packed.words, width, start=buffered)
        partner = np.arange(buffered, len(rows))[:, None] - np.arange(1, width + 1)
        has_partner = partner >= 0
        hits = has_partner & r2_exceeds_array(
            band,
            stack_counts[np.where(has_partner, partner, 0)],
            counts[:, None],
            self.n_obs,
            r2,
            strict,
        )
        if width:
            args = KernelArgs(m=len(chunk), n=width, k=packed.k_words)
            self.simulated_seconds += price_kernel(self.framework.kernel, args).seconds
        return _Stack(rows, indices, stack_counts, buffered, hits)

    def retain(self, stack: _Stack, keep: np.ndarray) -> None:
        """Buffer the ``keep``-masked stack rows still inside a window.

        The next site to arrive is ``self.next_site``; it can only pair
        with indices ``>= next_site - window + 1``.
        """
        alive = keep & (stack.indices >= self.next_site - self.window + 1)
        self._rows = stack.rows[alive]
        self._indices = stack.indices[alive]
        self._counts = stack.counts[alive]


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
        Exact number of (new site, kept window site) pairs the greedy
        scan examined, stopping at the first blocker -- invariant under
        chunking.  The band decides r^2 for more cells than this.
    peak_window_sites:
        Largest number of kept sites simultaneously inside one window
        (including the site being decided), at most ``window``; it
        bounds the site rows buffered between chunks.  Invariant under
        chunking.
    simulated_seconds:
        Simulated device time of every count band, each priced as one
        ``(chunk rows, band width, words)`` kernel launch.
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
        framework: SNPComparisonFramework | None = None,
    ) -> None:
        _check_params("LDPruner", window, r2)
        self.window = window
        self.r2 = float(r2)
        self.framework = _ld_framework("LDPruner", device, framework)
        self._band = _WindowBand(window, self.framework)
        self._kept: list[int] = []
        self._pruned: list[int] = []
        self._blocker: list[int] = []
        self.pairs_tested = 0
        self.peak_window_sites = 0
        self._finalized = False

    @property
    def sites_seen(self) -> int:
        return self._band.next_site

    def add_chunk(self, chunk: np.ndarray) -> None:
        """Scan one block of site rows (global order = arrival order)."""
        if self._finalized:
            raise DatasetError("LDPruner: add_chunk after finalize")
        arr = _check_site_chunk("LDPruner.add_chunk", chunk, self._band.n_obs)
        if arr.shape[0] == 0:
            return
        if arr.shape[1] == 0:
            raise DatasetError(
                "LDPruner.add_chunk: chunk has zero observation columns; "
                "r^2 is undefined on zero observations"
            )
        base = self._band.next_site
        stack = self._band.stack(arr, self.r2, strict=True)
        # Kept sites of the trailing window, oldest first: (global
        # index, stack row).  Only kept rows are buffered.
        window_kept = deque(
            zip(stack.indices[: stack.buffered].tolist(), range(stack.buffered))
        )
        keep = np.zeros(len(stack.indices), dtype=bool)
        keep[: stack.buffered] = True
        tested = 0
        for local, hits in enumerate(stack.hits.tolist()):
            g = base + local
            q = stack.buffered + local
            while window_kept and window_kept[0][0] <= g - self.window:
                window_kept.popleft()
            blocked_by = -1
            for other_g, p in window_kept:
                tested += 1
                if hits[q - p - 1]:
                    blocked_by = other_g
                    break
            if blocked_by >= 0:
                self._pruned.append(g)
                self._blocker.append(blocked_by)
            else:
                self._kept.append(g)
                keep[q] = True
                window_kept.append((g, q))
            self.peak_window_sites = max(self.peak_window_sites, len(window_kept))
        self.pairs_tested += tested
        self._band.next_site = base + arr.shape[0]
        self._band.retain(stack, keep)

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
            simulated_seconds=self._band.simulated_seconds,
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
        self.r2 = float(r2)
        self.scores = score_arr
        self.framework = _ld_framework("LDClumper", device, framework)
        self._band = _WindowBand(window, self.framework)
        self._pending: dict[int, _PendingSite] = {}
        #: site -> absorbing index variant (== site for index variants).
        self._assignment: dict[int, int] = {}
        self.pairs_tested = 0
        self.peak_window_sites = 0
        self._finalized = False

    @property
    def sites_seen(self) -> int:
        return self._band.next_site

    def _rank(self, site: int) -> tuple[float, int]:
        return (-float(self.scores[site]), site)

    def add_chunk(self, chunk: np.ndarray) -> None:
        """Fold one block of site rows into the pending clump state."""
        if self._finalized:
            raise DatasetError("LDClumper: add_chunk after finalize")
        arr = _check_site_chunk("LDClumper.add_chunk", chunk, self._band.n_obs)
        if arr.shape[0] == 0:
            return
        if arr.shape[1] == 0:
            raise DatasetError(
                "LDClumper.add_chunk: chunk has zero observation columns; "
                "r^2 is undefined on zero observations"
            )
        base = self._band.next_site
        n_new = arr.shape[0]
        if base + n_new > self.scores.shape[0]:
            raise DatasetError(
                f"LDClumper.add_chunk: streamed sites exceed the "
                f"{self.scores.shape[0]} supplied scores "
                f"(chunk covers sites {base}..{base + n_new - 1})"
            )
        stack = self._band.stack(arr, self.r2, strict=False)
        # Every row is buffered, so the stack is contiguous in sites:
        # hits[local, d-1] pairs site base + local with the site d
        # earlier.  Edges are listed oldest neighbor first.
        width = stack.hits.shape[1]
        edges: list[list[int]] = [[] for _ in range(n_new)]
        rows, cols = np.nonzero(stack.hits[:, ::-1])
        for local, col in zip(rows.tolist(), cols.tolist()):
            edges[local].append(base + local - (width - col))
        for local in range(n_new):
            g = base + local
            for other_g in edges[local]:
                other = self._pending.get(other_g)
                if other is not None:
                    other.edges.append(g)
            self._pending[g] = _PendingSite(site=g, edges=edges[local])
        sites = np.arange(base, base + n_new)
        self.pairs_tested += int(np.minimum(sites, self.window - 1).sum())
        self._band.next_site = base + n_new
        window_rows = min(self._band.next_site, self.window)
        self.peak_window_sites = max(self.peak_window_sites, window_rows)
        self._band.retain(stack, np.ones(len(stack.indices), dtype=bool))
        self._resolve(complete_before=self._band.next_site - self.window + 1)

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
            self._resolve(complete_before=self._band.next_site)
            assert not self._pending, "clump resolution did not converge"
            self._finalized = True
            counters = get_tracer().counters
            n = self._band.next_site
            n_index = sum(1 for s, a in self._assignment.items() if s == a)
            counters.add(LDOPS_SITES_SEEN, n)
            counters.add(LDOPS_CLUMPS_FORMED, n_index)
            counters.add(LDOPS_SITES_ABSORBED, n - n_index)
            counters.add(LDOPS_PAIRS_TESTED, self.pairs_tested)
            counters.add(LDOPS_WINDOW_PEAK_SITES, self.peak_window_sites)
        n = self._band.next_site
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
            simulated_seconds=self._band.simulated_seconds,
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
    framework: SNPComparisonFramework | None = None,
) -> PruneResult:
    """Stream a site-major source through :class:`LDPruner` once.

    ``source`` is anything
    :func:`repro.io_stream.sources.as_chunk_source` accepts; rows are
    the sites scanned in order.  Chunk boundaries never change the
    result (bit-identical kept sets for every ``chunk_rows``).
    """
    pruner = LDPruner(window, r2, device=device, framework=framework)
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
    framework: SNPComparisonFramework | None = None,
) -> ClumpResult:
    """Stream a site-major source through :class:`LDClumper` once.

    ``scores`` must supply one finite score per streamed site; a
    mismatch raises :class:`~repro.errors.DatasetError` (too few scores
    as soon as a chunk overruns them, too many at finalize).
    """
    clumper = LDClumper(window, r2, scores, device=device, framework=framework)
    stats = _drive(clumper, source, chunk_rows, prefetch, "clump")
    if clumper.sites_seen != clumper.scores.shape[0]:
        raise DatasetError(
            f"ld_clump: {clumper.scores.shape[0]} scores supplied but the "
            f"source streamed {clumper.sites_seen} sites"
        )
    result = clumper.finalize()
    result.stream_stats = stats
    return result
