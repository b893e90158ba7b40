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
uses) as packed words -- a ``.snpbin``'s own words, any other source
checked and packed once per chunk on the prefetch thread -- stacks the
chunk's words under the buffered window rows (kept packed) and counts
only the *window band* of the stack's self-comparison: the joint counts
of every chunk row with the (at most ``window - 1``) stack rows above
it.  Resident LD state is therefore ``O(chunk * window)`` counts plus
at most ``window - 1`` buffered site vectors, regardless of panel size
(see ``docs/LDOPS.md`` for the precise bound and the clump bookkeeping
caveat).

Decisions are made from *exact integer joint counts* via the shared
predicate :func:`r2_exceeds`:

    r^2 = (n c_ab - c_a c_b)^2 / (c_a (n - c_a) c_b (n - c_b))

evaluated as an exact integer numerator/denominator pair, so results
are bit-identical between chunked streaming and in-memory execution for
every chunk size -- a property the tests pin down against a naive dense
reference.  A site with zero variance (monomorphic) has an undefined
r^2; it is treated as 0 (never prunes, never absorbs, never is
absorbed), matching :attr:`~repro.core.ld.LDResult.r_squared`.

Each band runs where the one shape rule,
:func:`~repro.kernels.pick_backend` on ``(chunk rows, band width,
words)`` and the framework's backend, sends it.  On ``cnative`` the
native library decides it in C: the pruner's greedy scan counts each
pair it tests on demand and stops at a site's first blocker
(:meth:`~repro.kernels.cnative_backend.CNativeBackend.prune_scan`), and
the clumper gets the band's hits bitmap
(:meth:`~repro.kernels.cnative_backend.CNativeBackend.band_hits`).  On
any other backend :func:`~repro.blis.gemm.bit_gemm_band` counts the
band, :func:`r2_exceeds_array` decides it and the scans run in Python.
Both paths give the same decisions, counters and simulated time.

Rows of the streamed source are the *sites* being pruned/clumped
(columns are samples/observations) -- the transpose of a sample-major
:class:`~repro.snp.dataset.SNPDataset` matrix, exactly like
:class:`~repro.core.streaming.StreamingLD` with ``compare="samples"``
reads its entities.
"""

from __future__ import annotations

from collections import deque
from contextlib import AbstractContextManager
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.blis.gemm import bit_gemm_band, counted_band
from repro.core.framework import SNPComparisonFramework
from repro.core.ld import ld_framework
from repro.core.packing import PackedOperand, pack_operand
from repro.errors import DatasetError
from repro.gpu.arch import GPUArchitecture
from repro.gpu.executor import price_kernel
from repro.gpu.kernel import KernelArgs
from repro.io_stream.prefetch import StreamStats
from repro.io_stream.sources import ChunkSource, as_chunk_source
from repro.kernels import get_backend, pick_backend
from repro.kernels.cnative_backend import CNativeBackend
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
from repro.util.bitops import popcount
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


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    """Per-chunk site arrays as one int64 array."""
    return np.concatenate([np.empty(0, dtype=np.int64), *parts])


def _check_params(name: str, window: int, r2: float) -> None:
    if window < 1:
        raise DatasetError(f"{name}: window must be >= 1, got {window}")
    if not (0.0 <= r2 <= 1.0):
        raise DatasetError(f"{name}: r2 threshold must be in [0, 1], got {r2}")


@dataclass
class _Stack:
    """One chunk stacked under the buffered window rows."""

    #: Buffered rows, then the chunk's rows (packed site vectors).
    rows: np.ndarray
    #: Global site index of each stacked row (ascending).
    indices: np.ndarray
    #: Allele count of each stacked row.
    counts: np.ndarray
    #: How many buffered rows sit above the chunk: chunk row ``local``
    #: is stack row ``buffered + local``.
    buffered: int
    #: Band columns: each chunk row pairs with at most this many rows
    #: above it.
    width: int
    #: Observation columns of every row.
    n_obs: int
    #: The library that decides this band, or ``None`` for the NumPy
    #: band and the Python scans.
    native: CNativeBackend | None


class _WindowBand:
    """Shared block-row machinery: buffered window rows + count band.

    Keeps the packed site vectors later sites may still pair with (the
    only input ever re-touched) and their global indices and allele
    counts.  Each new packed chunk is stacked under them; the band is
    the chunk rows' first ``min(window, stack rows) - 1`` sub-diagonals.
    Buffered rows are in ascending site order and no two rows are
    further apart in the stack than in sites, so the band holds every
    in-window pair of a chunk row; callers still filter by global site
    index.  Eviction keeps the buffer at most ``window - 1`` rows
    between chunks.

    :meth:`stack` asks the one shape rule where the band runs: on
    ``cnative`` (loaded, and its exact r^2 test covering the chunk's
    observation count) the library decides it, counted by
    :meth:`native_call`; otherwise :meth:`hits` counts it with
    :func:`~repro.blis.gemm.bit_gemm_band` and decides it with
    :func:`r2_exceeds_array`.
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

    def _check_columns(self, name: str, n_obs: int) -> None:
        if self.n_obs is not None and n_obs != self.n_obs:
            raise DatasetError(
                f"{name}: chunk has {n_obs} observation columns, "
                f"earlier chunks had {self.n_obs}"
            )

    def pack(self, name: str, chunk: np.ndarray) -> PackedOperand | None:
        """Check one site-major bits chunk (rows = sites, columns =
        samples) and pack it; ``None`` for a chunk without rows."""
        arr = check_binary_matrix(f"{name}: site-major chunk", chunk)
        self._check_columns(name, int(arr.shape[1]))
        if arr.shape[0] == 0:
            return None
        return pack_operand(arr, word_bits=self.framework.arch.word_bits)

    def admit(self, name: str, chunk: PackedOperand) -> None:
        """Reject a packed chunk the band cannot decide r^2 on."""
        self._check_columns(name, chunk.n_bits)
        if chunk.n_bits == 0:
            raise DatasetError(
                f"{name}: chunk has zero observation columns; "
                f"r^2 is undefined on zero observations"
            )

    def stack(self, chunk: PackedOperand) -> _Stack:
        """Stack one admitted chunk, price its band and pick its path."""
        self.n_obs = chunk.n_bits
        words = chunk.words[: chunk.n_rows]
        buffered = len(self._indices)
        counts = popcount(words).sum(axis=1)
        rows = words if self._rows is None else np.concatenate([self._rows, words])
        # No two stack rows are more than len(rows) - 1 apart, so a
        # window wider than the stack adds no band column.
        width = min(self.window - 1, len(rows) - 1)
        indices = np.concatenate(
            [self._indices, np.arange(self.next_site, self.next_site + len(words))]
        )
        stack_counts = np.concatenate([self._counts, counts])
        if width:
            args = KernelArgs(m=len(words), n=width, k=chunk.k_words)
            self.simulated_seconds += price_kernel(self.framework.kernel, args).seconds
        native = None
        name = pick_backend(len(words), width, chunk.k_words, self.framework.backend)
        if name == CNativeBackend.name:
            backend = get_backend(name)
            if isinstance(backend, CNativeBackend) and chunk.n_bits <= backend.ld_max_obs:
                native = backend
        return _Stack(rows, indices, stack_counts, buffered, width, chunk.n_bits, native)

    def native_call(self, stack: _Stack) -> AbstractContextManager[None]:
        """Count the band the library decides, timed under ``gemm.backend``."""
        return counted_band(
            len(stack.rows), stack.width, stack.buffered, stack.rows.shape[1],
            backend=CNativeBackend.name,
        )

    def hits(self, stack: _Stack, r2: float, strict: bool) -> np.ndarray:
        """The decided band: ``hits[local, d-1]`` is whether the r^2 test
        passes between chunk row ``local`` and the stack row ``d``
        positions above it (False where there is no such row)."""
        if stack.native is not None:
            with self.native_call(stack):
                return stack.native.band_hits(
                    stack.rows, stack.counts, stack.buffered, stack.width,
                    stack.n_obs, r2, strict,
                )
        band = bit_gemm_band(stack.rows, stack.width, start=stack.buffered)
        partner = (
            np.arange(stack.buffered, len(stack.rows))[:, None]
            - np.arange(1, stack.width + 1)
        )
        has_partner = partner >= 0
        return has_partner & r2_exceeds_array(
            band,
            stack.counts[np.where(has_partner, partner, 0)],
            stack.counts[stack.buffered :, None],
            stack.n_obs,
            r2,
            strict,
        )

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
        chunking.  The NumPy band decides r^2 for more cells than this;
        the native fused scan evaluates exactly these pairs.
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
        self.framework = ld_framework("LDPruner", framework, device)
        self._band = _WindowBand(window, self.framework)
        # One array per chunk, joined at finalize.
        self._kept: list[np.ndarray] = []
        self._pruned: list[np.ndarray] = []
        self._blocker: list[np.ndarray] = []
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
        packed = self._band.pack("LDPruner.add_chunk", chunk)
        if packed is not None:
            self._add_packed(packed)

    def _add_packed(self, chunk: PackedOperand) -> None:
        """Scan one packed block of site rows."""
        self._band.admit("LDPruner.add_chunk", chunk)
        stack = self._band.stack(chunk)
        if stack.native is None:
            keep, blocker, tested, peak = self._scan(
                stack, self._band.hits(stack, self.r2, strict=True)
            )
        else:
            with self._band.native_call(stack):
                keep, blocker, tested, peak = stack.native.prune_scan(
                    stack.rows, stack.indices, stack.counts, stack.buffered,
                    self.window, stack.n_obs, self.r2,
                )
        sites = stack.indices[stack.buffered :]
        kept = keep[stack.buffered :]
        self._kept.append(sites[kept])
        self._pruned.append(sites[~kept])
        self._blocker.append(blocker[~kept])
        self.pairs_tested += tested
        self.peak_window_sites = max(self.peak_window_sites, peak)
        self._band.next_site += chunk.n_rows
        self._band.retain(stack, keep)

    def _scan(
        self, stack: _Stack, hits: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, int, int]:
        """The greedy scan over a decided band, in Python.

        Returns what
        :meth:`~repro.kernels.cnative_backend.CNativeBackend.prune_scan`
        returns: the keep mask per stack row, the blocking site per
        chunk row (-1 where kept), the pairs tested and the peak window.
        """
        # Kept sites of the trailing window, oldest first: (global
        # index, stack row).  Only kept rows are buffered.
        window_kept = deque(
            zip(stack.indices[: stack.buffered].tolist(), range(stack.buffered))
        )
        keep = np.zeros(len(stack.indices), dtype=bool)
        keep[: stack.buffered] = True
        blocker = np.full(len(stack.indices) - stack.buffered, -1, dtype=np.int64)
        tested = peak = 0
        sites = stack.indices[stack.buffered :].tolist()
        for local, (g, row_hits) in enumerate(zip(sites, hits.tolist())):
            q = stack.buffered + local
            while window_kept and window_kept[0][0] <= g - self.window:
                window_kept.popleft()
            for other_g, p in window_kept:
                tested += 1
                if row_hits[q - p - 1]:
                    blocker[local] = other_g
                    break
            else:
                keep[q] = True
                window_kept.append((g, q))
            peak = max(peak, len(window_kept))
        return keep, blocker, tested, peak

    def finalize(self) -> PruneResult:
        """Close the stream and return the result (idempotent counters)."""
        if not self._finalized:
            self._finalized = True
            counters = get_tracer().counters
            counters.add(LDOPS_SITES_SEEN, self.sites_seen)
            counters.add(LDOPS_SITES_KEPT, sum(map(len, self._kept)))
            counters.add(LDOPS_SITES_PRUNED, sum(map(len, self._pruned)))
            counters.add(LDOPS_PAIRS_TESTED, self.pairs_tested)
            counters.add(LDOPS_WINDOW_PEAK_SITES, self.peak_window_sites)
        return PruneResult(
            kept=_joined(self._kept),
            pruned=_joined(self._pruned),
            blocker=_joined(self._blocker),
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
        self.framework = ld_framework("LDClumper", framework, device)
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
        packed = self._band.pack("LDClumper.add_chunk", chunk)
        if packed is not None:
            self._add_packed(packed)

    def _add_packed(self, chunk: PackedOperand) -> None:
        """Fold one packed block of site rows into the clump state."""
        self._band.admit("LDClumper.add_chunk", chunk)
        base = self._band.next_site
        n_new = chunk.n_rows
        if base + n_new > self.scores.shape[0]:
            raise DatasetError(
                f"LDClumper.add_chunk: streamed sites exceed the "
                f"{self.scores.shape[0]} supplied scores "
                f"(chunk covers sites {base}..{base + n_new - 1})"
            )
        stack = self._band.stack(chunk)
        hits = self._band.hits(stack, self.r2, strict=False)
        # Every row is buffered, so the stack is contiguous in sites:
        # hits[local, d-1] pairs site base + local with the site d
        # earlier.  Edges are listed oldest neighbor first.
        width = stack.width
        edges: list[list[int]] = [[] for _ in range(n_new)]
        rows, cols = np.nonzero(hits[:, ::-1])
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
        becomes an index variant itself.  Only a complete site settles,
        so visiting the complete sites once in rank order visits every
        better-ranked neighbor that can settle now before the site
        itself: one pass settles all that can.
        """
        complete = sorted(
            (g for g in self._pending if g < complete_before), key=self._rank
        )
        for g in complete:
            my_rank = self._rank(g)
            better = [e for e in self._pending[g].edges if self._rank(e) < my_rank]
            if any(e not in self._assignment for e in better):
                continue
            absorbers = [e for e in better if self._assignment[e] == e]
            self._assignment[g] = min(absorbers, key=self._rank) if absorbers else g
            del self._pending[g]

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
    """Stream a whole source through one operator as packed words (no
    row padding: the band stacks rows), with retry and spans."""
    # Imported here to keep module import light and avoid a cycle at
    # type-check time (streaming imports ld, which shares this package).
    from repro.core.streaming import _consume

    if chunk_rows < 1:
        raise DatasetError(f"ld {workload}: chunk_rows must be >= 1")
    return _consume(
        as_chunk_source(source).packed(operator.framework.arch.word_bits),
        chunk_rows, prefetch, workload, operator._add_packed,
    )


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
