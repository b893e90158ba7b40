"""LD prune and clump on the native band (``cnative``).

Re-collects the dense-oracle tests of ``tests/test_ldops.py`` with
their ``band_backend`` fixture pinned to a loaded ``cnative`` library,
so each runs the library's fused prune scan and band-hits pass; every
test here skips where no hardware-popcount body loads.  Adds the
agreement of the two band paths -- every result field and every
``gemm.*`` / ``ldops.*`` counter -- on the edge shapes, and the C
predicate against :func:`repro.core.ldops.r2_exceeds` at extreme counts
on both sides of the int64 bound.
"""

import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest

from repro.core.ldops import INT64_EXACT_MAX_OBS, ld_clump, ld_prune, r2_exceeds
from tests import test_ldops as oracle
from tests.test_ldops import (
    _correlated_panel,
    _dense_clump,
    _dense_prune,
    _same_on_both_paths,
)

# The dense-oracle tests, collected here once more with this module's
# ``band_backend``; ``tracer`` is the fixture one of them takes.
tracer = oracle.tracer
test_prune_chunked_matches_dense_reference = (
    oracle.test_prune_chunked_matches_dense_reference
)
test_clump_chunked_matches_dense_reference = (
    oracle.test_clump_chunked_matches_dense_reference
)
test_clump_tie_break_by_site_order_chunk_invariant = (
    oracle.test_clump_tie_break_by_site_order_chunk_invariant
)
test_prune_and_clump_window_far_above_sites = (
    oracle.test_prune_and_clump_window_far_above_sites
)
test_prune_and_clump_above_int64_bound_match_dense_reference = (
    oracle.test_prune_and_clump_above_int64_bound_match_dense_reference
)
test_prune_and_clump_past_int64_products_match_dense_reference = (
    oracle.test_prune_and_clump_past_int64_products_match_dense_reference
)


@pytest.fixture
def band_backend(pin_native):
    """The ``cnative`` band, on a freshly loaded library."""
    pin_native(True)
    return "cnative"


def _tie_threshold(sites, window):
    """An r^2 some in-window pair reaches exactly in float arithmetic
    (``threshold * den == num``), strictly between 0 and 1 when there is
    one: the strict test and the inclusive one differ there."""
    joint = sites.astype(np.int64) @ sites.T.astype(np.int64)
    counts = sites.sum(axis=1).tolist()
    n = sites.shape[1]
    for i, j in itertools.combinations(range(sites.shape[0]), 2):
        if j - i >= window:
            continue
        num = (n * int(joint[i, j]) - counts[i] * counts[j]) ** 2
        den = counts[i] * (n - counts[i]) * counts[j] * (n - counts[j])
        if den and 0 < num < den:
            threshold = float(Fraction(num, den))
            if threshold * den == num:
                return threshold
    return 1.0


def _edge_panel(n_bits):
    """Near-duplicate rows, exact duplicates (r^2 = 1) and monomorphic
    rows (all 0, all 1: r^2 undefined, treated as 0)."""
    sites = _correlated_panel(24, n_bits, seed=n_bits, copy_every=2)
    sites[5] = sites[4]
    sites[9] = 0
    sites[10] = 1
    sites[17] = 1
    return sites


@pytest.mark.parametrize("r2", ["0", "1", "tie"])
@pytest.mark.parametrize("n_bits", [1, 63, 64, 65])
def test_band_paths_agree_on_edge_shapes(pin_native, n_bits, r2):
    pin_native(True)
    sites = _edge_panel(n_bits)
    n_sites = sites.shape[0]
    scores = np.round(np.random.default_rng(n_bits).random(n_sites) * 4)
    # Each chunk size and each window at least once: one-row chunks
    # under a window wider than the panel, chunk boundaries inside a
    # two-site window, the whole panel at once with and without pairs.
    for chunk_rows, window in ((1, 3 * n_sites), (7, 2), (n_sites, 1), (n_sites, 2)):
        threshold = {"0": 0.0, "1": 1.0, "tie": _tie_threshold(sites, window)}[r2]
        kept, pruned, blocker = _dense_prune(sites, window, threshold)
        assignment, _ = _dense_clump(sites, scores, window, threshold)
        result = _same_on_both_paths(
            functools.partial(
                ld_prune, sites, window, threshold, chunk_rows, prefetch=False
            )
        )
        assert result.kept.tolist() == kept
        assert result.pruned.tolist() == pruned
        assert result.blocker.tolist() == blocker
        result = _same_on_both_paths(
            functools.partial(
                ld_clump, sites, scores, window, threshold, chunk_rows,
                prefetch=False,
            )
        )
        assert result.assignment.tolist() == assignment.tolist()


def _pair_rows(n, triples):
    """Packed rows ``[a_0, b_0, a_1, b_1, ...]`` over ``n`` bits with
    ``popcount(a_i) = c_a``, ``popcount(b_i) = c_b`` and ``popcount(a_i &
    b_i) = c_ab`` for each ``(c_ab, c_a, c_b)``."""
    rows = []
    for c_ab, c_a, c_b in triples:
        a = np.zeros(n, dtype=bool)
        a[:c_a] = True
        b = np.zeros(n, dtype=bool)
        b[:c_ab] = True
        b[c_a : c_a + c_b - c_ab] = True
        for bits in (a, b):
            packed = np.packbits(bits, bitorder="little")
            rows.append(np.pad(packed, (0, -packed.size % 8)).view(np.uint64))
    return np.vstack(rows)


@pytest.mark.parametrize(
    "n", [INT64_EXACT_MAX_OBS, INT64_EXACT_MAX_OBS + 1, 131_075]
)
def test_native_predicate_matches_r2_exceeds_at_extreme_counts(pin_native, n):
    # Allele counts at both ends and the middle, joint counts at the
    # edges of their realizable range, thresholds near 1 and at exact
    # r^2 values: the int64 path's largest exact values (n = 19,000),
    # and the __int128 path past 2^63 (n^4 / 16 > 2^63 at 131,075).
    native = pin_native(True)
    half = n // 2
    marginals = [0, 1, 2, half - 1, half, half + 1, n - 2, n - 1, n]
    triples = []
    for c_a, c_b in itertools.product(marginals, repeat=2):
        lo, hi = max(0, c_a + c_b - n), min(c_a, c_b)
        joints = {lo, lo + 1, (lo + hi) // 2, hi - 1, hi}
        triples += [(c, c_a, c_b) for c in sorted(joints) if lo <= c <= hi]
    rows = _pair_rows(n, triples)
    counts = np.array([c for _, c_a, c_b in triples for c in (c_a, c_b)])
    exact = [
        float(Fraction((n * x - y * z) ** 2, y * (n - y) * z * (n - z)))
        for x, y, z in triples[::11]
        if y * (n - y) * z * (n - z)
    ]
    near_one = [1.0, np.nextafter(1.0, 0.0), 1.0 - 1e-12, 0.999999]
    for threshold, strict in itertools.product(
        [0.0, 0.2, 0.5, *near_one, *exact], (True, False)
    ):
        hits = native.band_hits(rows, counts, 0, 1, n, threshold, strict)
        want = [r2_exceeds(*t, n, threshold, strict) for t in triples]
        assert hits[1::2, 0].tolist() == want, (n, threshold, strict)
