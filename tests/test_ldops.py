"""Tests for repro.core.ldops -- streaming LD pruning and clumping.

Property-tests the central bit-exactness claims (chunked streaming ==
in-memory == brute-force dense reference, for every chunk size
including 1 and larger than the input), the vectorized r^2 predicate
against the scalar one, tie-breaking by site order, the O(window)
resident-state bound and its exact counters, input validation, and the
CLI subcommands.  Also carries the regression tests for the satellite
fixes in the LD/mixture stats layer.

The dense-oracle tests take the ``band_backend`` fixture: here it is
``numpy`` (the NumPy band and the Python scans);
``tests/test_ldops_native.py`` re-collects them on ``cnative`` (the
library's fused prune scan and band-hits pass).
"""

import itertools
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ld import LDResult, linkage_disequilibrium
from repro.core.config import Algorithm
from repro.core.framework import SNPComparisonFramework
from repro.core.ldops import (
    INT64_EXACT_MAX_OBS,
    LDClumper,
    LDPruner,
    ld_clump,
    ld_prune,
    r2_exceeds,
    r2_exceeds_array,
)
from repro.core.mixture import mixture_analysis
from repro.core.profiles import RunReport
from repro.core.streaming import StreamingLD
from repro.errors import ConfigurationError, DatasetError
from repro.io_stream import write_snpbin
from repro.observability.tracer import Tracer, set_tracer


@pytest.fixture
def tracer():
    """Install a fresh process tracer for one test."""
    t = Tracer()
    previous = set_tracer(t)
    yield t
    set_tracer(previous)


@pytest.fixture
def band_backend():
    """The framework backend the dense-oracle tests run the band on."""
    return "numpy"


def _framework(backend, device="Titan V"):
    """An LD framework whose bands take ``backend``'s path."""
    return SNPComparisonFramework(device, Algorithm.LD, backend=backend)


#: Hypothesis settings of the dense-oracle tests: ``band_backend`` is
#: the same for every example, so a function-scoped fixture is safe.
ORACLE_SETTINGS = {
    "deadline": None,
    "suppress_health_check": [HealthCheck.function_scoped_fixture],
}


def _correlated_panel(n_sites, n_obs, seed=0, copy_every=3):
    """A binary site-major panel with deliberate near-duplicate rows."""
    rng = np.random.default_rng(seed)
    sites = rng.integers(0, 2, size=(n_sites, n_obs), dtype=np.uint8)
    for i in range(1, n_sites):
        if i % copy_every == 0:
            sites[i] = sites[i - 1]
            flips = rng.integers(0, n_obs, size=max(1, n_obs // 16))
            sites[i, flips] ^= 1
    return sites


def _dense_counts(sites):
    # Allele counts as Python ints: the predicate's products must not
    # wrap at 2^63 on wide panels.
    wide = sites.astype(np.int64)
    return wide @ wide.T, sites.sum(axis=1).tolist(), int(sites.shape[1])


def _dense_prune(sites, window, r2):
    """Brute-force greedy pruning over the full dense count matrix."""
    joint, counts, n_obs = _dense_counts(sites)
    kept, pruned, blocker = [], [], []
    for i in range(sites.shape[0]):
        hit = -1
        for j in kept:
            if i - j > window - 1:
                continue
            if r2_exceeds(
                int(joint[i, j]), counts[j], counts[i], n_obs, r2, strict=True
            ):
                hit = j
                break
        if hit >= 0:
            pruned.append(i)
            blocker.append(hit)
        else:
            kept.append(i)
    return kept, pruned, blocker


def _dense_clump(sites, scores, window, r2):
    """Brute-force rank-order greedy clumping (PLINK --clump style)."""
    joint, counts, n_obs = _dense_counts(sites)
    n = sites.shape[0]
    rank = lambda s: (-float(scores[s]), s)  # noqa: E731
    assignment = np.full(n, -1, dtype=np.int64)
    index_sites = []
    for s in sorted(range(n), key=rank):
        absorbers = [
            j
            for j in index_sites
            if abs(s - j) <= window - 1
            and r2_exceeds(
                int(joint[s, j]), counts[j], counts[s], n_obs, r2, strict=False
            )
        ]
        if absorbers:
            assignment[s] = min(absorbers, key=rank)
        else:
            assignment[s] = s
            index_sites.append(s)
    return assignment, index_sites


def _run(backend, op, device):
    """``op(framework=...)`` on ``backend``'s band under a fresh tracer:
    the result, its ``gemm.*`` / ``ldops.*`` counters and the backends
    its ``gemm.backend`` spans name."""
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        result = op(framework=_framework(backend, device))
    finally:
        set_tracer(previous)
    counters = {
        name: value
        for name, value in tracer.counters.snapshot().items()
        if name.startswith(("gemm.", "ldops."))
    }
    spans = {
        record.attrs["backend"]
        for record in tracer.spans()
        if record.name == "gemm.backend"
    }
    return result, counters, spans


def _same_on_both_paths(op, device="Titan V"):
    """``op`` on the NumPy band and on the C band (which needs a loaded
    ``cnative``): every result field and every ``gemm.*`` / ``ldops.*``
    counter must agree.  Returns the C band's result."""
    numpy_result, numpy_counters, numpy_spans = _run("numpy", op, device)
    native_result, native_counters, native_spans = _run("cnative", op, device)
    assert _fields(native_result) == _fields(numpy_result)
    assert native_counters == numpy_counters
    assert numpy_spans == {"band"} and native_spans == {"cnative"}
    return native_result


def _fields(result):
    """Every result field but the I/O timings."""
    return {
        name: value.tolist() if isinstance(value, np.ndarray) else value
        for name, value in vars(result).items()
        if name != "stream_stats"
    }


def _chunks(sites, chunk_rows):
    for start in range(0, sites.shape[0], chunk_rows):
        yield sites[start : start + chunk_rows]


# ---------------------------------------------------------------------------
# r2_exceeds
# ---------------------------------------------------------------------------


def test_r2_exceeds_matches_float_formula():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        c_a = int(rng.integers(0, n + 1))
        c_b = int(rng.integers(0, n + 1))
        c_ab = int(rng.integers(0, min(c_a, c_b) + 1))
        den = c_a * (n - c_a) * c_b * (n - c_b)
        if den == 0:
            assert not r2_exceeds(c_ab, c_a, c_b, n, 0.0, strict=False)
            continue
        r2 = (n * c_ab - c_a * c_b) ** 2 / den
        for thr in (0.0, 0.2, 0.5, r2):
            assert r2_exceeds(c_ab, c_a, c_b, n, thr, strict=True) == (
                (n * c_ab - c_a * c_b) ** 2 > thr * den
            )
            assert r2_exceeds(c_ab, c_a, c_b, n, thr, strict=False) == (
                (n * c_ab - c_a * c_b) ** 2 >= thr * den
            )


def test_r2_exceeds_no_overflow_at_large_n():
    # (n * c_ab)^2 overflows int64 for n ~ 10^7; the exact-integer
    # predicate must not.
    n = 10_000_000
    c = n // 2
    assert r2_exceeds(c, c, c, n, 0.999, strict=True)
    assert not r2_exceeds(c // 2, c, c, n, 0.5, strict=True)


def test_r2_exceeds_monomorphic_is_false():
    assert not r2_exceeds(5, 5, 3, 5, 0.0, strict=False)  # c_a == n
    assert not r2_exceeds(0, 0, 3, 5, 0.0, strict=False)  # c_a == 0


def _assert_array_matches_scalar(c_ab, c_a, c_b, n, thresholds):
    for thr, strict in itertools.product(thresholds, (True, False)):
        got = r2_exceeds_array(c_ab, c_a, c_b, n, thr, strict)
        want = [
            r2_exceeds(int(x), int(y), int(z), n, thr, strict)
            for x, y, z in zip(c_ab, c_a, c_b)
        ]
        assert got.dtype == bool
        assert got.tolist() == want, (n, thr, strict)


def test_r2_exceeds_array_exhaustive_small_n():
    for n in range(1, 11):
        triples = np.array(list(itertools.product(range(n + 1), repeat=3)))
        c_ab, c_a, c_b = triples.T
        # Every exact r^2 value of the grid is a threshold too, so the
        # strict/inclusive boundary is hit exactly.
        exact = {
            (n * x - y * z) ** 2 / (y * (n - y) * z * (n - z))
            for x, y, z in triples.tolist()
            if y * (n - y) * z * (n - z)
        }
        thresholds = sorted({0.0, 0.1, 0.2, 0.5, 0.8, 1.0} | exact)
        _assert_array_matches_scalar(c_ab, c_a, c_b, n, thresholds)


@pytest.mark.parametrize(
    "n", [INT64_EXACT_MAX_OBS, INT64_EXACT_MAX_OBS + 1, 10_000_000]
)
def test_r2_exceeds_array_extreme_counts(n):
    # Allele counts at both ends and the middle, joint counts at the
    # edges of their realizable range: the largest numerators and
    # denominators the int64 path (n = 19,000) must keep exact, and
    # the object-array path beyond it.
    half = n // 2
    marginals = [0, 1, 2, half - 1, half, half + 1, n - 2, n - 1, n]
    rows = []
    for c_a, c_b in itertools.product(marginals, repeat=2):
        lo, hi = max(0, c_a + c_b - n), min(c_a, c_b)
        for c_ab in {lo, lo + 1, (lo + hi) // 2, hi - 1, hi}:
            if lo <= c_ab <= hi:
                rows.append((c_ab, c_a, c_b))
    c_ab, c_a, c_b = np.array(rows, dtype=np.int64).T
    near_one = [1.0, np.nextafter(1.0, 0.0), 1.0 - 1e-12, 0.999999]
    exact = [
        (n * x - y * z) ** 2 / (y * (n - y) * z * (n - z))
        for x, y, z in rows[::7]
        if y * (n - y) * z * (n - z)
    ]
    thresholds = [0.0, 0.2, 0.5, *near_one, *exact]
    _assert_array_matches_scalar(c_ab, c_a, c_b, n, thresholds)


# ---------------------------------------------------------------------------
# pruning: chunked == in-memory == dense reference
# ---------------------------------------------------------------------------


@settings(max_examples=20, **ORACLE_SETTINGS)
@given(
    seed=st.integers(0, 10_000),
    n_sites=st.integers(1, 28),
    n_obs=st.integers(1, 40),
    window=st.integers(1, 12),
    r2=st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.8, 1.0]),
    chunk_rows=st.integers(1, 32),
)
def test_prune_chunked_matches_dense_reference(
    band_backend, seed, n_sites, n_obs, window, r2, chunk_rows
):
    sites = _correlated_panel(n_sites, n_obs, seed=seed)
    result = ld_prune(
        sites, window, r2, chunk_rows=chunk_rows,
        framework=_framework(band_backend),
    )
    kept, pruned, blocker = _dense_prune(sites, window, r2)
    assert result.kept.tolist() == kept
    assert result.pruned.tolist() == pruned
    assert result.blocker.tolist() == blocker
    assert result.n_sites == n_sites
    assert result.peak_window_sites <= window


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    chunk_rows=st.integers(1, 40),
)
def test_prune_chunking_invariant(seed, chunk_rows):
    sites = _correlated_panel(30, 24, seed=seed)
    whole = ld_prune(sites, window=8, r2=0.3, chunk_rows=64)
    split = ld_prune(sites, window=8, r2=0.3, chunk_rows=chunk_rows)
    assert np.array_equal(whole.kept, split.kept)
    assert np.array_equal(whole.pruned, split.pruned)
    assert np.array_equal(whole.blocker, split.blocker)
    # The scan statistics are chunk-invariant too, not just the output.
    assert whole.pairs_tested == split.pairs_tested
    assert whole.peak_window_sites == split.peak_window_sites


def test_prune_incremental_operator_matches_driver(tracer):
    sites = _correlated_panel(25, 32, seed=3)
    pruner = LDPruner(window=6, r2=0.25)
    for chunk in _chunks(sites, 4):
        pruner.add_chunk(chunk)
    manual = pruner.finalize()
    driven = ld_prune(sites, window=6, r2=0.25, chunk_rows=4)
    assert np.array_equal(manual.kept, driven.kept)
    assert driven.stream_stats is not None
    assert driven.stream_stats.chunks == -(-25 // 4)


# ---------------------------------------------------------------------------
# clumping: chunked == in-memory == dense reference
# ---------------------------------------------------------------------------


@settings(max_examples=20, **ORACLE_SETTINGS)
@given(
    seed=st.integers(0, 10_000),
    n_sites=st.integers(1, 24),
    n_obs=st.integers(1, 32),
    window=st.integers(1, 10),
    r2=st.sampled_from([0.0, 0.2, 0.5, 0.9]),
    chunk_rows=st.integers(1, 28),
)
def test_clump_chunked_matches_dense_reference(
    band_backend, seed, n_sites, n_obs, window, r2, chunk_rows
):
    rng = np.random.default_rng(seed + 1)
    sites = _correlated_panel(n_sites, n_obs, seed=seed)
    scores = rng.random(n_sites)
    result = ld_clump(
        sites, scores, window, r2, chunk_rows=chunk_rows,
        framework=_framework(band_backend),
    )
    assignment, index_sites = _dense_clump(sites, scores, window, r2)
    assert result.assignment.tolist() == assignment.tolist()
    assert result.index_sites.tolist() == index_sites
    for clump in result.clumps:
        assert all(
            assignment[m] == clump.index_site for m in clump.members
        )
    assert result.peak_window_sites <= window


@settings(max_examples=12, **ORACLE_SETTINGS)
@given(chunk_rows=st.integers(1, 30))
def test_clump_tie_break_by_site_order_chunk_invariant(band_backend, chunk_rows):
    # All scores equal: every tie must break toward the earlier site,
    # whatever the batching.
    sites = _correlated_panel(22, 24, seed=11, copy_every=2)
    scores = np.full(22, 3.5)
    result = ld_clump(
        sites, scores, window=6, r2=0.2, chunk_rows=chunk_rows,
        framework=_framework(band_backend),
    )
    assignment, index_sites = _dense_clump(sites, scores, window=6, r2=0.2)
    assert result.assignment.tolist() == assignment.tolist()
    # With equal scores the rank order is site order.
    assert result.index_sites.tolist() == sorted(result.index_sites.tolist())
    # Every absorbed site points at an earlier index variant.
    absorbed = np.nonzero(result.assignment != np.arange(22))[0]
    assert all(result.assignment[m] < m for m in absorbed)


def test_clump_members_are_exhaustive():
    sites = _correlated_panel(20, 30, seed=5, copy_every=2)
    scores = np.random.default_rng(5).random(20)
    result = ld_clump(sites, scores, window=8, r2=0.15, chunk_rows=7)
    seen = set()
    for clump in result.clumps:
        seen.add(clump.index_site)
        seen.update(clump.members)
    assert seen == set(range(20))


@pytest.mark.parametrize("window", [45, 2**60])
@pytest.mark.parametrize("chunk_rows", [7, 64])
def test_prune_and_clump_window_far_above_sites(
    window, chunk_rows, tracer, band_backend
):
    # A window wider than the panel: the band is as wide as the stack,
    # not the window (2**60 columns could never be allocated), and the
    # decisions still equal the dense references.
    sites = _correlated_panel(30, 24, seed=13)
    framework = _framework(band_backend)
    result = ld_prune(sites, window, 0.3, chunk_rows=chunk_rows, framework=framework)
    kept, pruned, blocker = _dense_prune(sites, window, 0.3)
    assert result.kept.tolist() == kept
    assert result.pruned.tolist() == pruned
    assert result.blocker.tolist() == blocker
    prune_word_ops = tracer.counters.snapshot()["gemm.popc_word_ops"]
    scores = np.random.default_rng(13).random(30)
    clumped = ld_clump(
        sites, scores, window, 0.3, chunk_rows=chunk_rows, framework=framework
    )
    assignment, index_sites = _dense_clump(sites, scores, window, 0.3)
    assert clumped.assignment.tolist() == assignment.tolist()
    assert clumped.index_sites.tolist() == index_sites
    # Every site pairs with every earlier one.  Only chunk rows are
    # banded (buffered rows are never counted again), so the clump's
    # contiguous stacks count exactly these pairs, one 24-bit word
    # each, and the prune's stacks, which skip pruned rows, no more.
    pairs = 30 * 29 // 2
    assert clumped.pairs_tested == pairs
    clump_word_ops = tracer.counters.snapshot()["gemm.popc_word_ops"] - prune_word_ops
    assert clump_word_ops == pairs
    assert prune_word_ops <= pairs


def _check_prune_and_clump_dense(sites, framework, seed):
    """Prune and clump ``sites`` (window 5, chunks of 4) and compare
    both with the dense references."""
    result = ld_prune(sites, window=5, r2=0.3, chunk_rows=4, framework=framework)
    kept, pruned, blocker = _dense_prune(sites, 5, 0.3)
    assert result.kept.tolist() == kept
    assert result.pruned.tolist() == pruned
    assert result.blocker.tolist() == blocker
    assert pruned, "panel should prune something"
    scores = np.random.default_rng(seed).random(sites.shape[0])
    clumped = ld_clump(
        sites, scores, window=5, r2=0.5, chunk_rows=4, framework=framework
    )
    assignment, index_sites = _dense_clump(sites, scores, 5, 0.5)
    assert clumped.assignment.tolist() == assignment.tolist()
    assert clumped.index_sites.tolist() == index_sites
    assert len(index_sites) < sites.shape[0], "panel should absorb something"


def test_prune_and_clump_above_int64_bound_match_dense_reference(band_backend):
    # More observations than the int64 predicate path covers: the NumPy
    # band is decided on Python integers, the library's in __int128, and
    # both must still equal the dense reference.
    sites = _correlated_panel(14, INT64_EXACT_MAX_OBS + 100, seed=21)
    _check_prune_and_clump_dense(sites, _framework(band_backend), seed=21)


def test_prune_and_clump_past_int64_products_match_dense_reference(band_backend):
    # 2^17 observations: n^4 / 16 is 2^64, so a numerator or denominator
    # can pass 2^63 and no int64 holds the exact decision.
    sites = _correlated_panel(12, 1 << 17, seed=22, copy_every=2)
    _check_prune_and_clump_dense(sites, _framework(band_backend), seed=22)


@pytest.mark.parametrize(
    "algorithm", [Algorithm.FASTID_IDENTITY, Algorithm.FASTID_MIXTURE]
)
def test_non_ld_framework_rejected(algorithm):
    # Another algorithm's XOR / AND-NOT counts would pass for joint
    # allele counts (r^2 up to 5.39, or all-zero frequencies), so every
    # LD entry point refuses the framework with one shared check.
    framework = SNPComparisonFramework("Titan V", algorithm)
    panel = _correlated_panel(8, 16)
    with pytest.raises(ConfigurationError, match=algorithm.value):
        LDPruner(window=10, r2=0.3, framework=framework)
    with pytest.raises(ConfigurationError, match=algorithm.value):
        LDClumper(window=10, r2=0.3, scores=np.ones(4), framework=framework)
    with pytest.raises(ConfigurationError, match=algorithm.value):
        ld_prune(panel, 4, 0.3, framework=framework)
    with pytest.raises(ConfigurationError, match=algorithm.value):
        linkage_disequilibrium(panel, framework=framework)
    with pytest.raises(ConfigurationError, match=algorithm.value):
        StreamingLD(framework=framework).run(panel, chunk_rows=4)


# ---------------------------------------------------------------------------
# counters and resident-state bound
# ---------------------------------------------------------------------------


def test_prune_counters_exact(tracer):
    sites = _correlated_panel(24, 24, seed=2)
    result = ld_prune(sites, window=6, r2=0.3, chunk_rows=5)
    counters = tracer.counters.snapshot()
    assert counters["ldops.sites_seen"] == 24
    assert counters["ldops.sites_kept"] == result.kept.size
    assert counters["ldops.sites_pruned"] == result.pruned.size
    assert counters["ldops.pairs_tested"] == result.pairs_tested
    assert counters["ldops.window_peak_sites"] == result.peak_window_sites
    assert result.peak_window_sites <= 6


def test_clump_counters_exact(tracer):
    sites = _correlated_panel(24, 24, seed=2)
    scores = np.random.default_rng(2).random(24)
    result = ld_clump(sites, scores, window=6, r2=0.3, chunk_rows=5)
    counters = tracer.counters.snapshot()
    n_clumps = len(result.clumps)
    assert counters["ldops.sites_seen"] == 24
    assert counters["ldops.clumps_formed"] == n_clumps
    assert counters["ldops.sites_absorbed"] == 24 - n_clumps
    assert counters["ldops.pairs_tested"] == result.pairs_tested
    assert counters["ldops.window_peak_sites"] == result.peak_window_sites


def test_finalize_counters_emitted_once(tracer):
    sites = _correlated_panel(10, 16, seed=4)
    pruner = LDPruner(window=4, r2=0.3)
    pruner.add_chunk(sites)
    first = pruner.finalize()
    second = pruner.finalize()
    assert np.array_equal(first.kept, second.kept)
    assert tracer.counters.snapshot()["ldops.sites_seen"] == 10


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_prune_rejects_bad_params():
    with pytest.raises(DatasetError):
        LDPruner(window=0, r2=0.5)
    with pytest.raises(DatasetError):
        LDPruner(window=5, r2=-0.1)
    with pytest.raises(DatasetError):
        LDPruner(window=5, r2=1.5)
    with pytest.raises(DatasetError):
        ld_prune(np.zeros((4, 4), dtype=np.uint8), 5, 0.5, chunk_rows=0)


def test_prune_rejects_bad_chunks():
    pruner = LDPruner(window=4, r2=0.3)
    with pytest.raises(DatasetError):
        pruner.add_chunk(np.ones(5, dtype=np.uint8))  # 1-D
    with pytest.raises(DatasetError):
        pruner.add_chunk(np.full((3, 6), 2, dtype=np.uint8))  # non-binary
    with pytest.raises(DatasetError):
        pruner.add_chunk(np.ones((3, 4), dtype=np.float64))  # float dtype
    with pytest.raises(DatasetError):
        pruner.add_chunk(np.ones((3, 0), dtype=np.uint8))  # zero columns


def test_prune_rejects_inconsistent_columns():
    pruner = LDPruner(window=4, r2=0.3)
    pruner.add_chunk(np.ones((2, 6), dtype=np.uint8))
    with pytest.raises(DatasetError):
        pruner.add_chunk(np.ones((2, 5), dtype=np.uint8))


def test_add_chunk_after_finalize_raises():
    pruner = LDPruner(window=4, r2=0.3)
    pruner.add_chunk(np.eye(4, dtype=np.uint8))
    pruner.finalize()
    with pytest.raises(DatasetError):
        pruner.add_chunk(np.eye(4, dtype=np.uint8))
    clumper = LDClumper(window=4, r2=0.3, scores=np.ones(4))
    clumper.add_chunk(np.eye(4, dtype=np.uint8))
    clumper.finalize()
    with pytest.raises(DatasetError):
        clumper.add_chunk(np.eye(4, dtype=np.uint8))


def test_clump_rejects_bad_scores():
    with pytest.raises(DatasetError):
        LDClumper(window=4, r2=0.3, scores=np.ones((2, 2)))
    with pytest.raises(DatasetError):
        LDClumper(window=4, r2=0.3, scores=np.array([1.0, np.nan]))
    with pytest.raises(DatasetError):
        LDClumper(window=4, r2=0.3, scores=np.array([1.0, np.inf]))


def test_clump_score_length_mismatch():
    sites = _correlated_panel(8, 12, seed=9)
    # Too few scores: raises as soon as a chunk overruns them.
    with pytest.raises(DatasetError, match="supplied scores"):
        ld_clump(sites, np.ones(5), window=4, r2=0.3, chunk_rows=3)
    # Too many scores: raises at the end of the stream.
    with pytest.raises(DatasetError, match="streamed 8 sites"):
        ld_clump(sites, np.ones(12), window=4, r2=0.3, chunk_rows=3)


def test_empty_chunks_are_noops():
    sites = _correlated_panel(10, 16, seed=6)
    pruner = LDPruner(window=4, r2=0.3)
    pruner.add_chunk(np.empty((0, 16), dtype=np.uint8))
    pruner.add_chunk(sites)
    pruner.add_chunk(np.empty((0, 16), dtype=np.uint8))
    result = pruner.finalize()
    reference = ld_prune(sites, 4, 0.3, chunk_rows=10)
    assert np.array_equal(result.kept, reference.kept)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_ld_prune_and_clump(tmp_path, capsys):
    from repro.cli import main

    sites = _correlated_panel(30, 32, seed=8)
    panel = tmp_path / "sites.snpbin"
    write_snpbin(str(panel), sites)
    scores = tmp_path / "scores.npy"
    np.save(scores, np.random.default_rng(8).random(30))

    prune_out = tmp_path / "prune.npz"
    rc = main(
        [
            "ld-prune", "--input", str(panel), "--window", "6",
            "--r2", "0.3", "--chunk-rows", "7",
            "--output", str(prune_out),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "LD pruning" in out and "kept" in out
    saved = np.load(prune_out)
    reference = ld_prune(sites, 6, 0.3, chunk_rows=7)
    assert np.array_equal(saved["kept"], reference.kept)
    assert np.array_equal(saved["pruned"], reference.pruned)
    assert np.array_equal(saved["blocker"], reference.blocker)

    clump_out = tmp_path / "clump.npz"
    rc = main(
        [
            "clump", "--input", str(panel), "--scores", str(scores),
            "--window", "6", "--r2", "0.3", "--chunk-rows", "7",
            "--output", str(clump_out),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "LD clumping" in out and "clumps formed" in out
    saved = np.load(clump_out)
    reference = ld_clump(
        sites, np.load(scores), 6, 0.3, chunk_rows=7
    )
    assert np.array_equal(saved["assignment"], reference.assignment)
    assert np.array_equal(saved["index_sites"], reference.index_sites)


def test_cli_ld_prune_transpose(tmp_path):
    from repro.cli import main
    from repro.snp.io import save_dataset_npz
    from repro.snp.dataset import SNPDataset

    rng = np.random.default_rng(13)
    samples = rng.integers(0, 2, size=(16, 20), dtype=np.uint8)
    data = tmp_path / "panel.npz"
    save_dataset_npz(str(data), SNPDataset(matrix=samples))
    out = tmp_path / "prune.npz"
    rc = main(
        [
            "ld-prune", "--input", str(data), "--transpose",
            "--window", "5", "--r2", "0.4", "--output", str(out),
        ]
    )
    assert rc == 0
    reference = ld_prune(
        np.ascontiguousarray(samples.T), 5, 0.4
    )
    assert np.array_equal(np.load(out)["kept"], reference.kept)


@pytest.mark.parametrize(
    "flag",
    [
        ["--workers", "2"],
        ["--backend", "blas"],
        ["--retries", "1"],
        ["--inject-faults", "kernel:1"],
        ["--verify-sample", "0.5"],
    ],
    ids=lambda flag: flag[0],
)
def test_cli_ldops_reject_compute_flags_ld_keeps_them(flag, capsys):
    from repro.cli import build_parser

    parser = build_parser()
    for command in (
        ["ld-prune", "--input", "x"],
        ["clump", "--input", "x", "--scores", "s"],
    ):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([*command, *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
    parser.parse_args(["ld", "--input", "x", *flag])


def test_cli_clump_rejects_bad_scores_file(tmp_path, capsys):
    from repro.cli import main

    sites = _correlated_panel(10, 16, seed=1)
    panel = tmp_path / "sites.snpbin"
    write_snpbin(str(panel), sites)
    bad = tmp_path / "scores.txt"
    bad.write_text("not a number\n")
    rc = main(
        ["clump", "--input", str(panel), "--scores", str(bad)]
    )
    assert rc != 0


# ---------------------------------------------------------------------------
# satellite regressions: LD / mixture stats layer
# ---------------------------------------------------------------------------


def _empty_report():
    return linkage_disequilibrium(
        np.ones((3, 2), dtype=np.uint8), workers=1
    ).report


def test_ldresult_zero_observations_raises_typed_error():
    report = _empty_report()
    with pytest.raises(DatasetError, match="n_observations"):
        LDResult(
            counts=np.zeros((2, 2)),
            frequencies=np.zeros(2),
            n_observations=0,
            report=report,
        )


def test_ldresult_negative_observations_raises():
    report = _empty_report()
    with pytest.raises(DatasetError):
        LDResult(
            counts=np.zeros((2, 2)),
            frequencies=np.zeros(2),
            n_observations=-1,
            report=report,
        )


def test_ldresult_empty_table_zero_observations_allowed():
    report = _empty_report()
    result = LDResult(
        counts=np.zeros((0, 0)),
        frequencies=np.zeros(0),
        n_observations=0,
        report=report,
    )
    assert result.p_ab.shape == (0, 0)
    assert result.r_squared.shape == (0, 0)


def test_linkage_disequilibrium_zero_columns_raises_not_nan():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        # Sites but no samples: site-mode LD has zero observations.
        with pytest.raises(DatasetError):
            linkage_disequilibrium(
                np.empty((0, 4), dtype=np.uint8), workers=1
            )
        # Entities but no sites: sample-mode LD has zero observations.
        with pytest.raises(DatasetError):
            linkage_disequilibrium(
                np.empty((4, 0), dtype=np.uint8), workers=1,
                compare="samples",
            )


def test_mixture_index_out_of_range_raises_typed_error():
    rng = np.random.default_rng(0)
    refs = rng.integers(0, 2, size=(4, 16), dtype=np.uint8)
    mixes = rng.integers(0, 2, size=(2, 16), dtype=np.uint8)
    result = mixture_analysis(refs, mixes, workers=1)
    assert isinstance(result.report, RunReport)
    with pytest.raises(DatasetError, match="out of range"):
        result.consistent_contributors(2)
    with pytest.raises(DatasetError, match="out of range"):
        result.consistent_contributors(-1)
    with pytest.raises(DatasetError):
        result.consistent_contributors("0")
    # In-range indices still work, including numpy integers.
    assert result.consistent_contributors(np.int64(1)) == (
        result.consistent_contributors(1)
    )


def test_streaming_binary_check_single_pass_message():
    from repro.util.validation import check_binary_matrix

    with pytest.raises(DatasetError, match=r"min=3, max=3"):
        check_binary_matrix("panel", np.full((2, 4), 3, dtype=np.uint8))
    # Empty chunks skip the value scan entirely.
    out = check_binary_matrix("panel", np.empty((0, 4), dtype=np.uint8))
    assert out.shape == (0, 4)
