"""Tests for repro.core.streaming and repro.snp.popstats."""

import numpy as np
import pytest

from repro.core.identity import identity_search
from repro.core.streaming import Match, StreamingIdentitySearch
from repro.errors import DatasetError
from repro.snp.forensic import generate_database, generate_queries
from repro.snp.popstats import (
    expected_heterozygosity,
    gene_diversity,
    hudson_fst,
    site_frequency_spectrum,
)


class TestStreamingSearch:
    @pytest.fixture(scope="class")
    def workload(self):
        db = generate_database(1200, 192, rng=0)
        queries, members = generate_queries(db, 3, 2, rng=1, error_rate=0.01)
        return db, queries, members

    def test_matches_equal_full_materialization(self, workload):
        db, queries, _ = workload
        k = 7
        stream = StreamingIdentitySearch(queries, k=k, device="GTX 980")
        for start in range(0, db.n_profiles, 250):
            stream.add_batch(db.profiles[start : start + 250])

        full = identity_search(queries, db, device="GTX 980").distances
        for qi in range(queries.shape[0]):
            # Deterministic reference top-k: distance then index.
            order = np.lexsort((np.arange(db.n_profiles), full[qi]))[:k]
            expected = [Match(int(full[qi, i]), int(i)) for i in order]
            assert stream.matches(qi) == expected

    def test_batch_boundaries_do_not_matter(self, workload):
        db, queries, _ = workload

        def run(batch_size):
            s = StreamingIdentitySearch(queries, k=5, device="Titan V")
            for start in range(0, db.n_profiles, batch_size):
                s.add_batch(db.profiles[start : start + batch_size])
            return s.all_matches()

        assert run(100) == run(777) == run(db.n_profiles)

    def test_members_found_as_best(self, workload):
        db, queries, members = workload
        stream = StreamingIdentitySearch(queries, k=3)
        stream.add_batch(db.profiles)
        for qi in range(3):
            assert stream.best(qi).database_index == int(members[qi])

    def test_bookkeeping(self, workload):
        db, queries, _ = workload
        stream = StreamingIdentitySearch(queries, k=2)
        stream.add_batch(db.profiles[:500])
        stream.add_batch(db.profiles[500:])
        assert stream.rows_seen == db.n_profiles
        assert stream.batches_seen == 2
        assert stream.simulated_seconds > 0

    def test_fewer_rows_than_k(self, workload):
        _, queries, _ = workload
        stream = StreamingIdentitySearch(queries, k=50)
        stream.add_batch(np.zeros((4, queries.shape[1]), dtype=np.uint8))
        assert len(stream.matches(0)) == 4

    def test_empty_batch_ignored(self, workload):
        _, queries, _ = workload
        stream = StreamingIdentitySearch(queries, k=2)
        stream.add_batch(np.zeros((0, queries.shape[1]), dtype=np.uint8))
        assert stream.rows_seen == 0

    def test_validation(self, workload):
        _, queries, _ = workload
        with pytest.raises(DatasetError):
            StreamingIdentitySearch(queries, k=0)
        for bad_k in (2.5, True, "5"):
            with pytest.raises(DatasetError):
                StreamingIdentitySearch(queries, k=bad_k)
        with pytest.raises(DatasetError):
            StreamingIdentitySearch(np.zeros((0, 4), dtype=np.uint8))
        stream = StreamingIdentitySearch(queries, k=2)
        with pytest.raises(DatasetError):
            stream.add_batch(np.zeros((3, 7), dtype=np.uint8))
        with pytest.raises(DatasetError):
            stream.matches(99)
        with pytest.raises(DatasetError):
            stream.best(0)  # nothing seen yet

    def test_best_before_any_rows_names_the_cause(self, workload):
        _, queries, _ = workload
        stream = StreamingIdentitySearch(queries, k=2)
        with pytest.raises(DatasetError, match=r"rows_seen=0"):
            stream.best(0)

    def test_k_above_documented_maximum_rejected(self, workload):
        _, queries, _ = workload
        with pytest.raises(DatasetError, match="exceeds the supported maximum"):
            StreamingIdentitySearch(
                queries, k=StreamingIdentitySearch.MAX_K + 1
            )
        # The bound itself is fine.
        StreamingIdentitySearch(queries, k=StreamingIdentitySearch.MAX_K)

    def test_prefilter_fallback_surfaced_via_counter(self, workload):
        from repro.observability.tracer import Tracer, set_tracer

        db, queries, _ = workload
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            # k larger than every batch keeps the heaps unfilled, so
            # each batch degrades to the unfiltered fold -- counted,
            # not silent.
            stream = StreamingIdentitySearch(queries, k=200)
            stream.add_batch(db.profiles[:50])
            stream.add_batch(db.profiles[50:100])
            unfiltered = tracer.counters.snapshot()["stream.prefilter_fallbacks"]
            assert unfiltered == 2 * queries.shape[0]
            # Once the heaps are full, the pre-filter engages again.
            before = unfiltered
            stream2 = StreamingIdentitySearch(queries, k=3)
            stream2.add_batch(db.profiles[:50])
            stream2.add_batch(db.profiles[50:100])
            after = tracer.counters.snapshot()["stream.prefilter_fallbacks"]
            # Only the first (heap-filling) batch falls back.
            assert after - before == queries.shape[0]
        finally:
            set_tracer(previous)


class TestPopstats:
    def test_expected_heterozygosity_values(self):
        m = np.array([[0, 1, 1], [0, 1, 0], [0, 1, 1], [0, 1, 0]], dtype=np.uint8)
        h = expected_heterozygosity(m)
        assert h.tolist() == [0.0, 0.0, 0.5]

    def test_gene_diversity(self):
        m = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        assert gene_diversity(m) == pytest.approx(0.5)

    def test_fst_identical_cohorts_near_zero(self):
        rng = np.random.default_rng(0)
        pool = (rng.random((400, 300)) < 0.3).astype(np.uint8)
        fst, per_site = hudson_fst(pool[:200], pool[200:])
        assert abs(fst) < 0.01

    def test_fst_divergent_cohorts_positive(self):
        rng = np.random.default_rng(1)
        a = (rng.random((200, 300)) < 0.1).astype(np.uint8)
        b = (rng.random((200, 300)) < 0.6).astype(np.uint8)
        fst, _ = hudson_fst(a, b)
        assert fst > 0.3

    def test_fst_fixed_difference_is_one(self):
        a = np.zeros((10, 5), dtype=np.uint8)
        b = np.ones((10, 5), dtype=np.uint8)
        fst, per_site = hudson_fst(a, b)
        assert fst == pytest.approx(1.0)
        assert np.allclose(per_site, 1.0)

    def test_fst_validation(self):
        with pytest.raises(DatasetError):
            hudson_fst(np.zeros((1, 4), dtype=np.uint8), np.zeros((5, 4), dtype=np.uint8))
        with pytest.raises(DatasetError):
            hudson_fst(np.zeros((3, 4), dtype=np.uint8), np.zeros((3, 5), dtype=np.uint8))
        with pytest.raises(DatasetError):
            hudson_fst(np.zeros((3, 4), dtype=np.uint8), np.zeros((3, 4), dtype=np.uint8))

    def test_sfs_excludes_monomorphic_and_folds(self):
        m = np.array(
            [[0, 1, 1, 1], [0, 1, 1, 0], [0, 1, 0, 0], [0, 1, 0, 0]],
            dtype=np.uint8,
        )
        counts, edges = site_frequency_spectrum(m, n_bins=2)
        # Site 0 monomorphic (dropped); site 1 p=1 folds to 0 (dropped);
        # sites 2, 3 have p=0.5 and 0.25.
        assert counts.sum() == 2
        assert edges[0] == 0.0 and edges[-1] == 0.5

    def test_sfs_matches_generator_spectrum(self):
        from repro.snp.generator import PopulationModel, generate_population

        ds = generate_population(
            PopulationModel(500, 2000, maf_alpha=0.8, maf_beta=4.0), rng=2
        )
        counts, _ = site_frequency_spectrum(ds.matrix, n_bins=5)
        # Rare-variant-heavy: the lowest-frequency bin dominates.
        assert counts[0] == counts.max()

    def test_validation(self):
        with pytest.raises(DatasetError):
            expected_heterozygosity(np.zeros((0, 4), dtype=np.uint8))
        with pytest.raises(DatasetError):
            site_frequency_spectrum(np.zeros((2, 2), dtype=np.uint8), n_bins=0)
        with pytest.raises(DatasetError):
            gene_diversity(np.array([[2]]))
