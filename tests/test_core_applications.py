"""Tests for the application APIs: ld, identity, mixture."""

import numpy as np
import pytest

from repro.core.framework import SNPComparisonFramework
from repro.core.identity import identity_search
from repro.core.ld import linkage_disequilibrium
from repro.core.mixture import mixture_analysis
from repro.errors import DatasetError
from repro.snp.forensic import generate_database, generate_queries, make_mixture
from repro.snp.generator import PopulationModel, generate_population
from repro.snp.stats import (
    identity_distances_naive,
    ld_d_prime,
    ld_r_squared,
    mixture_scores_naive,
)


@pytest.fixture(scope="module")
def population():
    return generate_population(
        PopulationModel(80, 120, block_size=12, maf_alpha=2, maf_beta=3), rng=0
    )


@pytest.fixture(scope="module")
def forensic():
    db = generate_database(300, 192, rng=1)
    queries, members = generate_queries(db, 3, 5, rng=2)
    return db, queries, members


class TestLinkageDisequilibrium:
    def test_site_statistics_match_oracle(self, population):
        result = linkage_disequilibrium(population, device="GTX 980", compare="sites")
        site_major = population.matrix.T
        assert np.allclose(result.r_squared, ld_r_squared(site_major))
        assert np.allclose(result.d_prime, ld_d_prime(site_major))
        assert result.counts.shape == (120, 120)

    def test_sample_orientation(self, population):
        result = linkage_disequilibrium(
            population, device="Vega 64", compare="samples"
        )
        assert result.counts.shape == (80, 80)
        assert result.n_observations == 120

    def test_raw_matrix_accepted(self, population):
        result = linkage_disequilibrium(population.matrix, device="Titan V")
        assert result.counts.shape == (120, 120)

    def test_r_squared_bit_identical_to_closed_form(self, monkeypatch):
        # Zero-variance sites (monomorphic columns), one row block and
        # several, including a ragged last block.
        from repro.core import ld as ld_module

        rng = np.random.default_rng(5)
        matrix = (rng.random((40, 30)) < 0.4).astype(np.uint8)
        matrix[:, 3] = 0
        matrix[:, 7] = 1
        result = linkage_disequilibrium(matrix, device="GTX 980")
        p = result.frequencies
        var = p * (1 - p)
        denom = np.outer(var, var)
        d = result.counts / result.n_observations - np.outer(p, p)
        with np.errstate(invalid="ignore", divide="ignore"):
            expected = np.where(denom > 0, d * d / denom, 0.0)
        for block in (1 << 16, 64, 7):
            monkeypatch.setattr(ld_module, "_R2_BLOCK_ELEMENTS", block)
            got = result.r_squared
            assert got.dtype == np.float64
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected))
        assert not got[3].any() and not got[:, 7].any()

    def test_p_ab_normalization(self, population):
        result = linkage_disequilibrium(population, device="GTX 980")
        assert result.p_ab.max() <= 1.0
        diag = np.diag(result.p_ab)
        assert np.allclose(diag, result.frequencies)

    def test_d_antisymmetry_in_sign(self, population):
        result = linkage_disequilibrium(population, device="GTX 980")
        assert np.allclose(result.d, result.d.T)

    def test_reusing_framework(self, population):
        fw = SNPComparisonFramework("GTX 980", "ld")
        r1 = linkage_disequilibrium(population, framework=fw)
        r2 = linkage_disequilibrium(population, framework=fw)
        assert (r1.counts == r2.counts).all()

    def test_bad_compare_rejected(self, population):
        with pytest.raises(DatasetError):
            linkage_disequilibrium(population, compare="columns")

    def test_bad_matrix_rejected(self):
        with pytest.raises(DatasetError):
            linkage_disequilibrium(np.zeros(5))


class TestIdentitySearch:
    def test_distances_match_oracle(self, forensic):
        db, queries, _ = forensic
        result = identity_search(queries, db, device="Titan V")
        assert (result.distances == identity_distances_naive(queries, db.profiles)).all()

    def test_member_queries_found(self, forensic):
        db, queries, members = forensic
        result = identity_search(queries, db, device="GTX 980")
        hits = result.matches(0)
        found = {(q, p) for q, p, _ in hits}
        for qi in range(3):
            assert (qi, int(members[qi])) in found

    def test_unrelated_queries_not_matched(self, forensic):
        db, queries, members = forensic
        result = identity_search(queries, db, device="Vega 64")
        matched_queries = {q for q, _, _ in result.matches(0)}
        assert not matched_queries & set(range(3, 8))

    def test_best_match(self, forensic):
        db, queries, members = forensic
        result = identity_search(queries, db)
        profile, distance = result.best_match(0)
        assert profile == int(members[0])
        assert distance == 0

    def test_matches_sorted_by_distance(self, forensic):
        db, queries, _ = forensic
        result = identity_search(queries, db)
        hits = result.matches(max_distance=30)
        distances = [d for _, _, d in hits]
        assert distances == sorted(distances)

    def test_plain_matrix_database(self, forensic):
        db, queries, _ = forensic
        result = identity_search(queries, db.profiles, device="GTX 980")
        assert result.distances.shape == (8, 300)

    def test_dimension_mismatch_rejected(self, forensic):
        db, _, _ = forensic
        with pytest.raises(DatasetError):
            identity_search(np.zeros((2, 10), dtype=np.uint8), db)


class TestMixtureAnalysis:
    def test_scores_match_oracle(self, forensic):
        db, _, _ = forensic
        refs = db.profiles[:40]
        mixtures = np.vstack(
            [make_mixture(db.profiles[:3]), make_mixture(db.profiles[10:12])]
        )
        result = mixture_analysis(refs, mixtures, device="Vega 64")
        assert (result.scores == mixture_scores_naive(refs, mixtures)).all()

    def test_contributors_detected(self, forensic):
        db, _, _ = forensic
        refs = db.profiles[:40]
        mixture = make_mixture(db.profiles[:3])[None, :]
        result = mixture_analysis(refs, mixture, device="Titan V")
        contributors = {r for r, _ in result.consistent_contributors(0)}
        assert {0, 1, 2} <= contributors

    def test_noncontributors_score_positive(self, forensic):
        db, _, _ = forensic
        refs = db.profiles[:40]
        mixture = make_mixture(db.profiles[:3])[None, :]
        result = mixture_analysis(refs, mixture, device="GTX 980")
        non_contrib = [result.scores[r, 0] for r in range(3, 40)]
        assert np.mean([s > 0 for s in non_contrib]) > 0.9

    def test_prenegate_flag_reported(self, forensic):
        db, _, _ = forensic
        refs = db.profiles[:8]
        mixture = make_mixture(db.profiles[:2])[None, :]
        vega = mixture_analysis(refs, mixture, device="Vega 64")
        titan = mixture_analysis(refs, mixture, device="Titan V")
        assert vega.prenegated and not titan.prenegated
        assert (vega.scores == titan.scores).all()

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DatasetError):
            mixture_analysis(
                np.zeros((2, 8), dtype=np.uint8), np.zeros((1, 9), dtype=np.uint8)
            )
