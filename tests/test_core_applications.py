"""Tests for the application APIs: ld, identity, mixture."""

import numpy as np
import pytest

from repro.core.framework import SNPComparisonFramework
from repro.core.identity import identity_search
from repro.core.ld import LDResult, linkage_disequilibrium
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

    @staticmethod
    def _r2_closed_form_case():
        # Zero-variance sites (monomorphic columns) and the closed form.
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
        return result, expected

    def test_r_squared_bit_identical_to_closed_form(self, monkeypatch, pin_native):
        # The NumPy path in one row block and several, including a
        # ragged last block.
        from repro.core import ld as ld_module

        pin_native(False)
        result, expected = self._r2_closed_form_case()
        for block in (1 << 16, 64, 7):
            monkeypatch.setattr(ld_module, "_R2_BLOCK_ELEMENTS", block)
            got = result.r_squared
            assert got.dtype == np.float64
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected))
        assert not got[3].any() and not got[:, 7].any()

    def test_r_squared_c_pass_bit_identical_to_closed_form(self, pin_native):
        pin_native(True)
        result, expected = self._r2_closed_form_case()
        got = result.r_squared
        assert got.dtype == np.float64
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))
        assert not got[3].any() and not got[:, 7].any()

    @pytest.mark.parametrize(
        "case", ["monomorphic", "counts_0_and_n", "odd_n_obs", "user_counts", "empty"]
    )
    def test_r_squared_c_pass_matches_numpy_bits(self, pin_native, case):
        rng = np.random.default_rng(11)
        if case == "empty":
            result = LDResult(
                counts=np.zeros((0, 0), dtype=np.int64),
                frequencies=np.zeros(0),
                n_observations=0,
                report=linkage_disequilibrium(np.ones((3, 2), dtype=np.uint8)).report,
            )
        elif case == "user_counts":
            # A user-built result: counts below 0 and above n_obs, and
            # frequencies unrelated to them.
            n = 12
            counts = rng.integers(-40, 90, size=(n, n))
            result = LDResult(
                counts=counts,
                frequencies=rng.random(n),
                n_observations=37,
                report=linkage_disequilibrium(np.ones((3, 2), dtype=np.uint8)).report,
            )
        else:
            n_obs = 37 if case == "odd_n_obs" else 64
            matrix = (rng.random((n_obs, 50)) < 0.35).astype(np.uint8)
            if case == "monomorphic":
                matrix[:, 4] = 0
                matrix[:, 9] = 1
            if case == "counts_0_and_n":
                matrix[:, :10] = 0
                matrix[:, 10:20] = 1
            result = linkage_disequilibrium(matrix, device="Titan V")
        pin_native(False)
        numpy_bits = result.r_squared
        native = pin_native(True)
        assert native.r_squared(
            np.asarray(result.counts), result.frequencies, result.n_observations
        ) is not None
        c_bits = result.r_squared
        assert c_bits.shape == numpy_bits.shape and c_bits.dtype == np.float64
        assert np.array_equal(c_bits.view(np.int64), numpy_bits.view(np.int64))

    def test_r_squared_never_compiles(self, tmp_path, monkeypatch, pin_native):
        # A usable compiler but a cold cache: reading r^2 must run the
        # NumPy code and leave the compile to the GEMM path.
        from repro.kernels import register_backend
        from repro.kernels.cnative_backend import KERNEL_CACHE_ENV, CNativeBackend

        pin_native(False)  # restores the process's backend afterwards
        result = linkage_disequilibrium(np.eye(6, dtype=np.uint8), device="GTX 980")
        monkeypatch.delenv("CC", raising=False)
        monkeypatch.setenv(KERNEL_CACHE_ENV, str(tmp_path / "cold"))
        backend = register_backend(CNativeBackend(), replace=True)
        assert result.r_squared.shape == (6, 6)
        assert backend.body is None
        assert not (tmp_path / "cold").exists()

    def test_r_squared_span_only_when_tracing(self):
        from repro.observability.tracer import NullTracer, Tracer, set_tracer

        result = linkage_disequilibrium(np.eye(6, dtype=np.uint8), device="GTX 980")
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            result.r_squared
        finally:
            set_tracer(previous)
        assert [s.name for s in tracer.spans()] == ["ld.r_squared"]
        off = NullTracer()
        previous = set_tracer(off)
        try:
            result.r_squared
        finally:
            set_tracer(previous)
        assert off.spans() == [] and off.n_spans() == 0

    @pytest.mark.parametrize("compare", ["sites", "samples"])
    @pytest.mark.parametrize("dtype", [np.bool_, np.uint8])
    def test_frequencies_are_the_entity_means_bit_for_bit(self, compare, dtype):
        rng = np.random.default_rng(17)
        matrix = (rng.random((37, 29)) < 0.3).astype(dtype)
        matrix[:, 2] = 0
        matrix[4] = 1
        result = linkage_disequilibrium(matrix, device="Vega 64", compare=compare)
        entities = matrix.T if compare == "sites" else matrix
        expected = entities.mean(axis=1)
        assert result.frequencies.dtype == expected.dtype
        assert np.array_equal(result.frequencies.view(np.int64), expected.view(np.int64))

    def test_frequencies_of_zero_entities(self):
        result = linkage_disequilibrium(np.zeros((5, 0), dtype=np.uint8), device="GTX 980")
        assert result.frequencies.shape == (0,)
        assert result.frequencies.dtype == np.float64

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
