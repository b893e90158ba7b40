"""Tests for repro.snp.kinship and repro.snp.significance."""

import numpy as np
import pytest

from repro.errors import DatasetError, ModelError
from repro.snp.kinship import ibs_matrix, kinship_screen
from repro.snp.significance import (
    expected_unrelated_distance,
    ld_chi_square_pvalues,
    panel_sites_for_target_rmp,
    random_match_probability,
    site_mismatch_probabilities,
)


class TestIbsMatrix:
    @pytest.fixture(scope="class")
    def family(self):
        """Unrelated individuals plus one duplicated and one near-dup."""
        rng = np.random.default_rng(0)
        base = (rng.random((20, 400)) < 0.3).astype(np.uint8)
        dup = base[3].copy()
        near = base[7].copy()
        flip = rng.choice(400, size=20, replace=False)
        near[flip] ^= 1
        return np.vstack([base, dup[None, :], near[None, :]])

    def test_diagonal_is_one(self, family):
        result = ibs_matrix(family, device="GTX 980")
        assert np.allclose(np.diag(result.ibs), 1.0)

    def test_duplicate_detected(self, family):
        result = ibs_matrix(family, device="GTX 980")
        assert result.ibs[3, 20] == pytest.approx(1.0)
        # Near-duplicate: 20/400 flips -> IBS 0.95.
        assert result.ibs[7, 21] == pytest.approx(0.95)

    def test_unrelated_near_expectation(self, family):
        result = ibs_matrix(family[:20], device="Vega 64")
        off = result.ibs[~np.eye(20, dtype=bool)]
        assert abs(off.mean() - result.expected_random_ibs) < 0.02

    def test_related_pairs_ranked(self, family):
        result = ibs_matrix(family, device="Titan V")
        pairs = result.related_pairs(min_excess=0.1)
        assert pairs[0][:2] == (3, 20)
        assert pairs[1][:2] == (7, 21)
        found = {p[:2] for p in pairs}
        assert (0, 1) not in found

    def test_kinship_estimator_range(self, family):
        result = ibs_matrix(family, device="GTX 980")
        assert result.kinship.max() <= 1.0 + 1e-12
        assert np.allclose(np.diag(result.kinship), 1.0)

    def test_screen_wrapper(self, family):
        pairs = kinship_screen(family, device="GTX 980", min_excess=0.1)
        assert (3, 20) in {p[:2] for p in pairs}

    def test_validation(self):
        with pytest.raises(DatasetError):
            ibs_matrix(np.zeros(5))
        with pytest.raises(DatasetError):
            ibs_matrix(np.zeros((2, 0), dtype=np.uint8))


class TestLdSignificance:
    def test_null_uniformish_pvalues(self):
        # Independent sites: r^2 ~ chi2_1/n, p-values roughly uniform.
        rng = np.random.default_rng(1)
        bits = (rng.random((500, 40)) < 0.5).astype(np.uint8)
        from repro.snp.stats import ld_r_squared

        r2 = ld_r_squared(bits.T)
        p = ld_chi_square_pvalues(r2, n_samples=500)
        off = p[~np.eye(40, dtype=bool)]
        assert 0.3 < off.mean() < 0.7
        assert (off < 0.05).mean() < 0.15

    def test_perfect_ld_significant(self):
        p = ld_chi_square_pvalues(np.array([[1.0]]), n_samples=100)
        assert p[0, 0] < 1e-20

    def test_zero_r2_insignificant(self):
        p = ld_chi_square_pvalues(np.array([[0.0]]), n_samples=100)
        assert p[0, 0] == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ModelError):
            ld_chi_square_pvalues(np.zeros((2, 2)), n_samples=0)
        with pytest.raises(DatasetError):
            ld_chi_square_pvalues(np.array([[1.5]]), n_samples=10)


class TestRandomMatchProbability:
    def test_site_mismatch_formula(self):
        q = site_mismatch_probabilities(np.array([0.0, 0.5, 1.0]))
        assert q.tolist() == [0.0, 0.5, 0.0]

    def test_expected_distance(self):
        freqs = np.full(100, 0.5)
        assert expected_unrelated_distance(freqs) == pytest.approx(50.0)

    def test_rmp_decreases_with_panel_size(self):
        small = random_match_probability(np.full(64, 0.3), max_distance=5)
        large = random_match_probability(np.full(512, 0.3), max_distance=5)
        assert large < small

    def test_rmp_monte_carlo_agreement(self):
        rng = np.random.default_rng(2)
        freqs = np.clip(rng.beta(2, 3, size=300), 0.05, 0.5)
        threshold = 90
        a = (rng.random((4000, 300)) < freqs).astype(np.uint8)
        b = (rng.random((4000, 300)) < freqs).astype(np.uint8)
        distances = (a != b).sum(axis=1)
        empirical = (distances <= threshold).mean()
        model = random_match_probability(freqs, max_distance=threshold)
        assert model == pytest.approx(empirical, abs=0.02)

    def test_zero_sites(self):
        assert random_match_probability(np.zeros(0)) == 1.0

    def test_panel_sizing(self):
        n = panel_sites_for_target_rmp(mean_maf=0.3, target_rmp=1e-9)
        # The sized panel achieves the target; one fewer site does not.
        assert random_match_probability(np.full(n, 0.3)) <= 1e-9
        assert random_match_probability(np.full(n - 1, 0.3)) > 1e-9
        # More discriminating sites -> smaller panel.
        n_balanced = panel_sites_for_target_rmp(mean_maf=0.5, target_rmp=1e-9)
        assert n_balanced < n

    def test_panel_sizing_validation(self):
        with pytest.raises(ModelError):
            panel_sites_for_target_rmp(mean_maf=0.0, target_rmp=0.1)
        with pytest.raises(ModelError):
            panel_sites_for_target_rmp(mean_maf=0.3, target_rmp=1.5)
        with pytest.raises(ModelError):
            random_match_probability(np.full(4, 0.5), max_distance=-1)


def test_package_import_does_not_load_scipy():
    # scipy is imported only inside the two functions that use it, so
    # the package, the CLI and the LD operators start without it.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    script = (
        "import sys\n"
        "import repro, repro.cli, repro.core.ldops\n"
        "assert 'scipy' not in sys.modules, sorted(\n"
        "    m for m in sys.modules if m.startswith('scipy'))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120)
