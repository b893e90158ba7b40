"""Tests for repro.selfcheck and its CLI wiring."""

import pytest

from repro.cli import main
from repro.selfcheck import CheckResult, render_selfcheck, run_selfcheck


class TestBattery:
    @pytest.fixture(scope="class")
    def results(self):
        return run_selfcheck()

    def test_all_checks_pass(self, results):
        failed = [r for r in results if not r.passed]
        assert not failed, failed

    def test_expected_check_names(self, results):
        names = {r.name for r in results}
        assert names == {
            "functional agreement",
            "estimator == functional timing",
            "microbenchmark recovery",
            "Table II regeneration",
            "Fig. 5 efficiency endpoints",
        }

    def test_details_populated(self, results):
        assert all(r.detail for r in results)


class TestNativeAgreement:
    def test_bodies_and_r2_pass_checked(self, pin_native):
        from repro.selfcheck import _check_functional_agreement

        native = pin_native(True)
        result = _check_functional_agreement()
        assert result.passed, result.detail
        assert all(body in result.detail for body in native.bodies())
        assert "r^2" in result.detail

    def test_skipped_not_failed_without_compiler(self, pin_native):
        from repro.selfcheck import _check_functional_agreement

        pin_native(False)
        result = _check_functional_agreement()
        assert result.passed, result.detail
        assert "cnative skipped" in result.detail


class TestRendering:
    def test_render_pass_and_fail(self):
        results = [
            CheckResult("alpha", True, "fine"),
            CheckResult("beta", False, "broken"),
        ]
        text = render_selfcheck(results)
        assert "[PASS] alpha" in text
        assert "[FAIL] beta" in text
        assert "1/2 checks passed" in text

    def test_exceptions_become_failures(self, monkeypatch):
        import repro.selfcheck as sc

        def boom():
            raise RuntimeError("injected")

        boom.__name__ = "_check_injected_failure"
        monkeypatch.setattr(sc, "_CHECKS", (boom,))
        results = sc.run_selfcheck()
        assert len(results) == 1
        assert not results[0].passed
        assert "injected" in results[0].detail


class TestCliVerify:
    def test_verify_exit_zero(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "5/5 checks passed" in out
