"""Installation self-check: the cross-validation battery as one call.

``repro-snp verify`` (or :func:`run_selfcheck`) executes a condensed
version of the invariants the test suite pins down, so a fresh install
-- or a fork that touched the model -- can confirm the reproduction's
core guarantees in seconds:

1. functional agreement: all GEMM drivers + all devices + sparse
   kernels produce one bit-identical table against the naive oracle;
2. estimator consistency: timing-only pricing equals the functional
   pipeline's simulated times;
3. microbenchmark recovery: the Section V-C/D procedures recover each
   device's configured unit counts;
4. Table II regeneration: the planner reproduces the published
   configurations;
5. headline efficiencies: the Fig. 5 endpoints land on the paper's
   numbers.

Each check returns (name, passed, detail); the battery never raises on
check failure -- it reports, so a partial install still yields a
diagnosis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["CheckResult", "run_selfcheck", "render_selfcheck"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_functional_agreement() -> CheckResult:
    from repro.blis.gemm import bit_gemm, bit_gemm_reference
    from repro.core.config import Algorithm
    from repro.core.framework import SNPComparisonFramework
    from repro.gpu.arch import ALL_GPUS
    from repro.snp.stats import ld_counts_naive
    from repro.sparse.kernels import sparse_comparison
    from repro.sparse.matrix import SparseSNPMatrix
    from repro.util.bitops import pack_bits

    rng = np.random.default_rng(0)
    bits = (rng.random((18, 200)) < 0.4).astype(np.uint8)
    oracle = ld_counts_naive(bits)
    packed = pack_bits(bits, 32)
    tables = [
        bit_gemm_reference(packed, packed),
        bit_gemm(packed, packed, backend="blis"),
        bit_gemm(packed, packed, backend="blas"),
        sparse_comparison(SparseSNPMatrix.from_dense(bits)),
    ]
    for arch in ALL_GPUS:
        table, _ = SNPComparisonFramework(arch, Algorithm.LD).run(bits)
        tables.append(table)
    agree = all((t == oracle).all() for t in tables)
    return CheckResult(
        "functional agreement",
        agree,
        f"{len(tables)} paths vs oracle on an 18x200 problem",
    )


def _check_estimator_consistency() -> CheckResult:
    from repro.core.config import Algorithm
    from repro.core.framework import SNPComparisonFramework
    from repro.gpu.arch import TITAN_V
    from repro.model.endtoend import estimate_end_to_end

    rng = np.random.default_rng(1)
    a = (rng.random((24, 256)) < 0.5).astype(np.uint8)
    b = (rng.random((48, 256)) < 0.5).astype(np.uint8)
    _, report = SNPComparisonFramework(TITAN_V, Algorithm.FASTID_IDENTITY).run(a, b)
    est = estimate_end_to_end(TITAN_V, Algorithm.FASTID_IDENTITY, 24, 48, 256)
    ok = abs(est.end_to_end_s - report.end_to_end_s) < 1e-12
    return CheckResult(
        "estimator == functional timing",
        ok,
        f"delta {abs(est.end_to_end_s - report.end_to_end_s):.2e} s",
    )


def _check_microbench_recovery() -> CheckResult:
    from repro.gpu.arch import ALL_GPUS
    from repro.gpu.microbench import run_microbench_suite

    failures = []
    for arch in ALL_GPUS:
        r = run_microbench_suite(arch)
        if abs(r.popc_throughput - arch.popc_units) > 0.05 * arch.popc_units:
            failures.append(f"{arch.name} popc units")
        if r.popc_alu_shared:
            failures.append(f"{arch.name} pipe sharing")
    return CheckResult(
        "microbenchmark recovery",
        not failures,
        "all devices" if not failures else "; ".join(failures),
    )


def _check_table2() -> CheckResult:
    from repro.core.config import Algorithm
    from repro.core.planner import PUBLISHED_CONFIGS, derive_config
    from repro.gpu.arch import get_gpu

    mismatches = []
    for (device, algorithm), (n_r, rows, cols) in PUBLISHED_CONFIGS.items():
        cfg = derive_config(get_gpu(device), algorithm)
        if (cfg.n_r, cfg.grid_rows, cfg.grid_cols) != (n_r, rows, cols):
            mismatches.append(f"{device}/{algorithm.value}")
    return CheckResult(
        "Table II regeneration",
        not mismatches,
        f"{len(PUBLISHED_CONFIGS)} rows" if not mismatches else "; ".join(mismatches),
    )


def _check_fig5_endpoints() -> CheckResult:
    from repro.bench.figures import fig5_series
    from repro.gpu.arch import ALL_GPUS

    paper = {"GTX 980": 0.907, "Titan V": 0.971, "Vega 64": 0.549}
    deltas = {}
    for arch in ALL_GPUS:
        measured = fig5_series(arch)[-1]["efficiency"]
        deltas[arch.name] = abs(measured - paper[arch.name])
    ok = all(d < 0.01 for d in deltas.values())
    detail = ", ".join(f"{k}: |d|={v:.3f}" for k, v in deltas.items())
    return CheckResult("Fig. 5 efficiency endpoints", ok, detail)


_CHECKS: tuple[Callable[[], CheckResult], ...] = (
    _check_functional_agreement,
    _check_estimator_consistency,
    _check_microbench_recovery,
    _check_table2,
    _check_fig5_endpoints,
)


def run_selfcheck() -> list[CheckResult]:
    """Run the battery; exceptions become failed results, not raises."""
    results = []
    for check in _CHECKS:
        try:
            results.append(check())
        except Exception as exc:  # noqa: BLE001 - diagnosis over purity
            name = check.__name__.removeprefix("_check_").replace("_", " ")
            results.append(CheckResult(name, False, f"raised {exc!r}"))
    return results


def render_selfcheck(results: list[CheckResult]) -> str:
    """Human-readable battery report."""
    lines = ["repro self-check"]
    lines.append("-" * len(lines[0]))
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{status}] {r.name.ljust(width)}  {r.detail}")
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    return "\n".join(lines)
