"""Series builders for Figures 5-9.

Every builder returns plain data (lists of dicts) so the pytest
benches, the CLI report renderer and EXPERIMENTS.md generation all
consume one source of truth.  Paper-scale points are priced through
the timing-only device schedule (see :mod:`repro.model.endtoend`);
framework runs that also compute the table are exercised separately by
the test suite at reduced scale.
"""

from __future__ import annotations

from repro.blis.microkernel import ComparisonOp
from repro.core.config import Algorithm
from repro.core.planner import derive_config
from repro.gpu.arch import ALL_GPUS, GPUArchitecture
from repro.gpu.cycles import peak_word_ops_per_second
from repro.gpu.executor import price_kernel
from repro.gpu.kernel import KernelArgs, SnpKernel
from repro.model.endtoend import estimate_cpu_seconds, estimate_end_to_end
from repro.model.peak import gpops
from repro.model.scaling import scaling_curve

__all__ = [
    "FIG5_LIMITS",
    "FIG8_DB_ROWS",
    "fig5_series",
    "fig6_series",
    "fig7_series",
    "fig8_series",
    "fig9_series",
]

#: Fig. 5 axis limits per device, from the figure caption: maximum
#: SNPs per device tile and maximum SNP-string counts.
FIG5_LIMITS: dict[str, tuple[int, int]] = {
    "GTX 980": (15_360, 12_256),
    "Titan V": (25_600, 12_256),
    "Vega 64": (40_960, 16_384),
}

#: Fig. 8 database size: "more than 20 million entries", sized after
#: the FBI NDIS database (paper footnote 4).
FIG8_DB_ROWS = 20 * 1024 * 1024


def _kernel_for(arch: GPUArchitecture, algorithm: Algorithm) -> SnpKernel:
    cfg = derive_config(arch, algorithm)
    return SnpKernel.compile(
        arch,
        cfg.op,
        m_c=cfg.m_c,
        m_r=cfg.m_r,
        k_c=cfg.k_c,
        n_r=cfg.n_r,
        grid_rows=cfg.grid_rows,
        grid_cols=cfg.grid_cols,
    )


def fig5_series(
    arch: GPUArchitecture, n_points: int = 12
) -> list[dict[str, float]]:
    """LD kernel throughput as the SNP-string count grows (Fig. 5).

    SNP count fixed near the device's per-tile maximum; string count
    sweeps geometrically up to the device maximum.  Each point carries
    throughput (GPOPS), the theoretical peak and the efficiency.
    """
    snps, max_strings = FIG5_LIMITS[arch.name]
    k_words = snps // 32
    kernel = _kernel_for(arch, Algorithm.LD)
    peak = gpops(peak_word_ops_per_second(arch, ComparisonOp.AND))
    points = []
    strings = 128
    values: list[int] = []
    while strings < max_strings:
        values.append(strings)
        strings *= 2
    values.append(max_strings)
    for m in values[-n_points:]:
        profile = price_kernel(kernel, KernelArgs(m=m, n=m, k=k_words))
        points.append(
            {
                "device": arch.name,
                "snp_strings": m,
                "snps": snps,
                "gpops": gpops(profile.throughput_word_ops),
                "peak_gpops": peak,
                "efficiency": profile.efficiency,
            }
        )
    return points


def fig6_series(
    n_values: list[int] | None = None, k_bits: int = 10_000
) -> list[dict[str, float]]:
    """End-to-end LD time, CPU baseline vs the three GPUs (Fig. 6)."""
    if n_values is None:
        n_values = [1_000, 2_000, 4_000, 6_000, 8_000, 10_000, 12_000]
    rows = []
    for n in n_values:
        cpu_s = estimate_cpu_seconds(n, n, k_bits)
        row: dict[str, float] = {"sequences": n, "cpu_s": cpu_s}
        for arch in ALL_GPUS:
            est = estimate_end_to_end(arch, Algorithm.LD, n, n, k_bits)
            key = arch.name.lower().replace(" ", "_")
            row[f"{key}_s"] = est.end_to_end_s
            row[f"{key}_speedup"] = cpu_s / est.end_to_end_s
        rows.append(row)
    return rows


def fig7_series(arch: GPUArchitecture) -> list[dict[str, float]]:
    """Per-core relative performance vs active cores (Fig. 7)."""
    return [
        {"device": arch.name, "cores": c, "relative_per_core": v}
        for c, v in scaling_curve(arch)
    ]


def fig8_series(
    k_bits_values: list[int] | None = None,
    n_queries: int = 32,
    db_rows: int = FIG8_DB_ROWS,
) -> list[dict[str, float]]:
    """FastID end-to-end time vs SNP count (Fig. 8).

    32 queries (the smallest count that fills the shared-memory banks,
    per the paper) against the NDIS-scale database.
    """
    if k_bits_values is None:
        k_bits_values = [128, 256, 512, 1024]
    rows = []
    for k_bits in k_bits_values:
        row: dict[str, float] = {"snps": k_bits, "queries": n_queries, "db_rows": db_rows}
        for arch in ALL_GPUS:
            est = estimate_end_to_end(
                arch, Algorithm.FASTID_IDENTITY, n_queries, db_rows, k_bits
            )
            key = arch.name.lower().replace(" ", "_")
            row[f"{key}_s"] = est.end_to_end_s
            row[f"{key}_tiles"] = est.n_tiles
        rows.append(row)
    return rows


def fig9_series(
    m: int = 32, n: int = 4096, k_bits: int = 16_384
) -> list[dict[str, float]]:
    """AND vs AND-NOT kernel throughput on one core (Fig. 9).

    One compute core ("to lessen the impact of scalability"), mixture
    shapes.  NVIDIA devices show no difference (fused AND-NOT); the
    Vega 64 loses throughput because the extra NOT lands on the
    ALU pipe that already bounds the kernel.
    """
    rows = []
    k_words = k_bits // 32
    for arch in ALL_GPUS:
        cfg = derive_config(arch, Algorithm.FASTID_MIXTURE)
        results = {}
        for label, op in (("and", ComparisonOp.AND), ("andnot", ComparisonOp.ANDNOT)):
            kernel = SnpKernel.compile(
                arch, op,
                m_c=cfg.m_c, m_r=cfg.m_r, k_c=cfg.k_c, n_r=cfg.n_r,
                grid_rows=1, grid_cols=1,
            )
            profile = price_kernel(kernel, KernelArgs(m=m, n=n, k=k_words))
            results[label] = gpops(profile.throughput_word_ops)
        rows.append(
            {
                "device": arch.name,
                "and_gpops": results["and"],
                "andnot_gpops": results["andnot"],
                "andnot_penalty": 1.0 - results["andnot"] / results["and"],
            }
        )
    return rows
