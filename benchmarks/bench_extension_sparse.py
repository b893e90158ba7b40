"""Extension bench: sparse representation density crossover (Section VII).

The paper's future-work remark predicts sparse SNP representations pay
off because "a typical DNA sample is expected to contain mostly major
alleles".  This bench regenerates the dense-vs-sparse crossover curve
under the cost model and validates the auto-selector against measured
host wall-clock on both sides of the crossover.
"""

import numpy as np
import pytest

from repro.blis.gemm import bit_gemm
from repro.sparse.auto import choose_representation
from repro.sparse.cost import SparseCostModel, density_crossover
from repro.sparse.kernels import sparse_comparison
from repro.sparse.matrix import SparseSNPMatrix
from repro.util.bitops import pack_bits


def random_bits(shape, density, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.random(shape) < density).astype(np.uint8)


@pytest.mark.artifact("extension")
def bench_density_crossover_curve(benchmark):
    """Modeled cost ratio (sparse/dense) across the density axis."""
    model = SparseCostModel()

    def curve():
        points = {}
        for density in (0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5):
            sparse = model.sparse_ops(64, 64, 10_000, density)
            dense = model.dense_ops(64, 64, 10_000)
            points[density] = sparse / dense
        return points

    ratios = benchmark(curve)
    d_star = density_crossover(model)
    # Monotone in density, crossing 1.0 exactly at the crossover.
    values = [ratios[d] for d in sorted(ratios)]
    assert values == sorted(values)
    assert ratios[0.005] < 1.0 < ratios[0.5]
    print(f"\ndensity crossover d* = {d_star:.3f}; sparse/dense cost ratio: "
          + ", ".join(f"{d}:{r:.2f}" for d, r in sorted(ratios.items())))
    for density, ratio in ratios.items():
        assert (ratio < 1.0) == (density < d_star) or abs(density - d_star) < 0.01


@pytest.mark.artifact("extension")
def bench_sparse_kernel_rare_variants(benchmark):
    """Host wall-clock of the sparse kernel in its favourable regime."""
    bits = random_bits((64, 20_000), 0.005, seed=1)
    sp = SparseSNPMatrix.from_dense(bits)
    result = benchmark(sparse_comparison, sp)
    packed = pack_bits(bits, 32)
    assert (result == bit_gemm(packed, packed, backend="blas")).all()


@pytest.mark.artifact("extension")
def bench_dense_kernel_common_variants(benchmark):
    """The dense side of the comparison at matched shape."""
    bits = random_bits((64, 20_000), 0.4, seed=2)
    packed = pack_bits(bits, 32)
    result = benchmark(bit_gemm, packed, packed, backend="blas")
    assert result.shape == (64, 64)


@pytest.mark.artifact("extension")
def bench_auto_selector(benchmark):
    """The selector's decision cost and correctness at both densities."""

    def decide():
        rare = choose_representation(random_bits((32, 5_000), 0.005, 3))
        common = choose_representation(random_bits((32, 5_000), 0.4, 4))
        return rare, common

    rare, common = benchmark(decide)
    assert rare.representation == "sparse"
    assert common.representation == "dense"
    assert rare.predicted_speedup > 1.0
