"""Host-side functional throughput of the simulation itself.

Unlike the figure benches (which regenerate *modeled device* numbers),
this bench measures real wall-clock throughput of the Python functional
paths -- useful for tracking regressions in the executor, the packers
and the statistical layers.
"""

import numpy as np
import pytest

from repro.blis.microkernel import ComparisonOp
from repro.core.config import Algorithm
from repro.core.framework import SNPComparisonFramework
from repro.core.packing import pack_operand
from repro.gpu.arch import TITAN_V
from repro.parallel import bit_gemm_parallel
from repro.snp.generator import PopulationModel, generate_population
from repro.util.bitops import pack_bits


@pytest.fixture(scope="module")
def packed_mid():
    rng = np.random.default_rng(0)
    bits = (rng.random((256, 4096)) < 0.4).astype(np.uint8)
    return pack_bits(bits, 32)


@pytest.mark.artifact("functional")
def bench_fast_path_gemm(benchmark, packed_mid):
    result = benchmark(
        bit_gemm_parallel, packed_mid, packed_mid, ComparisonOp.AND,
        workers=1, backend="blas",
    )
    assert result.shape == (256, 256)


@pytest.mark.artifact("functional")
def bench_operand_packing(benchmark):
    rng = np.random.default_rng(2)
    bits = (rng.random((2048, 8192)) < 0.3).astype(np.uint8)
    packed = benchmark(pack_operand, bits, 32, 4)
    assert packed.k_words == 256


@pytest.mark.artifact("functional")
def bench_population_generation(benchmark):
    model = PopulationModel(n_samples=1024, n_sites=2048, block_size=32)
    dataset = benchmark(generate_population, model, 7)
    assert dataset.n_samples == 1024


@pytest.mark.artifact("functional")
def bench_framework_end_to_end(benchmark):
    rng = np.random.default_rng(3)
    queries = (rng.random((32, 1024)) < 0.5).astype(np.uint8)
    database = (rng.random((4096, 1024)) < 0.5).astype(np.uint8)
    fw = SNPComparisonFramework(TITAN_V, Algorithm.FASTID_IDENTITY)

    def run():
        table, report = fw.run(queries, database)
        return table

    table = benchmark(run)
    assert table.shape == (32, 4096)
