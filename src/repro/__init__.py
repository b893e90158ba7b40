"""repro -- a reproduction of "A Portable GPU Framework for SNP Comparisons".

Binder, Low & Popovici (2019) present an OpenCL framework that maps the
BLIS matrix-multiplication structure onto GPUs to compute three
SNP-comparison workloads -- linkage disequilibrium, FastID identity
search and FastID mixture analysis -- with the software configuration
derived analytically from a model GPU architecture.

This package reimplements the full system in Python.  Real GPUs are
replaced by a simulated device substrate (see DESIGN.md for the
substitution rationale): results are computed bit-exactly on packed
bitvectors, while execution times come from an analytical model of the
paper's model GPU architecture calibrated to the three evaluation
devices (GTX 980, Titan V, Vega 64).

Quickstart::

    import numpy as np
    from repro import linkage_disequilibrium
    from repro.snp import generate_population, PopulationModel

    data = generate_population(
        PopulationModel(n_samples=200, n_sites=1000), rng=0)
    result = linkage_disequilibrium(data, device="Titan V")
    print(result.r_squared.shape)       # (1000, 1000)
    print(result.report)                # itemized simulated timing

Package map::

    repro.core    the portable framework (the paper's contribution)
    repro.snp     genetics substrate (datasets, generators, oracles)
    repro.blis    shared BLIS structure (blocking, packing, micro-kernels)
    repro.gpu     simulated GPU substrate (arch model, device stack,
                  core simulator, microbenchmarks, cycle model)
    repro.cpu     CPU baseline of Alachiotis et al. [11]
    repro.model   peak / end-to-end / scaling performance models
    repro.bench   experiment harness regenerating every table & figure
    repro.parallel host-side sharded execution engine (thread or
                  process pool; the ``workers=`` entry points)
"""

from repro.core import (
    Algorithm,
    KernelConfig,
    SNPComparisonFramework,
    identity_search,
    linkage_disequilibrium,
    mixture_analysis,
    derive_config,
    published_config,
    render_header,
)
from repro.errors import ReproError
from repro.gpu.arch import ALL_GPUS, GTX_980, TITAN_V, VEGA_64, get_gpu
from repro.parallel import ParallelEngine, bit_gemm_parallel

__version__ = "1.0.0"

__all__ = [
    "Algorithm",
    "KernelConfig",
    "SNPComparisonFramework",
    "identity_search",
    "linkage_disequilibrium",
    "mixture_analysis",
    "derive_config",
    "published_config",
    "render_header",
    "ReproError",
    "ParallelEngine",
    "bit_gemm_parallel",
    "ALL_GPUS",
    "GTX_980",
    "TITAN_V",
    "VEGA_64",
    "get_gpu",
    "__version__",
]
