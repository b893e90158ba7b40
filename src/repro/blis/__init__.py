"""BLIS-style structure shared by the CPU baseline and the GPU framework.

The paper's central algorithmic claim is that the *same* BLIS
matrix-multiplication structure (Fig. 3: five loops around a
micro-kernel, with packed panels of A and B) serves SNP comparison on
both CPUs (Alachiotis et al. [11]) and GPUs (this paper).  The repo
holds that structure where it is used, once each:

* :mod:`repro.blis.blocking` -- the loops: tiling iterators and the
  core-grid partitioning of the 2nd/3rd loops that the cycle model
  (:mod:`repro.gpu.cycles`) prices and the engine shards by;
* :mod:`repro.blis.microkernel` -- the comparison micro-kernel registry
  (AND / XOR / AND-NOT combined with POPC and ADD) with per-word
  instruction mixes used by the performance models;
* :mod:`repro.gpu.tilesim` walks the Section V data path (packed
  shared-memory panels) bit-exactly, and the ``cnative`` kernel's
  VPOPCNTDQ body (:mod:`repro.kernels.cnative_backend`) packs panels
  and runs a register-tiled micro-kernel on the host;
* :mod:`repro.blis.gemm` -- the reference driver (the ``numpy``
  backend's loop) and the band driver for windowed LD.

Host tables are computed by the kernel backends through the parallel
engine (:mod:`repro.kernels`, :mod:`repro.parallel`).
"""

from repro.blis.blocking import BlockingPlan, tile_ranges, split_evenly
from repro.blis.microkernel import (
    ComparisonOp,
    MicroKernel,
    get_microkernel,
    MICROKERNELS,
)
from repro.blis.gemm import bit_gemm_reference

__all__ = [
    "BlockingPlan",
    "tile_ranges",
    "split_evenly",
    "ComparisonOp",
    "MicroKernel",
    "get_microkernel",
    "MICROKERNELS",
    "bit_gemm_reference",
]
