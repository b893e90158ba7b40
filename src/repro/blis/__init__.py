"""BLIS-style structure shared by the CPU baseline and the GPU framework.

The paper's central algorithmic claim is that the *same* BLIS
matrix-multiplication structure (Fig. 3: five loops around a
micro-kernel, with packed panels of A and B) serves SNP comparison on
both CPUs (Alachiotis et al. [11]) and GPUs (this paper).  This package
implements that shared structure once:

* :mod:`repro.blis.blocking` -- tiling iterators and the core-grid
  partitioning of the 2nd/3rd loops.
* :mod:`repro.blis.packing` -- packing of A into ``m_r``-row
  micro-panels and B into ``n_r``-column micro-panels.
* :mod:`repro.blis.microkernel` -- the comparison micro-kernel registry
  (AND / XOR / AND-NOT combined with POPC and ADD) with per-word
  instruction mixes used by the performance models.
* :mod:`repro.blis.gemm` -- the reference driver, the one five-loop
  walk and the counted serial driver for the popcount-GEMM
  ``C[i,j] = sum_k POPC(op(A[i,k], B[j,k]))``.
"""

from repro.blis.blocking import BlockingPlan, tile_ranges, split_evenly
from repro.blis.microkernel import (
    ComparisonOp,
    MicroKernel,
    get_microkernel,
    MICROKERNELS,
)
from repro.blis.packing import pack_a_panel, pack_b_panel, unpack_a_panel
from repro.blis.gemm import bit_gemm, bit_gemm_reference, bit_gemm_blocked

__all__ = [
    "BlockingPlan",
    "tile_ranges",
    "split_evenly",
    "ComparisonOp",
    "MicroKernel",
    "get_microkernel",
    "MICROKERNELS",
    "pack_a_panel",
    "pack_b_panel",
    "unpack_a_panel",
    "bit_gemm",
    "bit_gemm_reference",
    "bit_gemm_blocked",
]
