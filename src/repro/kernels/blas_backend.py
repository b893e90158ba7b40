"""``blas`` backend: the popcount-GEMM as dense float32 BLAS GEMMs.

Samsi et al. (PAPERS.md) evaluate the DNA identity comparison as one
dense matrix multiply; the same identities cover every comparison op
over unpacked bits::

    sum_k POPC(a & b)   =  <bits(a), bits(b)>
    sum_k POPC(a ^ b)   =  |a| + |b| - 2 <a, b>
    sum_k POPC(a & ~b)  =  |a| - <a, b>

so one SGEMM (``a @ a.T`` for a self-comparison, which BLAS serves as
a symmetric rank-k update) yields the whole table.  XOR/ANDNOT act on
the *stored words*; padding bits are zero in both operands by
construction and contribute nothing.

**Exactness.**  float32 represents every integer below 2**24, so each
GEMM covers fewer than :data:`FLOAT32_EXACT_BITS` bits of k: every
partial dot product is then an exact integer, whatever order BLAS sums
in.  Chunk results accumulate in int64.
"""

from __future__ import annotations

import numpy as np

from repro.blis.gemm import same_operand
from repro.blis.microkernel import ComparisonOp
from repro.kernels.abi import BackendInfo, KernelBackend, check_panel_operands
from repro.util.bitops import popcount

__all__ = ["FLOAT32_EXACT_BITS", "BlasBackend", "blas_panel"]

#: float32 holds every integer below this exactly; one GEMM covers
#: fewer bits of k than this.
FLOAT32_EXACT_BITS = 1 << 24


def _bits(words: np.ndarray) -> np.ndarray:
    """Rows of packed words as float32 0/1 bits.

    Bits come out in native byte order, not word order: a bit
    permutation shared by both operands leaves every dot product
    unchanged, and both operands share a dtype.
    """
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    return np.unpackbits(as_bytes, axis=1).astype(np.float32)


def blas_panel(a: np.ndarray, b: np.ndarray, op: ComparisonOp) -> np.ndarray:
    """The identity evaluation of one panel (pre-validated operands)."""
    k = a.shape[1]
    step = max(1, (FLOAT32_EXACT_BITS - 1) // (a.dtype.itemsize * 8))
    self_product = same_operand(a, b)

    def dot(k0: int) -> np.ndarray:
        bits_a = _bits(a[:, k0:k0 + step])
        bits_b = bits_a if self_product else _bits(b[:, k0:k0 + step])
        chunk: np.ndarray = (bits_a @ bits_b.T).astype(np.int64)
        return chunk

    dots = dot(0)
    for k0 in range(step, k, step):
        dots += dot(k0)
    if op in (ComparisonOp.AND, ComparisonOp.AND_PRENEGATED):
        return dots
    # XOR: |a| + |b| - 2<a, b>; ANDNOT: |a| - <a, b>.  In place, since
    # the table is the largest array here.
    if op is ComparisonOp.XOR:
        dots *= -2
        dots += popcount(b).sum(axis=1)[None, :]
    else:
        np.negative(dots, out=dots)
    dots += popcount(a).sum(axis=1)[:, None]
    return dots


class BlasBackend(KernelBackend):
    """The popcount identities as float32 BLAS GEMMs (always available)."""

    name = "blas"

    @property
    def info(self) -> BackendInfo:
        return BackendInfo(
            name=self.name,
            kind="blas",
            version=f"numpy-{np.__version__}",
            available=True,
            compiled=False,
            description=(
                "popcount identities as float32 BLAS GEMMs over unpacked "
                "bits (k-chunks below 2**24 bits, int64 accumulation)"
            ),
        )

    def bit_gemm_panel(
        self,
        a: np.ndarray,
        b: np.ndarray,
        op: ComparisonOp | str = ComparisonOp.AND,
    ) -> np.ndarray:
        a, b, op = check_panel_operands(a, b, op)
        return blas_panel(a, b, op)
