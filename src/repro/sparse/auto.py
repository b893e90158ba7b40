"""Automatic representation selection: dense bitvectors or sparse sets.

The user-facing entry of the sparse extension: given the operands of a
comparison, choose the representation the cost model prefers and run
the matching kernel.  The choice is returned alongside the results so
callers can audit it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.blis.microkernel import ComparisonOp, get_microkernel
from repro.errors import DatasetError
from repro.parallel.engine import bit_gemm_parallel
from repro.sparse.cost import SparseCostModel
from repro.sparse.kernels import sparse_comparison
from repro.sparse.matrix import SparseSNPMatrix
from repro.util.bitops import pack_bits
from repro.util.validation import check_binary_matrix

__all__ = ["RepresentationChoice", "choose_representation", "auto_comparison"]


@dataclass(frozen=True)
class RepresentationChoice:
    """The selector's decision and its inputs."""

    representation: str          # "sparse" or "dense"
    density: float
    dense_ops: float
    sparse_ops: float

    @property
    def predicted_speedup(self) -> float:
        """Model-predicted win of the chosen format over the other."""
        if self.representation == "sparse":
            return self.dense_ops / self.sparse_ops
        return self.sparse_ops / self.dense_ops


def choose_representation(
    a_bits: np.ndarray,
    b_bits: np.ndarray | None = None,
    model: SparseCostModel | None = None,
) -> RepresentationChoice:
    """Pick the cheaper representation for comparing ``a`` against ``b``.

    Both operands must be 0/1 matrices with one site count, else
    :class:`~repro.errors.DatasetError`.
    """
    a = check_binary_matrix("choose_representation: A", a_bits)
    b = a if b_bits is None else check_binary_matrix(
        "choose_representation: B", b_bits
    )
    if a.shape[1] != b.shape[1]:
        raise DatasetError("choose_representation: incompatible operand shapes")
    model = model or SparseCostModel()
    m, k_bits = a.shape
    n = b.shape[0]
    total = a.size + b.size
    density = float((a.sum() + b.sum()) / total) if total else 0.0
    dense = model.dense_ops(m, n, k_bits)
    sparse = model.sparse_ops(m, n, k_bits, density)
    return RepresentationChoice(
        representation="sparse" if sparse < dense else "dense",
        density=density,
        dense_ops=dense,
        sparse_ops=sparse,
    )


def auto_comparison(
    a_bits: np.ndarray,
    b_bits: np.ndarray | None = None,
    op: ComparisonOp | str = ComparisonOp.AND,
    model: SparseCostModel | None = None,
) -> tuple[np.ndarray, RepresentationChoice]:
    """Run the comparison in whichever representation the model picks.

    Both paths are bit-exact, so the choice affects cost only.
    """
    op = get_microkernel(op).op
    choice = choose_representation(a_bits, b_bits, model)
    a = np.asarray(a_bits)
    b = a if b_bits is None else np.asarray(b_bits)
    if choice.representation == "sparse":
        sa = SparseSNPMatrix.from_dense(a)
        sb = sa if b_bits is None else SparseSNPMatrix.from_dense(b)
        table = sparse_comparison(sa, sb, op)
    else:
        pa = pack_bits(a, 32)
        pb = pa if b_bits is None else pack_bits(b, 32)
        table = bit_gemm_parallel(pa, pb, op, workers=1, backend="blas")
    return table, choice
