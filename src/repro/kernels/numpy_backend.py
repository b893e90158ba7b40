"""Reference backend: the literal NumPy popcount word-walk.

This is the exact inner loop :func:`repro.blis.gemm.bit_gemm_reference`
has always run -- a row-blocked broadcast of ``op(a, b)`` followed by a
vectorised popcount-sum -- moved behind the kernel ABI so compiled
backends have a bit-exact oracle to race against.  ``bit_gemm_reference``
delegates here, so the oracle and the registered reference backend
cannot drift apart.
"""

from __future__ import annotations

import numpy as np

from repro.blis.microkernel import ComparisonOp, MicroKernel, get_microkernel
from repro.kernels.abi import BackendInfo, KernelBackend, check_panel_operands
from repro.util.bitops import popcount

__all__ = ["B_ROW_BLOCK", "ROW_BLOCK", "NumPyBackend", "reference_panel"]

#: Rows of A per broadcast block: bounds the (rows, n, k) word temporary.
ROW_BLOCK = 64

#: Rows of B per broadcast block when A has fewer than :data:`ROW_BLOCK`
#: rows: bounds the (rows, m, k) temporary however long B is.
B_ROW_BLOCK = 256


def reference_panel(
    a: np.ndarray, b: np.ndarray, kernel: MicroKernel
) -> np.ndarray:
    """The literal popcount-GEMM evaluation (pre-validated operands).

    A of :data:`ROW_BLOCK` rows or more is walked in blocks of that many
    rows, each broadcast against all of B.  A shorter A (a query batch
    against a database) is broadcast whole against blocks of
    :data:`B_ROW_BLOCK` rows of B instead, so the temporary stays small
    however long B is; the op keeps its operand order and each block is
    written transposed into C.
    """
    m = a.shape[0]
    n = b.shape[0]
    c = np.zeros((m, n), dtype=np.int64)
    if 0 < m < ROW_BLOCK:
        for start in range(0, n, B_ROW_BLOCK):
            stop = min(start + B_ROW_BLOCK, n)
            combined = kernel.combine(a[None, :, :], b[start:stop, None, :])
            c.T[start:stop] = popcount(combined).sum(axis=2)
        return c
    for start in range(0, m, ROW_BLOCK):
        stop = min(start + ROW_BLOCK, m)
        combined = kernel.combine(a[start:stop, None, :], b[None, :, :])
        c[start:stop] = popcount(combined).sum(axis=2)
    return c


class NumPyBackend(KernelBackend):
    """The always-available reference implementation of the ABI."""

    name = "numpy"

    @property
    def info(self) -> BackendInfo:
        return BackendInfo(
            name=self.name,
            kind="reference",
            version=np.__version__,
            available=True,
            compiled=False,
            description=(
                "pure-NumPy popcount word-walk (the bit-exact oracle "
                "every other backend is gated against)"
            ),
        )

    def bit_gemm_panel(
        self,
        a: np.ndarray,
        b: np.ndarray,
        op: ComparisonOp | str = ComparisonOp.AND,
    ) -> np.ndarray:
        a, b, op = check_panel_operands(a, b, op)
        return reference_panel(a, b, get_microkernel(op))
