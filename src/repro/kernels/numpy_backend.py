"""Reference backend: the literal NumPy popcount word-walk.

This is the exact inner loop :func:`repro.blis.gemm.bit_gemm_reference`
has always run -- a row-blocked broadcast of ``op(a, b)`` followed by a
vectorised popcount-sum -- moved behind the kernel ABI so compiled
backends have a bit-exact oracle to race against.  ``bit_gemm_reference``
now delegates here, so the oracle and the registered reference backend
cannot drift apart.
"""

from __future__ import annotations

import numpy as np

from repro.blis.microkernel import ComparisonOp, MicroKernel, get_microkernel
from repro.kernels.abi import BackendInfo, KernelBackend, check_panel_operands
from repro.util.bitops import popcount

__all__ = ["DEFAULT_ROW_BLOCK", "NumPyBackend", "reference_panel"]

#: Rows per broadcast block: bounds the (rows, n, k) word temporary.
DEFAULT_ROW_BLOCK = 64


def reference_panel(
    a: np.ndarray,
    b: np.ndarray,
    kernel: MicroKernel,
    row_block: int = DEFAULT_ROW_BLOCK,
) -> np.ndarray:
    """The literal popcount-GEMM evaluation (pre-validated operands)."""
    m = a.shape[0]
    n = b.shape[0]
    c = np.zeros((m, n), dtype=np.int64)
    for start in range(0, m, row_block):
        stop = min(start + row_block, m)
        combined = kernel.combine(a[start:stop, None, :], b[None, :, :])
        c[start:stop] = popcount(combined).sum(axis=2)
    return c


class NumPyBackend(KernelBackend):
    """The always-available reference implementation of the ABI."""

    name = "numpy"

    def __init__(self, row_block: int = DEFAULT_ROW_BLOCK) -> None:
        self.row_block = row_block

    @property
    def info(self) -> BackendInfo:
        return BackendInfo(
            name=self.name,
            kind="reference",
            version=np.__version__,
            available=True,
            compiled=False,
            tunable=False,
            description=(
                "pure-NumPy popcount word-walk (the bit-exact oracle "
                "every other backend is gated against; never tuned)"
            ),
        )

    def bit_gemm_panel(
        self,
        a: np.ndarray,
        b: np.ndarray,
        op: ComparisonOp | str = ComparisonOp.AND,
    ) -> np.ndarray:
        a, b, op = check_panel_operands(a, b, op)
        return reference_panel(a, b, get_microkernel(op), self.row_block)
