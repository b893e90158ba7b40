"""Compiled backend: Numba ``@njit`` word-level popcount bit-GEMM.

When Numba is installed, the panel is a machine-code triple loop over
canonical ``uint64`` words with a SWAR popcount (LLVM lowers it to the
native ``popcnt`` where the target has one); ``nogil=True`` lets the
parallel engine's pool threads genuinely overlap panel calls.  The JIT
is built lazily on first use, so importing the package never pays
compilation time.

Without Numba the backend stays registered but unavailable -- like
``cnative`` without a C compiler -- with the reason in its descriptor,
so ``--backend numba`` fails loudly while ``"auto"`` and the registry
iteration keep working.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

import numpy as np

from repro.blis.microkernel import ComparisonOp
from repro.errors import ConfigurationError
from repro.kernels.abi import (
    OPCODES,
    BackendInfo,
    KernelBackend,
    canonicalize_words,
    check_panel_operands,
)

__all__ = ["HAVE_NUMBA", "NUMBA_VERSION", "NumbaBackend"]

try:  # pragma: no cover - exercised only where numba is installed
    import numba

    HAVE_NUMBA = True
    NUMBA_VERSION: str = str(numba.__version__)
except ImportError:
    HAVE_NUMBA = False
    NUMBA_VERSION = "absent"


_PanelFn = Callable[[np.ndarray, np.ndarray, int, np.ndarray], None]
_PopsumFn = Callable[[np.ndarray], int]

_JIT_LOCK = threading.Lock()
_JIT_PANEL: _PanelFn | None = None
_JIT_POPSUM: _PopsumFn | None = None


def _build_jit() -> tuple[_PanelFn, _PopsumFn]:  # pragma: no cover - numba only
    """Compile the njit kernels (called once, under the module lock)."""
    from numba import njit

    @njit(cache=False, nogil=True)
    def panel(
        a: np.ndarray, b: np.ndarray, opcode: int, out: np.ndarray
    ) -> None:
        m1 = np.uint64(0x5555555555555555)
        m2 = np.uint64(0x3333333333333333)
        m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
        h01 = np.uint64(0x0101010101010101)
        full = np.uint64(0xFFFFFFFFFFFFFFFF)
        m = a.shape[0]
        n = b.shape[0]
        k = a.shape[1]
        for i in range(m):
            for j in range(n):
                acc = np.uint64(0)
                for t in range(k):
                    if opcode == 0:
                        x = a[i, t] & b[j, t]
                    elif opcode == 1:
                        x = a[i, t] ^ b[j, t]
                    else:
                        x = a[i, t] & (b[j, t] ^ full)
                    x = x - ((x >> np.uint64(1)) & m1)
                    x = (x & m2) + ((x >> np.uint64(2)) & m2)
                    x = (x + (x >> np.uint64(4))) & m4
                    acc += (x * h01) >> np.uint64(56)
                out[i, j] = acc

    @njit(cache=False, nogil=True)
    def popsum(w: np.ndarray) -> int:
        m1 = np.uint64(0x5555555555555555)
        m2 = np.uint64(0x3333333333333333)
        m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
        h01 = np.uint64(0x0101010101010101)
        acc = np.uint64(0)
        for t in range(w.size):
            x = w[t]
            x = x - ((x >> np.uint64(1)) & m1)
            x = (x & m2) + ((x >> np.uint64(2)) & m2)
            x = (x + (x >> np.uint64(4))) & m4
            acc += (x * h01) >> np.uint64(56)
        return np.int64(acc)

    return panel, popsum


def _get_jit() -> tuple[_PanelFn, _PopsumFn]:  # pragma: no cover - numba only
    global _JIT_PANEL, _JIT_POPSUM
    with _JIT_LOCK:
        if _JIT_PANEL is None or _JIT_POPSUM is None:
            _JIT_PANEL, _JIT_POPSUM = _build_jit()
        return _JIT_PANEL, _JIT_POPSUM


class NumbaBackend(KernelBackend):
    """``@njit`` popcount bit-GEMM (unavailable without Numba)."""

    name = "numba"

    @property
    def info(self) -> BackendInfo:
        return BackendInfo(
            name=self.name,
            kind="jit",
            version=NUMBA_VERSION,
            available=HAVE_NUMBA,
            compiled=HAVE_NUMBA,
            tunable=HAVE_NUMBA,
            description=(
                "Numba @njit word-level SWAR popcount panel "
                "(nogil, lazily compiled)"
            ),
            unavailable_reason=None if HAVE_NUMBA else "numba is not installed",
        )

    def bit_gemm_panel(
        self,
        a: np.ndarray,
        b: np.ndarray,
        op: ComparisonOp | str = ComparisonOp.AND,
    ) -> np.ndarray:
        a, b, op = check_panel_operands(a, b, op)
        if not HAVE_NUMBA:
            raise ConfigurationError("numba backend unavailable: numba is not installed")
        m, n = a.shape[0], b.shape[0]
        out = np.zeros((m, n), dtype=np.int64)
        if m == 0 or n == 0 or a.shape[1] == 0:
            return out
        panel, _ = _get_jit()  # pragma: no cover - numba only
        panel(canonicalize_words(a), canonicalize_words(b), OPCODES[op], out)
        return out

    def popcount_reduce(
        self, words: np.ndarray, axis: int | None = None
    ) -> np.ndarray | int:
        w = np.asarray(words)
        if axis is None and HAVE_NUMBA and w.size:  # pragma: no cover
            flat: Any = canonicalize_words(w.reshape(1, w.size)).ravel()
            _, popsum = _get_jit()
            return int(popsum(flat))
        return super().popcount_reduce(w, axis)
