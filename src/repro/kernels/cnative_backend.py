"""Compiled backend: a C popcount bit-GEMM built with the host toolchain.

ROADMAP item 2 names "a Cython/C extension or Numba" as the unlock for
the inner loop; this is the C-extension half.  A small fixed C source
(triple loop over canonical ``uint64`` words, ``__builtin_popcountll``
inner op) is compiled once per host into a per-user cache directory --
keyed by a hash of the source, the compiler and the flags -- and loaded
through :mod:`ctypes`.  ctypes calls release the GIL, so panel calls
from the parallel engine's pool threads overlap.

No compiler, a failed compile, or a failed load all leave the backend
*registered but unavailable* with the reason recorded in its
descriptor: ``--backend cnative`` then fails loudly while ``"auto"``
and the registry iteration keep working.  Nothing is compiled at
import time -- the first availability probe (or panel call) pays the
one-time build.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

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
from repro.util.cachedir import repro_cache_dir

__all__ = ["KERNEL_CACHE_ENV", "DEFAULT_KERNEL_CACHE", "CNativeBackend"]

#: Environment variable overriding where compiled kernels are cached.
KERNEL_CACHE_ENV = "REPRO_KERNEL_CACHE"

#: Default compiled-kernel cache directory (per-user, survives
#: checkouts); honours ``XDG_CACHE_HOME`` via
#: :func:`repro.util.cachedir.repro_cache_dir` -- kept as a constant
#: name for documentation, resolved per call in :func:`_cache_dir`.
DEFAULT_KERNEL_CACHE = "~/.cache/repro/kernels"

#: Compilers probed in order when ``$CC`` is unset.
_COMPILERS = ("cc", "gcc", "clang")

_CFLAGS = ("-O3", "-shared", "-fPIC")

_SOURCE = """\
#include <stdint.h>

#if defined(__GNUC__) || defined(__clang__)
static inline int64_t popc64(uint64_t x) { return __builtin_popcountll(x); }
#else
static inline int64_t popc64(uint64_t x) {
    x = x - ((x >> 1) & 0x5555555555555555ULL);
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
    return (int64_t)((x * 0x0101010101010101ULL) >> 56);
}
#endif

void repro_bit_gemm_panel(const uint64_t *a, const uint64_t *b, int64_t *c,
                          int64_t m, int64_t n, int64_t k, int32_t opcode) {
    for (int64_t i = 0; i < m; ++i) {
        const uint64_t *ar = a + i * k;
        int64_t *cr = c + i * n;
        for (int64_t j = 0; j < n; ++j) {
            const uint64_t *br = b + j * k;
            int64_t acc = 0;
            if (opcode == 0) {
                for (int64_t t = 0; t < k; ++t) acc += popc64(ar[t] & br[t]);
            } else if (opcode == 1) {
                for (int64_t t = 0; t < k; ++t) acc += popc64(ar[t] ^ br[t]);
            } else {
                for (int64_t t = 0; t < k; ++t) acc += popc64(ar[t] & ~br[t]);
            }
            cr[j] = acc;
        }
    }
}

int64_t repro_popcount_sum(const uint64_t *w, int64_t n_words) {
    int64_t acc = 0;
    for (int64_t t = 0; t < n_words; ++t) acc += popc64(w[t]);
    return acc;
}
"""


def _find_compiler() -> str | None:
    """``$CC`` if set, else the first of cc/gcc/clang on PATH."""
    cc = os.environ.get("CC")
    if cc:
        return cc if os.path.sep in cc else shutil.which(cc)
    for candidate in _COMPILERS:
        found = shutil.which(candidate)
        if found:
            return found
    return None


def _cache_dir() -> Path:
    override = os.environ.get(KERNEL_CACHE_ENV)
    if override:
        return Path(override).expanduser()
    return repro_cache_dir() / "kernels"


def _build_library(cc: str) -> Path:
    """Compile the kernel source into the cache (idempotent, atomic).

    The output name hashes source + compiler + flags, so a toolchain
    or source change compiles a fresh object instead of reusing a
    stale one; concurrent builders race benignly through ``os.replace``.
    """
    tag = hashlib.sha256(
        "\x00".join((_SOURCE, cc, " ".join(_CFLAGS))).encode()
    ).hexdigest()[:16]
    cache = _cache_dir()
    target = cache / f"bitgemm-{tag}.so"
    if target.exists():
        return target
    cache.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=cache) as tmp:
        src = Path(tmp) / "bitgemm.c"
        obj = Path(tmp) / "bitgemm.so"
        src.write_text(_SOURCE)
        proc = subprocess.run(
            [cc, *_CFLAGS, "-o", str(obj), str(src)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise ConfigurationError(
                f"cnative: {cc} failed ({proc.returncode}): "
                f"{proc.stderr.strip()[:500]}"
            )
        os.replace(obj, target)
    return target


class CNativeBackend(KernelBackend):
    """ctypes-loaded C implementation of the kernel ABI."""

    name = "cnative"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._probed = False
        self._lib: ctypes.CDLL | None = None
        self._cc: str | None = None
        self._error: str | None = None

    # -- lazy toolchain probe --------------------------------------------------

    def _ensure(self) -> ctypes.CDLL | None:
        """Compile/load once; failures latch into the descriptor."""
        with self._lock:
            if self._probed:
                return self._lib
            self._probed = True
            cc = _find_compiler()
            if cc is None:
                self._error = "no C compiler found ($CC, cc, gcc, clang)"
                return None
            self._cc = cc
            try:
                path = _build_library(cc)
                lib = ctypes.CDLL(str(path))
            except (ConfigurationError, OSError, subprocess.SubprocessError) as exc:
                self._error = str(exc)
                return None
            lib.repro_bit_gemm_panel.argtypes = [
                ctypes.c_void_p,
                ctypes.c_void_p,
                ctypes.c_void_p,
                ctypes.c_int64,
                ctypes.c_int64,
                ctypes.c_int64,
                ctypes.c_int32,
            ]
            lib.repro_bit_gemm_panel.restype = None
            lib.repro_popcount_sum.argtypes = [ctypes.c_void_p, ctypes.c_int64]
            lib.repro_popcount_sum.restype = ctypes.c_int64
            self._lib = lib
            return lib

    @property
    def info(self) -> BackendInfo:
        lib = self._ensure()
        available = lib is not None
        cc_name = os.path.basename(self._cc) if self._cc else "none"
        return BackendInfo(
            name=self.name,
            kind="native",
            version=f"cc-{cc_name}",
            available=available,
            compiled=available,
            tunable=available,
            description=(
                "C popcount bit-GEMM compiled with the host toolchain "
                "(ctypes, GIL-releasing)"
            ),
            unavailable_reason=self._error,
        )

    # -- ABI -------------------------------------------------------------------

    def bit_gemm_panel(
        self,
        a: np.ndarray,
        b: np.ndarray,
        op: ComparisonOp | str = ComparisonOp.AND,
    ) -> np.ndarray:
        a, b, op = check_panel_operands(a, b, op)
        lib = self._ensure()
        if lib is None:
            raise ConfigurationError(
                f"cnative backend unavailable: {self._error}"
            )
        m, n = a.shape[0], b.shape[0]
        out = np.zeros((m, n), dtype=np.int64)
        if m == 0 or n == 0 or a.shape[1] == 0:
            return out
        ca = canonicalize_words(a)
        cb = canonicalize_words(b)
        lib.repro_bit_gemm_panel(
            ca.ctypes.data,
            cb.ctypes.data,
            out.ctypes.data,
            m,
            n,
            ca.shape[1],
            OPCODES[op],
        )
        return out

    def popcount_reduce(
        self, words: np.ndarray, axis: int | None = None
    ) -> np.ndarray | int:
        w = np.asarray(words)
        lib = self._lib if self._probed else self._ensure()
        if axis is None and lib is not None and w.size:
            flat = canonicalize_words(w.reshape(1, w.size)).ravel()
            return int(lib.repro_popcount_sum(flat.ctypes.data, flat.size))
        return super().popcount_reduce(w, axis)
