"""Kernel ABI: the narrow compute contract every backend implements.

The paper's portability argument rests on one observation: the whole
SNP-comparison family needs only three primitives --

* ``pack``            -- genotypes to bit-words,
* ``bit_gemm_panel``  -- ``C[i, j] = sum_k POPC(op(A[i,k], B[j,k]))``
  over one row/column panel of packed words,
* ``popcount_reduce`` -- summed population count of a word array,

and everything else (blocking, sharding, streaming, resilience) is
orchestration *around* that contract.  This module pins the contract
down as :class:`KernelBackend` plus a :class:`BackendInfo` capability
descriptor, and keeps a process-wide registry so the engine, the gpu
executor, the autotuner and the CLI all resolve backends the same way.

Resolution rules (shared by every layer):

* an explicit backend name must exist and be available, else
  :class:`~repro.errors.ConfigurationError`;
* ``"auto"`` honours the ``REPRO_BACKEND`` environment variable when
  set (the CI backend matrix forces legs this way); the persisted host
  autotuner (:mod:`repro.parallel.tuner`) upgrades ``"auto"`` to a
  measured per-machine winner on sharded engine runs;
* otherwise :func:`pick_backend` applies the one size rule: a Gram run
  of at most :data:`BLIS_OP_LIMIT` word-ops takes the ``blis``
  triangle walk, a named backend runs as named, and ``"auto"`` picks
  ``blis`` up to the limit and ``blas`` above it;
* :func:`backend_fingerprint` summarises the installed backend set
  (names + versions) so tuning records are invalidated when a backend
  appears, disappears, or changes version.

Backends accept any packed word dtype the drivers accept
(``uint8``/``uint16``/``uint32``/``uint64``); compiled backends
canonicalise operands to zero-padded ``uint64`` rows first --
:func:`canonicalize_words` -- which is popcount- and bitwise-op
neutral, so results stay bit-exact with the reference walk.
"""

from __future__ import annotations

import os
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.blis.microkernel import ComparisonOp, get_microkernel
from repro.errors import ConfigurationError, PackingError
from repro.util.bitops import WORD_BITS_32, pack_bits, popcount

__all__ = [
    "REPRO_BACKEND_ENV",
    "BLIS_OP_LIMIT",
    "OPCODES",
    "BackendInfo",
    "KernelBackend",
    "canonicalize_words",
    "check_panel_operands",
    "register_backend",
    "registered_backends",
    "available_backends",
    "backend_names",
    "get_backend",
    "backend_available",
    "env_backend_name",
    "resolve_backend_name",
    "pick_backend",
    "backend_fingerprint",
]

#: Environment variable that forces the backend ``"auto"`` resolves to
#: (the CI backend matrix sets it per leg).
REPRO_BACKEND_ENV = "REPRO_BACKEND"

#: Serial GEMMs of at most this many packed-word operations run the
#: ``blis`` walk -- always for Gram runs (its triangle skip carries the
#: word-op accounting), and for ``"auto"``, which picks ``blas`` above.
BLIS_OP_LIMIT = 2_000_000

#: Stable integer codes compiled backends dispatch the comparison op
#: on (AND_PRENEGATED is AND on pre-negated words by construction).
OPCODES: dict[ComparisonOp, int] = {
    ComparisonOp.AND: 0,
    ComparisonOp.XOR: 1,
    ComparisonOp.ANDNOT: 2,
    ComparisonOp.AND_PRENEGATED: 0,
}


@dataclass(frozen=True)
class BackendInfo:
    """Capability/availability descriptor of one registered backend.

    ``available`` means the backend can compute *at all* on this host
    (the Numba backend goes unavailable without Numba, the native-C
    backend without a C compiler).  ``compiled`` marks a machine-code
    inner loop -- the bench-regression speedup gate applies only to
    compiled backends.  ``tunable`` backends are raced by the persisted
    host autotuner; the reference word-walk opts out (it is the oracle,
    not a candidate).
    """

    name: str
    kind: str  # "reference" | "blas" | "walk" | "jit" | "native"
    version: str
    available: bool
    compiled: bool
    tunable: bool
    description: str
    unavailable_reason: str | None = None


def check_panel_operands(
    a: np.ndarray, b: np.ndarray, op: ComparisonOp | str
) -> tuple[np.ndarray, np.ndarray, ComparisonOp]:
    """Validate one panel call; returns normalised ``(a, b, op)``.

    The one operand check every driver, backend and the engine share:
    2-D packed words of a shared unsigned dtype with matching k extents.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    for name, arr in (("A", a), ("B", b)):
        if arr.ndim != 2:
            raise PackingError(
                f"bit_gemm_panel: {name} must be 2-D packed words"
            )
        if arr.dtype not in (np.uint8, np.uint16, np.uint32, np.uint64):
            raise PackingError(
                f"bit_gemm_panel: {name} has non-word dtype {arr.dtype}"
            )
    if a.dtype != b.dtype:
        raise PackingError(
            f"bit_gemm_panel: dtype mismatch ({a.dtype} vs {b.dtype})"
        )
    if a.shape[1] != b.shape[1]:
        raise PackingError(
            f"bit_gemm_panel: k mismatch (A has {a.shape[1]} words, "
            f"B has {b.shape[1]})"
        )
    return a, b, get_microkernel(op).op


def canonicalize_words(words: np.ndarray) -> np.ndarray:
    """Reinterpret packed rows as contiguous zero-padded ``uint64``.

    Narrow word dtypes are zero-padded to an 8-byte multiple per row
    and byte-reinterpreted.  Both steps preserve the multiset of set
    bits per row *and* positional alignment across operands, so AND /
    XOR / ANDNOT popcount sums over the canonical form equal the sums
    over the original words (padding contributes ``POPC(op(0, 0)) = 0``
    for every supported op).
    """
    w = np.ascontiguousarray(words)
    if w.ndim != 2:
        raise PackingError(
            f"canonicalize_words: expected 2-D packed words, got ndim={w.ndim}"
        )
    if w.dtype == np.uint64:
        return w
    if w.dtype not in (np.uint8, np.uint16, np.uint32):
        raise PackingError(
            f"canonicalize_words: unsupported dtype {w.dtype}"
        )
    per = 8 // w.dtype.itemsize
    rows, k = w.shape
    pad = (-k) % per
    if pad:
        padded = np.zeros((rows, k + pad), dtype=w.dtype)
        padded[:, :k] = w
        w = padded
    return np.ascontiguousarray(w).view(np.uint64)


class KernelBackend(ABC):
    """One implementation of the three-primitive compute contract.

    Subclasses must provide :attr:`name`, :attr:`info` and
    :meth:`bit_gemm_panel`; :meth:`pack` and :meth:`popcount_reduce`
    have reference defaults (NumPy) that backends may override with
    compiled equivalents.  ``bit_gemm_panel`` must be thread-safe and
    release the GIL where it can -- the parallel engine calls it
    concurrently from pool threads.
    """

    #: The registry name.  A plain attribute, unlike :attr:`info`:
    #: registering or naming a backend never probes its availability
    #: (which for ``cnative`` means compiling the kernel).
    name: str

    @property
    @abstractmethod
    def info(self) -> BackendInfo:
        """The backend's capability/availability descriptor."""

    def pack(
        self,
        bits: np.ndarray,
        word_bits: int = WORD_BITS_32,
        pad_to_words: int | None = None,
    ) -> np.ndarray:
        """Pack a binary matrix row-wise into unsigned machine words."""
        return pack_bits(bits, word_bits, pad_to_words)

    @abstractmethod
    def bit_gemm_panel(
        self,
        a: np.ndarray,
        b: np.ndarray,
        op: ComparisonOp | str = ComparisonOp.AND,
    ) -> np.ndarray:
        """``C[i, j] = sum_k POPC(op(A[i,k], B[j,k]))`` for one panel.

        Operands are row-major packed words: A is ``(m, k)``, B is
        ``(n, k)`` (row-per-output-column).  Returns ``(m, n)`` int64,
        bit-exact with :func:`repro.blis.gemm.bit_gemm_reference`.
        """

    def popcount_reduce(
        self, words: np.ndarray, axis: int | None = None
    ) -> np.ndarray | int:
        """Summed population count along ``axis`` (all elements if None)."""
        counts = popcount(np.asarray(words))
        result = counts.sum(axis=axis)
        return int(result) if axis is None else result

    def __repr__(self) -> str:
        info = self.info
        state = "available" if info.available else "unavailable"
        return f"<KernelBackend {info.name} ({info.kind}, {state})>"


# -- registry --------------------------------------------------------------------

_REGISTRY: dict[str, KernelBackend] = {}
_REGISTRY_LOCK = threading.Lock()


def register_backend(
    backend: KernelBackend, replace: bool = False
) -> KernelBackend:
    """Add ``backend`` to the process-wide registry (returns it).

    Registration is by :attr:`KernelBackend.name`; duplicate names raise
    unless ``replace=True`` (tests use replacement to shadow a backend).
    """
    name = backend.name
    with _REGISTRY_LOCK:
        if name in _REGISTRY and not replace:
            raise ConfigurationError(
                f"register_backend: backend {name!r} is already registered"
            )
        _REGISTRY[name] = backend
    return backend


def registered_backends() -> tuple[KernelBackend, ...]:
    """Every registered backend, registration order preserved."""
    with _REGISTRY_LOCK:
        return tuple(_REGISTRY.values())


def available_backends() -> tuple[KernelBackend, ...]:
    """Registered backends whose descriptors report availability."""
    return tuple(b for b in registered_backends() if b.info.available)


def backend_names() -> tuple[str, ...]:
    """Registered backend names (the CLI builds its choices from this)."""
    with _REGISTRY_LOCK:
        return tuple(_REGISTRY.keys())


def get_backend(name: str) -> KernelBackend:
    """The registered backend called ``name``.

    Raises :class:`~repro.errors.ConfigurationError` for unknown names
    (listing what is registered) -- misspelled ``--backend`` values and
    stale tuning records fail loudly instead of silently degrading.
    """
    with _REGISTRY_LOCK:
        backend = _REGISTRY.get(name)
    if backend is None:
        raise ConfigurationError(
            f"unknown kernel backend {name!r} "
            f"(registered: {', '.join(backend_names()) or 'none'})"
        )
    return backend


def backend_available(name: str) -> bool:
    """Whether ``name`` is registered and reports availability."""
    with _REGISTRY_LOCK:
        backend = _REGISTRY.get(name)
    return backend is not None and backend.info.available


def env_backend_name() -> str | None:
    """The validated ``REPRO_BACKEND`` override, or ``None`` if unset.

    An unknown or unavailable name raises -- a CI leg that asks for a
    backend the container cannot provide must fail, not silently fall
    back to the reference path.
    """
    name = os.environ.get(REPRO_BACKEND_ENV)
    if not name or name == "auto":
        return None
    backend = get_backend(name)
    if not backend.info.available:
        raise ConfigurationError(
            f"{REPRO_BACKEND_ENV}={name!r} names an unavailable backend: "
            f"{backend.info.unavailable_reason or 'no reason recorded'}"
        )
    return name


def resolve_backend_name(name: str | None = None) -> str | None:
    """Resolve a backend spec to a named, available backend, or ``None``.

    ``None``/``"auto"`` resolves to the ``REPRO_BACKEND`` override, or
    ``None`` when unset (the caller's size rule decides); explicit
    names are validated for existence and availability.
    """
    if name is None or name == "auto":
        return env_backend_name()
    backend = get_backend(name)
    if not backend.info.available:
        raise ConfigurationError(
            f"kernel backend {name!r} is unavailable on this host: "
            f"{backend.info.unavailable_reason or 'no reason recorded'}"
        )
    return name


def pick_backend(
    total_ops: int, symmetric: bool = False, backend: str | None = "auto"
) -> str:
    """The one size rule naming the backend a serial GEMM runs on.

    A Gram run (``symmetric``) of at most :data:`BLIS_OP_LIMIT`
    word-ops takes the ``blis`` triangle walk; otherwise a named
    backend (explicit, or ``REPRO_BACKEND`` for ``"auto"``) runs;
    otherwise ``blis`` runs up to the limit and ``blas`` above it.
    """
    name = resolve_backend_name(backend)  # validates even when unused
    if symmetric and total_ops <= BLIS_OP_LIMIT:
        return "blis"
    if name is not None:
        return name
    return "blis" if total_ops <= BLIS_OP_LIMIT else "blas"


def backend_fingerprint() -> str:
    """Name=version summary of the tunable backend set, sorted.

    Part of the tuning-cache key: installing Numba (or losing the C
    compiler) changes the fingerprint, so records measured against the
    old backend set stop matching instead of pinning a stale winner.
    Unavailable backends contribute their name with an ``!`` marker so
    availability flips alone also invalidate.
    """
    parts = []
    for backend in registered_backends():
        info = backend.info
        if not info.tunable:
            continue
        marker = "" if info.available else "!"
        parts.append(f"{info.name}{marker}={info.version}")
    return ",".join(sorted(parts))
