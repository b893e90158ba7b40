"""Kernel ABI: the narrow compute contract every backend implements.

The paper's portability argument rests on one observation: the whole
SNP-comparison family reduces to one primitive --

* ``bit_gemm_panel`` -- ``C[i, j] = sum_k POPC(op(A[i,k], B[j,k]))``
  over one row/column panel of packed words,

and everything else (packing, blocking, sharding, streaming,
resilience) is orchestration *around* that contract.  This module pins
the contract down as :class:`KernelBackend` plus a
:class:`BackendInfo` capability descriptor, and keeps a process-wide
registry so the engine, the framework and the CLI all resolve
backends the same way.

Resolution rules (shared by every layer, applied in one place,
:func:`pick_backend`):

* an explicit backend name must exist and be available, else
  :class:`~repro.errors.ConfigurationError`;
* ``"auto"`` honours the ``REPRO_BACKEND`` environment variable when
  set;
* otherwise the one shape rule decides: ``"auto"`` picks ``cnative``
  once its hardware-popcount body is loaded, else ``numpy`` when the
  shorter operand has at most :data:`NUMPY_ROW_LIMIT` rows and
  ``blas`` for anything larger.  The choice depends only on the
  problem's shape and which backends have loaded, never on
  per-machine state or on the plan shape.

Whichever backend runs, a logical GEMM counts ``m * n * k`` word-ops,
so counters never depend on the choice.

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

__all__ = [
    "REPRO_BACKEND_ENV",
    "NUMPY_ROW_LIMIT",
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
]

#: Environment variable that forces the backend ``"auto"`` resolves to.
REPRO_BACKEND_ENV = "REPRO_BACKEND"

#: Until ``cnative`` loads, ``"auto"`` GEMMs whose shorter operand has
#: at most this many rows run the ``numpy`` reference and larger ones
#: ``blas`` (the race behind the cut is in ``docs/KERNELS.md``).
NUMPY_ROW_LIMIT = 16

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
    (the native-C backend goes unavailable without a C compiler).
    ``compiled`` marks a machine-code inner loop -- the bench-regression
    speedup gate applies only to compiled backends.
    """

    name: str
    kind: str  # "reference" | "blas" | "native"
    version: str
    available: bool
    compiled: bool
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
    """One implementation of the one-primitive compute contract.

    Subclasses provide :attr:`name`, :attr:`info` and
    :meth:`bit_gemm_panel`.  ``bit_gemm_panel`` must be thread-safe and
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
    (listing what is registered) -- misspelled ``--backend`` or
    ``REPRO_BACKEND`` values fail loudly instead of silently degrading.
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

    An unknown or unavailable name raises -- a run that asks for a
    backend the host cannot provide must fail, not silently fall back
    to another path.
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
    ``None`` when unset (the caller's shape rule decides); explicit
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


def pick_backend(m: int, n: int, k: int, backend: str | None = "auto") -> str:
    """The one shape rule naming the backend an ``(m, n, k)`` GEMM runs on.

    A named backend (explicit, or ``REPRO_BACKEND`` for ``"auto"``)
    runs as named; otherwise ``cnative`` runs once a hardware-popcount
    body is loaded
    (:meth:`~repro.kernels.cnative_backend.CNativeBackend.auto_ready`,
    which never compiles on the caller's thread and counts ``m * n *
    k`` towards the compile trigger), else ``numpy`` when the shorter
    operand has at most :data:`NUMPY_ROW_LIMIT` rows and ``blas`` for
    anything larger.  Every choice counts the same word-ops, so
    answers and counters do not depend on whether the library has
    loaded yet.
    """
    name = resolve_backend_name(backend)
    if name is not None:
        return name
    if _native_ready(m * n * k):
        return "cnative"
    return "numpy" if min(m, n) <= NUMPY_ROW_LIMIT else "blas"


def _native_ready(total_ops: int) -> bool:
    """Whether the registered ``cnative`` backend takes an ``"auto"`` GEMM."""
    # Lazy import: the backend module imports this one.
    from repro.kernels.cnative_backend import CNativeBackend

    with _REGISTRY_LOCK:
        native = _REGISTRY.get(CNativeBackend.name)
    return isinstance(native, CNativeBackend) and native.auto_ready(total_ops)
