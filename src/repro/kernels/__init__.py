"""``repro.kernels``: the kernel ABI and its registered backends.

See :mod:`repro.kernels.abi` for the contract and resolution rules,
and ``docs/KERNELS.md`` for the narrative.  Importing this package
registers the built-in backends:

* ``numpy``   -- the reference word-walk (the oracle), and ``"auto"``'s
  fallback when the shorter operand is short;
* ``blas``    -- the popcount identities as one dense float32 BLAS
  product, ``"auto"``'s fallback for anything larger;
* ``cnative`` -- C panel compiled with the host toolchain, its body
  (portable, ``popcnt``, AVX-512 VPOPCNTDQ) picked at load; ``"auto"``
  runs it once loaded (unavailable without a C compiler).

Registration is import-side-effect only; nothing is compiled until a
backend is probed or used.
"""

from repro.kernels.abi import (
    NUMPY_ROW_LIMIT,
    OPCODES,
    REPRO_BACKEND_ENV,
    BackendInfo,
    KernelBackend,
    available_backends,
    backend_available,
    backend_names,
    canonicalize_words,
    check_panel_operands,
    env_backend_name,
    get_backend,
    pick_backend,
    register_backend,
    registered_backends,
    resolve_backend_name,
)
from repro.kernels.blas_backend import BlasBackend
from repro.kernels.cnative_backend import CNativeBackend
from repro.kernels.numpy_backend import NumPyBackend

__all__ = [
    "NUMPY_ROW_LIMIT",
    "OPCODES",
    "REPRO_BACKEND_ENV",
    "BackendInfo",
    "KernelBackend",
    "NumPyBackend",
    "BlasBackend",
    "CNativeBackend",
    "available_backends",
    "backend_available",
    "backend_names",
    "canonicalize_words",
    "check_panel_operands",
    "env_backend_name",
    "get_backend",
    "pick_backend",
    "register_backend",
    "registered_backends",
    "resolve_backend_name",
]

# Built-in registrations (idempotent under module re-execution because
# the registry lives in repro.kernels.abi, which is imported once).
if "numpy" not in backend_names():
    register_backend(NumPyBackend())
    register_backend(BlasBackend())
    register_backend(CNativeBackend())
