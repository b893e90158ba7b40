"""``repro.kernels``: the kernel ABI and its registered backends.

See :mod:`repro.kernels.abi` for the contract and resolution rules,
and ``docs/KERNELS.md`` for the narrative.  Importing this package
registers the built-in backends:

* ``numpy``   -- the reference word-walk (the oracle; never tuned);
* ``blas``    -- the popcount identities as float32 BLAS GEMMs;
* ``blis``    -- the BLIS five-loop walk the simulated device runs;
* ``cnative`` -- C panel compiled with the host toolchain (unavailable
  without a C compiler);
* ``numba``   -- ``@njit`` compiled panel (unavailable without Numba).

Registration is import-side-effect only; nothing is JIT- or
C-compiled until a backend is actually probed or used.
"""

from repro.kernels.abi import (
    BLIS_OP_LIMIT,
    OPCODES,
    REPRO_BACKEND_ENV,
    BackendInfo,
    KernelBackend,
    available_backends,
    backend_available,
    backend_fingerprint,
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
from repro.kernels.blis_backend import BlisBackend
from repro.kernels.cnative_backend import CNativeBackend
from repro.kernels.numba_backend import HAVE_NUMBA, NumbaBackend
from repro.kernels.numpy_backend import NumPyBackend

__all__ = [
    "BLIS_OP_LIMIT",
    "OPCODES",
    "REPRO_BACKEND_ENV",
    "HAVE_NUMBA",
    "BackendInfo",
    "KernelBackend",
    "NumPyBackend",
    "BlasBackend",
    "BlisBackend",
    "NumbaBackend",
    "CNativeBackend",
    "available_backends",
    "backend_available",
    "backend_fingerprint",
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
    register_backend(BlisBackend())
    register_backend(CNativeBackend())
    register_backend(NumbaBackend())
