"""Popcount-GEMM drivers: ``C[i, j] = sum_k POPC(op(A[i, k], B[j, k]))``.

* :func:`bit_gemm_reference` -- the transparent oracle: a literal
  word-broadcast evaluation (the ``numpy`` kernel backend).  O(m*n*k)
  popcounts with a bounded broadcast temporary; used by tests.
* :func:`bit_gemm_band` -- the counted band driver for windowed LD: only
  the ``width`` sub-diagonals of a self-comparison, walked diagonal by
  diagonal over the packed words.  It is the NumPy path of the LD band;
  once the one shape rule names ``cnative``, :mod:`repro.core.ldops`
  counts and decides the band in the native library instead (see
  ``docs/LDOPS.md``).  Either way :func:`counted_band` counts it.

Every other table is counted and computed by the parallel engine
(:func:`repro.parallel.bit_gemm_parallel`; ``workers=1`` is one shard
on the caller's thread).

All drivers take *row-major packed* operands: A is ``(m, k)`` words,
B is ``(n, k)`` words (note B is stored row-per-output-column, i.e.
already "transposed" -- both SNP applications naturally produce this
layout because every entity is a packed row).

**Word-op accounting.**  :data:`GEMM_WORD_OPS` records ``m * n * k``
once per logical GEMM, whichever backend computed it; a band records
its partnered cells times ``k``.  Self-comparisons with a symmetric op
(``C == C.T``) save work one level up, in the engine's triangular
shard plan (:mod:`repro.parallel`), without changing the count.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np

from repro.errors import PackingError
from repro.blis.blocking import BlockingPlan
from repro.blis.microkernel import ComparisonOp, get_microkernel
from repro.observability.counters import GEMM_CALLS, GEMM_WORD_OPS
from repro.observability.tracer import get_tracer
from repro.util.bitops import popcount

__all__ = [
    "HOST_BLOCKING",
    "bit_gemm_band",
    "bit_gemm_reference",
    "counted_band",
    "host_plan",
    "same_operand",
]

#: Host-default blocking parameters: small ``lcm(m_r, n_r)`` so
#: triangular Gram plans can band finely.
HOST_BLOCKING = {"m_c": 32, "k_c": 256, "m_r": 4, "n_r": 64}


def host_plan(m: int, n: int, k: int) -> BlockingPlan:
    """The host-default :class:`BlockingPlan` for an ``(m, n, k)`` GEMM."""
    return BlockingPlan(m=m, n=n, k=k, **HOST_BLOCKING)


def same_operand(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether ``a`` and ``b`` are views of the *same* packed matrix.

    ``a is b`` plus the view case the tiled pipeline produces: a
    full-extent slice shares the data pointer, shape and strides of
    the original without being the same Python object.
    """
    if a is b:
        return True
    return (
        a.shape == b.shape
        and a.dtype == b.dtype
        and a.strides == b.strides
        and bool(a.size)
        and a.__array_interface__["data"] == b.__array_interface__["data"]
    )


def bit_gemm_reference(
    a: np.ndarray,
    b: np.ndarray,
    op: ComparisonOp | str = ComparisonOp.AND,
) -> np.ndarray:
    """Literal evaluation of the popcount-GEMM (test oracle).

    The loop itself lives in
    :func:`repro.kernels.numpy_backend.reference_panel` -- the
    registered ``"numpy"`` reference backend -- so the oracle tests
    race against *is* the reference backend, by construction.
    """
    # Lazy import: repro.kernels registers backends that reach back
    # into this module, so the module-level edge must stay one-way.
    from repro.kernels.abi import check_panel_operands
    from repro.kernels.numpy_backend import reference_panel

    a, b, op = check_panel_operands(a, b, op)
    return reference_panel(a, b, get_microkernel(op))


@contextmanager
def counted_band(
    m: int, width: int, start: int, k: int, backend: str
) -> Iterator[None]:
    """Count one LD band and time the work under ``gemm.backend``.

    The band of rows ``start .. m-1`` over sub-diagonals ``1 .. width``
    of an ``m``-row self-comparison is one :data:`GEMM_CALLS` and its
    partnered cells times ``k`` :data:`GEMM_WORD_OPS`, whichever backend
    counts it (``backend`` names it on the span).
    """
    obs = get_tracer()
    obs.counters.add(GEMM_CALLS)
    obs.counters.add(
        GEMM_WORD_OPS,
        sum(max(0, m - max(start, d)) for d in range(1, min(width, m - 1) + 1)) * k,
    )
    with obs.span("gemm.backend", backend=backend, m=m - start, n=width, k=k):
        yield


def bit_gemm_band(
    a: np.ndarray,
    width: int,
    op: ComparisonOp | str = ComparisonOp.AND,
    start: int = 0,
) -> np.ndarray:
    """The first ``width`` sub-diagonals of ``a``'s self-comparison.

    Returns the ``(m - start, width)`` band of rows ``q = start .. m-1``:
    ``band[q - start, d-1] = sum_k POPC(op(a[q, k], a[q-d, k]))`` for
    ``d = 1 .. width``, i.e. ``C[q, q-d]`` of the full popcount-GEMM;
    cells with ``q < d`` have no partner row and stay 0.  Rows above
    ``start`` serve only as partners.  The walk combines each
    diagonal's row pairs in one vectorized pass over the packed words,
    so the work is the band's ``sum_{q >= start} min(q, width) * k``
    word-ops -- exactly what :data:`GEMM_WORD_OPS` records -- instead
    of the ``m * m * k`` a Gram block costs.  One :data:`GEMM_CALLS`.
    """
    from repro.kernels.abi import canonicalize_words, check_panel_operands

    a, _, op = check_panel_operands(a, a, op)
    m, k = a.shape
    if width < 0:
        raise PackingError(f"bit_gemm_band: width must be >= 0, got {width}")
    if not 0 <= start <= m:
        raise PackingError(
            f"bit_gemm_band: start must be in [0, {m}], got {start}"
        )
    combine = get_microkernel(op).combine
    band = np.zeros((m - start, width), dtype=np.int64)
    with counted_band(m, width, start, k, backend="band"):
        # Whole uint64 words popcount the same bits in fewer steps.
        words = canonicalize_words(a)
        for d in range(1, min(width, m - 1) + 1):
            lo = max(start, d)
            band[lo - start :, d - 1] = popcount(
                combine(words[lo:], words[lo - d : m - d])
            ).sum(axis=1)
    return band
