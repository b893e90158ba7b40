"""Popcount-GEMM drivers: ``C[i, j] = sum_k POPC(op(A[i, k], B[j, k]))``.

* :func:`bit_gemm_reference` -- the transparent oracle: a literal
  word-broadcast evaluation (the ``numpy`` kernel backend).  O(m*n*k)
  popcounts with an (m, n, k) temporary per row block; used by tests.
* :func:`blis_walk` -- the BLIS five-loop walk: packs panels, iterates
  the loops, calls the micro-kernel per tile.  Its *structure* matches
  the paper's kernel; the ``blis`` kernel backend runs it.
* :func:`bit_gemm` -- the counted serial GEMM: it picks a kernel
  backend by the one size rule (:func:`repro.kernels.pick_backend`)
  and runs that backend's panel (``blis`` walks the caller's plan).
* :func:`bit_gemm_band` -- the counted band driver for windowed LD: only
  the ``width`` sub-diagonals of a self-comparison, walked diagonal by
  diagonal over the packed words (no backend axis; see
  ``docs/KERNELS.md``).

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

import numpy as np

from repro.errors import PackingError
from repro.blis.blocking import BlockingPlan
from repro.blis.microkernel import ComparisonOp, get_microkernel
from repro.blis.packing import pack_a_panel, pack_b_panel
from repro.observability.counters import GEMM_CALLS, GEMM_WORD_OPS
from repro.observability.tracer import get_tracer
from repro.util.bitops import popcount

__all__ = [
    "HOST_BLOCKING",
    "bit_gemm",
    "bit_gemm_band",
    "bit_gemm_reference",
    "blis_walk",
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
    row_block: int = 64,
) -> np.ndarray:
    """Literal evaluation of the popcount-GEMM (test oracle).

    The loop itself lives in
    :func:`repro.kernels.numpy_backend.reference_panel` -- the
    registered ``"numpy"`` reference backend -- so the oracle tests
    race against *is* the reference backend, by construction.
    ``row_block`` bounds the size of the (rows, n, k) broadcast
    temporary.
    """
    # Lazy import: repro.kernels registers backends that reach back
    # into this module, so the module-level edge must stay one-way.
    from repro.kernels.abi import check_panel_operands
    from repro.kernels.numpy_backend import reference_panel

    a, b, op = check_panel_operands(a, b, op)
    return reference_panel(a, b, get_microkernel(op), row_block)


def bit_gemm(
    a: np.ndarray,
    b: np.ndarray,
    op: ComparisonOp | str = ComparisonOp.AND,
    backend: str = "auto",
    plan: BlockingPlan | None = None,
) -> np.ndarray:
    """Serial popcount-GEMM through the backend the size rule picks.

    :func:`repro.kernels.pick_backend` names the backend from the
    problem's word-ops and ``backend`` (an explicit name, or
    ``"auto"``).  The ``blis`` choice walks ``plan`` (default: the
    host blocking); every other backend computes its panel.  One
    :data:`GEMM_CALLS` and ``m * n * k`` :data:`GEMM_WORD_OPS` either
    way.
    """
    from repro.kernels.abi import check_panel_operands, get_backend, pick_backend

    a, b, op = check_panel_operands(a, b, op)
    m, k = a.shape
    n = b.shape[0]
    if plan is not None and (plan.m, plan.n, plan.k) != (m, n, k):
        raise PackingError(
            f"bit_gemm: plan extents {(plan.m, plan.n, plan.k)} do not "
            f"match operands {(m, n, k)}"
        )
    name = pick_backend(m * n * k, backend)
    obs = get_tracer()
    obs.counters.add(GEMM_CALLS)
    obs.counters.add(GEMM_WORD_OPS, m * n * k)
    with obs.span("gemm.backend", backend=name, m=m, n=n, k=k):
        if name == "blis" and plan is not None:
            return blis_walk(a, b, op, plan)
        return get_backend(name).bit_gemm_panel(a, b, op)


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
    diagonals = range(1, min(width, m - 1) + 1)
    obs = get_tracer()
    obs.counters.add(GEMM_CALLS)
    obs.counters.add(
        GEMM_WORD_OPS, sum(max(0, m - max(start, d)) for d in diagonals) * k
    )
    combine = get_microkernel(op).combine
    band = np.zeros((m - start, width), dtype=np.int64)
    with obs.span("gemm.backend", backend="band", m=m - start, n=width, k=k):
        # Whole uint64 words popcount the same bits in fewer steps.
        words = canonicalize_words(a)
        for d in diagonals:
            lo = max(start, d)
            band[lo - start :, d - 1] = popcount(
                combine(words[lo:], words[lo - d : m - d])
            ).sum(axis=1)
    return band


def blis_walk(
    a: np.ndarray,
    b: np.ndarray,
    op: ComparisonOp,
    plan: BlockingPlan,
) -> np.ndarray:
    """The uncounted five-loop walk over pre-validated operands.

    The loop nest (outside-in) is: k_c panels -> core assignments
    (m_c x n_r C tiles) -> micro-tiles -> micro-kernel.  Cores are
    iterated sequentially here (this is the functional semantics; the
    device executor overlays timing on the same walk).  Shared by
    :func:`bit_gemm` and the ``blis`` kernel backend.
    """
    combine = get_microkernel(op).combine
    c = np.zeros((plan.m, plan.n), dtype=np.int64)
    for k0, k1 in plan.k_panels():
        for assign in plan.core_assignments():
            if assign.is_empty:
                continue
            m0, m1 = assign.m_range
            n0, n1 = assign.n_range
            # Loop 3: walk m_c panels of A inside this core's M range,
            # packing each into the shared-memory layout.
            for pm0, pm1 in _panel_ranges(m0, m1, plan.m_c):
                a_packed = pack_a_panel(a[pm0:pm1, k0:k1], plan.m_r)
                # Loops 2/1: n_r micro-panels of B, micro-tiles of C.
                for pn0, pn1 in _panel_ranges(n0, n1, plan.n_r):
                    b_packed = pack_b_panel(b[pn0:pn1, k0:k1].T, plan.n_r)
                    _micro_update(
                        c, a_packed, b_packed, combine,
                        pm0, pm1, pn0, pn1, plan.m_r,
                    )
    return c


def _panel_ranges(start: int, stop: int, block: int) -> list[tuple[int, int]]:
    return [(s, min(s + block, stop)) for s in range(start, stop, block)]


def _micro_update(
    c: np.ndarray,
    a_packed: np.ndarray,
    b_packed: np.ndarray,
    combine,
    m0: int,
    m1: int,
    n0: int,
    n1: int,
    m_r: int,
) -> np.ndarray:
    """Rank-k_c update of C[m0:m1, n0:n1] from packed panels."""
    n_b_panels, k_len, n_r = b_packed.shape
    for pa in range(a_packed.shape[0]):
        # (k, m_r) micro-panel of A.
        a_micro = a_packed[pa]
        rows0 = m0 + pa * m_r
        rows1 = min(rows0 + m_r, m1)
        live_rows = rows1 - rows0
        if live_rows <= 0:
            continue
        for pb in range(n_b_panels):
            b_micro = b_packed[pb]  # (k, n_r)
            cols0 = n0 + pb * n_r
            cols1 = min(cols0 + n_r, n1)
            live_cols = cols1 - cols0
            if live_cols <= 0:
                continue
            # Micro-kernel: (m_r, n_r) popcount-accumulate over k.
            combined = combine(
                a_micro[:, :live_rows, None], b_micro[:, None, :live_cols]
            )
            c[rows0:rows1, cols0:cols1] += popcount(combined).sum(axis=0)
    return c
