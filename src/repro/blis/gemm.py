"""Popcount-GEMM drivers: ``C[i, j] = sum_k POPC(op(A[i, k], B[j, k]))``.

* :func:`bit_gemm_reference` -- the transparent oracle: a literal
  word-broadcast evaluation (the ``numpy`` kernel backend).  O(m*n*k)
  popcounts with an (m, n, k) temporary per row block; used by tests.
* :func:`bit_gemm_blocked` -- the BLIS five-loop walk: packs panels,
  iterates the loops, calls the micro-kernel per tile.  This is the
  code path whose *structure* matches the paper's kernel; the ``blis``
  kernel backend runs the same walk.
* :func:`bit_gemm` -- the counted serial driver every layer shares: it
  picks a kernel backend by the one size rule
  (:func:`repro.kernels.pick_backend`) and runs either the walk or the
  backend's panel.
* :func:`bit_gemm_band` -- the counted band driver for windowed LD: only
  the ``width`` sub-diagonals of a self-comparison, walked diagonal by
  diagonal over the packed words (no backend axis; see
  ``docs/KERNELS.md``).

All drivers take *row-major packed* operands: A is ``(m, k)`` words,
B is ``(n, k)`` words (note B is stored row-per-output-column, i.e.
already "transposed" -- both SNP applications naturally produce this
layout because every entity is a packed row).

**Gram (symmetric) hint.**  Self-comparisons with a symmetric op
(AND, XOR, AND_PRENEGATED -- see
:attr:`~repro.blis.microkernel.ComparisonOp.is_symmetric`) produce
``C == C.T``.  ``bit_gemm_blocked(..., symmetric=True)`` skips every
micro-tile lying entirely below the diagonal and fills it afterwards
by reflecting its (computed) transpose tile, roughly halving the
word-ops; the :data:`GEMM_WORD_OPS` counter records only the computed
tiles.  The hint is *validated*: asymmetric ops and non-self operands
are rejected, so ANDNOT provably never takes the triangular path.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PackingError
from repro.blis.blocking import BlockingPlan, tile_ranges
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
    "bit_gemm_blocked",
    "blis_walk",
    "check_symmetric",
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


def check_symmetric(
    fn: str, a: np.ndarray, b: np.ndarray, op: ComparisonOp
) -> None:
    """Validate a ``symmetric=True`` hint (Gram mode preconditions).

    The same-matrix check accepts equal-*content* copies as well as
    views: it validates symmetry a caller asserts, so two distinct
    arrays holding identical words qualify, and different content is
    rejected rather than mirrored.  The content comparison is O(m*k)
    words -- noise next to the O(m*n*k) GEMM it guards.
    """
    if not op.is_symmetric:
        raise PackingError(
            f"{fn}: symmetric=True is invalid for asymmetric op {op.value!r}"
        )
    if not same_operand(a, b) and not (
        a.shape == b.shape and bool(np.array_equal(a, b))
    ):
        raise PackingError(
            f"{fn}: symmetric=True requires a self-comparison "
            f"(operands must hold the same packed matrix)"
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
    symmetric: bool = False,
) -> np.ndarray:
    """Serial popcount-GEMM through the backend the size rule picks.

    :func:`repro.kernels.pick_backend` names the backend from the
    problem's word-ops, the Gram hint and ``backend`` (an explicit
    name, or ``"auto"``).  The ``blis`` choice runs
    :func:`bit_gemm_blocked` on ``plan`` (Gram runs skip the
    below-diagonal tiles and count only the computed ones); every
    other backend computes the full panel, so the word-op counter
    records the full ``m * n * k``.  One :data:`GEMM_CALLS` either way.
    """
    from repro.kernels.abi import check_panel_operands, get_backend, pick_backend

    a, b, op = check_panel_operands(a, b, op)
    if symmetric:
        check_symmetric("bit_gemm", a, b, op)
        b = a  # equal content, now one operand (blas: one a @ a.T)
    m, k = a.shape
    n = b.shape[0]
    name = pick_backend(m * n * k, symmetric, backend)
    if name == "blis":
        return bit_gemm_blocked(a, b, op, plan, symmetric=symmetric)
    obs = get_tracer()
    obs.counters.add(GEMM_CALLS)
    obs.counters.add(GEMM_WORD_OPS, m * n * k)
    with obs.span("gemm.backend", backend=name, m=m, n=n, k=k):
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


def bit_gemm_blocked(
    a: np.ndarray,
    b: np.ndarray,
    op: ComparisonOp | str = ComparisonOp.AND,
    plan: BlockingPlan | None = None,
    symmetric: bool = False,
) -> np.ndarray:
    """BLIS five-loop evaluation with packed panels (counted).

    The loop nest (outside-in) is: k_c panels -> core assignments
    (m_c x n_r C tiles) -> micro-tiles -> micro-kernel.  Cores are
    iterated sequentially here (this is the functional semantics; the
    device executor overlays timing on the same walk).

    ``symmetric=True`` (Gram mode) skips micro-tiles entirely below the
    diagonal and mirror-fills them from their computed transpose tiles
    after the walk.  Requires a symmetric op, ``a`` and ``b`` the same
    matrix, and a square output.
    """
    from repro.kernels.abi import check_panel_operands

    a, b, op = check_panel_operands(a, b, op)
    m, k = a.shape
    n = b.shape[0]
    if symmetric:
        check_symmetric("bit_gemm_blocked", a, b, op)
    if plan is None:
        plan = host_plan(m, n, k)
    if (plan.m, plan.n, plan.k) != (m, n, k):
        raise PackingError(
            f"bit_gemm_blocked: plan extents {(plan.m, plan.n, plan.k)} do not "
            f"match operands {(m, n, k)}"
        )

    obs = get_tracer()
    obs.counters.add(GEMM_CALLS)
    skipped_ops = _below_diagonal_ops(plan) if symmetric else 0
    obs.counters.add(GEMM_WORD_OPS, plan.total_ops() - skipped_ops)
    with obs.span("gemm.blocked", m=m, n=n, k=k):
        return blis_walk(a, b, op, plan, symmetric)


def blis_walk(
    a: np.ndarray,
    b: np.ndarray,
    op: ComparisonOp,
    plan: BlockingPlan,
    symmetric: bool = False,
) -> np.ndarray:
    """The uncounted five-loop walk over pre-validated operands.

    Shared by :func:`bit_gemm_blocked` and the ``blis`` kernel backend.
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
                    if symmetric and pm0 >= pn1:
                        # Every micro-tile in this panel pairing lies
                        # below the diagonal; skip the B pack too.
                        continue
                    b_packed = pack_b_panel(b[pn0:pn1, k0:k1].T, plan.n_r)
                    _micro_update(
                        c, a_packed, b_packed, combine,
                        pm0, pm1, pn0, pn1, plan.m_r,
                        symmetric=symmetric,
                    )
    if symmetric:
        _mirror_fill(c, plan)
    return c


def _below_diagonal_ops(plan: BlockingPlan) -> int:
    """Word-ops of micro-tiles lying entirely below the diagonal.

    These are exactly the tiles Gram mode skips and mirror-fills; all
    micro-tile boundaries in the five-loop walk land on the global
    ``tile_ranges`` grid (``m_c`` is a multiple of ``m_r`` and
    :func:`split_in_units` aligns core boundaries), so this closed-form
    count matches the tiles the walk skips.
    """
    skipped = 0
    for r0, r1 in tile_ranges(plan.m, plan.m_r):
        for c0, c1 in tile_ranges(plan.n, plan.n_r):
            if r0 >= c1:
                skipped += (r1 - r0) * (c1 - c0) * plan.k
    return skipped


def _mirror_fill(c: np.ndarray, plan: BlockingPlan) -> None:
    """Fill skipped below-diagonal micro-tiles by transposition.

    A tile is skipped iff ``r0 >= c1``; its source tile at the
    transposed ranges satisfies ``c0 < r1`` (the two conditions are
    mutually exclusive for non-empty tiles), so every source was
    computed during the walk.
    """
    for r0, r1 in tile_ranges(plan.m, plan.m_r):
        for col0, col1 in tile_ranges(plan.n, plan.n_r):
            if r0 >= col1:
                c[r0:r1, col0:col1] = c[col0:col1, r0:r1].T


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
    symmetric: bool = False,
) -> np.ndarray:
    """Rank-k_c update of C[m0:m1, n0:n1] from packed panels.

    With ``symmetric=True``, micro-tiles entirely below the diagonal
    (``rows0 >= cols1``) are skipped; :func:`_mirror_fill` reflects
    them from their transpose tiles after the full walk.
    """
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
            if symmetric and rows0 >= cols1:
                continue
            # Micro-kernel: (m_r, n_r) popcount-accumulate over k.
            combined = combine(
                a_micro[:, :live_rows, None], b_micro[:, None, :live_cols]
            )
            c[rows0:rows1, cols0:cols1] += popcount(combined).sum(axis=0)
    return c
