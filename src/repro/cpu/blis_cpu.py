"""Functional CPU implementation: blocked popcount-GEMM on 64-bit words.

This is the Alachiotis et al. [11] algorithm the paper's Section III
describes: inputs packed into 64-bit bitvectors, BLIS blocking, and a
micro-kernel of ``AND``/``XOR``/``ANDN`` -> ``POPCNT`` -> ``ADD``.

The implementation is *functional*: it computes exact results through
the host engine (:mod:`repro.parallel`, one shard on the caller's
thread) and its kernel backends; the performance claims of the
baseline come from :mod:`repro.cpu.timing`, not from timing this host
code.  The blocking defaults are scaled to Ivy Bridge's cache sizes the
same way [11]/BLIS derive them:

* ``k_c`` so an ``m_r x k_c`` A micro-panel plus a ``k_c x n_r``
  B micro-panel fit in half the 32 KiB L1D,
* ``m_c`` so the packed ``m_c x k_c`` A panel fills half the 256 KiB L2,
* ``m_r x n_r`` register tile bounded by the 16 architectural GPRs.
"""

from __future__ import annotations

import numpy as np

from repro.blis.blocking import BlockingPlan
from repro.blis.microkernel import ComparisonOp
from repro.cpu.arch import CPUArchitecture, XEON_E5_2620_V2
from repro.errors import PackingError
from repro.kernels import check_panel_operands
from repro.parallel.engine import get_engine
from repro.util.units import kib

__all__ = ["default_cpu_blocking", "cpu_snp_comparison"]

# Ivy Bridge cache geometry used for the default blocking derivation.
_L1D_BYTES = kib(32)
_L2_BYTES = kib(256)


def default_cpu_blocking(
    m: int,
    n: int,
    k: int,
    arch: CPUArchitecture = XEON_E5_2620_V2,
) -> BlockingPlan:
    """Derive a BLIS blocking for the CPU from cache capacities.

    Mirrors the analytical derivation of Low et al. [21] in miniature:
    register tile first, then ``k_c`` from L1, then ``m_c`` from L2.
    """
    word_bytes = arch.word_bits // 8
    # Register tile: with 16 GPRs, [11] uses a small m_r and keeps n_r
    # wide enough to amortize loop overhead; 4 x 8 accumulators exceed
    # 16 registers so accumulators spill partially -- [11] tolerates
    # this; we keep the canonical 4 x 8.
    m_r, n_r = 4, 8
    # k_c: (m_r + n_r) * k_c * word_bytes <= L1/2
    k_c = max(1, (_L1D_BYTES // 2) // ((m_r + n_r) * word_bytes))
    # m_c: m_c * k_c * word_bytes <= L2/2, rounded down to m_r multiple
    m_c = max(m_r, ((_L2_BYTES // 2) // (k_c * word_bytes)) // m_r * m_r)
    return BlockingPlan(
        m=m, n=n, k=k, m_c=m_c, k_c=k_c, m_r=m_r, n_r=n_r,
        grid_rows=1, grid_cols=1,
    )


def cpu_snp_comparison(
    a_words: np.ndarray,
    b_words: np.ndarray,
    op: ComparisonOp | str = ComparisonOp.AND,
    arch: CPUArchitecture = XEON_E5_2620_V2,
    backend: str = "auto",
) -> np.ndarray:
    """Compute the comparison table on the CPU baseline.

    Parameters
    ----------
    a_words, b_words:
        Packed 64-bit operands, shapes ``(m, k)`` and ``(n, k)``.
    op:
        Comparison micro-kernel to apply.
    arch:
        CPU description (only ``word_bits`` is semantically relevant).
    backend:
        Kernel-ABI backend (:mod:`repro.kernels`), e.g. ``"numpy"`` for
        the reference word walk or ``"blas"`` for the identity GEMM.
        Default: the shape rule of :func:`repro.kernels.pick_backend`
        (``cnative`` once its library has loaded; before that
        ``numpy`` for a short operand and ``blas`` otherwise).

    Returns
    -------
    numpy.ndarray
        ``int64`` comparison counts of shape ``(m, n)``.
    """
    a, b, op = check_panel_operands(a_words, b_words, op)
    expected_dtype = np.uint64 if arch.word_bits == 64 else np.uint32
    if a.dtype != expected_dtype or b.dtype != expected_dtype:
        raise PackingError(
            f"cpu_snp_comparison: operands must be {expected_dtype.__name__} "
            f"words for {arch.name}, got {a.dtype}/{b.dtype}"
        )
    plan = default_cpu_blocking(a.shape[0], b.shape[0], a.shape[1], arch)
    table, _ = get_engine(1, backend).run(a, b, op, plan=plan)
    return table
