"""Operand preparation: bit packing and padding for the device kernels.

This is the host-side "pack" stage of Fig. 2: binary SNP matrices are
converted into padded bitvector matrices in the device's word width.
Rows are zero-padded up to a multiple of the register tile ``m_r`` (so
micro-tiles divide evenly); the site dimension is zero-padded to a
whole number of words.

Padding is semantically neutral for every kernel *within the valid
output region*; rows added by padding produce extra output rows/columns
that :func:`crop_result` removes.  For mixture analysis with a
pre-negated database the padding interacts with the negation (padding
words of the negated operand must be the negation of zero), which
:func:`pack_operand` handles via ``negate=True`` -- it negates the
*data* bits only and leaves padding bits zero, exactly what storing a
pre-negated database does to bits that do not exist.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PackingError
from repro.observability.counters import PACK_BYTES, PACK_OPERANDS
from repro.observability.tracer import get_tracer
from repro.util.bitops import pack_bits

__all__ = ["PackedOperand", "pack_operand", "wrap_words", "crop_result"]


@dataclass(frozen=True)
class PackedOperand:
    """A device-ready packed matrix plus its logical extents.

    Attributes
    ----------
    words:
        ``(padded_rows, k_words)`` packed matrix.
    n_rows:
        Valid (unpadded) row count.
    n_bits:
        Valid site count.
    negated:
        Whether the data bits were negated during packing (pre-negated
        mixture databases, Section II-C).
    """

    words: np.ndarray
    n_rows: int
    n_bits: int
    negated: bool = False

    @property
    def padded_rows(self) -> int:
        return int(self.words.shape[0])

    @property
    def k_words(self) -> int:
        return int(self.words.shape[1])

    @property
    def nbytes(self) -> int:
        return int(self.words.nbytes)


def pack_operand(
    bits: np.ndarray,
    word_bits: int = 32,
    row_multiple: int = 1,
    negate: bool = False,
) -> PackedOperand:
    """Pack a binary matrix for the device.

    Parameters
    ----------
    bits:
        ``(rows, sites)`` binary matrix.
    word_bits:
        Device word width (32 for all modeled GPUs, 64 for the CPU).
    row_multiple:
        Pad the row count up to a multiple of this (typically ``m_r``).
    negate:
        Negate the *data* bits before packing (pre-negated mixture
        database).  Padding bits stay zero.
    """
    arr = np.asarray(bits)
    if arr.ndim != 2:
        raise PackingError(f"pack_operand: expected 2-D bits, got ndim={arr.ndim}")
    if row_multiple <= 0:
        raise PackingError("pack_operand: row_multiple must be positive")
    n_rows, n_bits = arr.shape
    obs = get_tracer()
    with obs.span("pack.operand", rows=n_rows, bits=n_bits, negate=negate):
        if negate:
            if arr.dtype != np.bool_ and arr.size and not np.isin(arr, (0, 1)).all():
                raise PackingError("pack_operand: input must be binary to negate")
            arr = 1 - arr.astype(np.uint8)
        # Padding rows are zero words, added after packing: stacking
        # zero bit rows first would copy a transposed input into row
        # order, the copy pack_bits avoids.
        words = _pad_rows(
            pack_bits(arr, word_bits=word_bits),
            -(-max(n_rows, 1) // row_multiple) * row_multiple,
        )
    obs.counters.add(PACK_OPERANDS)
    obs.counters.add(PACK_BYTES, int(words.nbytes))
    return PackedOperand(words=words, n_rows=n_rows, n_bits=n_bits, negated=negate)


def wrap_words(words: np.ndarray, n_bits: int, row_multiple: int = 1) -> PackedOperand:
    """An operand from rows already in the device layout, without repacking.

    For words that are :func:`~repro.util.bitops.pack_bits` layout in the
    device word width (a ``.snpbin`` shard or chunk).  Only the row
    padding to a multiple of ``row_multiple`` (zero rows, cropped after
    the GEMM) is new, so words whose row count already is a multiple are
    used as they are -- a view of a map stays a view.  Not counted as a
    packed operand.
    """
    n_rows = int(words.shape[0])
    words = _pad_rows(words, -(-n_rows // row_multiple) * row_multiple)
    return PackedOperand(words=words, n_rows=n_rows, n_bits=n_bits)


def _pad_rows(words: np.ndarray, padded_rows: int) -> np.ndarray:
    """``words`` with zero rows appended up to ``padded_rows`` (itself
    when it already has that many)."""
    if padded_rows == words.shape[0]:
        return words
    full = np.zeros((padded_rows, words.shape[1]), dtype=words.dtype)
    full[: words.shape[0]] = words
    return full


def crop_result(
    table: np.ndarray, a: PackedOperand, b: PackedOperand
) -> np.ndarray:
    """Remove padding rows/columns from a raw device output table."""
    t = np.asarray(table)
    if t.ndim != 2:
        raise PackingError(f"crop_result: expected 2-D table, got ndim={t.ndim}")
    if t.shape[0] < a.n_rows or t.shape[1] < b.n_rows:
        raise PackingError(
            f"crop_result: table {t.shape} smaller than valid region "
            f"({a.n_rows}, {b.n_rows})"
        )
    return t[: a.n_rows, : b.n_rows].copy()
