"""Bit-level primitives: population count and bit packing.

The whole SNP-comparison pipeline operates on *packed* binary matrices:
each row of a boolean SNP matrix is stored as consecutive unsigned
machine words (``uint32`` on the simulated GPUs, ``uint64`` on the CPU
baseline, matching the word sizes the paper uses for each device class).

Two implementation strategies for population count are provided:

* ``numpy.bitwise_count`` (NumPy >= 2.0) -- a vectorized native
  popcount; this is the fast path.
* a 16-bit lookup table -- portable fallback, also useful in tests as
  an independent oracle.

Both are exposed so tests can cross-validate them; callers should use
:func:`popcount`, which picks the fast path automatically.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PackingError

__all__ = [
    "WORD_BITS_32",
    "WORD_BITS_64",
    "popcount",
    "popcount_table",
    "popcount_native",
    "popcount_sum",
    "pack_bits",
    "convert_words",
    "unpack_bits",
    "words_needed",
    "HAS_NATIVE_POPCOUNT",
]

WORD_BITS_32 = 32
WORD_BITS_64 = 64

HAS_NATIVE_POPCOUNT = hasattr(np, "bitwise_count")

# 16-bit popcount lookup table: table[v] = number of set bits in v.
_POPCOUNT16 = np.zeros(1 << 16, dtype=np.uint8)
for _shift in range(16):
    _POPCOUNT16 += ((np.arange(1 << 16) >> _shift) & 1).astype(np.uint8)
del _shift


def popcount_table(words: np.ndarray) -> np.ndarray:
    """Population count via a 16-bit lookup table.

    Parameters
    ----------
    words:
        Array of unsigned integers (``uint8``/``uint16``/``uint32``/
        ``uint64``).

    Returns
    -------
    numpy.ndarray
        ``uint8``-per-16-bit-chunk sums widened to ``int64``; same shape
        as ``words``.
    """
    w = np.asarray(words)
    if w.dtype == np.uint8:
        return _POPCOUNT16[w.astype(np.uint16)].astype(np.int64)
    if w.dtype == np.uint16:
        return _POPCOUNT16[w].astype(np.int64)
    if w.dtype == np.uint32:
        lo = _POPCOUNT16[(w & np.uint32(0xFFFF)).astype(np.uint16)]
        hi = _POPCOUNT16[(w >> np.uint32(16)).astype(np.uint16)]
        return lo.astype(np.int64) + hi
    if w.dtype == np.uint64:
        total = np.zeros(w.shape, dtype=np.int64)
        for shift in (0, 16, 32, 48):
            chunk = ((w >> np.uint64(shift)) & np.uint64(0xFFFF)).astype(np.uint16)
            total += _POPCOUNT16[chunk]
        return total
    raise PackingError(f"popcount_table: unsupported dtype {w.dtype}")


def popcount_native(words: np.ndarray) -> np.ndarray:
    """Population count via ``numpy.bitwise_count`` (NumPy >= 2.0)."""
    return np.bitwise_count(np.asarray(words)).astype(np.int64)


if HAS_NATIVE_POPCOUNT:

    def popcount(words: np.ndarray) -> np.ndarray:
        """Per-element population count, widened to ``int64``."""
        return popcount_native(words)

else:  # pragma: no cover - exercised only on NumPy < 2.0

    def popcount(words: np.ndarray) -> np.ndarray:
        """Per-element population count, widened to ``int64``."""
        return popcount_table(words)


def popcount_sum(words: np.ndarray, axis: int | None = None) -> np.ndarray | int:
    """Sum of population counts along ``axis`` (or over all elements).

    Equivalent to ``popcount(words).sum(axis=axis)`` but kept as a named
    primitive because it is the exact inner operation of the SNP
    micro-kernel: ``gamma += POPC(a & b)`` summed over the k dimension.
    """
    counts = popcount(words)
    result = counts.sum(axis=axis)
    return int(result) if axis is None else result


def words_needed(n_bits: int, word_bits: int = WORD_BITS_32) -> int:
    """Number of ``word_bits``-wide words needed to hold ``n_bits`` bits."""
    if n_bits < 0:
        raise PackingError(f"words_needed: n_bits must be >= 0, got {n_bits}")
    if word_bits not in (8, 16, 32, 64):
        raise PackingError(f"words_needed: unsupported word_bits {word_bits}")
    return (n_bits + word_bits - 1) // word_bits


_DTYPE_FOR_BITS = {8: np.uint8, 16: np.uint16, 32: np.uint32, 64: np.uint64}


def _is_binary(arr: np.ndarray) -> bool:
    """Whether every element is 0 or 1, using the cheapest check the
    dtype allows: unsigned ints need one comparison, signed ints two;
    only inexact dtypes (floats can hold e.g. 0.5) fall back to the
    membership test."""
    kind = arr.dtype.kind
    if kind == "b":
        return True
    if kind == "u":
        return bool((arr <= 1).all())
    if kind == "i":
        return bool(((arr >= 0) & (arr <= 1)).all())
    return bool(np.isin(arr, (0, 1)).all())


def pack_bits(
    bits: np.ndarray,
    word_bits: int = WORD_BITS_32,
    pad_to_words: int | None = None,
) -> np.ndarray:
    """Pack a binary matrix row-wise into unsigned machine words.

    Bit ``j`` of row ``i`` lands in word ``j // word_bits`` at bit
    position ``j % word_bits`` counted from the *most significant* end
    (big-endian within the word).  The bit order is irrelevant to the
    comparison semantics (AND/XOR/POPC are order-agnostic) but is fixed
    so :func:`unpack_bits` is an exact inverse.

    Parameters
    ----------
    bits:
        2-D array with values in {0, 1} of shape ``(rows, n_bits)``.
        Boolean or any integer dtype accepted.
    word_bits:
        Target word width: 8, 16, 32 or 64.
    pad_to_words:
        If given, right-pad each packed row with zero words up to this
        word count (the paper pads SNP matrices with zero rows/columns
        so tiles divide evenly; zero padding is neutral for AND/XOR
        popcount accumulation *of matching operands* -- see
        :mod:`repro.core.packing` for the XOR caveat handling).

    Returns
    -------
    numpy.ndarray
        Shape ``(rows, n_words)`` of the matching unsigned dtype.

    A transposed matrix (2-D, F-contiguous but not C-contiguous, such as
    the site view ``matrix.T`` of a sample-major matrix) is packed
    without first copying its bits into row order: see
    :func:`_packbits_transposed`.
    """
    arr = np.asarray(bits)
    if arr.ndim != 2:
        raise PackingError(f"pack_bits: expected 2-D input, got ndim={arr.ndim}")
    if arr.dtype != np.bool_ and not _is_binary(arr):
        raise PackingError("pack_bits: input must contain only 0s and 1s")
    rows, n_bits = arr.shape
    n_words = words_needed(n_bits, word_bits)
    if pad_to_words is not None:
        if pad_to_words < n_words:
            raise PackingError(
                f"pack_bits: pad_to_words={pad_to_words} < required {n_words}"
            )
        n_words = pad_to_words
    dtype = _DTYPE_FOR_BITS[word_bits]

    # np.packbits packs into uint8 MSB-first; view groups of word_bits/8
    # bytes as one big-endian word, then convert into native order.
    if arr.flags.f_contiguous and not arr.flags.c_contiguous:
        as_u8 = _packbits_transposed(arr.T, n_words * word_bits // 8)
    else:
        padded_bits = np.zeros((rows, n_words * word_bits), dtype=bool)
        padded_bits[:, :n_bits] = arr
        as_u8 = np.packbits(padded_bits, axis=1)
    if word_bits == 8:
        return as_u8.astype(np.uint8)
    return as_u8.view(f">u{word_bits // 8}").astype(dtype)


def _packbits_transposed(columns: np.ndarray, n_bytes: int) -> np.ndarray:
    """``np.packbits(columns.T, axis=1)``, zero-padded to ``n_bytes`` a row.

    ``columns`` is a C-contiguous binary ``(n_bits, rows)`` matrix whose
    *columns* are the rows to pack.  Byte ``g`` of every packed row is
    the OR of ``columns[8g + u] << (7 - u)`` over ``u``: eight shifted
    passes over contiguous rows give all packed bytes byte-major, and
    only those -- eight times fewer than the bits -- are transposed.
    The passes run on ``uint64`` lanes of eight 0/1 bytes when a row
    divides into them; a shift by less than 8 keeps each bit in its
    byte.
    """
    if columns.dtype in (np.bool_, np.int8):
        bits = columns.view(np.uint8)
    elif columns.dtype == np.uint8:
        bits = columns
    else:
        bits = columns.astype(np.uint8)
    if bits.shape[1] % 8 == 0:
        bits = bits.view(np.uint64)
    packed = np.zeros((n_bytes, bits.shape[1]), dtype=bits.dtype)
    shifted = np.empty_like(packed[: -(-bits.shape[0] // 8)])
    for u in range(8):
        plane = bits[u::8]
        part = shifted[: plane.shape[0]]
        np.left_shift(plane, 7 - u, out=part)
        np.bitwise_or(packed[: plane.shape[0]], part, out=packed[: plane.shape[0]])
    return np.ascontiguousarray(packed.view(np.uint8).T)


def _pack_words_byteshift(as_u8: np.ndarray, word_bits: int) -> np.ndarray:
    """Reference byte-assembly for the :func:`pack_bits` tail.

    The per-byte shift-and-or loop the big-endian view replaced; kept
    as an independent oracle so tests can cross-validate the two.
    """
    dtype = _DTYPE_FOR_BITS[word_bits]
    rows = as_u8.shape[0]
    n_words = as_u8.shape[1] // (word_bits // 8)
    be = as_u8.reshape(rows, n_words, word_bits // 8)
    words = np.zeros((rows, n_words), dtype=dtype)
    for byte_idx in range(word_bits // 8):
        shift = dtype(word_bits - 8 * (byte_idx + 1))
        words |= be[:, :, byte_idx].astype(dtype) << shift
    return words


def convert_words(words: np.ndarray, n_bits: int, word_bits: int) -> np.ndarray:
    """Packed rows re-expressed in another word width, without unpacking.

    The :func:`pack_bits` layout is big-endian within a word, so a row's
    big-endian word bytes are exactly the ``np.packbits`` stream of its
    bits whatever the width.  Converting is one byte-order pass: cut or
    zero-extend each row's stream to ``words_needed(n_bits, word_bits)``
    words and read it back in the new width.  Equals
    ``pack_bits(unpack_bits(words, n_bits), word_bits)`` whenever the
    bits past ``n_bits`` are zero; returns ``words`` itself when the
    width already matches.
    """
    w = np.asarray(words)
    if w.ndim != 2 or w.dtype not in (np.uint8, np.uint16, np.uint32, np.uint64):
        raise PackingError(
            f"convert_words: expected 2-D unsigned words, got {w.dtype} ndim={w.ndim}"
        )
    if w.dtype.itemsize * 8 == word_bits:
        return w
    rows, row_bytes = w.shape[0], w.shape[1] * w.dtype.itemsize
    stream = w.astype(f">u{w.dtype.itemsize}").view(np.uint8).reshape(rows, row_bytes)
    n_bytes = words_needed(n_bits, word_bits) * (word_bits // 8)
    out = np.zeros((rows, n_bytes), dtype=np.uint8)
    take = min(n_bytes, stream.shape[1])
    out[:, :take] = stream[:, :take]
    return out.view(f">u{word_bits // 8}").astype(_DTYPE_FOR_BITS[word_bits])


def unpack_bits(
    words: np.ndarray,
    n_bits: int | None = None,
) -> np.ndarray:
    """Inverse of :func:`pack_bits`.

    Parameters
    ----------
    words:
        Packed matrix of shape ``(rows, n_words)``.
    n_bits:
        Truncate the output to this many columns (drop padding).  When
        omitted the full ``n_words * word_bits`` columns are returned.
    """
    w = np.asarray(words)
    if w.ndim != 2:
        raise PackingError(f"unpack_bits: expected 2-D input, got ndim={w.ndim}")
    word_bits = w.dtype.itemsize * 8
    if w.dtype not in (np.uint8, np.uint16, np.uint32, np.uint64):
        raise PackingError(f"unpack_bits: unsupported dtype {w.dtype}")
    rows, n_words = w.shape
    if rows == 0 or n_words == 0:
        width = n_words * word_bits if n_bits is None else n_bits
        if n_bits is not None and n_bits > n_words * word_bits:
            raise PackingError(
                f"unpack_bits: n_bits={n_bits} exceeds stored {n_words * word_bits}"
            )
        return np.zeros((rows, width), dtype=np.uint8)
    # Expand each word into big-endian bytes, then unpack bits.
    be = w.astype(f">u{word_bits // 8}").view(np.uint8).reshape(rows, -1)
    bits = np.unpackbits(be, axis=1).astype(np.uint8)
    if n_bits is not None:
        if n_bits > bits.shape[1]:
            raise PackingError(
                f"unpack_bits: n_bits={n_bits} exceeds stored {bits.shape[1]}"
            )
        bits = bits[:, :n_bits]
    return bits
