"""Tests for repro.util.bitops: popcount and bit packing."""

import numpy as np
import pytest

from repro.errors import PackingError
from repro.util.bitops import (
    HAS_NATIVE_POPCOUNT,
    pack_bits,
    popcount,
    popcount_native,
    popcount_sum,
    popcount_table,
    unpack_bits,
    words_needed,
)


class TestPopcount:
    def test_known_values_u32(self):
        words = np.array([0, 1, 3, 0xFFFFFFFF, 0x80000000, 0xAAAAAAAA], dtype=np.uint32)
        expected = np.array([0, 1, 2, 32, 1, 16])
        assert (popcount(words) == expected).all()

    def test_known_values_u64(self):
        words = np.array([0, 2**63, 2**64 - 1, 0x0123456789ABCDEF], dtype=np.uint64)
        expected = np.array([0, 1, 64, bin(0x0123456789ABCDEF).count("1")])
        assert (popcount(words) == expected).all()

    def test_table_matches_native(self):
        if not HAS_NATIVE_POPCOUNT:
            pytest.skip("no native popcount on this NumPy")
        rng = np.random.default_rng(0)
        for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
            info = np.iinfo(dtype)
            w = rng.integers(0, info.max, size=500, dtype=dtype, endpoint=True)
            assert (popcount_table(w) == popcount_native(w)).all()

    def test_table_rejects_signed(self):
        with pytest.raises(PackingError):
            popcount_table(np.array([1, 2], dtype=np.int32))

    def test_preserves_shape(self):
        w = np.zeros((3, 4, 5), dtype=np.uint32)
        assert popcount(w).shape == (3, 4, 5)

    def test_result_dtype_is_int64(self):
        assert popcount(np.array([7], dtype=np.uint8)).dtype == np.int64


class TestPopcountSum:
    def test_total(self):
        w = np.array([[1, 3], [7, 0]], dtype=np.uint32)
        assert popcount_sum(w) == 1 + 2 + 3 + 0

    def test_axis(self):
        w = np.array([[1, 3], [7, 0]], dtype=np.uint32)
        assert (popcount_sum(w, axis=1) == [3, 3]).all()

    def test_total_is_python_int(self):
        assert isinstance(popcount_sum(np.array([1], dtype=np.uint32)), int)


class TestWordsNeeded:
    @pytest.mark.parametrize(
        "bits,word_bits,expected",
        [(0, 32, 0), (1, 32, 1), (32, 32, 1), (33, 32, 2), (64, 64, 1), (65, 64, 2)],
    )
    def test_values(self, bits, word_bits, expected):
        assert words_needed(bits, word_bits) == expected

    def test_negative_bits_rejected(self):
        with pytest.raises(PackingError):
            words_needed(-1)

    def test_bad_word_width_rejected(self):
        with pytest.raises(PackingError):
            words_needed(10, word_bits=12)


class TestPackUnpack:
    @pytest.mark.parametrize("word_bits", [8, 16, 32, 64])
    def test_roundtrip(self, word_bits):
        rng = np.random.default_rng(1)
        bits = (rng.random((13, 77)) < 0.4).astype(np.uint8)
        packed = pack_bits(bits, word_bits=word_bits)
        assert packed.dtype == np.dtype(f"uint{word_bits}")
        assert (unpack_bits(packed, 77) == bits).all()

    def test_popcount_preserved(self):
        rng = np.random.default_rng(2)
        bits = (rng.random((5, 100)) < 0.3).astype(np.uint8)
        packed = pack_bits(bits, 32)
        assert (popcount(packed).sum(axis=1) == bits.sum(axis=1)).all()

    def test_padding_words_are_zero(self):
        bits = np.ones((2, 10), dtype=np.uint8)
        packed = pack_bits(bits, 32, pad_to_words=4)
        assert packed.shape == (2, 4)
        assert (packed[:, 1:] == 0).all()

    def test_pad_too_small_rejected(self):
        bits = np.ones((1, 100), dtype=np.uint8)
        with pytest.raises(PackingError):
            pack_bits(bits, 32, pad_to_words=1)

    def test_non_binary_rejected(self):
        with pytest.raises(PackingError):
            pack_bits(np.array([[0, 2]]), 32)

    def test_non_2d_rejected(self):
        with pytest.raises(PackingError):
            pack_bits(np.zeros(5), 32)

    def test_bool_input_accepted(self):
        bits = np.array([[True, False, True]])
        packed = pack_bits(bits, 32)
        assert popcount(packed).sum() == 2

    def test_empty_rows(self):
        packed = pack_bits(np.zeros((0, 64), dtype=np.uint8), 32)
        assert packed.shape == (0, 2)

    def test_zero_columns(self):
        packed = pack_bits(np.zeros((3, 0), dtype=np.uint8), 32)
        assert packed.shape == (3, 0)

    def test_unpack_rejects_bad_nbits(self):
        packed = pack_bits(np.zeros((1, 32), dtype=np.uint8), 32)
        with pytest.raises(PackingError):
            unpack_bits(packed, 64)

    def test_unpack_full_width_by_default(self):
        packed = pack_bits(np.ones((1, 10), dtype=np.uint8), 32)
        assert unpack_bits(packed).shape == (1, 32)

    def test_bit_order_is_msb_first(self):
        # First bit of the row lands in the most significant position.
        bits = np.zeros((1, 32), dtype=np.uint8)
        bits[0, 0] = 1
        packed = pack_bits(bits, 32)
        assert packed[0, 0] == np.uint32(0x80000000)


class TestPackValidation:
    """The dtype-aware binary check behind pack_bits."""

    @pytest.mark.parametrize(
        "dtype", [np.uint8, np.uint16, np.uint64, np.int8, np.int32, np.int64]
    )
    def test_integer_binary_accepted(self, dtype):
        bits = np.array([[0, 1, 1, 0]], dtype=dtype)
        assert popcount(pack_bits(bits, 32)).sum() == 2

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([[0, 2]], dtype=np.uint8),
            np.array([[0, -1]], dtype=np.int8),
            np.array([[0, 2]], dtype=np.int64),
            np.array([[0.0, 0.5]]),
            np.array([[0.0, -1.0]]),
        ],
    )
    def test_non_binary_rejected_per_dtype(self, bad):
        with pytest.raises(PackingError):
            pack_bits(bad, 32)

    def test_float_binary_accepted(self):
        bits = np.array([[0.0, 1.0, 1.0]])
        assert popcount(pack_bits(bits, 32)).sum() == 2


class TestPackEdgeCases:
    @pytest.mark.parametrize("word_bits", [8, 16, 32, 64])
    def test_zero_rows_roundtrip(self, word_bits):
        packed = pack_bits(np.zeros((0, 65), dtype=np.uint8), word_bits)
        assert packed.shape == (0, words_needed(65, word_bits))
        assert unpack_bits(packed, 65).shape == (0, 65)

    @pytest.mark.parametrize("word_bits", [8, 16, 32, 64])
    def test_zero_bits_roundtrip(self, word_bits):
        packed = pack_bits(np.zeros((4, 0), dtype=np.uint8), word_bits)
        assert packed.shape == (4, 0)
        assert unpack_bits(packed, 0).shape == (4, 0)

    def test_unpack_zero_words_honours_nbits_bound(self):
        empty = np.zeros((2, 0), dtype=np.uint32)
        with pytest.raises(PackingError):
            unpack_bits(empty, 1)

    @pytest.mark.parametrize("word_bits", [8, 16, 32, 64])
    @pytest.mark.parametrize("n_bits", [1, 7, 63, 64, 65, 200])
    def test_roundtrip_all_widths(self, word_bits, n_bits):
        rng = np.random.default_rng(word_bits * 1000 + n_bits)
        bits = (rng.random((3, n_bits)) < 0.5).astype(np.uint8)
        packed = pack_bits(bits, word_bits)
        assert (unpack_bits(packed, n_bits) == bits).all()

    @pytest.mark.parametrize("word_bits", [16, 32, 64])
    def test_vectorized_tail_matches_byteshift_loop(self, word_bits):
        from repro.util.bitops import _pack_words_byteshift

        rng = np.random.default_rng(9)
        bits = (rng.random((6, 3 * word_bits + 5)) < 0.5).astype(bool)
        packed = pack_bits(bits, word_bits)
        n_words = packed.shape[1]
        padded = np.zeros((6, n_words * word_bits), dtype=bool)
        padded[:, : bits.shape[1]] = bits
        as_u8 = np.packbits(padded, axis=1)
        assert (packed == _pack_words_byteshift(as_u8, word_bits)).all()


class TestPackTransposed:
    """A transposed (site-view) matrix packs without a uint8 transpose."""

    @pytest.mark.parametrize("word_bits", [8, 16, 32, 64])
    @pytest.mark.parametrize("dtype", [np.bool_, np.uint8, np.int64])
    @pytest.mark.parametrize("shape", [(13, 21), (3, 64), (100, 9), (16, 200)])
    def test_same_words_as_row_order(self, word_bits, dtype, shape):
        # shape is the sample-major matrix; its .T is the packed rows,
        # so shape[0] is the packed bit count (13 and 100 are not
        # multiples of 8) and shape[1] the packed row count.
        rng = np.random.default_rng(shape[0] * 7 + word_bits)
        matrix = (rng.random(shape) < 0.4).astype(dtype)
        view = matrix.T
        assert view.flags.f_contiguous and not view.flags.c_contiguous
        expected = pack_bits(np.ascontiguousarray(view), word_bits)
        for pad in (None, words_needed(shape[0], word_bits) + 2):
            got = pack_bits(view, word_bits, pad_to_words=pad)
            want = (
                expected
                if pad is None
                else pack_bits(np.ascontiguousarray(view), word_bits, pad)
            )
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert (unpack_bits(expected, shape[0]) == view).all()

    def test_non_binary_raises_the_same_error(self):
        matrix = np.zeros((9, 5), dtype=np.uint8)
        matrix[4, 2] = 2
        with pytest.raises(PackingError, match="only 0s and 1s"):
            pack_bits(matrix.T, 32)

    def test_ld_gram_shape_takes_the_transposed_route(self, monkeypatch):
        from repro.core.packing import pack_operand
        from repro.util import bitops

        calls = []
        route = bitops._packbits_transposed

        def spy(columns, n_bytes):
            calls.append(columns.shape)
            return route(columns, n_bytes)

        monkeypatch.setattr(bitops, "_packbits_transposed", spy)
        rng = np.random.default_rng(3)
        # 2,048 samples x 4,094 sites: a site count that is not a
        # multiple of m_r, so the operand also needs padding rows.
        matrix = (rng.random((2048, 4094)) < 0.3).astype(np.uint8)
        op = pack_operand(matrix.T, word_bits=32, row_multiple=4)
        assert calls == [(2048, 4094)]
        assert op.words.shape == (4096, 64) and op.n_rows == 4094
        assert np.array_equal(op.words[:4094], pack_bits(np.ascontiguousarray(matrix.T), 32))
        assert not op.words[4094:].any()
