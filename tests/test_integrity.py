"""On-disk integrity tests: SNPBIN02 CRCs, torn writes, fsck, service chaos.

Property-tests the detection guarantee of the checksummed ``.snpbin``
revision -- *any* truncation or bit flip anywhere in a v2 file
(header, data, CRC table) is caught by open or verification, exactly
counted in ``io.crc_failures`` -- the rejection of set pad bits even
under a matching CRC, plus SNPBIN01 backward compatibility
(loads fine, ``verified=False``), lazy chunk verification with
mmap-preserving reads, the fsck scan/quarantine flow and its CLI exit
codes, and the serve-tier chaos scenarios' gates.
"""

import zlib

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DatasetError, IntegrityError
from repro.io_stream import (
    DEFAULT_CRC_CHUNK_ROWS,
    PackedDatasetReader,
    PackedDatasetWriter,
    fsck_directory,
    fsck_file,
    write_snpbin,
)
from repro.io_stream.format import SNPBIN2_HEADER_BYTES
from repro.observability.counters import IO_CHUNKS_VERIFIED, IO_CRC_FAILURES
from repro.observability.tracer import Tracer, set_tracer
from repro.resilience.chaos import run_chaos_case
from repro.serve import ProfileIndex


def _random_bits(rows, sites, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(rows, sites), dtype=np.uint8)


@pytest.fixture
def tracer():
    t = Tracer()
    previous = set_tracer(t)
    yield t
    set_tracer(previous)


def _write_v2(path, rows=37, sites=130, crc_chunk_rows=8, seed=3):
    bits = _random_bits(rows, sites, seed=seed)
    write_snpbin(path, bits, word_bits=64, crc_chunk_rows=crc_chunk_rows)
    return bits


# -- SNPBIN02 round trip and verification --------------------------------------


class TestSnpbin2RoundTrip:
    def test_round_trip_is_verified(self, tmp_path, tracer):
        path = tmp_path / "db.snpbin"
        bits = _write_v2(path, rows=37, crc_chunk_rows=8)
        with PackedDatasetReader(path) as reader:
            assert reader.version == 2
            assert reader.verified
            assert np.array_equal(reader.read_bits(0, 37), bits)
            # 37 rows / 8-row chunks -> 5 chunks, all touched.
            assert reader.chunks_verified == 5
        assert tracer.counters.get(IO_CHUNKS_VERIFIED) == 5
        assert tracer.counters.get(IO_CRC_FAILURES) == 0

    def test_lazy_verification_touches_only_read_chunks(self, tmp_path, tracer):
        path = tmp_path / "db.snpbin"
        _write_v2(path, rows=32, crc_chunk_rows=8)
        with PackedDatasetReader(path) as reader:
            reader.read_words(0, 8)  # chunk 0 only
            assert reader.chunks_verified == 1
            reader.read_words(4, 20)  # chunks 0..2; chunk 0 cached
            assert reader.chunks_verified == 3
            reader.read_words(0, 20)  # fully cached: no re-verification
        assert tracer.counters.get(IO_CHUNKS_VERIFIED) == 3

    def test_verify_false_opts_out(self, tmp_path, tracer):
        path = tmp_path / "db.snpbin"
        bits = _write_v2(path)
        with PackedDatasetReader(path, verify=False) as reader:
            assert not reader.verified
            assert np.array_equal(reader.read_bits(0, len(bits)), bits)
        assert tracer.counters.get(IO_CHUNKS_VERIFIED) == 0

    def test_chunked_writes_byte_identical_to_whole(self, tmp_path):
        bits = _random_bits(53, 200, seed=9)
        whole, parts = tmp_path / "whole.snpbin", tmp_path / "parts.snpbin"
        write_snpbin(whole, bits, word_bits=32, crc_chunk_rows=16)
        splits = (0, 5, 18, 19, 40, 53)
        with PackedDatasetWriter(
            parts, word_bits=32, crc_chunk_rows=16
        ) as writer:
            for a, b in zip(splits, splits[1:]):
                writer.append(bits[a:b])
        # Append granularity must not leak into chunk CRC boundaries.
        assert whole.read_bytes() == parts.read_bytes()

    def test_torn_write_detected_on_open(self, tmp_path):
        path = tmp_path / "torn.snpbin"
        writer = PackedDatasetWriter(path, word_bits=64, crc_chunk_rows=8)
        writer.append(_random_bits(12, 64))
        writer._fh.flush()
        # Crash before close(): the placeholder header's CRC guard is
        # deliberately inverted, so the open must refuse the file.
        with pytest.raises(IntegrityError, match="torn write"):
            PackedDatasetReader(path)
        writer.close()
        with PackedDatasetReader(path) as reader:
            assert reader.n_rows == 12


# -- corruption property tests -------------------------------------------------


class TestCorruptionDetection:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_any_bit_flip_is_detected(self, tmp_path_factory, data):
        tmp_path = tmp_path_factory.mktemp("flip")
        path = tmp_path / "db.snpbin"
        _write_v2(path, rows=37, sites=130, crc_chunk_rows=8)
        raw = bytearray(path.read_bytes())
        offset = data.draw(
            st.integers(min_value=0, max_value=len(raw) - 1), label="offset"
        )
        bit = data.draw(st.integers(min_value=0, max_value=7), label="bit")
        raw[offset] ^= 1 << bit
        path.write_bytes(bytes(raw))
        # Every flip -- header, data region, CRC table -- must surface
        # as a typed error from open or full verification, never as
        # silently different rows.
        with pytest.raises(DatasetError):
            with PackedDatasetReader(path) as reader:
                reader.verify_all()
        assert not fsck_file(path).ok

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_any_truncation_is_detected(self, tmp_path_factory, data):
        tmp_path = tmp_path_factory.mktemp("trunc")
        path = tmp_path / "db.snpbin"
        _write_v2(path, rows=37, sites=130, crc_chunk_rows=8)
        size = path.stat().st_size
        keep = data.draw(
            st.integers(min_value=0, max_value=size - 1), label="keep"
        )
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(DatasetError):
            with PackedDatasetReader(path) as reader:
                reader.verify_all()
        assert not fsck_file(path).ok

    def test_data_flip_counts_crc_failure_exactly(self, tmp_path, tracer):
        path = tmp_path / "db.snpbin"
        _write_v2(path, rows=16, crc_chunk_rows=8)
        raw = bytearray(path.read_bytes())
        raw[SNPBIN2_HEADER_BYTES + 3] ^= 0x10  # inside chunk 0's rows
        path.write_bytes(bytes(raw))
        with PackedDatasetReader(path) as reader:
            with pytest.raises(IntegrityError, match="chunk 0"):
                reader.read_words(0, 8)
            # Chunk 1 is intact and stays readable.
            reader.read_words(8, 16)
        assert tracer.counters.get(IO_CRC_FAILURES) == 1
        assert tracer.counters.get(IO_CHUNKS_VERIFIED) == 1


# -- pad bits past n_bits -------------------------------------------------------


def _set_pad_bit(path, row=0):
    """Set the lowest pad bit of ``row`` and re-seal the covering CRC,
    so only the pad-bit check can tell the file from a healthy one."""
    with PackedDatasetReader(path, verify=False) as reader:
        header = reader.header
    raw = bytearray(path.read_bytes())
    data = header.header_bytes
    # Little-endian words: the last word's low byte holds its low bits,
    # which are pad bits whenever n_bits is not a word multiple.
    raw[data + (row + 1) * header.row_bytes - header.word_bits // 8] |= 1
    if header.version == 2:
        ccr = header.crc_chunk_rows
        chunk = row // ccr
        lo = data + chunk * ccr * header.row_bytes
        hi = data + min((chunk + 1) * ccr, header.n_rows) * header.row_bytes
        table = data + header.data_bytes + 4 * chunk
        raw[table : table + 4] = zlib.crc32(bytes(raw[lo:hi])).to_bytes(4, "little")
    path.write_bytes(bytes(raw))


class TestPadBits:
    @pytest.mark.parametrize("version", [1, 2])
    def test_set_pad_bit_is_an_integrity_error(self, tmp_path, version):
        path = tmp_path / "db.snpbin"
        bits = _random_bits(6, 100, seed=21)
        write_snpbin(path, bits, word_bits=32, version=version)
        _set_pad_bit(path, row=3)
        for verify in (True, False):
            with PackedDatasetReader(path, verify=verify) as reader:
                # Rows without the bad pad bit still read.
                assert np.array_equal(reader.read_bits(0, 3), bits[:3])
                with pytest.raises(IntegrityError, match=r"rows \[2, 5\)") as exc:
                    reader.read_words(2, 5)
                assert exc.value.path == str(path)
                assert "db.snpbin" in str(exc.value)
                with pytest.raises(IntegrityError, match="pad bits"):
                    reader.read_bits(0, 6)
                with pytest.raises(IntegrityError, match="pad bits"):
                    reader.verify_all()
        report = fsck_file(path)
        assert not report.ok and "pad bits" in report.error

    def test_service_refuses_a_shard_with_a_set_pad_bit(self, tmp_path):
        from repro.serve import IdentityService

        db = _random_bits(40, 100, seed=23)
        ProfileIndex.build(tmp_path, db, shard_rows=20, word_bits=32).close()
        _set_pad_bit(tmp_path / "shard-000000.snpbin", row=0)
        with ProfileIndex(tmp_path) as index:
            with IdentityService(index, k=1, device="Titan V") as service:
                # The resident shard words would score the exact match
                # at distance 1 instead of 0; the read must refuse.
                with pytest.raises(IntegrityError, match="pad bits"):
                    service.search(db[:1])


# -- SNPBIN01 backward compatibility -------------------------------------------


class TestV1Compatibility:
    def test_v1_loads_without_verification(self, tmp_path, tracer):
        path = tmp_path / "legacy.snpbin"
        bits = _random_bits(21, 90, seed=5)
        write_snpbin(path, bits, word_bits=64, version=1)
        with PackedDatasetReader(path) as reader:
            assert reader.version == 1
            assert not reader.verified
            assert reader.verify_all() == 0
            assert np.array_equal(reader.read_bits(0, 21), bits)
        assert tracer.counters.get(IO_CHUNKS_VERIFIED) == 0
        report = fsck_file(path)
        assert report.ok and not report.verified

    def test_index_mixes_v1_and_v2_shards(self, tmp_path):
        db = _random_bits(40, 64, seed=11)
        write_snpbin(
            tmp_path / "shard-000000.snpbin", db[:20], word_bits=64, version=1
        )
        write_snpbin(tmp_path / "shard-000001.snpbin", db[20:], word_bits=64)
        with ProfileIndex(tmp_path) as index:
            assert index.n_rows == 40
            stacked = np.vstack(list(index.iter_bits()))
        assert np.array_equal(stacked, db)


# -- fsck ----------------------------------------------------------------------


class TestFsck:
    def _corrupt(self, path):
        raw = bytearray(path.read_bytes())
        raw[SNPBIN2_HEADER_BYTES + 1] ^= 0x01
        path.write_bytes(bytes(raw))

    def test_directory_scan_and_quarantine(self, tmp_path):
        db = _random_bits(60, 64, seed=13)
        ProfileIndex.build(tmp_path, db, shard_rows=20).close()
        self._corrupt(tmp_path / "shard-000002.snpbin")
        report = fsck_directory(tmp_path, quarantine=True)
        assert (report.n_ok, report.n_corrupt) == (2, 1)
        assert not report.clean
        bad = [f for f in report.files if not f.ok]
        assert bad[0].quarantined_to.endswith(".snpbin.quarantined")
        assert not (tmp_path / "shard-000002.snpbin").exists()
        # The reopened index serves the healthy shards only.
        with ProfileIndex(tmp_path) as index:
            assert index.n_rows == 40
            stacked = np.vstack(list(index.iter_bits()))
        assert np.array_equal(stacked, db[:40])

    def test_scan_without_quarantine_leaves_files(self, tmp_path):
        db = _random_bits(40, 64, seed=14)
        ProfileIndex.build(tmp_path, db, shard_rows=20).close()
        self._corrupt(tmp_path / "shard-000001.snpbin")
        report = fsck_directory(tmp_path, quarantine=False)
        assert report.n_corrupt == 1
        assert (tmp_path / "shard-000001.snpbin").exists()

    def test_fsck_rejects_non_directory(self, tmp_path):
        with pytest.raises(DatasetError, match="not a directory"):
            fsck_directory(tmp_path / "missing")

    def test_cli_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        db = _random_bits(40, 64, seed=15)
        ProfileIndex.build(tmp_path, db, shard_rows=20).close()
        assert main(["fsck", str(tmp_path)]) == 0
        self._corrupt(tmp_path / "shard-000000.snpbin")
        assert main(["fsck", str(tmp_path), "--quarantine"]) == 1
        out = capsys.readouterr().out
        assert "CORRUPT" in out and "quarantined" in out
        assert main(["fsck", str(tmp_path)]) == 0  # healthy remainder


# -- serve-tier chaos scenarios -------------------------------------------------


class TestServeChaos:
    def test_default_crc_chunk_rows_sane(self):
        assert DEFAULT_CRC_CHUNK_ROWS == 4096

    def test_disk_corrupt_scenario_gates(self):
        result = run_chaos_case("disk-corrupt", seed=1)
        assert result.passed, result.summary()

    def test_latency_scenario_gates(self):
        result = run_chaos_case("latency", seed=1)
        assert result.passed, result.summary()
