"""Tests for repro.io_stream and the streaming workloads built on it.

Covers the ``.snpbin`` format (round-trips, header/size validation,
corruption rejection), the chunk-source adapters, the double-buffered
prefetch executor (ordering, accounting, error propagation), bit-exact
equivalence of chunked execution against the in-memory paths for all
three workloads (property-tested over chunk sizes, including 1 and
larger than the input), the packed chunk path's conformance against
dense oracles across workloads, sources, widths and devices, and the
per-chunk resilience retry rung.
"""

import itertools

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.identity import identity_search
from repro.core.ld import linkage_disequilibrium
from repro.core.mixture import mixture_analysis
from repro.core.ldops import ld_clump, ld_prune
from repro.core.streaming import (
    StreamingIdentitySearch,
    StreamingLD,
    StreamingMixture,
)
from repro.errors import AllocationError, DatasetError
from repro.io_stream import (
    ArraySource,
    ChunkStream,
    IteratorSource,
    NpzSource,
    PackedDatasetReader,
    PackedDatasetWriter,
    SNPBIN_MAGIC,
    SnpbinSource,
    as_chunk_source,
    materialize_source,
    open_source,
    write_snpbin,
)
from repro.io_stream.format import SNPBIN2_HEADER_BYTES, SNPBIN_HEADER_BYTES
from repro.observability.tracer import Tracer, set_tracer
from repro.resilience import RetryPolicy, resilient
from repro.snp.dataset import SNPDataset
from repro.snp.forensic import ForensicDatabase
from repro.snp.io import save_database_npz, save_dataset_npz
from repro.util.bitops import pack_bits
from tests.test_ldops import (
    _correlated_panel,
    _dense_clump,
    _dense_prune,
    _same_on_both_paths,
)


def _random_bits(rows, sites, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(rows, sites), dtype=np.uint8)


@pytest.fixture
def tracer():
    """Install a fresh process tracer for one test."""
    t = Tracer()
    previous = set_tracer(t)
    yield t
    set_tracer(previous)


# -- .snpbin format ------------------------------------------------------------


class TestSnpbinFormat:
    @pytest.mark.parametrize("shape", [(1, 1), (7, 64), (13, 100), (50, 7)])
    def test_roundtrip_exact(self, tmp_path, shape):
        bits = _random_bits(*shape, seed=shape[0])
        path = tmp_path / "m.snpbin"
        assert write_snpbin(path, bits) == shape[0]
        with PackedDatasetReader(path) as reader:
            assert reader.n_rows == shape[0]
            assert reader.n_bits == shape[1]
            assert (reader.read_bits(0, reader.n_rows) == bits).all()

    @pytest.mark.parametrize("word_bits", [8, 16, 32, 64])
    def test_word_bits_variants(self, tmp_path, word_bits):
        bits = _random_bits(9, 45, seed=word_bits)
        path = tmp_path / "w.snpbin"
        write_snpbin(path, bits, word_bits=word_bits)
        with PackedDatasetReader(path) as reader:
            assert reader.word_bits == word_bits
            assert (reader.read_bits(0, 9) == bits).all()

    def test_chunked_writes_match_single_write(self, tmp_path):
        bits = _random_bits(23, 70, seed=5)
        whole = tmp_path / "whole.snpbin"
        chunked = tmp_path / "chunked.snpbin"
        write_snpbin(whole, bits)
        with PackedDatasetWriter(chunked) as writer:
            writer.append(bits[:10])
            writer.append(bits[10:17])
            writer.append(bits[17:])
        assert whole.read_bytes() == chunked.read_bytes()

    def test_empty_matrix(self, tmp_path):
        path = tmp_path / "empty.snpbin"
        write_snpbin(path, np.zeros((0, 12), dtype=np.uint8))
        with PackedDatasetReader(path) as reader:
            assert reader.n_rows == 0
            assert reader.read_bits(0, 0).shape == (0, 12)

    def test_partial_reads_and_clamping(self, tmp_path):
        bits = _random_bits(10, 33, seed=2)
        path = tmp_path / "p.snpbin"
        write_snpbin(path, bits)
        with PackedDatasetReader(path) as reader:
            assert (reader.read_bits(3, 7) == bits[3:7]).all()
            # stop beyond the end clamps.
            assert (reader.read_bits(8, 99) == bits[8:]).all()
            with pytest.raises(DatasetError):
                reader.read_bits(-1, 2)
            with pytest.raises(DatasetError):
                reader.read_bits(5, 2)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.snpbin"
        write_snpbin(path, _random_bits(3, 8))
        raw = bytearray(path.read_bytes())
        raw[:8] = b"NOTSNP00"
        path.write_bytes(bytes(raw))
        with pytest.raises(DatasetError, match="magic"):
            PackedDatasetReader(path)

    def test_reserved_flags_rejected(self, tmp_path):
        path = tmp_path / "flags.snpbin"
        write_snpbin(path, _random_bits(3, 8), version=1)
        raw = bytearray(path.read_bytes())
        raw[12] = 1  # v1 reserved field must be zero
        path.write_bytes(bytes(raw))
        with pytest.raises(DatasetError, match="flags"):
            PackedDatasetReader(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "trunc.snpbin"
        write_snpbin(path, _random_bits(5, 64))
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(DatasetError, match="truncated or corrupt"):
            PackedDatasetReader(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "extra.snpbin"
        write_snpbin(path, _random_bits(5, 64))
        path.write_bytes(path.read_bytes() + b"\0\0\0")
        with pytest.raises(DatasetError, match="truncated or corrupt"):
            PackedDatasetReader(path)

    def test_header_shorter_than_fixed_size_rejected(self, tmp_path):
        path = tmp_path / "short.snpbin"
        path.write_bytes(SNPBIN_MAGIC)  # 8 of 32 header bytes
        with pytest.raises(DatasetError, match="too short"):
            PackedDatasetReader(path)

    def test_missing_file_wrapped(self, tmp_path):
        with pytest.raises(DatasetError, match="no such file"):
            PackedDatasetReader(tmp_path / "nope.snpbin")

    def test_writer_validation(self, tmp_path):
        path = tmp_path / "v.snpbin"
        with pytest.raises(DatasetError, match="word_bits"):
            PackedDatasetWriter(path, word_bits=12)
        writer = PackedDatasetWriter(path)
        writer.append(_random_bits(2, 10))
        with pytest.raises(DatasetError, match="sites"):
            writer.append(_random_bits(2, 11))
        with pytest.raises(DatasetError, match="2-D"):
            writer.append(np.zeros(5, dtype=np.uint8))
        writer.close()
        with pytest.raises(DatasetError, match="closed"):
            writer.append(_random_bits(1, 10))

    def test_file_size_matches_header_math(self, tmp_path):
        path = tmp_path / "sz.snpbin"
        write_snpbin(path, _random_bits(11, 100), word_bits=64, version=1)
        with PackedDatasetReader(path) as reader:
            k_words = (100 + 63) // 64
            assert reader.header.row_bytes == k_words * 8
            assert reader.bytes_for_rows(11) == 11 * k_words * 8
            expected = SNPBIN_HEADER_BYTES + reader.bytes_for_rows(11)
            assert path.stat().st_size == expected

    def test_v2_file_size_matches_header_math(self, tmp_path):
        path = tmp_path / "sz2.snpbin"
        write_snpbin(
            path, _random_bits(11, 100), word_bits=64, crc_chunk_rows=4
        )
        with PackedDatasetReader(path) as reader:
            assert reader.version == 2
            assert reader.header.n_chunks == 3  # ceil(11 / 4)
            expected = (
                SNPBIN2_HEADER_BYTES
                + reader.bytes_for_rows(11)
                + 3 * 4  # trailing CRC table
            )
            assert reader.header.file_bytes == expected
            assert path.stat().st_size == expected


# -- chunk sources -------------------------------------------------------------


class TestChunkSources:
    def test_array_source(self):
        bits = _random_bits(12, 9)
        src = ArraySource(bits)
        assert src.n_rows == 12 and src.n_sites == 9
        assert (src.read(4, 8) == bits[4:8]).all()
        chunks = list(src.chunks(5))
        assert [c.shape[0] for c in chunks] == [5, 5, 2]
        assert (np.vstack(chunks) == bits).all()

    def test_snpbin_source_reports_packed_bytes(self, tmp_path):
        bits = _random_bits(8, 128)
        path = tmp_path / "s.snpbin"
        write_snpbin(path, bits)
        with SnpbinSource(path) as src:
            chunk = src.read(0, 8)
            assert (chunk == bits).all()
            # Accounting reflects on-disk packed bytes, not the 8x
            # larger unpacked working set.
            assert src.chunk_nbytes(chunk) == 8 * (128 // 64) * 8
            assert src.chunk_nbytes(chunk) < chunk.nbytes

    def test_npz_source_dataset_and_database(self, tmp_path):
        bits = _random_bits(6, 20)
        ds_path = tmp_path / "ds.npz"
        save_dataset_npz(ds_path, SNPDataset(matrix=bits))
        with NpzSource(ds_path) as src:
            assert (src.read(0, 6) == bits).all()
        db_path = tmp_path / "db.npz"
        save_database_npz(
            db_path,
            ForensicDatabase(profiles=bits, frequencies=bits.mean(axis=0)),
        )
        with NpzSource(db_path) as src:
            assert src.n_rows == 6
            assert (src.read(2, 4) == bits[2:4]).all()

    def test_iterator_source_reslices_batches(self):
        bits = _random_bits(17, 6)
        # Feed batching (4/1/9/3) must not leak into chunk boundaries.
        batches = [bits[:4], bits[4:5], bits[5:14], bits[14:]]
        src = IteratorSource(batches)
        chunks = list(src.chunks(6))
        assert [c.shape[0] for c in chunks] == [6, 6, 5]
        assert (np.vstack(chunks) == bits).all()
        assert src.n_rows == 17  # known once exhausted

    def test_iterator_source_is_one_shot(self):
        src = IteratorSource([_random_bits(4, 3)])
        list(src.chunks(2))
        with pytest.raises(DatasetError, match="one-shot"):
            list(src.chunks(2))
        with pytest.raises(DatasetError, match="not seekable"):
            src.read(0, 2)

    def test_iterator_source_validates_widths(self):
        src = IteratorSource([_random_bits(2, 4), _random_bits(2, 5)])
        with pytest.raises(DatasetError, match="sites"):
            list(src.chunks(2))
        with pytest.raises(DatasetError, match="n_sites unknown"):
            IteratorSource([]).n_sites

    def test_as_chunk_source_dispatch(self, tmp_path):
        bits = _random_bits(4, 8)
        assert isinstance(as_chunk_source(bits), ArraySource)
        existing = ArraySource(bits)
        assert as_chunk_source(existing) is existing
        path = tmp_path / "d.snpbin"
        write_snpbin(path, bits)
        src = as_chunk_source(str(path))
        assert isinstance(src, SnpbinSource)
        src.close()
        assert isinstance(as_chunk_source(iter([bits])), IteratorSource)
        with pytest.raises(DatasetError, match="cannot adapt"):
            as_chunk_source(42)

    def test_open_source_suffix_dispatch(self, tmp_path):
        with pytest.raises(DatasetError, match="unsupported input format"):
            open_source(tmp_path / "x.csv")

    def test_materialize_spools_one_shot_feed(self, tmp_path):
        bits = _random_bits(15, 40, seed=3)
        feed = IteratorSource([bits[:7], bits[7:]])
        spooled = materialize_source(feed, tmp_path / "spool.snpbin", chunk_rows=4)
        assert spooled.seekable
        assert spooled.n_rows == 15
        assert (spooled.read(0, 15) == bits).all()
        assert (spooled.read(11, 15) == bits[11:]).all()
        spooled.close()

    def test_chunk_rows_validated(self):
        src = ArraySource(_random_bits(4, 4))
        with pytest.raises(DatasetError, match="positive"):
            list(src.chunks(0))


# -- prefetch executor ---------------------------------------------------------


class _ExplodingSource(ArraySource):
    """Raises on the second read to exercise producer error paths."""

    def __init__(self, matrix, fail_at=1):
        super().__init__(matrix)
        self._reads = 0
        self._fail_at = fail_at

    def read(self, start, stop):
        if self._reads == self._fail_at:
            raise OSError("disk went away")
        self._reads += 1
        return super().read(start, stop)


class TestChunkStream:
    @pytest.mark.parametrize("prefetch", [True, False])
    def test_yields_all_chunks_in_order(self, prefetch):
        bits = _random_bits(31, 10, seed=7)
        stream = ChunkStream(ArraySource(bits), chunk_rows=8, prefetch=prefetch)
        chunks = list(stream)
        assert [c.shape[0] for c in chunks] == [8, 8, 8, 7]
        assert (np.vstack(chunks) == bits).all()
        assert stream.stats.chunks == 4
        assert stream.stats.bytes_read == bits.nbytes

    def test_sync_mode_stall_equals_read(self):
        bits = _random_bits(20, 10)
        stream = ChunkStream(ArraySource(bits), chunk_rows=5, prefetch=False)
        list(stream)
        assert stream.stats.stall_s == pytest.approx(stream.stats.read_s)
        assert stream.stats.stall_fraction == pytest.approx(1.0)

    def test_producer_error_propagates(self):
        stream = ChunkStream(
            _ExplodingSource(_random_bits(20, 6), fail_at=1), chunk_rows=5
        )
        with pytest.raises(OSError, match="disk went away"):
            list(stream)

    def test_one_shot(self):
        stream = ChunkStream(ArraySource(_random_bits(4, 4)), chunk_rows=2)
        list(stream)
        with pytest.raises(DatasetError, match="already consumed"):
            iter(stream)

    def test_chunk_rows_validated(self):
        with pytest.raises(DatasetError, match="positive"):
            ChunkStream(ArraySource(_random_bits(4, 4)), chunk_rows=0)

    def test_early_close_stops_producer(self):
        stream = ChunkStream(ArraySource(_random_bits(100, 8)), chunk_rows=1)
        it = iter(stream)
        next(it)
        stream.close()
        assert stream._thread is None

    def test_exact_counters_recorded(self, tracer, tmp_path):
        bits = _random_bits(20, 128, seed=9)
        path = tmp_path / "c.snpbin"
        write_snpbin(path, bits)
        with SnpbinSource(path) as src:
            list(ChunkStream(src, chunk_rows=6))
        counters = tracer.counters.snapshot()
        assert counters["stream.chunks"] == 4
        # 20 rows x 2 packed 64-bit words -- deterministic I/O volume.
        assert counters["stream.bytes_read"] == 20 * 2 * 8
        assert counters["stream.read_s"] > 0


# -- chunked-vs-in-memory equivalence ------------------------------------------


LD_BITS = _random_bits(42, 96, seed=21)
DB_BITS = _random_bits(60, 96, seed=22)
QUERY_BITS = _random_bits(3, 96, seed=23)
MIX_BITS = _random_bits(2, 96, seed=24)


class TestChunkedEquivalence:
    """Chunked execution is bit-exact for any chunking (incl. 1 and > n)."""

    @settings(max_examples=8, deadline=None)
    @given(chunk_rows=st.integers(1, 60))
    def test_ld_bit_exact(self, chunk_rows):
        expected = linkage_disequilibrium(LD_BITS, compare="samples")
        result = StreamingLD().run(LD_BITS, chunk_rows)
        assert (result.counts == expected.counts).all()
        assert np.array_equal(result.frequencies, expected.frequencies)
        assert result.n_observations == expected.n_observations

    @settings(max_examples=8, deadline=None)
    @given(chunk_rows=st.integers(1, 80))
    def test_mixture_bit_exact(self, chunk_rows):
        expected = mixture_analysis(DB_BITS, MIX_BITS)
        streamer = StreamingMixture(MIX_BITS)
        streamer.consume(DB_BITS, chunk_rows)
        result = streamer.result()
        assert (result.scores == expected.scores).all()
        assert result.prenegated == expected.prenegated

    @settings(max_examples=8, deadline=None)
    @given(
        chunk_rows=st.integers(1, 80),
        k=st.integers(1, DB_BITS.shape[0] + 5),  # up to more rows than exist
    )
    def test_identity_topk_bit_exact(self, chunk_rows, k):
        full = identity_search(QUERY_BITS, DB_BITS).distances
        search = StreamingIdentitySearch(QUERY_BITS, k=k)
        search.consume(DB_BITS, chunk_rows)
        for qi in range(QUERY_BITS.shape[0]):
            order = np.lexsort((np.arange(DB_BITS.shape[0]), full[qi]))[:k]
            got = [(m.distance, m.database_index) for m in search.matches(qi)]
            assert got == [(int(full[qi, i]), int(i)) for i in order]

    @settings(max_examples=6, deadline=None)
    @given(chunk_rows=st.integers(1, 40), k=st.integers(1, 35))
    def test_identity_ties_first_seen_wins(self, chunk_rows, k):
        # A database of *duplicated* rows: every distance ties, so the
        # retained candidates are decided purely by tie-breaking, which
        # must stay database order (first seen) for any chunking and
        # any k, including more than the 30 rows there are.
        row = _random_bits(1, 64, seed=31)
        db = np.repeat(row, 30, axis=0)
        queries = _random_bits(2, 64, seed=32)
        search = StreamingIdentitySearch(queries, k=k)
        search.consume(db, chunk_rows)
        for qi in range(2):
            assert [m.database_index for m in search.matches(qi)] == list(
                range(min(k, 30))
            )

    def test_ld_from_snpbin_file(self, tmp_path):
        path = tmp_path / "pop.snpbin"
        write_snpbin(path, LD_BITS)
        expected = linkage_disequilibrium(LD_BITS, compare="samples")
        with open_source(path) as source:
            result = StreamingLD().run(source, chunk_rows=10)
        assert (result.counts == expected.counts).all()

    def test_ld_spools_one_shot_feeds(self):
        feed = IteratorSource([LD_BITS[:15], LD_BITS[15:]])
        expected = linkage_disequilibrium(LD_BITS, compare="samples")
        result = StreamingLD().run(feed, chunk_rows=13)
        assert (result.counts == expected.counts).all()

    def test_merged_report_covers_all_chunks(self):
        result = StreamingLD().run(LD_BITS, chunk_rows=10)
        # 5 diagonal blocks + 4+3+2+1 off-diagonal blocks = 15 runs.
        assert result.report.n_kernel_launches >= 15
        assert result.report.end_to_end_s > 0
        assert result.report.m == LD_BITS.shape[0]


# -- packed-path conformance ----------------------------------------------------


def _pairwise_cases(factors):
    """A few cases covering every pair of levels of any two factors.

    Every (first, second) factor combination is one case; the remaining
    factors are chosen greedily per case to cover the most pairs not
    yet covered, and a final pass adds a case for any pair left over.
    """
    names = list(factors)

    def pairs(case):
        return {
            ((a, case[a]), (b, case[b]))
            for a, b in itertools.combinations(names, 2)
        }

    wanted = {
        ((a, x), (b, y))
        for a, b in itertools.combinations(names, 2)
        for x in factors[a]
        for y in factors[b]
    }
    cases = []
    rest = names[2:]
    for head in itertools.product(factors[names[0]], factors[names[1]]):
        options = [
            dict(zip(names, head + tail))
            for tail in itertools.product(*(factors[n] for n in rest))
        ]
        best = max(options, key=lambda case: len(pairs(case) & wanted))
        cases.append(best)
        wanted -= pairs(best)
    for (a, x), (b, y) in sorted(wanted):
        case = {n: factors[n][0] for n in names}
        case.update({a: x, b: y})
        cases.append(case)
    return cases


CONFORMANCE_FACTORS = {
    "source": ["array", "v2-8", "v2-16", "v2-32", "v2-64", "v1", "iterator"],
    "workload": ["mixture", "identity", "ld", "prune", "clump"],
    "n_bits": [1, 31, 33, 100, 1024],
    # 1, a non-multiple of every device's m_r (4), more than the rows.
    "chunk_rows": [1, 6, 64],
    "device": ["Titan V", "Vega 64"],
}
CONFORMANCE_CASES = _pairwise_cases(CONFORMANCE_FACTORS)
LD_CONFORMANCE_CASES = [
    case for case in CONFORMANCE_CASES if case["workload"] in ("prune", "clump")
]
N_ROWS = 23


def _conformance_source(kind, bits, tmp_path):
    if kind == "array":
        return bits
    if kind == "iterator":
        return IteratorSource([bits[:5], bits[5:6], bits[6:]])
    path = tmp_path / f"{kind}.snpbin"
    if kind == "v1":
        write_snpbin(path, bits, word_bits=64, version=1)
    else:
        # Small CRC runs, so chunks cross CRC-chunk boundaries.
        write_snpbin(path, bits, word_bits=int(kind[3:]), crc_chunk_rows=5)
    return SnpbinSource(path)


def _conformance_rows(workload, n_bits, seed):
    if workload in ("prune", "clump"):
        return _correlated_panel(N_ROWS, n_bits, seed=seed)
    rows = _random_bits(N_ROWS, n_bits, seed=seed)
    if workload == "identity":
        # Duplicate rows tie at every distance: the top-k must keep the
        # first-seen copies whatever the chunking.
        rows[1::2] = rows[0::2][: len(rows[1::2])]
    return rows


class TestPackedConformance:
    """Every workload x source on the packed path is bit-exact against
    the dense oracles (a pairwise-covering subset of the product)."""

    def test_cases_cover_every_pair(self):
        covered = {
            ((a, case[a]), (b, case[b]))
            for case in CONFORMANCE_CASES
            for a, b in itertools.combinations(CONFORMANCE_FACTORS, 2)
        }
        for a, b in itertools.combinations(CONFORMANCE_FACTORS, 2):
            for x in CONFORMANCE_FACTORS[a]:
                for y in CONFORMANCE_FACTORS[b]:
                    assert ((a, x), (b, y)) in covered

    @pytest.mark.parametrize(
        "case",
        CONFORMANCE_CASES,
        ids=["-".join(str(v) for v in c.values()) for c in CONFORMANCE_CASES],
    )
    def test_bit_exact_against_dense_oracle(self, case, tmp_path):
        workload, n_bits = case["workload"], case["n_bits"]
        chunk_rows, device = case["chunk_rows"], case["device"]
        rows = _conformance_rows(workload, n_bits, seed=n_bits)
        source = _conformance_source(case["source"], rows, tmp_path)
        wide = rows.astype(np.int64)
        if workload == "mixture":
            mixtures = _random_bits(3, n_bits, seed=n_bits + 1)
            scan = StreamingMixture(mixtures, device=device)
            scan.consume(source, chunk_rows)
            result = scan.result()
            expected = wide @ (1 - mixtures.astype(np.int64)).T
            assert np.array_equal(result.scores, expected)
            assert result.prenegated == (device == "Vega 64")
        elif workload == "identity":
            queries = np.vstack([rows[2:3], _random_bits(2, n_bits, seed=7)])
            k = 4
            search = StreamingIdentitySearch(queries, k=k, device=device)
            search.consume(source, chunk_rows)
            full = (queries[:, None, :] != rows[None, :, :]).sum(axis=2)
            for qi in range(queries.shape[0]):
                order = np.lexsort((np.arange(N_ROWS), full[qi]))[:k]
                got = [(m.distance, m.database_index) for m in search.matches(qi)]
                assert got == [(int(full[qi, i]), int(i)) for i in order]
        elif workload == "ld":
            result = StreamingLD(device=device).run(source, chunk_rows)
            assert np.array_equal(result.counts, wide @ wide.T)
            assert np.array_equal(result.frequencies, rows.mean(axis=1))
        elif workload == "prune":
            result = ld_prune(
                source, window=4, r2=0.2, chunk_rows=chunk_rows, device=device
            )
            kept, pruned, blocker = _dense_prune(rows, 4, 0.2)
            assert result.kept.tolist() == kept
            assert result.pruned.tolist() == pruned
            assert result.blocker.tolist() == blocker
            whole = ld_prune(rows, window=4, r2=0.2, chunk_rows=N_ROWS)
            assert result.pairs_tested == whole.pairs_tested
        else:
            scores = np.random.default_rng(n_bits).random(N_ROWS)
            result = ld_clump(
                source, scores, window=4, r2=0.5, chunk_rows=chunk_rows,
                device=device,
            )
            assignment, _ = _dense_clump(rows, scores, 4, 0.5)
            assert np.array_equal(result.assignment, assignment)
        if isinstance(source, SnpbinSource):
            source.close()

    @pytest.mark.parametrize(
        "case",
        LD_CONFORMANCE_CASES,
        ids=["-".join(str(v) for v in c.values()) for c in LD_CONFORMANCE_CASES],
    )
    def test_ld_cases_on_both_band_paths(self, case, tmp_path, pin_native):
        # The prune and clump cases on the NumPy band and on the
        # library's (pinned loaded): the same fields and counters, and
        # the dense oracles' answers.
        pin_native(True)
        workload, n_bits = case["workload"], case["n_bits"]
        rows = _conformance_rows(workload, n_bits, seed=n_bits)
        scores = np.random.default_rng(n_bits).random(N_ROWS)

        def run(framework):
            source = _conformance_source(case["source"], rows, tmp_path)
            try:
                if workload == "prune":
                    return ld_prune(
                        source, window=4, r2=0.2, chunk_rows=case["chunk_rows"],
                        framework=framework,
                    )
                return ld_clump(
                    source, scores, window=4, r2=0.5, chunk_rows=case["chunk_rows"],
                    framework=framework,
                )
            finally:
                if isinstance(source, SnpbinSource):
                    source.close()

        result = _same_on_both_paths(run, case["device"])
        if workload == "prune":
            kept, pruned, blocker = _dense_prune(rows, 4, 0.2)
            assert result.kept.tolist() == kept
            assert result.pruned.tolist() == pruned
            assert result.blocker.tolist() == blocker
        else:
            assignment, _ = _dense_clump(rows, scores, 4, 0.5)
            assert np.array_equal(result.assignment, assignment)

    @pytest.mark.parametrize("word_bits", [32, 64])
    def test_snpbin_scan_packs_only_the_mixtures(self, tmp_path, tracer, word_bits):
        rows = _random_bits(50, 100, seed=41)
        mixtures = _random_bits(3, 100, seed=42)
        path = tmp_path / "refs.snpbin"
        write_snpbin(path, rows, word_bits=word_bits, crc_chunk_rows=8)
        expected = mixture_analysis(rows, mixtures).scores
        before = tracer.counters.snapshot()
        scan = StreamingMixture(mixtures)
        with SnpbinSource(path) as source:
            stats = scan.consume(source, chunk_rows=12)
        counters = tracer.counters.diff(before, tracer.counters.snapshot())
        # The mixtures once, at construction, whatever the chunk count.
        assert stats.chunks == 5
        assert counters["pack.operands"] == 1
        row_bytes = -(-100 // word_bits) * (word_bits // 8)
        assert counters["stream.bytes_read"] == 50 * row_bytes
        assert np.array_equal(scan.result().scores, expected)

    def test_snpbin_chunks_never_leave_the_words(self, tmp_path, monkeypatch):
        import repro.core.packing
        import repro.io_stream.format
        import repro.io_stream.sources

        rows = _random_bits(50, 100, seed=44)
        mixtures = _random_bits(3, 100, seed=45)
        path = tmp_path / "refs.snpbin"
        write_snpbin(path, rows, word_bits=64, crc_chunk_rows=8)
        expected = mixture_analysis(rows, mixtures).scores
        scan = StreamingMixture(mixtures)

        def forbidden(*args, **kwargs):
            raise AssertionError("the .snpbin chunk path left the packed words")

        monkeypatch.setattr(repro.io_stream.format, "unpack_bits", forbidden)
        monkeypatch.setattr(repro.io_stream.sources, "check_binary_matrix", forbidden)
        monkeypatch.setattr(repro.core.packing, "pack_bits", forbidden)
        with SnpbinSource(path) as source:
            scan.consume(source, chunk_rows=12)
        assert np.array_equal(scan.result().scores, expected)

    def test_device_width_words_are_a_view_of_the_map(self, tmp_path):
        rows = _random_bits(10, 70, seed=43)
        path = tmp_path / "w.snpbin"
        write_snpbin(path, rows, word_bits=32)
        with SnpbinSource(path) as source:
            packed = source.packed(32, row_multiple=4)
            whole = packed.read(0, 8)
            assert not whole.words.flags.writeable  # the read-only map
            tail = packed.read(8, 10)  # 2 rows padded to 4: a copy
            assert tail.words.shape == (4, 3) and tail.n_rows == 2
            assert not tail.words[2:].any()
            assert np.array_equal(
                np.vstack([whole.words, tail.words[:2]]), pack_bits(rows, 32)
            )


# -- per-chunk resilience ------------------------------------------------------


class _FlakyFramework:
    """Delegating framework that fails the first N run_packed() calls
    (the one call a streaming workload makes per chunk)."""

    def __init__(self, inner, failures):
        self._inner = inner
        self._failures = failures

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def run_packed(self, *args, **kwargs):
        if self._failures:
            self._failures -= 1
            raise AllocationError("injected transient allocation fault")
        return self._inner.run_packed(*args, **kwargs)


class TestChunkRetry:
    def test_transient_chunk_fault_retried_to_bit_exact(self, tracer):
        from repro.core.config import Algorithm
        from repro.core.framework import SNPComparisonFramework

        inner = SNPComparisonFramework("Titan V", Algorithm.FASTID_MIXTURE)
        streamer = StreamingMixture(
            MIX_BITS, framework=_FlakyFramework(inner, failures=2)
        )
        policy = RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0)
        with resilient(policy=policy):
            streamer.consume(DB_BITS, chunk_rows=25)
        expected = mixture_analysis(DB_BITS, MIX_BITS)
        assert (streamer.result().scores == expected.scores).all()
        assert tracer.counters.snapshot()["stream.chunk_retries"] == 2

    def test_exhausted_retries_propagate(self):
        from repro.core.config import Algorithm
        from repro.core.framework import SNPComparisonFramework

        inner = SNPComparisonFramework("Titan V", Algorithm.FASTID_MIXTURE)
        streamer = StreamingMixture(
            MIX_BITS, framework=_FlakyFramework(inner, failures=99)
        )
        policy = RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0)
        with resilient(policy=policy):
            with pytest.raises(AllocationError):
                streamer.consume(DB_BITS, chunk_rows=25)

    def test_no_policy_means_single_attempt(self):
        from repro.core.config import Algorithm
        from repro.core.framework import SNPComparisonFramework

        inner = SNPComparisonFramework("Titan V", Algorithm.FASTID_MIXTURE)
        flaky = _FlakyFramework(inner, failures=1)
        streamer = StreamingMixture(MIX_BITS, framework=flaky)
        with pytest.raises(AllocationError):
            streamer.consume(DB_BITS, chunk_rows=25)
