"""The ``.snpbin`` on-disk format: packed binary SNP matrices.

Two format revisions share one layout skeleton (all integers
little-endian).  Version 1 (``SNPBIN01``, still readable)::

    offset  size  field
    0       8     magic  b"SNPBIN01"
    8       4     word_bits   (8, 16, 32 or 64)
    12      4     reserved    (must be 0)
    16      8     n_rows      (row count, uint64)
    24      8     n_bits      (valid sites per row, uint64)
    32      ...   data: n_rows x ceil(n_bits / word_bits) words,
                  row-major, little-endian unsigned integers

Version 2 (``SNPBIN02``, the writer default) adds integrity checks
while keeping the data region *contiguous*, so the zero-repack
residency path (mapping the region directly as a packed operand, see
:meth:`PackedDatasetReader.read_words`) is unchanged::

    offset  size  field
    0       8     magic  b"SNPBIN02"
    8       4     word_bits
    12      4     crc_chunk_rows   (rows per CRC chunk, > 0)
    16      8     n_rows
    24      8     n_bits
    32      4     header_crc   (CRC32 of bytes [0, 32))
    36      ...   data (identical layout to v1)
    ...     4*c   chunk CRC table: CRC32 of each run of
                  crc_chunk_rows rows (c = ceil(n_rows /
                  crc_chunk_rows); the last chunk may be short)

The reader verifies the header CRC and the exact file size on open
(catching torn writes and truncation), then verifies each data chunk's
CRC32 *lazily on first read* -- a query that touches rows
``[a, b)`` checks only the covering chunks, once, so mmap residency and
the pages-touched profile of a scan are preserved.  A mismatch raises
:class:`~repro.errors.IntegrityError` (never a silently wrong answer)
and counts ``io.crc_failures``; each verified chunk counts
``io.chunks_verified``.

Bit order within a word matches :func:`repro.util.bitops.pack_bits`
(big-endian within the word: site ``j`` lands at bit position
``word_bits - 1 - (j % word_bits)`` of word ``j // word_bits``), so a
``.snpbin`` row round-trips exactly through
:func:`~repro.util.bitops.unpack_bits`.

The format stores *packed* words -- a 1M x 100k-site matrix is ~12.5 GB
on disk instead of 100 GB unpacked -- and the reader memory-maps the
data region, so reading a chunk of rows touches only those rows' pages.
The trailing bits of each row are zero-padded; the reader validates
the header, the word width and the exact file size before mapping, and
rejects a row with a set pad bit on every read (a typed
:class:`~repro.errors.IntegrityError`, for both revisions).
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from pathlib import Path
from types import TracebackType
from typing import Iterator

import numpy as np

from repro.errors import DatasetError, IntegrityError
from repro.observability.counters import IO_CHUNKS_VERIFIED, IO_CRC_FAILURES
from repro.observability.tracer import get_tracer
from repro.util.bitops import pack_bits, unpack_bits, words_needed

__all__ = [
    "SNPBIN_MAGIC",
    "SNPBIN2_MAGIC",
    "SNPBIN_HEADER_BYTES",
    "SNPBIN2_HEADER_BYTES",
    "DEFAULT_CRC_CHUNK_ROWS",
    "SnpbinHeader",
    "PackedDatasetWriter",
    "PackedDatasetReader",
    "write_snpbin",
]

SNPBIN_MAGIC = b"SNPBIN01"
SNPBIN2_MAGIC = b"SNPBIN02"
_HEADER = struct.Struct("<8sIIQQ")
_HEADER_CRC = struct.Struct("<I")
SNPBIN_HEADER_BYTES = _HEADER.size  # 32
SNPBIN2_HEADER_BYTES = _HEADER.size + _HEADER_CRC.size  # 36

#: Default rows per CRC chunk: 4096 rows x 12,500 bytes/row (100k sites
#: packed) is ~51 MB of data guarded by each 4-byte checksum.
DEFAULT_CRC_CHUNK_ROWS = 4096

_VALID_WORD_BITS = (8, 16, 32, 64)
_CRC_BYTES = 4


class SnpbinHeader:
    """Parsed-and-validated ``.snpbin`` header (either revision)."""

    __slots__ = ("word_bits", "n_rows", "n_bits", "version", "crc_chunk_rows")

    def __init__(
        self,
        word_bits: int,
        n_rows: int,
        n_bits: int,
        version: int = 1,
        crc_chunk_rows: int = 0,
    ) -> None:
        if word_bits not in _VALID_WORD_BITS:
            raise DatasetError(
                f"snpbin: word_bits must be one of {_VALID_WORD_BITS}, "
                f"got {word_bits}"
            )
        if n_rows < 0 or n_bits < 0:
            raise DatasetError(
                f"snpbin: negative shape (n_rows={n_rows}, n_bits={n_bits})"
            )
        if version not in (1, 2):
            raise DatasetError(f"snpbin: unsupported version {version}")
        if version == 2 and crc_chunk_rows <= 0:
            raise DatasetError(
                f"snpbin: v2 crc_chunk_rows must be positive, "
                f"got {crc_chunk_rows}"
            )
        if version == 1 and crc_chunk_rows != 0:
            raise DatasetError("snpbin: v1 files have no CRC chunks")
        self.word_bits = word_bits
        self.n_rows = n_rows
        self.n_bits = n_bits
        self.version = version
        self.crc_chunk_rows = crc_chunk_rows

    @property
    def k_words(self) -> int:
        """Packed words per row."""
        return words_needed(self.n_bits, self.word_bits)

    @property
    def row_bytes(self) -> int:
        """Bytes per packed row."""
        return self.k_words * (self.word_bits // 8)

    @property
    def data_bytes(self) -> int:
        """Exact size of the data region."""
        return self.n_rows * self.row_bytes

    @property
    def header_bytes(self) -> int:
        """Header size of this revision (32 for v1, 36 for v2)."""
        return SNPBIN_HEADER_BYTES if self.version == 1 else SNPBIN2_HEADER_BYTES

    @property
    def n_chunks(self) -> int:
        """CRC chunks covering the data region (0 for v1)."""
        if self.version == 1 or self.n_rows == 0:
            return 0
        return -(-self.n_rows // self.crc_chunk_rows)

    @property
    def crc_table_bytes(self) -> int:
        """Size of the trailing per-chunk CRC table (0 for v1)."""
        return self.n_chunks * _CRC_BYTES

    @property
    def file_bytes(self) -> int:
        """Exact size of a well-formed file with this header."""
        return self.header_bytes + self.data_bytes + self.crc_table_bytes

    @property
    def dtype(self) -> np.dtype:
        """On-disk word dtype (explicitly little-endian)."""
        return np.dtype(f"<u{self.word_bits // 8}")

    def pack(self, torn_guard: bool = False) -> bytes:
        """Serialized header bytes.

        ``torn_guard=True`` (v2 only) deliberately inverts the header
        CRC -- the writer's *placeholder* header, so a crash before
        :meth:`PackedDatasetWriter.close` finalizes the file is
        detected as a torn write on open rather than read as empty.
        """
        if self.version == 1:
            return _HEADER.pack(
                SNPBIN_MAGIC, self.word_bits, 0, self.n_rows, self.n_bits
            )
        base = _HEADER.pack(
            SNPBIN2_MAGIC,
            self.word_bits,
            self.crc_chunk_rows,
            self.n_rows,
            self.n_bits,
        )
        crc = zlib.crc32(base)
        if torn_guard:
            crc ^= 0xFFFFFFFF
        return base + _HEADER_CRC.pack(crc)

    @classmethod
    def unpack(cls, raw: bytes, path: str | os.PathLike[str]) -> "SnpbinHeader":
        if len(raw) < SNPBIN_HEADER_BYTES:
            raise DatasetError(
                f"snpbin: {path} too short for a header "
                f"({len(raw)} < {SNPBIN_HEADER_BYTES} bytes)"
            )
        magic, word_bits, aux, n_rows, n_bits = _HEADER.unpack(
            raw[:SNPBIN_HEADER_BYTES]
        )
        if magic == SNPBIN_MAGIC:
            if aux != 0:
                raise DatasetError(
                    f"snpbin: {path} has unsupported flags {aux:#x} "
                    f"(written by a newer version?)"
                )
            version, crc_chunk_rows = 1, 0
        elif magic == SNPBIN2_MAGIC:
            if len(raw) < SNPBIN2_HEADER_BYTES:
                raise DatasetError(
                    f"snpbin: {path} too short for a v2 header "
                    f"({len(raw)} < {SNPBIN2_HEADER_BYTES} bytes) -- "
                    f"truncated or corrupt"
                )
            (stored_crc,) = _HEADER_CRC.unpack(
                raw[SNPBIN_HEADER_BYTES:SNPBIN2_HEADER_BYTES]
            )
            actual_crc = zlib.crc32(raw[:SNPBIN_HEADER_BYTES])
            if stored_crc != actual_crc:
                get_tracer().counters.add(IO_CRC_FAILURES)
                raise IntegrityError(
                    f"snpbin: {path} header CRC mismatch "
                    f"(stored {stored_crc:#010x}, computed "
                    f"{actual_crc:#010x}) -- torn write or corrupt header",
                    path=str(path),
                )
            version, crc_chunk_rows = 2, aux
        else:
            raise DatasetError(f"snpbin: {path} is not a snpbin file (bad magic)")
        try:
            return cls(
                word_bits=word_bits,
                n_rows=n_rows,
                n_bits=n_bits,
                version=version,
                crc_chunk_rows=crc_chunk_rows,
            )
        except DatasetError as exc:
            raise DatasetError(f"snpbin: {path}: {exc}") from exc


class PackedDatasetWriter:
    """Chunked ``.snpbin`` writer: append binary rows in bounded memory.

    The site count is fixed by the first appended chunk (or the
    ``n_bits`` argument); every later chunk must match.  The header is
    finalized on :meth:`close`; until then the file carries a
    placeholder header (v1: ``n_rows == 0``, rejected against the
    actual size; v2: a deliberately invalid header CRC), so a crash
    mid-write is detected on open rather than returning partial data.

    Version 2 (the default) accumulates a CRC32 per run of
    ``crc_chunk_rows`` rows as data streams through -- chunk boundaries
    are fixed by the row count, *not* by append granularity, so the
    same matrix written whole or in arbitrary batches produces
    byte-identical files.

    Use as a context manager::

        with PackedDatasetWriter(path, word_bits=64) as writer:
            for batch in batches:
                writer.append(batch)
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        word_bits: int = 64,
        n_bits: int | None = None,
        version: int = 2,
        crc_chunk_rows: int = DEFAULT_CRC_CHUNK_ROWS,
    ) -> None:
        if word_bits not in _VALID_WORD_BITS:
            raise DatasetError(
                f"PackedDatasetWriter: word_bits must be one of "
                f"{_VALID_WORD_BITS}, got {word_bits}"
            )
        if version not in (1, 2):
            raise DatasetError(
                f"PackedDatasetWriter: unsupported version {version}"
            )
        if version == 2 and crc_chunk_rows <= 0:
            raise DatasetError(
                f"PackedDatasetWriter: crc_chunk_rows must be positive, "
                f"got {crc_chunk_rows}"
            )
        self.path = Path(path)
        self.word_bits = word_bits
        self.n_bits = n_bits
        self.n_rows = 0
        self.version = version
        self.crc_chunk_rows = crc_chunk_rows if version == 2 else 0
        self._chunk_crcs: list[int] = []
        self._partial_crc = 0
        self._partial_rows = 0
        self._fh = open(self.path, "wb")
        self._closed = False
        # Placeholder header; rewritten with the real counts on close.
        self._fh.write(self._header(n_rows=0).pack(torn_guard=version == 2))

    def _header(self, n_rows: int) -> SnpbinHeader:
        return SnpbinHeader(
            self.word_bits,
            n_rows,
            self.n_bits or 0,
            version=self.version,
            crc_chunk_rows=self.crc_chunk_rows,
        )

    def _accumulate_crcs(self, data: bytes, n_new_rows: int) -> None:
        """Fold ``data`` (``n_new_rows`` whole rows) into the chunk CRCs."""
        row_bytes = len(data) // n_new_rows
        offset = 0
        remaining = n_new_rows
        while remaining:
            take = min(self.crc_chunk_rows - self._partial_rows, remaining)
            nbytes = take * row_bytes
            self._partial_crc = zlib.crc32(
                data[offset : offset + nbytes], self._partial_crc
            )
            self._partial_rows += take
            offset += nbytes
            remaining -= take
            if self._partial_rows == self.crc_chunk_rows:
                self._chunk_crcs.append(self._partial_crc)
                self._partial_crc = 0
                self._partial_rows = 0

    def append(self, bits: np.ndarray) -> None:
        """Pack and append one chunk of binary rows."""
        if self._closed:
            raise DatasetError("PackedDatasetWriter: writer is closed")
        arr = np.asarray(bits)
        if arr.ndim != 2:
            raise DatasetError(
                f"PackedDatasetWriter.append: expected 2-D binary rows, "
                f"got ndim={arr.ndim}"
            )
        if self.n_bits is None:
            self.n_bits = int(arr.shape[1])
        elif arr.shape[1] != self.n_bits:
            raise DatasetError(
                f"PackedDatasetWriter.append: chunk has {arr.shape[1]} "
                f"sites, file is {self.n_bits} sites wide"
            )
        if arr.shape[0] == 0:
            return
        words = pack_bits(arr, word_bits=self.word_bits)
        data = np.ascontiguousarray(
            words, dtype=f"<u{self.word_bits // 8}"
        ).tobytes()
        self._fh.write(data)
        if self.version == 2:
            self._accumulate_crcs(data, int(arr.shape[0]))
        self.n_rows += int(arr.shape[0])

    def close(self) -> None:
        """Flush the CRC table, finalize the header and close the file."""
        if self._closed:
            return
        self._closed = True
        try:
            if self.version == 2:
                if self._partial_rows:
                    self._chunk_crcs.append(self._partial_crc)
                    self._partial_crc = 0
                    self._partial_rows = 0
                if self._chunk_crcs:
                    self._fh.write(
                        struct.pack(
                            f"<{len(self._chunk_crcs)}I", *self._chunk_crcs
                        )
                    )
            self._fh.seek(0)
            self._fh.write(self._header(self.n_rows).pack())
        finally:
            self._fh.close()

    def __enter__(self) -> "PackedDatasetWriter":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()


class PackedDatasetReader:
    """Memory-mapped ``.snpbin`` reader with full header/size validation.

    The data region is mapped read-only, so :meth:`read_words` touches
    only the pages of the requested rows -- the access pattern an
    out-of-core chunk source needs.  :meth:`read_bits` additionally
    unpacks to a ``uint8`` 0/1 matrix (the layout every in-memory API
    of this library consumes).

    For v2 files each CRC chunk is verified lazily, the first time a
    read touches its rows (``verify=False`` opts out); a mismatch
    raises :class:`~repro.errors.IntegrityError`.  V1 files have no
    checksums and always report :attr:`verified` ``False``.
    """

    def __init__(
        self, path: str | os.PathLike[str], verify: bool = True
    ) -> None:
        self.path = Path(path)
        try:
            raw = self.path.open("rb").read(SNPBIN2_HEADER_BYTES)
        except FileNotFoundError as exc:
            raise DatasetError(f"snpbin: no such file: {self.path}") from exc
        header = SnpbinHeader.unpack(raw, self.path)
        actual = self.path.stat().st_size
        expected = header.file_bytes
        if actual != expected:
            raise DatasetError(
                f"snpbin: {self.path} is {actual} bytes, header implies "
                f"{expected} ({header.n_rows} rows x {header.row_bytes} "
                f"bytes + {header.header_bytes}-byte header + "
                f"{header.crc_table_bytes}-byte CRC table) -- truncated "
                f"or corrupt"
            )
        self.header = header
        self._verify = verify and header.version == 2
        self._verify_lock = threading.Lock()
        if header.n_chunks:
            with self.path.open("rb") as fh:
                fh.seek(header.header_bytes + header.data_bytes)
                table = fh.read(header.crc_table_bytes)
            self._chunk_crcs = np.frombuffer(table, dtype="<u4")
            self._chunk_ok = np.zeros(header.n_chunks, dtype=bool)
        else:
            self._chunk_crcs = np.zeros(0, dtype="<u4")
            self._chunk_ok = np.zeros(0, dtype=bool)
        if header.n_rows and header.k_words:
            self._words: np.ndarray = np.memmap(
                self.path,
                dtype=header.dtype,
                mode="r",
                offset=header.header_bytes,
                shape=(header.n_rows, header.k_words),
            )
        else:
            self._words = np.zeros((header.n_rows, header.k_words), dtype=header.dtype)

    @property
    def n_rows(self) -> int:
        return self.header.n_rows

    @property
    def n_bits(self) -> int:
        return self.header.n_bits

    @property
    def word_bits(self) -> int:
        return self.header.word_bits

    @property
    def version(self) -> int:
        return self.header.version

    @property
    def verified(self) -> bool:
        """Whether reads of this file are checksum-verified.

        ``True`` only for v2 files opened with ``verify=True``; legacy
        SNPBIN01 files load fine but carry no checksums, so they report
        ``False``.
        """
        return self._verify

    @property
    def chunks_verified(self) -> int:
        """CRC chunks verified so far by this reader."""
        return int(self._chunk_ok.sum())

    def _check_range(self, start: int, stop: int) -> tuple[int, int]:
        if start < 0 or stop < start:
            raise DatasetError(
                f"snpbin: invalid row range [{start}, {stop})"
            )
        return start, min(stop, self.n_rows)

    def _verify_chunks(self, start: int, stop: int) -> None:
        """Verify the CRC chunks covering rows ``[start, stop)`` once."""
        if stop <= start:
            return
        ccr = self.header.crc_chunk_rows
        first = start // ccr
        last = (stop - 1) // ccr
        for chunk in range(first, last + 1):
            with self._verify_lock:
                if self._chunk_ok[chunk]:
                    continue
                lo = chunk * ccr
                hi = min(lo + ccr, self.n_rows)
                actual = zlib.crc32(
                    np.ascontiguousarray(self._words[lo:hi]).data
                )
                stored = int(self._chunk_crcs[chunk])
                if actual != stored:
                    get_tracer().counters.add(IO_CRC_FAILURES)
                    raise IntegrityError(
                        f"snpbin: {self.path} CRC mismatch in chunk {chunk} "
                        f"(rows [{lo}, {hi}); stored {stored:#010x}, "
                        f"computed {actual:#010x}) -- on-disk corruption",
                        path=str(self.path),
                        chunk=chunk,
                    )
                self._chunk_ok[chunk] = True
            get_tracer().counters.add(IO_CHUNKS_VERIFIED)

    def _check_pad_bits(self, words: np.ndarray, start: int) -> None:
        """Reject rows that set a bit past ``n_bits`` (one masked AND).

        The bits after a row's last site are zero by construction, and
        every consumer relies on it: the kernels popcount whole words
        and :func:`~repro.util.bitops.convert_words` re-cuts rows at
        word boundaries.  A set pad bit is therefore a corrupt file,
        even when its CRC matches (SNPBIN01, ``verify=False``, or a
        foreign writer), never data.
        """
        spare = words.shape[1] * self.word_bits - self.n_bits
        if not spare or not words.shape[0]:
            return
        bad = np.flatnonzero(words[:, -1] & words.dtype.type((1 << spare) - 1))
        if bad.size:
            stop = start + words.shape[0]
            raise IntegrityError(
                f"snpbin: {self.path} rows [{start}, {stop}) set pad bits "
                f"past n_bits={self.n_bits} (first at row {start + int(bad[0])})"
                f" -- corrupt file",
                path=str(self.path),
            )

    def verify_all(self) -> int:
        """Verify every CRC chunk and pad bit now; returns the chunk count.

        Raises :class:`~repro.errors.IntegrityError` on the first
        mismatch or set pad bit.  V1 files have no checksums (their pad
        bits are still checked): returns 0.
        """
        if self.header.n_chunks:
            self._verify_chunks(0, self.n_rows)
        self._check_pad_bits(self._words, 0)
        return self.header.n_chunks

    def read_words(self, start: int, stop: int) -> np.ndarray:
        """Packed words of rows ``[start, stop)``, native-endian.

        A read-only view of the map whenever the on-disk byte order is
        native (always on little-endian hosts), else a converted copy.
        CRC chunks are verified first (v2, ``verify=True``); set pad
        bits are rejected for every file.
        """
        start, stop = self._check_range(start, stop)
        if self._verify:
            self._verify_chunks(start, stop)
        native = np.dtype(f"u{self.word_bits // 8}")
        words = np.ascontiguousarray(self._words[start:stop]).astype(native, copy=False)
        self._check_pad_bits(words, start)
        return words

    def read_bits(self, start: int, stop: int) -> np.ndarray:
        """Unpacked 0/1 ``uint8`` matrix of rows ``[start, stop)``."""
        return unpack_bits(self.read_words(start, stop), n_bits=self.n_bits)

    def bytes_for_rows(self, n: int) -> int:
        """On-disk bytes occupied by ``n`` rows (counter accounting)."""
        return n * self.header.row_bytes

    def iter_chunks(self, chunk_rows: int) -> Iterator[np.ndarray]:
        """Yield unpacked chunks of up to ``chunk_rows`` rows."""
        if chunk_rows <= 0:
            raise DatasetError(
                f"snpbin: chunk_rows must be positive, got {chunk_rows}"
            )
        for start in range(0, self.n_rows, chunk_rows):
            yield self.read_bits(start, start + chunk_rows)

    def close(self) -> None:
        """Release the mapping (further reads are undefined)."""
        self._words = np.zeros((0, self.header.k_words), dtype=self.header.dtype)

    def __enter__(self) -> "PackedDatasetReader":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()

    def __len__(self) -> int:
        return self.n_rows

    def __repr__(self) -> str:
        return (
            f"PackedDatasetReader({str(self.path)!r}, n_rows={self.n_rows}, "
            f"n_bits={self.n_bits}, word_bits={self.word_bits}, "
            f"version={self.version})"
        )


def write_snpbin(
    path: str | os.PathLike[str],
    bits: np.ndarray,
    word_bits: int = 64,
    chunk_rows: int = 8192,
    version: int = 2,
    crc_chunk_rows: int = DEFAULT_CRC_CHUNK_ROWS,
) -> int:
    """Write a binary matrix to ``path`` in bounded memory; returns rows."""
    arr = np.asarray(bits)
    if arr.ndim != 2:
        raise DatasetError(
            f"write_snpbin: expected a 2-D binary matrix, got ndim={arr.ndim}"
        )
    with PackedDatasetWriter(
        path,
        word_bits=word_bits,
        n_bits=int(arr.shape[1]),
        version=version,
        crc_chunk_rows=crc_chunk_rows,
    ) as w:
        for start in range(0, arr.shape[0], max(1, chunk_rows)):
            w.append(arr[start : start + chunk_rows])
        return w.n_rows
