"""Chunk sources: one abstraction over "where binary rows come from".

A :class:`ChunkSource` hands out a binary ``(rows, n_sites)`` matrix a
chunk of rows at a time.  Four adapters cover the places SNP data
lives:

* :class:`ArraySource` -- an in-memory matrix (the degenerate case;
  lets every streaming workload accept plain arrays);
* :class:`SnpbinSource` -- a memory-mapped ``.snpbin`` file
  (:mod:`repro.io_stream.format`), the out-of-core fast path;
* :class:`NpzSource` -- a dataset/database NPZ (:mod:`repro.snp.io`),
  decompressed lazily on first access;
* :class:`IteratorSource` -- any iterable of row batches (a socket
  feed, a generator), re-sliced to the requested chunk size.

``seekable`` sources additionally support random access
(:meth:`ChunkSource.read`), which the block-row Gram accumulation of
:class:`~repro.core.streaming.StreamingLD` needs; one-shot iterator
feeds can be spooled to a temporary ``.snpbin`` with
:func:`materialize_source` when random access is required.

The streaming workloads consume rows as device operands, through
:meth:`ChunkSource.packed` (a :class:`PackedSource`): a ``.snpbin``
hands over its verified words as they are, every other source is
checked and packed.
"""

from __future__ import annotations

import abc
import os
from pathlib import Path
from typing import Any, Iterable, Iterator

import numpy as np

from repro.core.packing import PackedOperand, pack_operand, wrap_words
from repro.errors import DatasetError
from repro.io_stream.format import PackedDatasetReader, PackedDatasetWriter
from repro.util.bitops import convert_words
from repro.util.validation import check_binary_matrix

__all__ = [
    "ChunkSource",
    "ArraySource",
    "SnpbinSource",
    "NpzSource",
    "IteratorSource",
    "PackedSource",
    "as_chunk_source",
    "materialize_source",
    "open_source",
]


def _check_chunk_rows(chunk_rows: int) -> int:
    if chunk_rows <= 0:
        raise DatasetError(f"chunk_rows must be positive, got {chunk_rows}")
    return chunk_rows


class ChunkSource(abc.ABC):
    """Rows of one binary matrix, delivered a chunk at a time.

    Attributes
    ----------
    seekable:
        Whether :meth:`read` (random access by row range) is supported.
        Seekable sources may be iterated any number of times.
    """

    seekable: bool = True

    @property
    @abc.abstractmethod
    def n_rows(self) -> int | None:
        """Total row count; ``None`` when unknown (one-shot feeds)."""

    @property
    @abc.abstractmethod
    def n_sites(self) -> int:
        """Sites per row (fixed for the life of the source)."""

    def read(self, start: int, stop: int) -> np.ndarray:
        """Rows ``[start, stop)`` as a binary matrix (seekable only)."""
        raise DatasetError(
            f"{type(self).__name__} is not seekable; spool it with "
            f"materialize_source() for random access"
        )

    def chunks(self, chunk_rows: int) -> Iterator[np.ndarray]:
        """Yield consecutive chunks of up to ``chunk_rows`` rows."""
        _check_chunk_rows(chunk_rows)
        total = self.n_rows
        assert total is not None  # seekable sources know their size
        for start in range(0, total, chunk_rows):
            yield self.read(start, min(start + chunk_rows, total))

    @property
    def row_nbytes(self) -> int:
        """Bytes pulled from the backing store per row (default: one
        ``uint8`` per site; sources override with what they hold)."""
        return self.n_sites

    def chunk_nbytes(self, chunk: np.ndarray) -> int:
        """Bytes pulled from the backing store to produce ``chunk``."""
        return int(chunk.shape[0]) * self.row_nbytes

    def packed(self, word_bits: int, row_multiple: int = 1) -> "PackedSource":
        """These rows as device operands of ``word_bits``-bit words."""
        return PackedSource(self, word_bits, row_multiple)

    def close(self) -> None:
        """Release backing resources (default: nothing to release)."""

    def __enter__(self) -> "ChunkSource":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class ArraySource(ChunkSource):
    """An in-memory binary matrix as a (trivially seekable) source."""

    def __init__(self, matrix: np.ndarray) -> None:
        arr = np.asarray(matrix)
        if arr.ndim != 2:
            raise DatasetError(
                f"ArraySource: expected a 2-D binary matrix, got ndim={arr.ndim}"
            )
        self._matrix = arr

    @property
    def n_rows(self) -> int:
        return int(self._matrix.shape[0])

    @property
    def n_sites(self) -> int:
        return int(self._matrix.shape[1])

    @property
    def row_nbytes(self) -> int:
        return self.n_sites * self._matrix.itemsize

    def read(self, start: int, stop: int) -> np.ndarray:
        return self._matrix[start:stop]


class SnpbinSource(ChunkSource):
    """A memory-mapped ``.snpbin`` file (the out-of-core fast path).

    Its packed words go to the streaming workloads as they are (see
    :class:`PackedSource`); ``read`` unpacks them for bit consumers.
    ``row_nbytes`` counts *packed on-disk* bytes, so the
    ``stream.bytes_read`` counter reflects real I/O volume.
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self._reader = PackedDatasetReader(path)
        self.path = self._reader.path

    @property
    def n_rows(self) -> int:
        return self._reader.n_rows

    @property
    def n_sites(self) -> int:
        return self._reader.n_bits

    @property
    def reader(self) -> PackedDatasetReader:
        return self._reader

    @property
    def row_nbytes(self) -> int:
        return self._reader.header.row_bytes

    def read(self, start: int, stop: int) -> np.ndarray:
        return self._reader.read_bits(start, stop)

    def close(self) -> None:
        self._reader.close()


class NpzSource(ChunkSource):
    """A dataset/database NPZ, decompressed lazily on first access.

    NPZ is a compressed container, so this source cannot avoid
    materializing the matrix -- it adapts the *format*, not the memory
    profile.  Use ``.snpbin`` for matrices that do not fit in RAM.
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = Path(path)
        self._matrix: np.ndarray | None = None

    def _load(self) -> np.ndarray:
        if self._matrix is None:
            from repro.snp.io import load_database_npz, load_dataset_npz

            try:
                self._matrix = load_dataset_npz(self.path).matrix
            except DatasetError:
                self._matrix = load_database_npz(self.path).profiles
        return self._matrix

    @property
    def n_rows(self) -> int:
        return int(self._load().shape[0])

    @property
    def n_sites(self) -> int:
        return int(self._load().shape[1])

    @property
    def row_nbytes(self) -> int:
        return self.n_sites * self._load().itemsize

    def read(self, start: int, stop: int) -> np.ndarray:
        return self._load()[start:stop]

    def close(self) -> None:
        self._matrix = None


class IteratorSource(ChunkSource):
    """Adapter for any iterable of binary row batches (one-shot).

    Incoming batches are re-sliced to the requested chunk size, so the
    feed's own batching does not leak into chunk boundaries.  The
    source is not seekable and may be iterated once; spool it with
    :func:`materialize_source` when random access is needed.
    """

    seekable = False

    def __init__(
        self, batches: Iterable[np.ndarray], n_sites: int | None = None
    ) -> None:
        self._batches = iter(batches)
        self._n_sites = n_sites
        self._itemsize = 1
        self._rows_seen = 0
        self._exhausted = False
        self._consumed = False

    @property
    def n_rows(self) -> int | None:
        return self._rows_seen if self._exhausted else None

    @property
    def n_sites(self) -> int:
        if self._n_sites is None:
            raise DatasetError(
                "IteratorSource: n_sites unknown until the first batch "
                "is read (pass n_sites= to the constructor)"
            )
        return self._n_sites

    @property
    def row_nbytes(self) -> int:
        """Row bytes at the dtype of the latest batch."""
        return self.n_sites * self._itemsize

    def _coerce(self, batch: np.ndarray) -> np.ndarray:
        arr = np.asarray(batch)
        if arr.ndim != 2:
            raise DatasetError(
                f"IteratorSource: batches must be 2-D, got ndim={arr.ndim}"
            )
        if self._n_sites is None:
            self._n_sites = int(arr.shape[1])
        elif arr.shape[1] != self._n_sites:
            raise DatasetError(
                f"IteratorSource: batch has {arr.shape[1]} sites, "
                f"feed is {self._n_sites} sites wide"
            )
        self._itemsize = arr.itemsize
        return arr

    def chunks(self, chunk_rows: int) -> Iterator[np.ndarray]:
        _check_chunk_rows(chunk_rows)
        if self._consumed:
            raise DatasetError(
                "IteratorSource: already consumed (one-shot feed); "
                "spool it with materialize_source() to re-read"
            )
        self._consumed = True
        pending: list[np.ndarray] = []
        pending_rows = 0
        for batch in self._batches:
            arr = self._coerce(batch)
            self._rows_seen += int(arr.shape[0])
            pending.append(arr)
            pending_rows += int(arr.shape[0])
            while pending_rows >= chunk_rows:
                merged = pending[0] if len(pending) == 1 else np.vstack(pending)
                yield merged[:chunk_rows]
                remainder = merged[chunk_rows:]
                pending = [remainder] if remainder.shape[0] else []
                pending_rows = int(remainder.shape[0])
        self._exhausted = True
        if pending_rows:
            yield pending[0] if len(pending) == 1 else np.vstack(pending)


class PackedSource:
    """A chunk source's rows as device operands of one word width.

    What the streaming workloads consume, through
    :class:`~repro.io_stream.prefetch.ChunkStream` (so the work below
    runs on the producer thread).  The source type decides how rows
    become words:

    * a ``.snpbin`` file hands over its words as the reader returns
      them -- CRC-verified, pad bits checked, and a read-only view of
      the map when the file's word width is ``word_bits``; any other
      width costs one byte-order pass
      (:func:`~repro.util.bitops.convert_words`), never an unpack;
    * every other source's rows are checked
      (:func:`~repro.util.validation.check_binary_matrix`) and packed
      (:func:`~repro.core.packing.pack_operand`).

    Rows are zero-padded to a multiple of ``row_multiple`` (the
    device's ``m_r``), so only a chunk whose row count is not a
    multiple is copied.  Byte accounting is the source's:
    ``stream.bytes_read`` counts what it pulled, not the words.
    """

    def __init__(
        self, source: ChunkSource, word_bits: int, row_multiple: int = 1
    ) -> None:
        self.source = source
        self.word_bits = word_bits
        self.row_multiple = row_multiple

    def read(self, start: int, stop: int) -> PackedOperand:
        """Rows ``[start, stop)`` as one operand (seekable sources)."""
        src = self.source
        if not isinstance(src, SnpbinSource):
            return self._pack(src.read(start, stop))
        words = convert_words(
            src.reader.read_words(start, stop), src.n_sites, self.word_bits
        )
        return wrap_words(words, src.n_sites, self.row_multiple)

    def chunks(self, chunk_rows: int) -> Iterator[PackedOperand]:
        """Consecutive operands of up to ``chunk_rows`` rows."""
        _check_chunk_rows(chunk_rows)
        if not isinstance(self.source, SnpbinSource):
            for chunk in self.source.chunks(chunk_rows):
                yield self._pack(chunk)
            return
        total = self.source.n_rows
        for start in range(0, total, chunk_rows):
            yield self.read(start, min(start + chunk_rows, total))

    def chunk_nbytes(self, chunk: PackedOperand) -> int:
        """Bytes the source pulled to produce ``chunk``."""
        return chunk.n_rows * self.source.row_nbytes

    def _pack(self, bits: np.ndarray) -> PackedOperand:
        return pack_operand(
            check_binary_matrix("chunk", bits),
            word_bits=self.word_bits,
            row_multiple=self.row_multiple,
        )


def as_chunk_source(data: Any) -> ChunkSource:
    """Coerce arrays / paths / iterables to a :class:`ChunkSource`."""
    if isinstance(data, ChunkSource):
        return data
    if isinstance(data, np.ndarray):
        return ArraySource(data)
    if isinstance(data, (str, os.PathLike)):
        return open_source(data)
    if hasattr(data, "__iter__"):
        return IteratorSource(data)
    raise DatasetError(
        f"as_chunk_source: cannot adapt {type(data).__name__} "
        f"(expected ChunkSource, ndarray, path or iterable of batches)"
    )


def open_source(path: str | os.PathLike[str]) -> ChunkSource:
    """Open a file as a chunk source, dispatching on its suffix."""
    p = Path(path)
    if p.suffix == ".snpbin":
        return SnpbinSource(p)
    if p.suffix == ".npz":
        return NpzSource(p)
    if p.suffix == ".snptxt":
        from repro.snp.io import read_snptxt

        return ArraySource(read_snptxt(p).matrix)
    raise DatasetError(
        f"open_source: unsupported input format: {p} "
        f"(use .snpbin, .npz or .snptxt)"
    )


def materialize_source(
    source: ChunkSource,
    path: str | os.PathLike[str],
    chunk_rows: int = 8192,
    word_bits: int = 64,
) -> SnpbinSource:
    """Spool a (possibly one-shot) source into a ``.snpbin`` file.

    Gives random access over feeds that do not support it, in bounded
    memory; the returned :class:`SnpbinSource` maps the spooled file.
    Spool in the consumer's device word width, so every re-read is a
    view of the map.
    """
    with PackedDatasetWriter(path, word_bits=word_bits) as writer:
        for chunk in source.chunks(chunk_rows):
            writer.append(chunk)
    return SnpbinSource(path)
