"""Resident profile index: sealed segments plus an append tail.

The serving problem (ROADMAP item 1, PAPER.md's NDIS-scale FastID
scenario) keeps the packed database *resident* across requests instead
of re-reading and re-packing it per query set.  :class:`ProfileIndex`
holds the database as a sequence of immutable :class:`Segment` runs,
each backed by a :class:`~repro.io_stream.sources.ChunkSource`:

* **sealed segments** -- ``.snpbin`` shard files memory-mapped through
  :class:`~repro.io_stream.sources.SnpbinSource` (the OS pages them in
  on first touch and keeps hot shards cached), or, in a memory-only
  index, one in-memory :class:`~repro.io_stream.sources.ArraySource`
  block per seal;
* **tail segments** -- profiles appended online, frozen in memory one
  append at a time as an :class:`~repro.io_stream.sources.ArraySource`.

One seal rule holds for every index: once ``shard_rows`` rows
accumulate in the tail it becomes one sealed segment, a new shard file
when the index has a directory and one in-memory block otherwise, so
a search walks at most rows / ``shard_rows`` segments plus the tail.

Appends never repack existing shards: a new profile lands in the tail,
the tail eventually becomes one more sealed segment, and every
previously issued global row index stays valid -- rows are numbered in
arrival order, exactly like :meth:`StreamingIdentitySearch.add_batch`
numbers streamed batches, which is what keeps served top-k results
bit-exact against the offline path.

**Append barrier**: :meth:`ProfileIndex.append` returns only after the
new rows are visible to every later :meth:`snapshot`.  A query admitted
after ``append`` returned is therefore guaranteed to be scored against
the appended profiles; in-flight queries batched *before* the append
may or may not see them (their snapshot was already taken).

Reopening a directory-backed index scans ``*.snpbin`` in sorted
filename order; shards the index seals itself are named with a
monotonic sequence number so the scan order matches write order.  Let
the index own its directory (see :meth:`ProfileIndex.build`) rather
than mixing foreign files into it.
"""

from __future__ import annotations

import re
import threading
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.errors import DatasetError
from repro.io_stream.format import write_snpbin
from repro.io_stream.sources import ArraySource, ChunkSource, SnpbinSource
from repro.util.validation import check_binary_matrix

__all__ = ["Segment", "ProfileIndex"]

#: Names of the shards :meth:`ProfileIndex.build` and seals write.
_SHARD_NAME = re.compile(r"shard-(\d+)\.snpbin")


class Segment:
    """One immutable run of profile rows with a stable global base index.

    ``source`` holds the rows (:mod:`repro.io_stream.sources`): a
    ``SnpbinSource`` for a shard file, an ``ArraySource`` for an
    in-memory block.  Read them as device operands through
    ``source.packed(word_bits, m_r)``.

    ``sid`` uniquely identifies the segment's *contents* within its
    index for the index's lifetime (sealing replaces tail segments with
    one sealed segment under a fresh sid), so callers may cache derived
    artifacts -- packed operands, most importantly -- keyed by sid.
    """

    __slots__ = ("sid", "base", "n_rows", "source")

    def __init__(self, sid: int, base: int, source: ChunkSource) -> None:
        self.sid = sid
        self.base = base
        self.source = source
        n_rows = source.n_rows
        assert n_rows is not None  # segment sources are seekable
        self.n_rows = n_rows

    def __repr__(self) -> str:
        return (
            f"Segment(sid={self.sid}, base={self.base}, "
            f"n_rows={self.n_rows}, n_bits={self.source.n_sites})"
        )


class ProfileIndex:
    """Thread-safe resident database: sealed segments plus an append tail.

    Parameters
    ----------
    directory:
        Shard directory.  ``None`` keeps everything in memory (tests,
        benches, ephemeral services); otherwise existing ``*.snpbin``
        files are opened (sorted filename order) and future seals land
        here.
    n_bits:
        Site count; required when the index starts empty, validated
        against the shards otherwise.
    shard_rows:
        Tail size that triggers an automatic :meth:`seal`.
    word_bits:
        Word width for shards this index writes.  Match the serving
        device's word size (32 for the modeled GPUs) and the mapped
        shard words are the resident operand as they are; any other
        width costs one byte-order pass when the shard is first read,
        never a repack.
    """

    def __init__(
        self,
        directory: "str | Path | None" = None,
        n_bits: int | None = None,
        shard_rows: int = 4096,
        word_bits: int = 64,
    ) -> None:
        if shard_rows <= 0:
            raise DatasetError(
                f"ProfileIndex: shard_rows must be positive, got {shard_rows}"
            )
        self.directory = Path(directory) if directory is not None else None
        self.shard_rows = shard_rows
        self.word_bits = word_bits
        self._lock = threading.Lock()
        self._sealed: list[Segment] = []
        self._tail: list[Segment] = []
        self._tail_rows = 0
        self._next_sid = 0
        self._next_shard_seq = 0
        self._n_bits = n_bits
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            base = 0
            paths = sorted(self.directory.glob("*.snpbin"))
            for path in paths:
                source = SnpbinSource(path)
                if self._n_bits is None:
                    self._n_bits = source.n_sites
                elif source.n_sites != self._n_bits:
                    raise DatasetError(
                        f"ProfileIndex: shard {path} covers {source.n_sites} "
                        f"sites, index is {self._n_bits} sites wide"
                    )
                if source.n_rows == 0:
                    source.close()
                    continue
                self._sealed.append(Segment(self._next_sid, base, source))
                self._next_sid += 1
                base += source.n_rows
            # One past the highest shard number on disk: a seal must not
            # reuse the name of a shard that is still there (after a
            # quarantined shard left a gap, say) nor sort before it.
            numbers = [int(m[1]) for p in paths if (m := _SHARD_NAME.fullmatch(p.name))]
            self._next_shard_seq = max(numbers, default=-1) + 1
        if self._n_bits is None:
            raise DatasetError(
                "ProfileIndex: n_bits is required for an empty index "
                "(no shards to infer it from)"
            )

    # -- construction ----------------------------------------------------------

    @classmethod
    def build(
        cls,
        directory: "str | Path",
        profiles: np.ndarray,
        shard_rows: int = 4096,
        word_bits: int = 64,
    ) -> "ProfileIndex":
        """Shard a profile matrix into ``directory`` and open the index."""
        arr = check_binary_matrix("ProfileIndex.build: profiles", profiles)
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        if shard_rows <= 0:
            raise DatasetError(
                f"ProfileIndex.build: shard_rows must be positive, got {shard_rows}"
            )
        for seq, start in enumerate(range(0, arr.shape[0], shard_rows)):
            write_snpbin(
                directory / f"shard-{seq:06d}.snpbin",
                arr[start : start + shard_rows],
                word_bits=word_bits,
            )
        return cls(
            directory,
            n_bits=int(arr.shape[1]),
            shard_rows=shard_rows,
            word_bits=word_bits,
        )

    # -- introspection ---------------------------------------------------------

    @property
    def n_bits(self) -> int:
        assert self._n_bits is not None  # guaranteed by __init__
        return self._n_bits

    @property
    def n_rows(self) -> int:
        with self._lock:
            return self._row_count()

    @property
    def n_segments(self) -> int:
        with self._lock:
            return len(self._sealed) + len(self._tail)

    def _row_count(self) -> int:
        sealed = sum(s.n_rows for s in self._sealed)
        return sealed + self._tail_rows

    # -- mutation --------------------------------------------------------------

    def append(self, profiles: np.ndarray) -> tuple[int, int]:
        """Append profile rows; returns their global ``[start, stop)``.

        This is the **append barrier**: once ``append`` returns, every
        later :meth:`snapshot` includes the new rows, so any query
        admitted afterwards is scored against them.
        """
        arr = check_binary_matrix("ProfileIndex.append: profiles", profiles)
        if arr.shape[1] != self.n_bits:
            raise DatasetError(
                f"ProfileIndex.append: profiles cover {arr.shape[1]} sites, "
                f"index is {self.n_bits} sites wide"
            )
        if arr.shape[0] == 0:
            with self._lock:
                rows = self._row_count()
            return rows, rows
        # A copy: the block is frozen and kept, so it must not be (or
        # view) the caller's matrix.
        block = np.array(arr, dtype=np.uint8, order="C")
        block.setflags(write=False)
        with self._lock:
            start = self._row_count()
            self._tail.append(Segment(self._next_sid, start, ArraySource(block)))
            self._next_sid += 1
            self._tail_rows += int(block.shape[0])
            if self._tail_rows >= self.shard_rows:
                self._seal_locked()
            return start, start + int(block.shape[0])

    def seal(self) -> "Path | None":
        """Seal the tail into one segment.

        A directory index writes the tail to a new shard file and
        returns its path; a memory-only index folds it into one
        in-memory block and returns ``None``, as it does when there is
        nothing to seal.  Global row indices are unaffected; only
        segment identities (sids) change, so cached per-segment
        artifacts are rebuilt once.
        """
        with self._lock:
            return self._seal_locked()

    def _seal_locked(self) -> "Path | None":
        if not self._tail:
            return None
        base = self._tail[0].base
        blocks = [seg.source.read(0, seg.n_rows) for seg in self._tail]
        block = blocks[0] if len(blocks) == 1 else np.vstack(blocks)
        path: Path | None = None
        source: ChunkSource = ArraySource(block)
        if self.directory is not None:
            path = self.directory / f"shard-{self._next_shard_seq:06d}.snpbin"
            self._next_shard_seq += 1
            write_snpbin(path, block, word_bits=self.word_bits)
            source = SnpbinSource(path)
        self._sealed.append(Segment(self._next_sid, base, source))
        self._next_sid += 1
        self._tail = []
        self._tail_rows = 0
        return path

    # -- reading ---------------------------------------------------------------

    def snapshot(self) -> tuple[Segment, ...]:
        """Immutable view of every segment, in global row order.

        Segments are immutable, so the snapshot stays valid (and
        consistent) however many appends or seals happen afterwards.
        """
        with self._lock:
            return tuple(self._sealed) + tuple(self._tail)

    def iter_bits(self, chunk_rows: int = 8192) -> Iterator[np.ndarray]:
        """Yield the whole database as unpacked chunks (offline oracle)."""
        if chunk_rows <= 0:
            raise DatasetError(
                f"ProfileIndex.iter_bits: chunk_rows must be positive, "
                f"got {chunk_rows}"
            )
        for seg in self.snapshot():
            yield from seg.source.chunks(chunk_rows)

    def close(self) -> None:
        """Release shard mappings (the index is unusable afterwards)."""
        with self._lock:
            for seg in self._sealed:
                seg.source.close()
            self._sealed = []
            self._tail = []
            self._tail_rows = 0

    def __enter__(self) -> "ProfileIndex":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ProfileIndex(directory={str(self.directory)!r}, "
            f"n_rows={self.n_rows}, n_bits={self.n_bits}, "
            f"segments={self.n_segments})"
        )
