"""Out-of-core streaming ingestion: packed datasets, chunk sources, prefetch.

The paper's FastID workload targets ~20M-profile databases that do not
fit in host memory.  This package is the host-side I/O layer that makes
unbounded inputs a first-class path through the pipeline, following the
pattern of Beyer & Bientinesi ("Streaming Data from HDD to GPUs for
Sustained Peak Performance"): overlap disk reads with compute so the
engine never waits on the disk, and keep data packed on disk (the
enabler second-generation PLINK demonstrated with its ``.bed`` format).

Three layers, bottom up:

* :mod:`repro.io_stream.format` -- the ``.snpbin`` on-disk format: a
  fixed validated header plus row-major packed words, written in
  bounded memory by :class:`PackedDatasetWriter` and memory-mapped by
  :class:`PackedDatasetReader`.
* :mod:`repro.io_stream.sources` -- :class:`ChunkSource`, one
  abstraction over "where binary rows come from": in-memory arrays,
  ``.snpbin`` maps, NPZ files, plain iterators; and its
  :class:`PackedSource` view, the same rows as device operands (a
  ``.snpbin``'s own words, anything else checked and packed).
* :mod:`repro.io_stream.prefetch` -- :class:`ChunkStream`, the
  double-buffered prefetch executor: a background thread produces
  chunk *i+1* while chunk *i* runs through the engine, mirroring at
  the host layer the simulated device's double-buffered
  transfer/compute overlap.

The streaming workloads that consume these live in
:mod:`repro.core.streaming`; see ``docs/STREAMING.md`` for the format
specification and guidance on chunk sizing.
"""

from repro.io_stream.format import (
    DEFAULT_CRC_CHUNK_ROWS,
    SNPBIN2_MAGIC,
    SNPBIN_MAGIC,
    SnpbinHeader,
    PackedDatasetReader,
    PackedDatasetWriter,
    write_snpbin,
)
from repro.io_stream.fsck import (
    FsckFileReport,
    FsckReport,
    fsck_directory,
    fsck_file,
)
from repro.io_stream.prefetch import ChunkStream, StreamStats
from repro.io_stream.sources import (
    ArraySource,
    ChunkSource,
    IteratorSource,
    NpzSource,
    PackedSource,
    SnpbinSource,
    as_chunk_source,
    materialize_source,
    open_source,
)

__all__ = [
    "SNPBIN_MAGIC",
    "SNPBIN2_MAGIC",
    "DEFAULT_CRC_CHUNK_ROWS",
    "SnpbinHeader",
    "FsckFileReport",
    "FsckReport",
    "fsck_file",
    "fsck_directory",
    "PackedDatasetReader",
    "PackedDatasetWriter",
    "write_snpbin",
    "ChunkStream",
    "StreamStats",
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
