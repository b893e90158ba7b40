"""Persisted host autotuner: the measured backend choice for ``"auto"``.

The model-driven sweep in :mod:`repro.core.autotune` prices *device*
configurations analytically.  Host-side choices -- which kernel
backend computes the shards, full vs triangular Gram plans, and where
the serial/parallel crossover sits -- depend on things no closed form
captures (BLAS build, core count, NumPy version), so this module
closes that loop empirically: :func:`tune_problem` races every
available tunable kernel-ABI backend (:mod:`repro.kernels`) in full
and, where eligible, triangular plan shape on synthetic operands of
the requested shape, times a serial baseline for the crossover
decision, and persists the winner to a small JSON cache, which
``backend="auto"`` then applies per machine.

The cache is keyed by ``(op, shape bucket, workers, word_bits, numpy
version, backend fingerprint)`` -- shapes are bucketed to the next
power of two so one measurement serves its whole size class, the NumPy
version is in the key because the winner may flip across BLAS builds,
and the backend fingerprint (names + versions of the tunable backend
set, :func:`repro.kernels.backend_fingerprint`) is in the key so
installing, removing, or upgrading a backend invalidates records
measured against the old set instead of pinning a stale winner.  The
engine's ``"auto"`` resolution consults the cache through
:func:`lookup_tuned` (a lazy singleton + dict lookup, cheap enough for
every run; an empty cache answers before any key -- and so any
backend probe -- is built).  A missing, corrupt, or foreign-format
cache degrades to "no record" rather than erroring, so a stale file
can never break execution; files of the earlier
``repro-host-tuning/1`` format (which raced shard strategies) read as
empty this way.  Version-2 files written while a process executor
existed may also hold records under keys ending ``|exprocess``; no
lookup builds such a key, and their extra ``executor`` field is
ignored.

File format (``repro-host-tuning/2``)::

    {
      "format": "repro-host-tuning/2",
      "records": {
        "<key>": {"backend": "blas", "triangular": true,
                   "crossover_ops": null, "best_seconds": 0.012,
                   "candidates": 4}
      }
    }

The cache path resolves, in order: explicit argument, the
``REPRO_TUNING_CACHE`` environment variable, then
``$XDG_CACHE_HOME/repro/host-tuning.json`` when ``XDG_CACHE_HOME`` is
set, else ``~/.cache/repro/host-tuning.json``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from repro.blis.microkernel import ComparisonOp, get_microkernel
from repro.errors import ConfigurationError
from repro.kernels import available_backends, backend_fingerprint
from repro.util.cachedir import repro_cache_dir

if TYPE_CHECKING:
    from repro.parallel.engine import ParallelEngine

__all__ = [
    "TUNING_FORMAT",
    "TUNING_CACHE_ENV",
    "DEFAULT_TUNING_PATH",
    "default_tuning_path",
    "TuningRecord",
    "TuningCache",
    "shape_bucket",
    "tuning_key",
    "configure_tuning",
    "get_tuning_cache",
    "lookup_tuned",
    "tune_problem",
]

#: On-disk format tag; unknown tags are treated as "no cache".
TUNING_FORMAT = "repro-host-tuning/2"

#: Environment variable overriding the cache file location.
TUNING_CACHE_ENV = "REPRO_TUNING_CACHE"

#: Default cache file (per-user, survives repo checkouts); honours
#: ``XDG_CACHE_HOME`` via :func:`repro.util.cachedir.repro_cache_dir`
#: -- kept as a constant name for documentation, resolved per
#: construction in :func:`default_tuning_path`.
DEFAULT_TUNING_PATH = "~/.cache/repro/host-tuning.json"


def default_tuning_path() -> Path:
    """Resolve the cache file: ``REPRO_TUNING_CACHE``, else XDG-aware."""
    override = os.environ.get(TUNING_CACHE_ENV)
    if override:
        return Path(override).expanduser()
    return repro_cache_dir() / "host-tuning.json"


def shape_bucket(m: int, n: int, k_words: int) -> str:
    """Bucket a problem shape to its next-power-of-two size class."""

    def up(x: int) -> int:
        return 1 if x <= 1 else 1 << (x - 1).bit_length()

    return f"m{up(m)}-n{up(n)}-k{up(k_words)}"


def tuning_key(
    op: ComparisonOp,
    m: int,
    n: int,
    k_words: int,
    word_bits: int,
    workers: int,
) -> str:
    """The cache key one measurement is stored (and looked up) under.

    The key ends with the kernel-backend fingerprint (names +
    versions of the tunable backend set): a record measured while the
    C compiler was missing -- or against another ``cnative`` body --
    stops matching instead of silently pinning the old winner.
    """
    return (
        f"{op.value}|{shape_bucket(m, n, k_words)}|w{workers}"
        f"|b{word_bits}|np{np.__version__}|be[{backend_fingerprint()}]"
    )


@dataclass(frozen=True)
class TuningRecord:
    """One persisted tuning decision.

    ``backend`` names the winning kernel backend.  ``crossover_ops``
    overrides the engine's serial/parallel crossover for this size
    class when not ``None`` (recorded when the serial baseline beat
    every parallel candidate).  ``triangular`` is the measured
    preference for Gram plans; the engine only honours it when the run
    is actually a symmetric self-comparison.
    """

    backend: str
    triangular: bool
    crossover_ops: int | None
    best_seconds: float
    candidates: int

    def to_json(self) -> dict[str, Any]:
        return {
            "backend": self.backend,
            "triangular": self.triangular,
            "crossover_ops": self.crossover_ops,
            "best_seconds": self.best_seconds,
            "candidates": self.candidates,
        }

    @classmethod
    def from_json(cls, data: object) -> "TuningRecord":
        """Parse one record; raises ``ValueError`` on any shape problem."""
        if not isinstance(data, Mapping):
            raise ValueError(f"tuning record must be an object, got {type(data)}")
        backend = data.get("backend")
        if not isinstance(backend, str) or not backend:
            raise ValueError("tuning record: backend must be a non-empty string")
        triangular = data.get("triangular")
        if not isinstance(triangular, bool):
            raise ValueError("tuning record: triangular must be a bool")
        crossover = data.get("crossover_ops")
        if crossover is not None and not isinstance(crossover, int):
            raise ValueError("tuning record: crossover_ops must be int or null")
        best_seconds = data.get("best_seconds")
        if not isinstance(best_seconds, (int, float)) or isinstance(
            best_seconds, bool
        ):
            raise ValueError("tuning record: best_seconds must be a number")
        candidates = data.get("candidates")
        if not isinstance(candidates, int) or isinstance(candidates, bool):
            raise ValueError("tuning record: candidates must be an int")
        return cls(
            backend=backend,
            triangular=triangular,
            crossover_ops=crossover,
            best_seconds=float(best_seconds),
            candidates=candidates,
        )


def _parse_records(raw: str) -> tuple[dict[str, TuningRecord], str | None]:
    """The records in a cache file's text, and why any were dropped.

    Invalid JSON, a foreign ``format`` tag or a missing records object
    yield no records; a malformed record is skipped and the good ones
    kept.
    """
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        return {}, f"corrupt JSON: {exc}"
    if not isinstance(data, dict) or data.get("format") != TUNING_FORMAT:
        found = data.get("format") if isinstance(data, dict) else data
        return {}, f"unrecognised format {found!r}"
    records = data.get("records")
    if not isinstance(records, dict):
        return {}, "missing records object"
    parsed: dict[str, TuningRecord] = {}
    error = None
    for key, value in records.items():
        try:
            parsed[str(key)] = TuningRecord.from_json(value)
        except ValueError as exc:
            error = f"skipped record {key!r}: {exc}"
    return parsed, error


class TuningCache:
    """Thread-safe, lazily loaded JSON store of tuning records.

    Loading is defensive end to end: a missing file, unreadable bytes,
    invalid JSON, a foreign ``format`` tag, or malformed records all
    leave the cache *empty* and record the reason in
    :attr:`load_error` -- callers see "no record for this key", never
    an exception.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        if path is None:
            path = default_tuning_path()
        self.path = Path(path).expanduser()
        self.load_error: str | None = None
        self._records: dict[str, TuningRecord] = {}
        self._loaded = False
        self._lock = threading.Lock()

    # -- persistence ---------------------------------------------------------

    def _ensure_loaded(self) -> None:
        with self._lock:
            if self._loaded:
                return
            self._loaded = True
            self._records = {}
            self.load_error = None
            try:
                raw = self.path.read_text()
            except FileNotFoundError:
                return
            except OSError as exc:
                self.load_error = f"unreadable: {exc}"
                return
            self._records, self.load_error = _parse_records(raw)

    def lookup(self, key: str) -> TuningRecord | None:
        """The record stored under ``key``, or ``None``."""
        self._ensure_loaded()
        with self._lock:
            return self._records.get(key)

    def store(self, key: str, record: TuningRecord) -> None:
        """Insert/replace ``key`` in memory (call :meth:`save` to persist)."""
        self._ensure_loaded()
        with self._lock:
            self._records[key] = record

    @staticmethod
    def _read_disk_records(path: Path) -> dict[str, TuningRecord]:
        """Best-effort parse of the records currently on disk.

        Shares :meth:`_ensure_loaded`'s tolerance: anything unreadable,
        corrupt, or foreign-format reads as "no records" so a damaged
        file never blocks a save.
        """
        try:
            raw = path.read_text()
        except OSError:
            return {}
        return _parse_records(raw)[0]

    def save(self) -> None:
        """Persist atomically, merging concurrent writers' records.

        ``os.replace`` makes each write atomic, but two processes that
        loaded the cache, tuned *different* problems and saved would
        otherwise last-writer-win -- the first writer's new record
        silently vanishes.  So the file is re-read under the lock and
        its records merged in before the replace: keys this process
        holds in memory win (a re-measurement intentionally supersedes
        the stored record), keys only on disk are preserved.  The merge
        result also becomes the in-memory state, so a subsequent
        :meth:`lookup` sees everything the file does.
        """
        self._ensure_loaded()
        with self._lock:
            merged = self._read_disk_records(self.path)
            merged.update(self._records)
            self._records = merged
            payload = {
                "format": TUNING_FORMAT,
                "records": {
                    key: record.to_json()
                    for key, record in sorted(merged.items())
                },
            }
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(self.path.suffix + ".tmp")
            tmp.write_text(json.dumps(payload, indent=2) + "\n")
            os.replace(tmp, self.path)

    def __len__(self) -> int:
        self._ensure_loaded()
        with self._lock:
            return len(self._records)


# -- process-wide singleton ------------------------------------------------------

_CACHE: TuningCache | None = None
_CACHE_LOCK = threading.Lock()


def configure_tuning(path: str | Path | None = None) -> TuningCache:
    """(Re)point the process-wide tuning cache, returning it.

    Tests use this to sandbox the cache; passing ``None`` re-resolves
    the environment variable / default path.
    """
    global _CACHE
    with _CACHE_LOCK:
        _CACHE = TuningCache(path)
        return _CACHE


def get_tuning_cache() -> TuningCache:
    """The process-wide tuning cache (created on first use)."""
    global _CACHE
    with _CACHE_LOCK:
        if _CACHE is None:
            _CACHE = TuningCache()
        return _CACHE


def lookup_tuned(
    op: ComparisonOp,
    m: int,
    n: int,
    k_words: int,
    word_bits: int,
    workers: int,
) -> TuningRecord | None:
    """Cheap cache consultation used by the engine's ``"auto"`` axes.

    An empty cache answers ``None`` before the key is built: the key
    embeds the backend fingerprint, whose availability probe would
    compile the ``cnative`` kernel on an untuned host.
    """
    cache = get_tuning_cache()
    if not len(cache):
        return None
    return cache.lookup(tuning_key(op, m, n, k_words, word_bits, workers))


# -- measurement -----------------------------------------------------------------


def tune_problem(
    m: int,
    n: int,
    k_words: int,
    op: ComparisonOp | str = ComparisonOp.AND,
    workers: int | None = None,
    repeats: int = 1,
    seed: int = 0,
    cache: TuningCache | None = None,
    persist: bool = True,
) -> TuningRecord:
    """Benchmark the candidate grid for one shape and persist the winner.

    Races every available tunable kernel backend -- each in full-plan
    form and, when the problem is a square self-comparison with a
    symmetric op, also in triangular Gram form -- on synthetic random
    operands, plus a serial baseline.  The fastest parallel candidate
    becomes the record; if the serial baseline beat it,
    ``crossover_ops`` is raised above this size class so ``"auto"``
    keeps such problems serial.
    """
    from repro.parallel.engine import get_engine

    if m <= 0 or n <= 0 or k_words <= 0:
        raise ConfigurationError(
            f"tune_problem: extents must be positive, got {(m, n, k_words)}"
        )
    if repeats <= 0:
        raise ConfigurationError(
            f"tune_problem: repeats must be positive, got {repeats}"
        )
    op = get_microkernel(op).op
    if workers is None:
        workers = os.cpu_count() or 1
    rng = np.random.default_rng(seed)
    a = rng.integers(0, np.iinfo(np.uint64).max, size=(m, k_words), dtype=np.uint64)
    b = a if m == n else rng.integers(
        0, np.iinfo(np.uint64).max, size=(n, k_words), dtype=np.uint64
    )
    shapes = (False, True) if m == n and op.is_symmetric else (False,)
    word_bits = 64
    total_ops = m * n * k_words
    backends = [be.info.name for be in available_backends() if be.info.tunable]

    def best_of(
        engine: "ParallelEngine", force_parallel: bool, symmetric: bool | None
    ) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            engine.run(a, b, op, force_parallel=force_parallel, symmetric=symmetric)
            best = min(best, time.perf_counter() - start)
        return best

    serial_best = best_of(get_engine(1), False, None)
    candidates = [
        (backend, triangular,
         best_of(get_engine(workers, backend), True, triangular))
        for backend in backends
        for triangular in shapes
    ]
    backend, triangular, best_seconds = min(candidates, key=lambda c: c[2])
    record = TuningRecord(
        backend=backend,
        triangular=triangular,
        crossover_ops=2 * total_ops if serial_best < best_seconds else None,
        best_seconds=best_seconds,
        candidates=len(candidates),
    )
    if cache is None:
        cache = get_tuning_cache()
    cache.store(tuning_key(op, m, n, k_words, word_bits, workers), record)
    if persist:
        cache.save()
    return record
