"""Host probe: measured compute and memory ceilings plus a fingerprint.

The per-layer GEMM and ingest rates are only meaningful against what
this machine can do, so every result JSON carries:

* ``sgemm_flops`` / ``dgemm_flops`` -- best of 5 BLAS products at
  2048^3 (the SGEMM figure sets ``gemm.ceiling_frac``);
* ``copy_bytes_per_s`` -- best of 5 ``np.copyto`` passes over arrays at
  least 4x the last-level cache, counting read + write bytes (the STREAM
  "copy" convention; sets ``io_stream.bw_frac``);
* a fingerprint: CPU model, ``nproc``, Python, NumPy, BLAS and the
  registered kernel backends.

The probe is cached as JSON keyed by the fingerprint, so repeated runs
on one host measure it once.  Run ``python benchmarks/e2e/host.py`` to
print it.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

GEMM_N = 2048
REPEATS = 5
#: Fallback when sysfs does not expose the cache hierarchy.
DEFAULT_LLC_BYTES = 32 * 2**20


def _parse_size(text: str) -> int:
    text = text.strip().upper()
    for suffix, scale in (("K", 2**10), ("M", 2**20), ("G", 2**30)):
        if text.endswith(suffix):
            return int(text[:-1]) * scale
    return int(text)


def last_level_cache_bytes() -> int:
    """Size of the highest cache level cpu0 reports in sysfs."""
    best_level, best_size = -1, 0
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = _parse_size((index / "size").read_text())
        except (OSError, ValueError):
            continue
        if level > best_level:
            best_level, best_size = level, size
    return best_size or DEFAULT_LLC_BYTES


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict[str, str]:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": str(blas.get("name")), "version": str(blas.get("version"))}
    except (TypeError, KeyError):  # NumPy < 1.25 has no dict mode
        return {"name": "unknown", "version": "unknown"}


def fingerprint() -> dict[str, object]:
    from repro.kernels import backend_names

    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "backends": list(backend_names()),
    }


def gemm_flops(dtype: type) -> float:
    """Best-of-``REPEATS`` FLOP/s of one ``GEMM_N``-cubed BLAS product."""
    n = GEMM_N
    rng = np.random.default_rng(0)
    a = rng.random((n, n), dtype=dtype)
    b = rng.random((n, n), dtype=dtype)
    out = np.empty((n, n), dtype=dtype)
    np.matmul(a, b, out=out)  # warm the BLAS thread pool
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        np.matmul(a, b, out=out)
        best = min(best, time.perf_counter() - start)
    return 2.0 * n**3 / best


def copy_bandwidth(n_bytes: int) -> float:
    """Best-of-``REPEATS`` copy rate in bytes/s (read + write counted)."""
    src = np.ones(n_bytes, dtype=np.uint8)
    dst = np.zeros(n_bytes, dtype=np.uint8)
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - start)
    return 2.0 * n_bytes / best


def measure() -> dict[str, object]:
    llc = last_level_cache_bytes()
    array_bytes = 4 * llc
    return {
        "fingerprint": fingerprint(),
        "sgemm_flops": gemm_flops(np.float32),
        "dgemm_flops": gemm_flops(np.float64),
        "llc_bytes": llc,
        "copy_array_bytes": array_bytes,
        "copy_bytes_per_s": copy_bandwidth(array_bytes),
    }


def probe(cache: Path) -> dict[str, object]:
    """The host record, from ``cache`` when its fingerprint still matches."""
    current = fingerprint()
    if cache.exists():
        try:
            cached = json.loads(cache.read_text())
            if cached.get("fingerprint") == current:
                return dict(cached)
        except (OSError, ValueError):
            pass
    record = measure()
    cache.parent.mkdir(parents=True, exist_ok=True)
    cache.write_text(json.dumps(record, indent=2))
    return record


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    print(json.dumps(measure(), indent=2))
