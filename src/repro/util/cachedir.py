"""Per-user cache directory resolution (XDG-aware).

The compiled-kernel build cache
(:mod:`repro.kernels.cnative_backend`) is the one thing persisted
across runs.  It lives under a ``repro/`` cache root, resolved as:

1. the ``REPRO_KERNEL_CACHE`` environment variable always wins --
   handled by the caller;
2. ``$XDG_CACHE_HOME/repro`` when ``XDG_CACHE_HOME`` is set and
   non-empty (the basedir spec; CI runners set it to keep jobs
   hermetic);
3. ``~/.cache/repro`` otherwise.

The environment is consulted on every call, not captured at import,
so a test (or a job step) that changes ``XDG_CACHE_HOME`` changes
where the *next* cache object lands.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["repro_cache_dir"]


def repro_cache_dir() -> Path:
    """The per-user ``repro`` cache root, honoring ``XDG_CACHE_HOME``."""
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path("~/.cache").expanduser()
    return base / "repro"
