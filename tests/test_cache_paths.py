"""XDG-aware cache-path resolution (the compiled-kernel cache).

CI runners set ``XDG_CACHE_HOME`` to keep jobs hermetic; the kernel
cache must land under it, ``REPRO_KERNEL_CACHE`` must still win over
XDG, and an ``"auto"`` run that never needs the compiled kernel must
leave the cache root untouched.
"""

from __future__ import annotations

from pathlib import Path

from repro.kernels import cnative_backend
from repro.util.cachedir import repro_cache_dir


class TestReproCacheDir:
    def test_defaults_to_home_dot_cache(self, monkeypatch):
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        assert repro_cache_dir() == Path("~/.cache").expanduser() / "repro"

    def test_honors_xdg_cache_home(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert repro_cache_dir() == tmp_path / "xdg" / "repro"

    def test_empty_xdg_falls_back(self, monkeypatch):
        # The basedir spec treats an empty value as unset.
        monkeypatch.setenv("XDG_CACHE_HOME", "")
        assert repro_cache_dir() == Path("~/.cache").expanduser() / "repro"

    def test_consulted_per_call_not_at_import(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "a"))
        first = repro_cache_dir()
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "b"))
        second = repro_cache_dir()
        assert first != second
        assert second == tmp_path / "b" / "repro"


class TestKernelCachePath:
    def test_xdg_cache_home_respected(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_KERNEL_CACHE", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert cnative_backend._cache_dir() == tmp_path / "repro" / "kernels"

    def test_repro_env_var_beats_xdg(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "kern"))
        assert cnative_backend._cache_dir() == tmp_path / "kern"

    def test_default_without_xdg(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_CACHE", raising=False)
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        assert (
            cnative_backend._cache_dir()
            == Path("~/.cache/repro/kernels").expanduser()
        )


class TestAutoRunsProbeNothing:
    def test_auto_engine_run_leaves_cache_root_empty(self, tmp_path):
        # A fresh process with an empty cache root: "auto" resolves from
        # the problem's shape alone.  Below the compile trigger nothing
        # probes the cnative descriptor (which would compile the C
        # kernel into <cache>/kernels), and nothing else is persisted.
        import os
        import subprocess
        import sys

        script = (
            "import numpy as np\n"
            "from repro.parallel import ParallelEngine\n"
            "a = np.random.default_rng(0).integers(\n"
            "    0, 2**32, size=(512, 64), dtype=np.uint32)\n"
            "engine = ParallelEngine(workers=2)\n"
            "c, report = engine.run(a, a, force_parallel=True)\n"
            "engine.shutdown()\n"
            "serial, _ = ParallelEngine(workers=1).run(a, a)\n"
            "assert report.backend == 'blas' and (c == serial).all()\n"
        )
        env = {
            k: v for k, v in os.environ.items() if not k.startswith("REPRO_")
        }
        env["XDG_CACHE_HOME"] = str(tmp_path)
        src = Path(cnative_backend.__file__).resolve().parents[2]
        env["PYTHONPATH"] = str(src)
        subprocess.run(
            [sys.executable, "-c", script], env=env, check=True, timeout=120
        )
        assert list(tmp_path.iterdir()) == []

    def test_auto_ld_prune_leaves_cache_root_empty(self, tmp_path):
        # The same for the LD band: each band asks the shape rule with
        # (chunk rows, band width, words), which adds chunk rows x width
        # x words to the fallback's trigger count -- below the trigger a
        # small prune runs on the NumPy band and leaves no cache behind.
        import os
        import subprocess
        import sys

        script = (
            "import numpy as np\n"
            "from repro.core.ldops import ld_prune\n"
            "from repro.kernels import get_backend\n"
            "sites = np.random.default_rng(0).integers(\n"
            "    0, 2, size=(300, 256), dtype=np.uint8)\n"
            "# r2 = 1 never prunes: every band is 19 wide over 8 words.\n"
            "ld_prune(sites, window=20, r2=1.0, chunk_rows=64)\n"
            "native = get_backend('cnative')\n"
            "assert native._fallback_ops == 300 * 19 * 8, native._fallback_ops\n"
            "assert native._builder is None\n"
        )
        env = {
            k: v for k, v in os.environ.items() if not k.startswith("REPRO_")
        }
        env["XDG_CACHE_HOME"] = str(tmp_path)
        src = Path(cnative_backend.__file__).resolve().parents[2]
        env["PYTHONPATH"] = str(src)
        subprocess.run(
            [sys.executable, "-c", script], env=env, check=True, timeout=120
        )
        assert list(tmp_path.iterdir()) == []
