"""XDG-aware cache-path resolution (tuner + compiled-kernel cache).

CI runners set ``XDG_CACHE_HOME`` to keep jobs hermetic; both
persistent caches must land under it, and the subsystem-specific
``REPRO_*`` environment variables must still win over XDG.
"""

from __future__ import annotations

from pathlib import Path

from repro.kernels import cnative_backend
from repro.parallel.tuner import TuningCache, default_tuning_path
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


class TestTuningCachePath:
    def test_xdg_cache_home_respected(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_TUNING_CACHE", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        cache = TuningCache()
        assert cache.path == tmp_path / "repro" / "host-tuning.json"

    def test_repro_env_var_beats_xdg(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        monkeypatch.setenv("REPRO_TUNING_CACHE", str(tmp_path / "explicit.json"))
        cache = TuningCache()
        assert cache.path == tmp_path / "explicit.json"

    def test_explicit_path_beats_everything(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        monkeypatch.setenv("REPRO_TUNING_CACHE", str(tmp_path / "env.json"))
        cache = TuningCache(tmp_path / "arg.json")
        assert cache.path == tmp_path / "arg.json"

    def test_default_without_xdg(self, monkeypatch):
        monkeypatch.delenv("REPRO_TUNING_CACHE", raising=False)
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        assert (
            default_tuning_path()
            == Path("~/.cache/repro/host-tuning.json").expanduser()
        )


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

    def test_tuner_and_kernels_share_one_root(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_TUNING_CACHE", raising=False)
        monkeypatch.delenv("REPRO_KERNEL_CACHE", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        root = repro_cache_dir()
        assert TuningCache().path.parent == root
        assert cnative_backend._cache_dir().parent == root


class TestUntunedRunsProbeNothing:
    def test_untuned_engine_run_creates_no_kernels_dir(self, tmp_path):
        # A fresh process with an empty cache root: the engine's "auto"
        # resolution consults the (empty) tuning cache, which must
        # answer before building a key -- the key's backend fingerprint
        # would compile the C kernel into <cache>/kernels.
        import os
        import subprocess
        import sys

        script = (
            "import numpy as np\n"
            "from repro.parallel import ParallelEngine\n"
            "a = np.random.default_rng(0).integers(\n"
            "    0, 2**32, size=(512, 64), dtype=np.uint32)\n"
            "engine = ParallelEngine(workers=2, executor='thread')\n"
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
        assert not (tmp_path / "repro" / "kernels").exists()
        assert not (tmp_path / "repro" / "host-tuning.json").exists()
