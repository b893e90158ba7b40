"""Shared fixtures for the test suite."""

import os

import pytest

from repro.kernels import get_backend, register_backend
from repro.kernels.cnative_backend import (
    HARDWARE_BODIES,
    KERNEL_CACHE_ENV,
    CNativeBackend,
)


@pytest.fixture
def pin_native(tmp_path, monkeypatch):
    """Pin the ``cnative`` state ``"auto"`` sees; returns ``pin(loaded)``.

    ``pin(False)`` registers a fresh ``cnative`` that cannot load -- its
    compiler does not exist and its kernel cache is empty -- so
    ``"auto"`` follows the fallback rule for the whole test.  The pin
    matters because ``"auto"`` switches to ``cnative`` when its
    background build lands; a pinned state keeps every run in a test on
    one kernel.  ``pin(True)`` registers a fresh one
    loaded synchronously with the process's compiler and cache; the
    test skips where no hardware-popcount body loads.  The process's
    own backend is restored afterwards.
    """
    original = get_backend(CNativeBackend.name)
    saved = {name: os.environ.get(name) for name in ("CC", KERNEL_CACHE_ENV)}

    def pin(loaded: bool) -> CNativeBackend:
        if loaded:
            for name, value in saved.items():
                if value is None:
                    monkeypatch.delenv(name, raising=False)
                else:
                    monkeypatch.setenv(name, value)
        else:
            monkeypatch.setenv("CC", str(tmp_path / "no-such-cc"))
            monkeypatch.setenv(KERNEL_CACHE_ENV, str(tmp_path / "kernels"))
        backend = CNativeBackend()
        if loaded:
            backend.bodies()  # compiles unless cached, then loads
            if backend.body not in HARDWARE_BODIES:
                pytest.skip(
                    "no hardware-popcount cnative body loads here: "
                    f"{backend.info.unavailable_reason or backend.body}"
                )
        register_backend(backend, replace=True)
        return backend

    yield pin
    register_backend(original, replace=True)
