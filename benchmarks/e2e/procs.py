"""Child processes: a clean environment, a line reader, and reaping.

Every process under test starts from a fresh interpreter with
``REPRO_*`` overrides removed and an empty ``XDG_CACHE_HOME``, so a
stale tuning record or backend override on the host cannot change which
path is measured.  Its temp files stay inside the benchmark's scratch
directory.
"""

from __future__ import annotations

import os
import queue
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


class ChildError(RuntimeError):
    """A child exited, hung or reported an error."""


def peak_rss_mib(pid: int | str) -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB.

    ``VmHWM`` belongs to the current process image; ``ru_maxrss`` would
    also carry the launching process's peak across fork + exec.
    """
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise ChildError(f"VmHWM not reported for process {pid}")


def child_env(scratch: Path) -> dict[str, str]:
    """Environment for one process under test, rooted at ``scratch``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for name in ("xdg-cache", "tmp"):
        (scratch / name).mkdir(parents=True, exist_ok=True)
    env.update(
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
        XDG_CACHE_HOME=str(scratch / "xdg-cache"),
        TMPDIR=str(scratch / "tmp"),
    )
    return env


class Child:
    """A started child whose stdout lines are collected with timestamps."""

    def __init__(self, args: list[str], scratch: Path) -> None:
        scratch.mkdir(parents=True, exist_ok=True)
        self.scratch = scratch
        self._stderr = open(scratch / "stderr.txt", "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *args],
            cwd=ROOT,
            env=child_env(scratch),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            text=True,
        )
        self._lines: "queue.Queue[tuple[float, str | None]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self._lines.put((time.perf_counter(), line.rstrip("\n")))
        self._lines.put((time.perf_counter(), None))

    def stderr_tail(self, n: int = 20) -> str:
        text = (self.scratch / "stderr.txt").read_text(errors="replace")
        return "\n".join(text.splitlines()[-n:])

    def wait_line(self, predicate, timeout: float) -> tuple[float, str]:
        """First stdout line satisfying ``predicate``: ``(arrival, line)``."""
        deadline = time.perf_counter() + timeout
        while True:
            remaining = deadline - time.perf_counter()
            try:
                at, line = self._lines.get(timeout=max(remaining, 0.0))
            except queue.Empty:
                raise ChildError(f"no expected output within {timeout:.0f}s") from None
            if line is None:
                self._lines.put((at, None))
                self.proc.wait(timeout=10)
                raise ChildError(
                    f"exited with code {self.proc.returncode}:\n{self.stderr_tail()}"
                )
            if predicate(line):
                return at, line

    def stop(self, signal_number: int | None = None, timeout: float = 30.0) -> int:
        """Signal (or just await) the child and reap it.

        A child still running after half the timeout gets the signal once
        more (a second SIGINT interrupts ``asyncio.run`` outright), and is
        killed when the timeout runs out.
        """
        try:
            for _ in range(2):
                if signal_number is not None and self.proc.poll() is None:
                    self.proc.send_signal(signal_number)
                try:
                    self.proc.wait(timeout=timeout / 2)
                    break
                except subprocess.TimeoutExpired:
                    continue
            else:
                self.proc.kill()
                self.proc.wait()
        finally:
            self._reader.join(timeout=10)
            self._stderr.close()
        return self.proc.returncode
