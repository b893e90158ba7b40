"""identity-serve: the real ``repro.cli serve`` under closed-loop TCP load.

The server is the CLI a user would run (``python -m repro.cli serve
--index DIR --port 0 ...``), or, for the traced run, the same CLI under
:mod:`traced_server`.  All load comes from this process: two client
threads with one TCP connection each, in a closed loop (a client sends
its next request only after the previous reply).  Each search is one
profile drawn from a pool of database members with 1 % bit errors and
unrelated profiles.  Before every ``append_every``-th of its searches,
client 0 first appends a block of new profiles, some of them near-copies
of pool queries, so the index seals shards and grows segments while it
is searched.

``setup_s`` runs from launching the server to the reply of one warm
search.  The server is stopped with SIGINT, the way an operator stops
it.  Every reply is checked afterwards by the prefix oracle
(:func:`oracles.search_matches_some_prefix`).
"""

from __future__ import annotations

import json
import re
import shutil
import signal
import socket
import threading
import time
from pathlib import Path
from typing import Any

import numpy as np

import oracles
from procs import HERE, Child, ChildError, peak_rss_mib

LISTENING = re.compile(r"listening on (\S+):(\d+)")
CLIENTS = 2


class Connection:
    """A minimal JSON-lines client, independent of the package's own."""

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")

    def call(self, message: dict[str, Any]) -> dict[str, Any]:
        self._file.write(json.dumps(message).encode() + b"\n")
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        reply: dict[str, Any] = json.loads(line)
        return reply

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()


def _search(conn: Connection, query: np.ndarray, k: int) -> dict[str, Any]:
    return conn.call({"op": "search", "queries": [query.tolist()], "k": k})


class Server:
    """One server process on a private copy of the index."""

    def __init__(self, spec: dict[str, Any], scratch: Path, traced: bool) -> None:
        inputs = spec["inputs"]
        self.index = scratch / "index"
        shutil.copytree(inputs["index"], self.index)
        self.initial_shards = len(list(self.index.glob("*.snpbin")))
        self.trace_file = scratch / "trace.json"
        self.k = inputs["k"]
        args = [
            "serve", "--index", str(self.index), "--port", "0",
            "--shard-rows", str(inputs["seal_rows"]), "--top-k", str(self.k),
        ]
        prefix = [str(HERE / "traced_server.py"), str(self.trace_file)] if traced else [
            "-m", "repro.cli",
        ]
        warm_query = np.load(inputs["pool"])[0]
        self.child = Child(prefix + args, scratch)
        try:
            _, line = self.child.wait_line(LISTENING.search, timeout=120)
            match = LISTENING.search(line)
            assert match is not None
            self.address = (match.group(1), int(match.group(2)))
            self.first = Connection(*self.address)
            warm = _search(self.first, warm_query, self.k)
            if not warm.get("ok"):
                raise ChildError(f"warm search failed: {warm}")
        except BaseException:
            self.child.stop(signal.SIGINT)
            raise
        self.setup_s = time.perf_counter() - self.child.started

    def stop(self) -> tuple[dict[str, Any], list[str]]:
        """Stop the server: ``({peak_rss_mib, seals}, errors)``.

        An unclean exit is reported, not fatal: the answers were already
        checked, and a traced server that exits without writing its trace
        fails the run when the trace is read.
        """
        self.first.close()
        peak = peak_rss_mib(self.child.proc.pid)
        code = self.child.stop(signal.SIGINT)
        errors = []
        if code != 0:
            errors.append(f"server exited with code {code} on SIGINT: {self.child.stderr_tail(3)}")
        seals = len(list(self.index.glob("*.snpbin"))) - self.initial_shards
        return {"peak_rss_mib": peak, "seals": seals}, errors


def drive(server: Server, spec: dict[str, Any], seconds: float, seed: int) -> dict[str, Any]:
    """Run the closed loop for ``seconds``; returns the raw records."""
    inputs = spec["inputs"]
    pool = np.load(inputs["pool"])
    appends = np.load(inputs["appends"])
    rows_per_append = int(appends.shape[1])
    initial = int(spec["params"]["profiles"])
    every = int(inputs["append_every"])
    lock = threading.Lock()
    # Rows whose append reply has arrived / rows any sent append covers.
    state = {"committed": initial, "issued": initial}
    searches: list[tuple[int, int, int, float, dict[str, Any]]] = []
    append_log: list[tuple[int, float, dict[str, Any]]] = []
    errors: list[str] = []
    start = time.perf_counter()
    deadline = start + seconds

    def client(i: int, conn: Connection) -> None:
        rng = np.random.default_rng([seed, i])
        sent = 0
        try:
            while time.perf_counter() < deadline:
                if i == 0 and sent % every == 0 and len(append_log) < len(appends):
                    a = len(append_log)
                    with lock:
                        state["issued"] += rows_per_append
                    t0 = time.perf_counter()
                    reply = conn.call({"op": "append", "profiles": appends[a].tolist()})
                    append_log.append((a, time.perf_counter() - t0, reply))
                    if reply.get("ok"):
                        with lock:
                            state["committed"] += rows_per_append
                qid = int(rng.integers(len(pool)))
                with lock:
                    committed = state["committed"]
                t0 = time.perf_counter()
                reply = _search(conn, pool[qid], server.k)
                latency = time.perf_counter() - t0
                with lock:
                    issued = state["issued"]
                searches.append((qid, committed, issued, latency, reply))
                sent += 1
        except (OSError, ValueError) as exc:
            errors.append(f"client {i}: {type(exc).__name__}: {exc}")

    second = Connection(*server.address)
    threads = [
        threading.Thread(target=client, args=(i, conn), name=f"load-{i}")
        for i, conn in enumerate([server.first, second])
    ]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        second.close()
    return {
        "window_s": time.perf_counter() - start,
        "searches": searches,
        "appends": append_log,
        "errors": errors,
        "rows_per_append": rows_per_append,
        "initial": initial,
    }


def check(spec: dict[str, Any], load: dict[str, Any]) -> int:
    """Number of searches and appends the oracle rejects."""
    pool = np.load(spec["inputs"]["pool"])
    appends = np.load(spec["inputs"]["appends"])
    database = np.load(spec["expect"]["database"])
    step, initial = load["rows_per_append"], load["initial"]
    rows = np.vstack([database, *appends[: len(load["appends"])]])
    used = sorted({s[0] for s in load["searches"]})
    distances = oracles.hamming(pool[used], rows) if used else None
    position = {qid: i for i, qid in enumerate(used)}
    failed = len(load["errors"])
    k = int(spec["inputs"]["k"])
    for qid, committed, issued, _, reply in load["searches"]:
        ok = (
            bool(reply.get("ok"))
            and distances is not None
            and oracles.search_matches_some_prefix(
                distances[position[qid]], reply["matches"][0], committed, issued, step, k
            )
        )
        failed += not ok
    for a, _, reply in load["appends"]:
        start = initial + a * step
        failed += not (
            reply.get("ok") and reply.get("start") == start and reply.get("stop") == start + step
        )
    return failed


def run(
    spec: dict[str, Any], rundir: Path, seconds: float, seed: int, traced: bool, tag: str
) -> dict[str, Any]:
    """One server lifetime: start, load for ``seconds``, stop, check."""
    server = Server(spec, rundir / tag, traced)
    try:
        load = drive(server, spec, seconds, seed)
    finally:
        stopped, stop_errors = server.stop()
    result = {
        "setup_s": server.setup_s,
        "ops_s": [s[3] for s in load["searches"]],
        "append_s": [a[1] for a in load["appends"]],
        "window_s": load["window_s"],
        "attempted": len(load["searches"]) + len(load["appends"]),
        "failed": check(spec, load),
        "errors": load["errors"] + stop_errors,
        **stopped,
    }
    if traced:
        if not server.trace_file.exists():
            raise ChildError(f"traced server wrote no trace: {stop_errors}")
        result["trace"] = json.loads(server.trace_file.read_text())
    return result


def setup_only(spec: dict[str, Any], rundir: Path, tag: str) -> tuple[float, list[str]]:
    """Launch a server, answer one warm search, stop: ``(setup_s, errors)``."""
    server = Server(spec, rundir / tag, traced=False)
    _, errors = server.stop()
    return server.setup_s, errors
