"""Per-tenant serving accounts: latency percentiles, QPS, failures.

Counters (:mod:`repro.observability.counters`) answer "how much work
did the service do" exactly; this module answers the per-tenant SLO
questions -- p50/p99 latency and sustained QPS -- which are inherently
windowed and approximate.  A bounded ring of recent observations keeps
memory ``O(window)`` per tenant however long the service lives, and a
ledger opens at most :data:`MAX_TENANTS` accounts, so a client cannot
grow the service by inventing tenant names.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

import numpy as np

__all__ = [
    "MAX_TENANTS",
    "MAX_TENANT_CHARS",
    "LatencyWindow",
    "TenantAccount",
    "TenantLedger",
]

#: Distinct tenants one ledger accounts for.  Each account keeps a
#: latency window (32 KiB at the default 4,096 samples) for the life of
#: the service.
MAX_TENANTS = 256

#: Longest tenant name the service accepts, in characters.
MAX_TENANT_CHARS = 128


class LatencyWindow:
    """Bounded ring of latency samples with percentile readout."""

    def __init__(self, maxlen: int = 4096) -> None:
        if maxlen <= 0:
            raise ValueError(f"LatencyWindow: maxlen must be positive, got {maxlen}")
        self._buf = np.zeros(maxlen, dtype=np.float64)
        self._maxlen = maxlen
        self._next = 0
        self._count = 0

    def observe(self, seconds: float) -> None:
        self._buf[self._next] = seconds
        self._next = (self._next + 1) % self._maxlen
        self._count = min(self._count + 1, self._maxlen)

    @property
    def count(self) -> int:
        return self._count

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile of the retained window (0.0 if empty)."""
        if self._count == 0:
            return 0.0
        return float(np.percentile(self._buf[: self._count], p))


class TenantAccount:
    """One tenant's running totals plus its latency window."""

    def __init__(self, window: int = 4096) -> None:
        self.queries = 0
        self.rows = 0
        self.failures = 0
        self.latency = LatencyWindow(window)
        self.first_seen: float | None = None
        self.last_seen: float | None = None

    def record(
        self, rows: int, seconds: float, failed: bool, now: float
    ) -> None:
        self.queries += 1
        self.rows += rows
        if failed:
            self.failures += 1
        self.latency.observe(seconds)
        if self.first_seen is None:
            self.first_seen = now
        self.last_seen = now

    def qps(self) -> float:
        """Mean request rate over the tenant's observed lifetime."""
        if self.first_seen is None or self.last_seen is None:
            return 0.0
        elapsed = self.last_seen - self.first_seen
        if elapsed <= 0.0:
            return 0.0
        return (self.queries - 1) / elapsed

    def summary(self) -> dict[str, float]:
        return {
            "queries": float(self.queries),
            "rows": float(self.rows),
            "failures": float(self.failures),
            "p50_s": self.latency.percentile(50),
            "p99_s": self.latency.percentile(99),
            "qps": self.qps(),
        }


class TenantLedger:
    """Thread-safe map of tenant name to :class:`TenantAccount`, holding
    at most :data:`MAX_TENANTS` accounts."""

    def __init__(
        self,
        window: int = 4096,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self._window = window
        self._clock = clock
        self._lock = threading.Lock()
        self._accounts: dict[str, TenantAccount] = {}

    def _account_locked(self, tenant: str) -> TenantAccount | None:
        account = self._accounts.get(tenant)
        if account is None and len(self._accounts) < MAX_TENANTS:
            account = self._accounts[tenant] = TenantAccount(self._window)
        return account

    def admit(self, tenant: str) -> bool:
        """Open ``tenant``'s account if it has none; ``False`` when that
        would pass :data:`MAX_TENANTS` accounts."""
        with self._lock:
            return self._account_locked(tenant) is not None

    def record(
        self, tenant: str, rows: int, seconds: float, failed: bool = False
    ) -> None:
        """Account one request; a tenant past the cap is not recorded."""
        now = self._clock()
        with self._lock:
            account = self._account_locked(tenant)
            if account is not None:
                account.record(rows, seconds, failed, now)

    def tenants(self) -> list[str]:
        with self._lock:
            return sorted(self._accounts)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-tenant SLO summaries (stable tenant order)."""
        with self._lock:
            return {
                name: self._accounts[name].summary()
                for name in sorted(self._accounts)
            }
