"""``repro.serve``: the long-lived identity-search service.

The serving layer over the batch pipeline (ROADMAP item 1): a
:class:`ProfileIndex` keeps the packed database resident as mmap'd
``.snpbin`` shards with online appends, a :class:`CoalescingBatcher`
merges concurrent query sets into shared bit-GEMM panels, and
:class:`IdentityService` demultiplexes per-request top-k results --
bit-exact against :class:`repro.core.streaming.StreamingIdentitySearch`
-- with per-request isolation through the resilience ladder and
per-tenant accounting on the observability counters.  A JSON-lines TCP
front end (:mod:`repro.serve.server`, ``repro.cli serve``) exposes it
over the wire.  See docs/SERVING.md.
"""

from repro.serve.batcher import CoalescingBatcher
from repro.serve.index import ProfileIndex, Segment
from repro.serve.metrics import LatencyWindow, TenantAccount, TenantLedger
from repro.serve.overload import CircuitBreaker
from repro.serve.server import (
    BackgroundServer,
    IdentityServer,
    ServiceClient,
    run_server,
)
from repro.serve.service import IdentityService, QueryRequest

__all__ = [
    "CoalescingBatcher",
    "CircuitBreaker",
    "ProfileIndex",
    "Segment",
    "LatencyWindow",
    "TenantAccount",
    "TenantLedger",
    "BackgroundServer",
    "IdentityServer",
    "ServiceClient",
    "run_server",
    "IdentityService",
    "QueryRequest",
]
