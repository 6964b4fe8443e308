"""Serving tier: hub-label index + batched distance server.

The read-side counterpart of the epoch write path
(:mod:`repro.plan.session`): :class:`HubLabelIndex` builds a 2-hop
hub-label index with the SuperFW separator hierarchy as the hub set —
from the factor (:mod:`repro.serve.factor`) before the session has
published an epoch, sliced from the epoch after — and
:class:`DistanceServer` serves point queries from it: batched and
vectorized, asyncio-micro-batched, sharded per connected component,
LRU-cached, and invalidated atomically whenever the session publishes
a new epoch.

See ``docs/ARCHITECTURE.md`` (serving tier) and
``examples/route_queries.py``.
"""

from repro.serve.hub_index import HubLabelIndex
from repro.serve.server import DEFAULT_RESULT_CACHE, DistanceServer

__all__ = [
    "DEFAULT_RESULT_CACHE",
    "DistanceServer",
    "HubLabelIndex",
]
