"""Simulated cluster network.

Models the properties of a real cluster interconnect that the paper's
evaluation is sensitive to:

* per-message latency (lognormal, sub-millisecond within a rack),
* bounded per-node inbox queues -- overflow means a dropped packet, the
  mechanism behind SLURM's degradation near 20 requests/s (Fig. 5/7),
* unreachability of failed nodes and partitioned pairs (§4.4).

The :class:`~repro.net.server.RequestServer` wraps the serial
request-processing loop shared by SLURM's central server and each Penelope
power pool: one request at a time, with a configurable service-time
distribution (the paper measures 80-100 microseconds per request for
SLURM's server).
"""

from repro.net.messages import (
    PORT_DECIDER,
    PORT_POOL,
    PORT_SERVER,
    Addr,
    ExcessReport,
    Message,
    PowerGrant,
    PowerRequest,
    ReleaseDirective,
    next_message_id,
)
from repro.net.network import Network, NetworkStats
from repro.net.roster import PeerView, Roster
from repro.net.server import RequestServer
from repro.net.topology import LatencyModel, Topology

__all__ = [
    "Addr",
    "ExcessReport",
    "LatencyModel",
    "Message",
    "Network",
    "NetworkStats",
    "PORT_DECIDER",
    "PORT_POOL",
    "PORT_SERVER",
    "PeerView",
    "PowerGrant",
    "PowerRequest",
    "ReleaseDirective",
    "RequestServer",
    "Roster",
    "Topology",
    "next_message_id",
]
