"""repro.tbon -- a Tree-Based Overlay Network (MRNet-style).

Large-scale tools use TBONs for scalable multicast and data reduction
(Section 2): a front end, optional internal *communication daemons*, and
per-node back ends, connected in a tree. Packets broadcast down the tree
and gather up through *filters* that reduce child payloads at each internal
node (STAT's call-graph prefix-tree merge is the canonical filter).

Two startup paths are provided, matching Figure 6's comparison:

* :func:`~repro.tbon.startup.native_startup` -- the ad-hoc path: the front
  end rsh-es every daemon sequentially and distributes the topology through
  a shared file; it is linear in daemon count and collapses entirely when
  the front end can no longer fork rsh clients (512 daemons in the paper).
* :func:`~repro.tbon.startup.launchmon_startup` -- back ends come up through
  LaunchMON's RM-based spawn; topology rides the LMONP handshake as
  piggybacked user data; only the tree edges remain to connect.

The live :class:`Overlay` additionally *self-repairs*: when an internal
node dies, :meth:`Overlay.repair` reparents every orphaned subtree onto
its nearest live ancestor (parallel reconnects, paid in virtual time),
restarts the routing plane, and returns a :class:`RepairReport` whose cost
callers fold into a :class:`~repro.launch.LaunchReport`'s ``t_repair``
phase -- recovery structure designed into the platform, not bolted on.
"""

from repro.tbon.topology import TBONTopology, TopologyError
from repro.tbon.filters import (
    FILTER_REGISTRY,
    Filter,
    RankRuns,
    StatelessFilter,
    get_filter,
    make_filter,
    register_filter,
    register_stream_filter,
    stream_filter_names,
)
from repro.tbon.flow import (
    BoundedInbox,
    FlowStats,
    STREAM_PHASES,
    StreamError,
    StreamReport,
    WaveTiming,
)
from repro.tbon.packets import Packet
from repro.tbon.overlay import (
    DEFAULT_CREDIT_LIMIT,
    Overlay,
    OverlayEndpoint,
    RepairReport,
    Stream,
    StreamSpec,
)
from repro.tbon.startup import (
    MRNET_PER_BE_HANDSHAKE,
    StartupFailure,
    StartupReport,
    launchmon_startup,
    native_startup,
)

__all__ = [
    "BoundedInbox",
    "DEFAULT_CREDIT_LIMIT",
    "FILTER_REGISTRY",
    "Filter",
    "FlowStats",
    "MRNET_PER_BE_HANDSHAKE",
    "Overlay",
    "OverlayEndpoint",
    "Packet",
    "RankRuns",
    "RepairReport",
    "STREAM_PHASES",
    "StartupFailure",
    "StartupReport",
    "StatelessFilter",
    "Stream",
    "StreamError",
    "StreamReport",
    "StreamSpec",
    "TBONTopology",
    "TopologyError",
    "WaveTiming",
    "get_filter",
    "launchmon_startup",
    "make_filter",
    "native_startup",
    "register_filter",
    "register_stream_filter",
    "stream_filter_names",
]
