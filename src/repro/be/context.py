"""The execution context a launched tool daemon receives.

The RM's daemon-launch service constructs one context per daemon and hands
it to the tool's daemon body (``DaemonSpec.main``). It carries the daemon's
identity (rank within the daemon set, node, process), the RM-provided
fabric endpoint, and the rendezvous coordinates of the tool front end --
everything ``LMON_be_init`` needs, and ``LMON_mw_init`` (as ``MWContext``).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.simx import Simulator, Store
from repro.be.iccl import ICCLFabric
from repro.cluster import Node, SimProcess
from repro.mpir import RPDTAB, ProcDesc

__all__ = ["BEContext"]


class BEContext:
    """Per-daemon launch context (the daemon's environment + RM plumbing);
    a middleware daemon's ``rank`` is its personality handle.

    Slotted, since every launched daemon owns one.
    """

    __slots__ = ("sim", "node", "proc", "rank", "size", "fabric",
                 "session_key", "fe_node", "fe_rendezvous", "local_entries",
                 "daemon_table", "usr_data_init", "rpdtab")

    def __init__(self, sim: Simulator, node: Node, proc: SimProcess,
                 rank: int, size: int, fabric: ICCLFabric, session_key: str,
                 fe_node: Node, fe_rendezvous: Store):
        self.sim = sim
        self.node = node
        self.proc = proc
        self.rank = rank
        self.size = size
        self.fabric = fabric
        self.session_key = session_key
        #: front-end node (for the master's LMONP connection)
        self.fe_node = fe_node
        #: rendezvous store the master pushes its connection into
        self.fe_rendezvous = fe_rendezvous
        #: filled by a back end's handshake: this daemon's local task
        #: descriptors (every daemon shares the empty tuple until then)
        self.local_entries: Sequence[ProcDesc] = ()
        #: filled by the handshake: (hostname, pid) for every daemon, rank
        #: order
        self.daemon_table: Sequence[tuple[str, int]] = ()
        #: tool data the front end piggybacked on the handshake (decoded)
        self.usr_data_init: Any = None
        #: filled by a middleware handshake: the target job's full RPDTAB
        self.rpdtab: Optional[RPDTAB] = None

    @property
    def is_master(self) -> bool:
        """Rank 0 is LaunchMON's master daemon of its set."""
        return self.rank == 0
