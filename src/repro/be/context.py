"""The execution context a launched tool daemon receives.

The RM's daemon-launch service constructs one context per daemon and hands
it to the tool's daemon body (``DaemonSpec.main``). It carries the daemon's
identity (rank within the daemon set, node, process), the RM-provided
fabric endpoint, and the rendezvous coordinates of the tool front end --
everything ``LMON_be_init`` needs, and ``LMON_mw_init`` (as ``MWContext``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.simx import Simulator, Store
from repro.be.iccl import ICCLFabric
from repro.cluster import Node, SimProcess
from repro.mpir import RPDTAB, ProcDesc

__all__ = ["BEContext"]


@dataclass
class BEContext:
    """Per-daemon launch context (the daemon's environment + RM plumbing);
    a middleware daemon's ``rank`` is its personality handle."""

    sim: Simulator
    node: Node
    proc: SimProcess
    rank: int
    size: int
    fabric: ICCLFabric
    session_key: str
    #: front-end node (for the master's LMONP connection)
    fe_node: Node
    #: rendezvous store the master pushes its connection into
    fe_rendezvous: Store
    #: filled by a back end's handshake: this daemon's local task descriptors
    local_entries: list[ProcDesc] = field(default_factory=list)
    #: filled by the handshake: (hostname, pid) for every daemon, rank order
    daemon_table: list[tuple[str, int]] = field(default_factory=list)
    #: tool data the front end piggybacked on the handshake (decoded)
    usr_data_init: Any = None
    #: scratch area for tool state
    tool_state: dict = field(default_factory=dict)
    #: filled by a middleware handshake: the target job's full RPDTAB
    rpdtab: Optional[RPDTAB] = None

    @property
    def is_master(self) -> bool:
        """Rank 0 is LaunchMON's master daemon of its set."""
        return self.rank == 0
