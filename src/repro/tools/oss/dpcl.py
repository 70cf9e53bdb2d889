"""A DPCL-style dynamic instrumentation substrate.

DPCL (the Dynamic Probe Class Library) provides binary instrumentation
through per-node daemons. Two properties matter for the paper's argument:

* **Persistent root daemons.** The classic deployment keeps a super daemon
  running as root on every node so tools can connect on demand -- hard to
  deploy/maintain and a standing security risk (Section 2). The
  infrastructure model enforces this: connecting requires the daemon to be
  preinstalled, and `root` ownership is explicit.
* **Full binary parsing.** DPCL prepares any target process by parsing its
  executable completely (symbols, CUs, line info) before operations -- the
  right price for *instrumentation*, but pure overhead when the target is
  the RM launcher and the tool only wants the proctable. This cost is the
  ~34 s constant of Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro.cluster import Cluster, Node, SimProcess

__all__ = ["DpclError", "DpclInfrastructure", "BINARY_PARSE_RATE_MB_S"]

#: full-parse throughput: symbols + debug info, MB of binary per second.
#: srun-with-libraries is ~120 MB of mapped text/debug info => ~33.5 s.
BINARY_PARSE_RATE_MB_S = 3.6

#: the RM launcher binary + its libraries, as seen by a full parse (MB)
RM_BINARY_PARSE_MB = 120.5


class DpclError(RuntimeError):
    """DPCL deployment/connection failures."""


@dataclass
class _SuperDaemon:
    proc: SimProcess
    node: Node


class DpclInfrastructure:
    """Cluster-wide DPCL deployment: root super daemons + tool connections."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.sim = cluster.sim
        self._daemons: dict[str, _SuperDaemon] = {}

    # -- deployment --------------------------------------------------------
    def preinstall(self, nodes: Optional[list[Node]] = None,
                   ) -> Generator[Any, Any, None]:
        """Install the persistent root super daemons (admin action).

        This is the deployment burden the paper calls infeasible in
        production/security-sensitive environments: a root process on every
        node, running across all tool sessions.
        """
        targets = nodes if nodes is not None else self.cluster.nodes
        for node in targets:
            if node.name in self._daemons:
                continue
            proc = yield from node.fork_exec("dpcld", uid="root",
                                             image_mb=6.0)
            self._daemons[node.name] = _SuperDaemon(proc, node)

    def is_root_daemon(self, node: Node) -> bool:
        d = self._daemons.get(node.name)
        return d is not None and d.proc.uid == "root"

    # -- tool connection ---------------------------------------------------------
    def connect(self, node: Node) -> Generator[Any, Any, SimProcess]:
        """Connect a tool to the node's super daemon (must be preinstalled)."""
        d = self._daemons.get(node.name)
        if d is None or not d.proc.alive:
            raise DpclError(
                f"no DPCL super daemon on {node.name}; persistent root "
                f"daemons must be preinstalled by an administrator")
        yield self.sim.timeout(self.cluster.costs.tcp_connect)
        return d.proc

    # -- target preparation ---------------------------------------------------------
    def prepare_process(self, target: SimProcess,
                        parse_mb: Optional[float] = None,
                        ) -> Generator[Any, Any, float]:
        """Fully parse the target's binary (DPCL's standard preparation).

        Returns the parse time spent. ``parse_mb`` defaults to the target's
        image plus the standard library set; for the RM launcher use
        :data:`RM_BINARY_PARSE_MB`.
        """
        mb = parse_mb if parse_mb is not None else (target.image_mb + 40.0)
        cost = mb / BINARY_PARSE_RATE_MB_S
        yield self.sim.timeout(
            self.cluster.rng.child("dpcl").jitter(cost, 0.01))
        return cost
