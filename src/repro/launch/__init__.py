"""repro.launch -- the unified daemon-launch strategy layer.

One pluggable :class:`LaunchStrategy` interface (``serial-rsh``,
``tree-rsh``, ``rm-bulk``) behind every launch path in the repo, with a
common :class:`LaunchReport` carrying the per-phase timing breakdown
(spawn / image-stage / topo-dist / connect / handshake / repair) *and*
per-index failure attribution (outcomes / retries / blacklisted nodes). :class:`LaunchPolicy` bundles the resilience knobs
-- per-daemon timeout, bounded retry with backoff, node blacklisting,
min-daemon fraction -- that resource managers apply to every spawn. See
:mod:`repro.launch.strategy` for the mechanism semantics,
:mod:`repro.cluster.cluster` for the image staging modes the strategies
drive (``shared-fs`` / ``cache`` / ``broadcast``), and
:mod:`repro.cluster.faults` for the faults the policy defends against.
"""

from repro.launch.report import LaunchReport, PHASES
from repro.launch.policy import LaunchPolicy
from repro.launch.strategy import (
    LaunchRequest,
    LaunchResult,
    LaunchStrategy,
    LaunchTimeout,
    RmBulkStrategy,
    SPAWN_ERRORS,
    SerialRshStrategy,
    TreeRshStrategy,
    get_strategy,
    strategy_names,
)

__all__ = [
    "LaunchPolicy",
    "LaunchReport",
    "LaunchRequest",
    "LaunchResult",
    "LaunchStrategy",
    "LaunchTimeout",
    "PHASES",
    "RmBulkStrategy",
    "SPAWN_ERRORS",
    "SerialRshStrategy",
    "TreeRshStrategy",
    "get_strategy",
    "strategy_names",
]
