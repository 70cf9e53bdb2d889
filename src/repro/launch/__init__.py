"""repro.launch -- the unified daemon-launch strategy layer.

One launch routine (:meth:`LaunchStrategy.launch`) behind every launch
path in the repo, with a pluggable spawn order (``serial-rsh``,
``tree-rsh``, ``rm-bulk``, looked up by :func:`get_strategy`) and a common
:class:`LaunchReport` carrying the per-phase timing breakdown (spawn /
image-stage / topo-dist / connect / handshake / repair) *and* per-index
failure attribution (outcomes / retries / blacklisted nodes).
:class:`LaunchPolicy` bundles the resilience knobs -- per-daemon timeout,
bounded retry with backoff, node blacklisting, min-daemon fraction --
that a :class:`LaunchRequest` carries to every spawn. See
:mod:`repro.launch.strategy` for the mechanism semantics,
:mod:`repro.cluster.cluster` for the image staging modes the strategies
drive (``shared-fs`` / ``cache`` / ``broadcast``), and
:mod:`repro.cluster.faults` for the faults the policy defends against.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.launch.report": ("LaunchReport", "PHASES"),
    "repro.launch.policy": ("LaunchPolicy",),
    "repro.launch.strategy": (
        "LaunchRequest", "LaunchResult", "LaunchStrategy", "LaunchTimeout",
        "RmBulkStrategy", "SPAWN_ERRORS", "SerialRshStrategy",
        "TreeRshStrategy", "get_strategy", "strategy_names"),
})

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
