"""repro.apps -- parallel application models that tools operate on.

An :class:`AppSpec` describes an MPI program abstractly (executable name,
task count, per-rank behaviour); the resource manager instantiates it as
real :class:`~repro.cluster.process.SimProcess` tasks at launch. Behaviours
give each rank a call stack, /proc statistics and a state so that Jobsnap
and STAT have realistic distributed state to collect.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.apps.spec": ("AppSpec", "RankBehavior", "uniform_behavior"),
    "repro.apps.scenarios": ("make_compute_app", "make_hang_app",
                             "make_io_heavy_app"),
})

__all__ = [
    "AppSpec",
    "RankBehavior",
    "make_compute_app",
    "make_hang_app",
    "make_io_heavy_app",
    "uniform_behavior",
]
