"""repro: a reproduction of LaunchMON -- scalable tool daemon launching.

This library reimplements the system from *"Overcoming Scalability
Challenges for Tool Daemon Launching"* (Ahn, Arnold, de Supinski, Lee,
Miller, Schulz -- ICPP 2008): the LaunchMON infrastructure (engine,
front-end/back-end/middleware APIs, the LMONP protocol, ICCL collectives),
the substrates it runs on (a deterministic discrete-event cluster, SLURM /
BG-L / rsh-only resource managers with an MPIR/APAI debug interface, a
tree-based overlay network), the three case-study tools (Jobsnap, STAT,
Open|SpeedShop), the ad-hoc launching baselines, and the Section 4
performance model -- plus experiment runners regenerating Figure 3,
Figure 5, Figure 6 and Table 1, and a multi-tenant scaling study
(``repro.experiments.multitenant``) built on the non-blocking
:class:`ToolService` / :class:`SessionHandle` API.

Every launch path routes through the unified strategy layer
(:mod:`repro.launch`: ``serial-rsh`` / ``tree-rsh`` / ``rm-bulk``, each
producing a per-phase :class:`LaunchReport`), and daemon images reach the
nodes through the storage layer's staging modes
(:class:`ClusterSpec.staging_mode`: ``shared-fs`` / ``cache`` /
``broadcast`` -- see ``repro.experiments.launchmatrix`` for the sweep).
Faults are first-class: a :class:`FaultPlan` on the cluster spec injects
node crashes, stragglers, link flaps and FS stalls, and a
:class:`LaunchPolicy` on the resource manager (timeout / retry /
blacklist / min-daemon fraction) launches through them -- sessions land
``DEGRADED`` instead of dead, the TBON self-repairs, and
``repro.experiments.resilience`` sweeps the whole regime (``docs/`` has
the guided tour).

Quick start (blocking, single tool)::

    from repro import make_env, drive, ToolFrontEnd
    from repro.apps import make_compute_app

    env = make_env(n_compute=16)
    ...  # see examples/quickstart.py

Quick start (non-blocking, many tools)::

    from repro import make_service_env, drive

    env = make_service_env(n_compute=64, max_in_flight=8)
    ...  # see examples/multitenant_demo.py

See README.md for a tour of both APIs; ROADMAP.md tracks where this
reproduction is headed and PAPER.md holds the source paper's abstract.
"""

import sys


def _import(module):
    """Import *module* by its absolute name and return it; unlike
    ``importlib.import_module``, ``python -X importtime`` records it."""
    __import__(module)
    return sys.modules[module]


def _lazy_exports(namespace, table):
    """Build a package's PEP 562 ``__getattr__`` and ``__dir__``.

    *table* maps each defining module to the public names it provides;
    a name listed under the package itself is one of its submodules.
    Nothing is imported until a name is first read, and a resolved name
    is cached in *namespace* (the package's ``globals()``). ``__dir__``
    lists the unresolved names too, so ``help()`` still documents them.
    ``__getattr__.exports`` maps each name to its defining module.
    """
    package = namespace["__name__"]
    exports = {name: module for module, names in table.items()
               for name in names}

    def __getattr__(name):
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        if module == package:
            value = _import(f"{package}.{name}")
        else:
            value = getattr(_import(module), name)
        namespace[name] = value
        return value

    def __dir__():
        return set(namespace) | set(exports)

    __getattr__.exports = exports
    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.runner": ("ServiceEnv", "SimEnv", "drive", "drive_many",
                     "make_env", "make_service_env"),
    "repro.fe": ("LMONSession", "SessionHandle", "SessionState",
                 "ToolFrontEnd", "ToolService"),
    "repro.be": ("BackEnd", "BEContext"),
    "repro.mw": ("Middleware", "MWContext"),
    "repro.rm": ("AllocationError", "BglMpirunRM", "DaemonSpec",
                 "ResourceManager", "RshRM", "SlurmConfig", "SlurmRM"),
    "repro.cluster": ("Cluster", "ClusterSpec", "CostModel", "FaultPlan"),
    "repro.launch": ("LaunchPolicy", "LaunchReport", "LaunchRequest",
                     "LaunchStrategy", "get_strategy"),
    "repro.apps": ("AppSpec", "make_compute_app", "make_hang_app",
                   "make_io_heavy_app"),
})

__version__ = "1.1.0"

__all__ = [
    "AllocationError",
    "AppSpec",
    "BEContext",
    "BackEnd",
    "BglMpirunRM",
    "Cluster",
    "ClusterSpec",
    "CostModel",
    "DaemonSpec",
    "FaultPlan",
    "LMONSession",
    "LaunchPolicy",
    "LaunchReport",
    "LaunchRequest",
    "LaunchStrategy",
    "MWContext",
    "Middleware",
    "ResourceManager",
    "RshRM",
    "ServiceEnv",
    "SessionHandle",
    "SessionState",
    "SimEnv",
    "SlurmConfig",
    "SlurmRM",
    "ToolFrontEnd",
    "ToolService",
    "drive",
    "drive_many",
    "get_strategy",
    "make_env",
    "make_service_env",
    "make_compute_app",
    "make_hang_app",
    "make_io_heavy_app",
    "__version__",
]
