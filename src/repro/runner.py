"""Convenience harness: build a simulated environment and drive tool code.

Typical use (this is what the examples do)::

    from repro.runner import make_env, drive

    env = make_env(n_compute=64)

    def tool(env):
        fe = ToolFrontEnd(env.cluster, env.rm, "mytool")
        yield from fe.init()
        ...

    drive(env, tool(env))

Multi-tenant use builds a :class:`ServiceEnv` instead, submits operations
to its :class:`~repro.fe.service.ToolService`, and drives the service's
``drain()`` (or any mix of driver generators via :func:`drive_many`)::

    env = make_service_env(n_compute=64, max_in_flight=8)
    handles = [env.service.submit_launch(app, spec, tool_name=f"u{i}")
               for i in range(16)]
    drive(env, env.service.drain())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional, Sequence, Type, TYPE_CHECKING

from repro.cluster import Cluster, ClusterSpec, CostModel
from repro.rm import ResourceManager, SlurmRM
from repro.simx import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.fe.service import ToolService

__all__ = ["ServiceEnv", "SimEnv", "drive", "drive_many", "make_env",
           "make_service_env"]


@dataclass
class SimEnv:
    """One simulated machine plus its resource manager."""

    sim: Simulator
    cluster: Cluster
    rm: ResourceManager


@dataclass
class ServiceEnv(SimEnv):
    """A :class:`SimEnv` plus a multi-tenant tool service on top of it."""

    service: ToolService


def make_env(n_compute: int = 16,
             rm_cls: Type[ResourceManager] = SlurmRM,
             spec: Optional[ClusterSpec] = None,
             costs: Optional[CostModel] = None,
             seed: int = 1,
             **rm_kwargs: Any) -> SimEnv:
    """Build a simulator, cluster and RM ready for tool runs."""
    sim = Simulator()
    cluster_spec = spec or ClusterSpec(n_compute=n_compute, seed=seed)
    cluster = Cluster(sim, cluster_spec, costs=costs)
    rm = rm_cls(cluster, **rm_kwargs)
    return SimEnv(sim=sim, cluster=cluster, rm=rm)


def make_service_env(n_compute: int = 16,
                     max_in_flight: Optional[int] = None,
                     rm_cls: Type[ResourceManager] = SlurmRM,
                     spec: Optional[ClusterSpec] = None,
                     costs: Optional[CostModel] = None,
                     seed: int = 1,
                     **rm_kwargs: Any) -> ServiceEnv:
    """Build a simulated machine with a :class:`ToolService` front door.

    ``max_in_flight`` is the service's admission cap (None = admit all;
    the RM's FIFO node queue still applies either way).
    """
    from repro.fe.service import ToolService

    env = make_env(n_compute=n_compute, rm_cls=rm_cls, spec=spec,
                   costs=costs, seed=seed, **rm_kwargs)
    service = ToolService(env.cluster, env.rm, max_in_flight=max_in_flight)
    return ServiceEnv(sim=env.sim, cluster=env.cluster, rm=env.rm,
                      service=service)


def _stall_hint(env: SimEnv) -> str:
    """Diagnose why a driver may not have finished (starvation)."""
    hints = []
    queued = getattr(env.rm, "queued_requests", 0)
    if queued:
        hints.append(
            f"{queued} allocation request(s) still queued on "
            f"{env.rm.name} -- node starvation: a session is waiting for "
            f"nodes that no running session will release (cancel its "
            f"handle, detach with reclaim_job=True, kill a live session, "
            f"or request fewer nodes)")
    service = getattr(env, "service", None)
    pending = getattr(service, "pending_admissions", 0)
    if pending:
        hints.append(
            f"{pending} operation(s) still queued at the "
            f"ToolService admission gate "
            f"(max_in_flight={service.max_in_flight})")
    return "".join("; " + h for h in hints)


def drive(env: SimEnv, gen: Generator, until: Optional[float] = None) -> Any:
    """Run a tool-driver generator to completion; return its value.

    Raises whatever the generator raised (failures do not pass silently).
    """
    proc = env.sim.process(gen, name="tool-driver")
    env.sim.run(until=until)
    if not proc.triggered:
        # the driver is being abandoned: defuse it so that if a later
        # recovery action (e.g. cancelling a stuck handle) completes it
        # with a failure, that stale failure cannot detonate inside an
        # unrelated sim.run()
        proc.defuse()
        raise RuntimeError(
            f"tool driver did not finish by t={env.sim.now}"
            + _stall_hint(env))
    return proc.value


def drive_many(env: SimEnv, gens: Sequence[Generator],
               until: Optional[float] = None) -> list[Any]:
    """Run several tool-driver generators concurrently; return their values
    in submission order.

    Each generator becomes an independent simulation process, so their
    operations interleave on the shared cluster -- this is the blocking
    API's route to multi-tenancy (the non-blocking route is
    :class:`~repro.fe.service.ToolService`). A failing driver raises out of
    the run (failures do not pass silently); an unfinished driver
    (deadlock, ``until`` too small) raises ``RuntimeError``.
    """
    procs = [env.sim.process(gen, name=f"tool-driver-{i}")
             for i, gen in enumerate(gens)]
    env.sim.run(until=until)
    stuck = [i for i, proc in enumerate(procs) if not proc.triggered]
    if stuck:
        for i in stuck:
            procs[i].defuse()  # abandoned; see drive()
        raise RuntimeError(
            f"tool driver(s) {stuck} did not finish by t={env.sim.now}"
            + _stall_hint(env))
    return [proc.value for proc in procs]
