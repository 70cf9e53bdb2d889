"""Launch specs and the tool recipes.

The control plane cannot checkpoint a Python callable. What it *can*
checkpoint is a :class:`LaunchSpec`: a recipe name plus jsonable
parameters. :data:`RECIPES` maps the name back to an operation factory,
so a restarted daemon can resubmit a launch that had not produced a
daemon tree yet from its checkpoint record alone.

A recipe factory takes the spec and returns an op generator function
``op(fe, session)`` suitable for
:meth:`~repro.fe.service.ToolService.submit_op`. There are two recipes:

``generic-be``
    ``launch_and_spawn`` with a *parked* daemon body: daemons signal
    ready and then sit on their process's ``exit_event``. The tree
    therefore stays alive until explicitly torn down -- which is what
    makes control-plane re-adoption observable (an eagerly-exiting body
    would leave nothing to adopt).

``overlay``
    The full TBON path: allocate, launch the job, run
    :func:`~repro.tbon.launchmon_startup`, then park. Daemons publish a
    few waves into a persistent stream before parking, so a restarted
    daemon can subscribe to the *same* stream over the adopted overlay
    and prove data-plane continuity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

from repro.apps.scenarios import make_compute_app
from repro.be import BackEnd
from repro.fe.session import SessionState
from repro.rm.base import DaemonSpec
from repro.tbon.overlay import StreamSpec
from repro.tbon.startup import launchmon_startup

__all__ = ["CTL_STREAM_ID", "LaunchSpec", "RECIPES"]

#: persistent stream id the ``overlay`` recipe publishes into (distinct
#: from the overlay's one-shot wave stream id 1)
CTL_STREAM_ID = 7


@dataclass(frozen=True)
class LaunchSpec:
    """A checkpointable launch request: recipe name + jsonable params."""

    tool: str
    n_nodes: int
    #: extra recipe parameters as sorted ``(key, scalar)`` pairs
    params: Tuple[Tuple[str, Any], ...] = ()

    def param(self, key: str, default: Any = None) -> Any:
        for k, v in self.params:
            if k == key:
                return v
        return default


def _parked_daemon(ctx):
    """BE body that stays resident: init, ready, then wait to be exited.

    The ``exit_event`` wait is what a real tool daemon's service loop
    is to the simulation: the process holds its node slot until the RM
    epilogue (or a graceful teardown) ends it.
    """
    be = BackEnd(ctx)
    yield from be.init()
    yield from be.ready()
    yield ctx.proc.exit_event


def _generic_be(spec: LaunchSpec):
    tasks_per_node = int(spec.param("tasks_per_node", 2))
    image_mb = float(spec.param("image_mb", 2.0))

    def op(fe, session):
        app = make_compute_app(n_tasks=spec.n_nodes * tasks_per_node,
                               tasks_per_node=tasks_per_node)
        dspec = DaemonSpec("ctl_be", main=_parked_daemon, image_mb=image_mb)
        yield from fe.launch_and_spawn(session, app, dspec)

    return op


def _make_stream_body(n_waves: int):
    """Overlay daemon body: publish ``n_waves`` into the shared persistent
    stream, then park (see :func:`_parked_daemon`)."""
    def body(be, ctx, endpoint):
        stream = endpoint.overlay.open_stream(
            StreamSpec(CTL_STREAM_ID, "concat"))
        pos = endpoint.position
        for wave in range(n_waves):
            yield from stream.publish(pos, wave, [[pos, wave]])
        yield ctx.proc.exit_event
    return body


def _overlay_tool(spec: LaunchSpec):
    tasks_per_node = int(spec.param("tasks_per_node", 2))
    image_mb = float(spec.param("image_mb", 4.0))
    n_waves = int(spec.param("waves", 2))

    def op(fe, session):
        app = make_compute_app(n_tasks=spec.n_nodes * tasks_per_node,
                               tasks_per_node=tasks_per_node)
        try:
            # mirror launch_and_spawn's observable queueing: the session
            # is QUEUED while it waits in the RM's FIFO line
            session.state = SessionState.QUEUED
            alloc = yield from fe.rm.allocate_async(app.nodes_needed())
            session.owned_allocs.append(alloc)
            job = yield from fe.rm.launch_job(app, alloc)
            # attachAndSpawn requires a CREATED session
            session.state = SessionState.CREATED
            yield from launchmon_startup(
                fe, session, job, daemon_executable="ctl_overlay_be",
                image_mb=image_mb,
                daemon_body=_make_stream_body(n_waves))
        except BaseException:
            # failures before/inside the attach must not strand the
            # allocation this op obtained itself (attach's own failure
            # path already reclaimed; reclaim is idempotent)
            fe.reclaim(session)
            if session.state not in (SessionState.FAILED,
                                     SessionState.KILLED):
                session.state = SessionState.FAILED
            raise

    return op


#: recipe name -> ``factory(spec) -> op(fe, session)``
RECIPES: Dict[str, Callable[[LaunchSpec], Callable]] = {
    "generic-be": _generic_be,
    "overlay": _overlay_tool,
}
