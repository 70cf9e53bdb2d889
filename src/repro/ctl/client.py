"""Client face of the control plane.

Mirrors how a tool CLI talks to a long-running launch daemon: commands
address the :class:`~repro.ctl.daemon.ControlPlane` supervisor, not a
daemon generation, so the client's tickets (``ctl_id``) stay valid
across restarts while :class:`~repro.fe.service.SessionHandle` objects
-- this generation's in-memory promises -- do not. A command that needs
a live daemon raises :class:`~repro.ctl.errors.CtlUnavailable` when
there is none; retrying after ``start`` is the client's job (the
harness's submitter does exactly that, like a CLI looping on
"connection refused" during a rolling upgrade).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.ctl.daemon import ControlPlane, CtlDaemon, CtlSession, DaemonState
from repro.ctl.errors import CtlError, CtlUnavailable
from repro.ctl.registry import LaunchSpec
from repro.simx import Interrupt

__all__ = ["CtlClient"]


class CtlClient:
    """Command surface over one :class:`ControlPlane`."""

    def __init__(self, control: ControlPlane):
        self.control = control

    # -- daemon lifecycle verbs ---------------------------------------------

    def start(self) -> dict:
        return self.control.cmd_start()

    def status(self) -> dict:
        return self.control.cmd_status()

    def reload(self, **cfg: Any) -> dict:
        return self.control.cmd_reload(**cfg)

    def stop(self, drain: bool = True):
        """Generator: stop the daemon (drains by default)."""
        result = yield from self.control.cmd_stop(drain=drain)
        return result

    # -- session verbs -------------------------------------------------------

    def _daemon(self, *states: DaemonState) -> CtlDaemon:
        daemon = self.control.daemon
        allowed = states or (DaemonState.RUNNING,)
        if daemon is None or daemon.state not in allowed:
            have = "down" if daemon is None else daemon.state.value
            raise CtlUnavailable(f"control plane is {have}; retry later")
        return daemon

    def launch(self, tool: str, n_nodes: int, **params: Any) -> int:
        """Submit a launch; returns its restart-stable ctl id."""
        spec = LaunchSpec(tool, n_nodes, tuple(sorted(params.items())))
        return self._daemon().submit(spec).ctl_id

    def session(self, ctl_id: int) -> CtlSession:
        daemon = self._daemon(DaemonState.RUNNING, DaemonState.DRAINING,
                              DaemonState.STOPPING, DaemonState.STOPPED)
        return daemon.get(ctl_id)

    def info(self, ctl_id: int) -> dict:
        cs = self.session(ctl_id)
        return {
            "ctl_id": cs.ctl_id,
            "tool": cs.spec.tool,
            "n_nodes": cs.spec.n_nodes,
            "state": cs.state_name,
            "adopted": cs.adopted,
            "resubmitted": cs.resubmitted,
            "submitted_at": cs.submitted_at,
        }

    def wait(self, ctl_id: int):
        """Generator: wait until the ticket's current operation settles;
        returns the session's state name (an adopted session is already
        settled)."""
        cs = self.session(ctl_id)
        if cs.handle is not None:
            yield from cs.handle.settle()
        return cs.state_name

    def cancel(self, ctl_id: int) -> bool:
        return self._daemon(DaemonState.RUNNING,
                            DaemonState.DRAINING).cancel(ctl_id)

    def open_stream(self, ctl_id: int, **kwargs: Any):
        """The data-plane face: open/reattach a persistent stream over
        the session's overlay (works on adopted sessions -- that is the
        point)."""
        cs = self.session(ctl_id)
        if cs.session is None:
            raise CtlError(f"ctl{ctl_id} has no bound session yet")
        return cs.session.open_stream(**kwargs)

    def end(self, ctl_id: int):
        """Generator: tear the session down and wait for the teardown.

        Cancellation of the teardown op surfaces as False; success as
        True (an adopted session's reap is synchronous)."""
        daemon = self._daemon(DaemonState.RUNNING, DaemonState.DRAINING)
        handle = daemon.end_session(ctl_id)
        if handle is None:
            return True
        yield from handle.settle()
        exc = handle.exception
        if exc is None:
            return True
        if isinstance(exc, Interrupt):
            return False
        raise exc
