"""Control-plane error hierarchy."""

from __future__ import annotations

__all__ = ["CtlError", "CtlUnavailable", "UnknownToolError"]


class CtlError(RuntimeError):
    """Base class for control-plane failures."""


class CtlUnavailable(CtlError):
    """The daemon is not in a state that accepts this command.

    Clients are expected to retry after the control plane comes back
    (see the session verbs of :class:`~repro.ctl.daemon.ControlPlane`
    and the harness's retrying submitter) -- during a restart or a drain
    this is the normal "connection refused" a real tool CLI would see.
    """


class UnknownToolError(CtlError, KeyError):
    """No tool recipe under the requested name (outside input: a
    client may ask for any name)."""

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message
        return RuntimeError.__str__(self)
