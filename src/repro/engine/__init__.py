"""repro.engine -- the LaunchMON Engine (Section 3.1).

The Engine is the component that talks to the resource manager: it traces
the RM launcher process like a debugger, watches for the job to reach a
tool-ready state (``MPIR_Breakpoint``), fetches the RPDTAB out of the
launcher's address space, and invokes the RM's efficient daemon-launch
command. It acts as a proxy between the front end (which generally cannot
co-locate with the RM process) and the RM itself, speaking LMONP upstream.

:class:`LaunchMONEngine` (the Driver) runs the launch/attach/spawn
choreography. In launch mode it is one trace loop over the launcher's
debug events, charging a fixed handling cost per event; it records its
share of the Figure 2 critical-path timeline (:class:`LaunchTimeline`)
and the per-component times of the Section 4 model
(:class:`ComponentTimes`).
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.engine.timeline": ("ComponentTimes", "LaunchTimeline"),
    "repro.engine.driver": ("EngineError", "LaunchMONEngine"),
})

__all__ = [
    "ComponentTimes",
    "EngineError",
    "LaunchMONEngine",
    "LaunchTimeline",
]
