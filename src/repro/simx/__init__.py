"""repro.simx -- a deterministic discrete-event simulation (DES) kernel.

This package is the temporal substrate for the whole reproduction: every
cluster node, resource-manager process, LaunchMON component and tool daemon
runs as a :class:`Process` (a Python generator) inside one :class:`Simulator`.
Yielding an :class:`Event` suspends the process until the event triggers;
virtual time advances only through :meth:`Simulator.timeout`.

The design follows the classic event-heap + generator-coroutine structure
(cf. SimPy), but is intentionally small, dependency-free and fully
deterministic: ties in the event heap are broken by insertion order and all
randomness is injected through explicitly seeded :class:`~repro.simx.rng.SeededRNG`
streams.

Public API
----------
Simulator, Event, Timeout, Process, Interrupt, AllOf, AnyOf
    Core event loop types (:mod:`repro.simx.core`).
Store, Channel
    Message-passing primitives (:mod:`repro.simx.channels`).
Resource
    Counted FIFO resource with request/release (:mod:`repro.simx.resources`).
SeededRNG
    Deterministic hierarchical random streams (:mod:`repro.simx.rng`).
AggregationPlan, AggregateSubtree
    Hybrid analytic/discrete aggregation plans (:mod:`repro.simx.aggregate`).
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.simx.aggregate": ("AggregateSubtree", "AggregationError",
                             "AggregationPlan"),
    "repro.simx.core": ("AllOf", "AnyOf", "Event", "Interrupt", "Process",
                        "SimStats", "SimulationError", "Simulator",
                        "Timeout", "run_bounded"),
    "repro.simx.channels": ("Channel", "Store"),
    "repro.simx.resources": ("Resource",),
    "repro.simx.rng": ("SeededRNG",),
})

__all__ = [
    "AggregateSubtree",
    "AggregationError",
    "AggregationPlan",
    "AllOf",
    "AnyOf",
    "Channel",
    "Event",
    "Interrupt",
    "Process",
    "Resource",
    "SeededRNG",
    "SimStats",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
    "run_bounded",
]
