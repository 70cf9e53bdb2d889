"""repro.mw -- the LaunchMON middleware API (Section 3.4).

Middleware daemons (TBON communication processes) launch onto dedicated
allocations. Each simultaneously launched daemon receives a unique
*personality handle* (an MPI-rank-like id), a simple pre-wired fabric for
collective/point-to-point exchange, and the RPDTAB -- enough for a TBON
implementation (e.g. MRNet) to bootstrap its own network, with tool data
piggybacked on the front end's handshake exchanges.

:class:`Middleware` is the back ends' daemon runtime over the ``FE_MW``
message class, and ``MWContext`` is :class:`~repro.be.BEContext`.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.mw.runtime": ("MWContext", "Middleware"),
})

__all__ = ["MWContext", "Middleware"]
