"""Open|SpeedShop integration (Section 5.3).

O|SS is a parallel performance toolset built on DPCL's binary
instrumentation. Its original Instrumentor treated the RM process like any
instrumentation target -- parsing its binary *fully* before touching the
APAI -- and relied on preinstalled root daemons (a security liability) or
cumbersome manual launches.

The LaunchMON integration replaces the Instrumentor's acquisition path:
LaunchMON reads the RPDTAB directly from the launcher (designed exactly for
that), hands it to the DPCL startup routines, and lets the front end start
the daemons itself. Table 1's result: APAI access drops from ~34 s (DPCL,
flat in node count) to ~0.6 s (LaunchMON, also flat).
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.tools.oss.dpcl": ("DpclInfrastructure", "DpclError"),
    "repro.tools.oss.instrumentor": ("ApaiAccessResult", "DpclInstrumentor",
                                     "LaunchmonInstrumentor"),
})

__all__ = [
    "ApaiAccessResult",
    "DpclError",
    "DpclInfrastructure",
    "DpclInstrumentor",
    "LaunchmonInstrumentor",
]
