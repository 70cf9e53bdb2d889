"""repro.tools.monitor -- a continuous cluster-sampling tool.

The first *sustained-traffic* workload on the stack: where STAT takes one
snapshot wave and Jobsnap one /proc sweep, the monitor daemons sample
their local tasks on a fixed cadence and publish every sample as a wave
on a persistent, credit-flow-controlled TBON stream
(:meth:`~repro.fe.session.LMONSession.open_stream`). The front end
subscribes and receives one merged, filtered wave per sampling period --
running histograms, exact top-k, EWMA rates or call-graph unions,
depending on the stream's filter.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.tools.monitor.tool": ("MONITOR_IMAGE_MB", "MonitorResult",
                                 "run_monitor", "sample_payload"),
})

__all__ = ["MONITOR_IMAGE_MB", "MonitorResult", "run_monitor",
           "sample_payload"]
