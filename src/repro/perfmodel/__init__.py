"""repro.perfmodel -- the analytic launchAndSpawn model (Section 4).

The paper models launchAndSpawn's critical path as eleven events e0..e11
grouped into an RM-dominant Region A (T(job), T(daemon), T(setup),
T(collective), plus LaunchMON's tracing cost), Region B (RPDTAB fetching,
linear in task count) and Region C (handshake processing, linear in daemon
count), plus scale-independent costs. :class:`LaunchModel` computes each
term in closed form from the same cost constants the simulation uses, so
experiments can overlay *modeled* and *measured* breakdowns exactly as
Figure 3 does. :mod:`repro.perfmodel.fit` fits empirical T(op) functions
from measurement sweeps (the paper's methodology: measure at small scale,
fit, predict upward). :class:`StreamModel` (:mod:`repro.perfmodel.stream`)
predicts a persistent stream's per-wave latency and throughput.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.perfmodel.model": ("LaunchModel", "ModelInputs"),
    "repro.perfmodel.stream": ("StreamModel",),
    "repro.perfmodel.fit": ("FittedLine", "fit_component_scaling"),
})

__all__ = ["FittedLine", "LaunchModel", "ModelInputs", "StreamModel",
           "fit_component_scaling"]
