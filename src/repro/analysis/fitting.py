"""Power-law complexity fitting: t(n) = c * n^k by log-log regression.

The scalability-fault literature's core move (ScalAna; *Understanding and
Detecting Scalability Faults*): measure a metric at a geometric ladder of
scales, fit the growth *exponent* rather than absolute values, and compare
exponents across versions. Exponents are what survive a machine change --
a 2x slower CI runner shifts every point by the same factor and leaves
``k`` untouched, while an O(N) -> O(N^2) regression shifts ``k`` by ~1.

This module is deliberately dumb: least squares on ``(log n, log t)``
pairs, non-positive values dropped (a phase that costs exactly zero at
some scale carries no growth information), at least two positive points
required. The line itself is the paper's affine fitter,
:func:`~repro.perfmodel.fit.fit_component_scaling`, run in log space:
the same least squares answers "what is the complexity class".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import math

from repro.perfmodel.fit import fit_component_scaling

__all__ = ["PowerFit", "fit_metric_exponents", "fit_power"]


@dataclass(frozen=True)
class PowerFit:
    """A least-squares power-law fit ``t = coeff * n**exponent``.

    ``r2`` is the coefficient of determination *in log space* (the space
    the fit ran in); ``n_points`` is how many positive samples survived
    filtering. A low ``r2`` means the metric does not follow a power law
    over the fitted ladder (e.g. a constant floor dominating the small
    scales) -- consumers should weigh the exponent accordingly.
    """

    coeff: float
    exponent: float
    r2: float
    n_points: int

    def predict(self, n: float) -> float:
        return self.coeff * n ** self.exponent

    def as_dict(self) -> dict:
        return {"coeff": self.coeff, "exponent": self.exponent,
                "r2": self.r2, "n_points": self.n_points}


def fit_power(ns: Sequence[float], ts: Sequence[float]) -> PowerFit:
    """Fit ``t(n) = c * n^k`` over the positive ``(n, t)`` pairs.

    Raises ``ValueError`` if fewer than two pairs have ``n > 0`` and
    ``t > 0`` -- one point determines no slope -- or if all their scales
    are identical.
    """
    if len(ns) != len(ts):
        raise ValueError("need (n, t) sequences of equal length")
    pairs = [(n, t) for n, t in zip(ns, ts) if n > 0 and t > 0]
    if len(pairs) < 2:
        raise ValueError(
            f"need >= 2 positive (n, t) pairs to fit an exponent, "
            f"got {len(pairs)}")
    line = fit_component_scaling([math.log(n) for n, _ in pairs],
                                 [math.log(t) for _, t in pairs])
    return PowerFit(coeff=math.exp(line.intercept), exponent=line.slope,
                    r2=line.r2, n_points=len(pairs))


def fit_metric_exponents(
        samples: Sequence[tuple[int, Mapping[str, float]]],
) -> dict[str, PowerFit]:
    """Fit one :class:`PowerFit` per metric across ladder samples.

    ``samples`` is ``[(scale, {metric: value, ...}), ...]`` as collected
    by :func:`repro.analysis.ladders.collect_samples`. Metrics without at
    least two positive points (phases that never ran, e.g. ``t_repair``
    on a fault-free ladder) are silently omitted -- absence from the
    returned dict is the "no growth information" signal.
    """
    names: list[str] = []
    for _, metrics in samples:
        for name in metrics:
            if name not in names:
                names.append(name)
    fits: dict[str, PowerFit] = {}
    for name in names:
        ns = [n for n, m in samples if name in m]
        ts = [m[name] for _, m in samples if name in m]
        try:
            fits[name] = fit_power(ns, ts)
        except ValueError:
            continue
    return fits
