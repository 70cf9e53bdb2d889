"""Empirical T(op) fitting (the paper's measure-small, predict-large method).

:func:`fit_component_scaling` is the repo's one least-squares line, a
closed form over centred sums in plain Python.
:func:`repro.analysis.fitting.fit_power` runs it on ``(log n, log t)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = ["FittedLine", "fit_component_scaling"]


@dataclass(frozen=True)
class FittedLine:
    """A least-squares affine fit t = intercept + slope * n."""

    intercept: float
    slope: float
    r2: float

    def predict(self, n: float) -> float:
        return self.intercept + self.slope * n

    @property
    def is_scale_independent(self) -> bool:
        """True when the slope is negligible relative to the intercept."""
        if self.intercept <= 0:
            return abs(self.slope) < 1e-9
        return abs(self.slope) * 1000 < self.intercept


def fit_component_scaling(ns: Sequence[float], ts: Sequence[float],
                          ) -> FittedLine:
    """Fit t(n) = a + b*n by least squares; returns the line with R^2.

    Raises ``ValueError`` for fewer than two pairs, for sequences of
    unequal length, and when every ``n`` is the same (no slope fits).
    """
    if len(ns) != len(ts) or len(ns) < 2:
        raise ValueError("need >= 2 (n, t) pairs of equal length")
    if min(ns) == max(ns):
        raise ValueError("all scales identical; the slope is undefined")
    k = len(ns)
    mean_x = sum(ns) / k
    mean_y = sum(ts) / k
    sxx = sum((x - mean_x) ** 2 for x in ns)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(ns, ts))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (intercept + slope * x)) ** 2 for x, y in zip(ns, ts))
    ss_tot = sum((y - mean_y) ** 2 for y in ts)
    # equal ts fit exactly, though a rounded mean_y can leave ss_tot > 0
    exact = ss_tot == 0 or min(ts) == max(ts)
    r2 = 1.0 if exact else 1.0 - ss_res / ss_tot
    return FittedLine(intercept=intercept, slope=slope, r2=r2)
