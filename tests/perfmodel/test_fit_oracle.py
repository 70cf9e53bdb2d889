"""The closed-form least-squares line against exact rational arithmetic.

``fit_component_scaling`` is the repo's one least-squares fit:
``fit_power`` runs it on ``(log n, log t)``. The oracle solves the normal
equations over ``fractions.Fraction`` (every float converts exactly), so
the only error left is the float implementation's rounding.
"""

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.fitting import PowerFit, fit_power
from repro.perfmodel import fit_component_scaling

#: daemon counts and virtual seconds at millisecond resolution: the
#: magnitudes the figures fit (fig6 fits up to 256 daemons and ~61 s)
scales = st.integers(min_value=1, max_value=65536)
seconds = st.integers(min_value=0, max_value=100_000).map(
    lambda ms: ms / 1000)
pairs = st.lists(st.tuples(scales, seconds), min_size=2, max_size=12)

REL = 1e-9


def exact_fit(ns, ts):
    """(intercept, slope, r2) from the normal equations, exactly."""
    xs = [Fraction(n) for n in ns]
    ys = [Fraction(t) for t in ts]
    k = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    slope = (k * sxy - sx * sy) / (k * sxx - sx * sx)
    intercept = (sy - slope * sx) / k
    ss_res = sum((y - intercept - slope * x) ** 2 for x, y in zip(xs, ys))
    mean_y = sy / k
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    r2 = 1 - ss_res / ss_tot if ss_tot else Fraction(1)
    return intercept, slope, r2


def close(got, want, scale):
    """Within ``REL`` of ``want``, or of the data's own ``scale`` when
    ``want`` is (near) zero and a relative error has no meaning."""
    return math.isclose(got, want, rel_tol=REL, abs_tol=REL * scale)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(pairs)
def test_fit_matches_exact_normal_equations(points):
    ns = [n for n, _ in points]
    ts = [t for _, t in points]
    if len(set(ns)) == 1:
        with pytest.raises(ValueError, match="identical"):
            fit_component_scaling(ns, ts)
        return
    line = fit_component_scaling(ns, ts)
    intercept, slope, r2 = exact_fit(ns, ts)
    t_mag = max(ts) or 1.0
    n_range = max(ns) - min(ns)
    slope_scale = t_mag / n_range
    assert close(line.slope, float(slope), slope_scale)
    assert close(line.intercept, float(intercept),
                 t_mag + slope_scale * max(ns))
    assert close(line.r2, float(r2), 1.0)


def test_equal_scales_raise_instead_of_a_minimum_norm_line():
    with pytest.raises(ValueError, match="identical"):
        fit_component_scaling([64, 64, 64], [1.0, 2.0, 3.0])


def test_constant_series_fits_exactly():
    # sum([0.003] * 3) / 3 rounds above 0.003, so ss_tot is not 0
    line = fit_component_scaling([1, 1, 2], [0.003] * 3)
    assert line.r2 == 1.0
    assert line.slope == pytest.approx(0.0, abs=1e-15)
    assert line.intercept == pytest.approx(0.003, rel=1e-12)


def parent_fit_power(ns, ts):
    """``fit_power`` as it was before it shared the affine fitter: the
    reference that keeps the scalecheck exponent baselines in place."""
    pairs = [(n, t) for n, t in zip(ns, ts) if n > 0 and t > 0]
    xs = [math.log(n) for n, _ in pairs]
    ys = [math.log(t) for _, t in pairs]
    k = len(pairs)
    mean_x = sum(xs) / k
    mean_y = sum(ys) / k
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (intercept + slope * x)) ** 2
                 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return PowerFit(coeff=math.exp(intercept), exponent=slope, r2=r2,
                    n_points=k)


positive = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([2 ** i for i in range(4, 21)]),
                          positive),
                min_size=2, max_size=8, unique_by=lambda p: p[0]))
def test_fit_power_is_bit_identical_to_its_inline_form(points):
    ns = [n for n, _ in points]
    ts = [t for _, t in points]
    want = parent_fit_power(ns, ts)
    if len({math.log(t) for t in ts}) == 1:
        # a constant series fits exactly; the inline form's r2 was
        # 1 - noise/noise whenever the mean of the logs rounded
        want = dataclasses.replace(want, r2=1.0)
    assert fit_power(ns, ts) == want
