"""Hypothesis property tests for the fleet's placement rule.

:func:`~repro.fleet.least_loaded` is called directly over drawn gossiped
views: it never picks a shunned (saturated or DEGRADED) member while an
unshunned one is routable, never picks a DOWN or excluded member, and is
a pure function of (view, exclusions).

All tests run derandomized: placement must be a pure function of its
inputs, so its property tests may as well be pure functions of the
source tree.
"""

from hypothesis import given, settings, strategies as st

from repro.fleet import ClusterHealth, ClusterState, FleetView, least_loaded


def _record(i, state, n_free, queued=0, in_flight=0):
    return ClusterHealth(cluster=f"c{i}", state=state, version=1,
                         n_free=n_free, n_total=8, in_flight=in_flight,
                         queued=queued)


@st.composite
def fleet_views(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    records = []
    for i in range(n):
        state = draw(st.sampled_from(list(ClusterState)))
        n_free = draw(st.integers(min_value=0, max_value=8))
        queued = draw(st.integers(min_value=0, max_value=3))
        in_flight = draw(st.integers(min_value=0, max_value=5))
        records.append(_record(i, state, n_free, queued, in_flight))
    return FleetView(records)


class TestPolicyProperties:
    @settings(derandomize=True, max_examples=100)
    @given(view=fleet_views())
    def test_least_loaded_never_saturated_while_alternative_exists(
            self, view):
        choice = least_loaded(view)
        routable = view.routable()
        if not routable:
            assert choice is None
            return
        chosen = view.health(choice)
        if any(not r.shunned for r in routable):
            assert not chosen.shunned

    @settings(derandomize=True, max_examples=100)
    @given(view=fleet_views(),
           excluded=st.sets(st.integers(min_value=0, max_value=9),
                            max_size=10))
    def test_every_policy_is_deterministic_and_routable_only(
            self, view, excluded):
        """The one rule, least-loaded, is a pure function of (view,
        exclusions) and lands only on a routable, unexcluded member."""
        exclude = {f"c{i}" for i in excluded}
        first = least_loaded(view, exclude)
        assert first == least_loaded(view, set(exclude))
        candidates = [r for r in view.routable()
                      if r.cluster not in exclude]
        if first is None:
            assert not candidates
        else:
            assert first not in exclude
            assert view.health(first).routable
