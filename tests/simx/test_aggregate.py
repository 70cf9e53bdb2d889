"""The hybrid tier's contract: aggregation plans and hybrid-vs-full parity.

Three layers of guarantee, cheapest first:

* **plan algebra** -- :class:`AggregationPlan` partitions the leaf space,
  respects group alignment, keeps ragged tails exact, and its exact
  region, grown by ``with_special``, always contains every special position
  (property-tested over random fault/tap placements); its interval
  build and validator agree field for field and message for message
  with the per-group build and set-based check kept here as oracles,
  and a 2**40-leaf plan costs O(exact + spans), not O(leaves);
* **topology construction** -- hybrid trees preserve the virtual leaf and
  daemon counts of the full trees they stand in for;
* **end-to-end parity** -- a hybrid fig6 launch matches the full
  simulation's virtual total within the model's error band with exact
  class counts, a hybrid stream delivers bit-identical wave payloads and
  final state, and the non-hybrid paths stay bit-identical run to run
  (the hybrid machinery must be invisible when off).
"""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.simx import AggregateSubtree, AggregationError, AggregationPlan
from repro.tbon import TBONTopology


# Plan queries no production path needs: the tests' own views of a plan.

def covers(sub, leaf):
    return sub.leaf_lo <= leaf < sub.leaf_hi


def n_aggregated(plan):
    return plan.n_total - plan.n_exact


def subtree_of(plan, leaf):
    return next((sub for sub in plan.subtrees if covers(sub, leaf)), None)


def is_exact(plan, leaf):
    return subtree_of(plan, leaf) is None


def per_group_build(n_total, exact_head=0, special=(), group=1):
    """Reference for :meth:`AggregationPlan.build`: the per-group walk
    over every group of the leaf space. Returns the plan's fields."""
    specials = frozenset(special)
    head = min(n_total, exact_head)
    if head % group:
        head += group - head % group
    n_groups = n_total // group
    exact_groups = set(range(head // group))
    for leaf in specials:
        exact_groups.add(leaf // group)
    exact_leaves = []
    subtrees = []
    run_start = None
    for g in range(n_groups + 1):
        aggregated = g < n_groups and g not in exact_groups
        if aggregated:
            if run_start is None:
                run_start = g
            continue
        if run_start is not None:
            subtrees.append(AggregateSubtree(
                len(subtrees), run_start * group, g * group,
                n_contrib=g - run_start))
            run_start = None
        if g < n_groups:
            exact_leaves.extend(range(g * group, (g + 1) * group))
    exact_leaves.extend(range(n_groups * group, n_total))
    return dict(n_total=n_total, group=group, exact_head=head,
                special=specials, exact=tuple(exact_leaves),
                subtrees=tuple(subtrees))


def set_partition_verdict(n_total, group, special, exact, subtrees):
    """Reference for the span and partition checks of
    ``AggregationPlan.__post_init__``: materializes every covered leaf.
    Returns the error message, or None for a valid plan."""
    covered = []
    for sub in subtrees:
        if sub.leaf_lo % group or sub.leaf_hi % group:
            return (f"subtree [{sub.leaf_lo},{sub.leaf_hi}) not aligned "
                    f"to group {group}")
        if not 0 <= sub.leaf_lo < sub.leaf_hi <= n_total:
            return f"subtree [{sub.leaf_lo},{sub.leaf_hi}) outside leaf space"
        covered.extend(range(sub.leaf_lo, sub.leaf_hi))
    both = set(exact) & set(covered)
    if both:
        return f"leaves both exact and aggregated: {sorted(both)[:4]}"
    seen = set(exact) | set(covered)
    if (len(exact) + len(covered) != n_total
            or seen != set(range(n_total))):
        return "exact leaves + subtrees must partition the leaf space"
    missing = set(special) - set(exact)
    if missing:
        return f"special leaves outside the exact region: {sorted(missing)[:4]}"
    return None


@st.composite
def plan_inputs(draw):
    group = draw(st.sampled_from((1, 2, 3, 4, 8)))
    n_total = draw(st.integers(min_value=1, max_value=256))
    exact_head = draw(st.integers(min_value=0, max_value=n_total + group))
    special = draw(st.lists(st.integers(min_value=0, max_value=n_total - 1),
                            max_size=5))
    return n_total, exact_head, special, group


PERTURBATIONS = ("drop-exact", "add-exact", "dup-exact", "exact-out-of-range",
                 "shift-span", "dup-span", "drop-span", "overlap-span",
                 "engulf-span", "split-span", "special-outside")


class TestPlanBuild:
    def test_partition_and_head_rounding(self):
        plan = AggregationPlan.build(64, exact_head=5, group=4)
        # head rounds up to a group boundary
        assert plan.exact_head == 8
        assert set(plan.exact) == set(range(8))
        assert plan.n_exact + n_aggregated(plan) == 64
        [sub] = plan.subtrees
        assert (sub.leaf_lo, sub.leaf_hi, sub.n_contrib) == (8, 64, 14)

    def test_special_deaggregates_its_whole_group(self):
        plan = AggregationPlan.build(64, exact_head=8, special=(42,), group=8)
        assert set(range(40, 48)) <= set(plan.exact)
        assert all(not covers(sub, 42) for sub in plan.subtrees)
        # the runs on either side of the special group stay aggregated
        assert {(s.leaf_lo, s.leaf_hi) for s in plan.subtrees} == \
            {(8, 40), (48, 64)}

    def test_ragged_tail_stays_exact(self):
        plan = AggregationPlan.build(1000, exact_head=16, group=16)
        tail = set(range(992, 1000))
        assert tail <= set(plan.exact)
        assert all(sub.leaf_hi <= 992 for sub in plan.subtrees)

    def test_fully_exact_when_head_covers_everything(self):
        plan = AggregationPlan.build(32, exact_head=32, group=4)
        assert n_aggregated(plan) == 0 and not plan.subtrees

    def test_rejects_bad_inputs(self):
        with pytest.raises(AggregationError):
            AggregationPlan.build(0)
        with pytest.raises(AggregationError):
            AggregationPlan.build(8, group=0)
        with pytest.raises(AggregationError):
            AggregationPlan.build(8, special=(9,))

    def test_with_special_only_grows_the_exact_region(self):
        plan = AggregationPlan.build(256, exact_head=16, group=16)
        grown = plan.with_special(200)
        assert set(plan.exact) <= set(grown.exact)
        assert is_exact(grown, 200)
        # already-exact specials are a no-op (same object back)
        assert grown.with_special(200) is grown


class TestIntervalPlanMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(inputs=plan_inputs())
    def test_build_is_field_identical(self, inputs):
        n_total, exact_head, special, group = inputs
        plan = AggregationPlan.build(n_total, exact_head=exact_head,
                                     special=special, group=group)
        want = per_group_build(n_total, exact_head, special, group)
        got = {name: getattr(plan, name) for name in want}
        assert got == want

    @settings(max_examples=600, deadline=None)
    @given(inputs=plan_inputs(), data=st.data())
    def test_validator_verdict_and_message_match(self, inputs, data):
        n_total, exact_head, special, group = inputs
        fields = per_group_build(n_total, exact_head, special, group)
        exact = list(fields["exact"])
        spans = list(fields["subtrees"])
        special = set(fields["special"])
        n_groups = max(1, n_total // group)

        def index(seq, extra=0):
            return data.draw(st.integers(0, len(seq) - 1 + extra))

        # stacked perturbations: a dropped exact leaf can offset a
        # duplicated one, an overlapping span a removed one -- the
        # interval checks must still catch every such combination
        for kind in data.draw(st.lists(st.sampled_from(PERTURBATIONS),
                                       max_size=3)):
            if kind == "drop-exact" and exact:
                exact.pop(index(exact))
            elif kind == "add-exact":
                exact.insert(index(exact, 1),
                             data.draw(st.integers(0, n_total - 1)))
            elif kind == "dup-exact" and exact:
                # one leaf listed twice in place of another: the count
                # still adds up, the partition does not
                exact[index(exact)] = exact[index(exact)]
            elif kind == "exact-out-of-range":
                exact.insert(index(exact, 1), data.draw(
                    st.sampled_from((-1, n_total, n_total + group))))
            elif kind == "shift-span" and spans:
                i = index(spans)
                delta = data.draw(st.integers(-2 * group, 2 * group))
                sub = spans[i]
                spans[i] = AggregateSubtree(sub.agg_id, sub.leaf_lo + delta,
                                            sub.leaf_hi + delta,
                                            sub.n_contrib)
            elif kind == "dup-span" and spans:
                spans.insert(index(spans, 1), spans[index(spans)])
            elif kind == "drop-span" and spans:
                spans.pop(index(spans))
            elif kind == "overlap-span":
                lo = data.draw(st.integers(0, n_groups - 1))
                hi = data.draw(st.integers(lo + 1, n_groups))
                spans.insert(index(spans, 1), AggregateSubtree(
                    len(spans), lo * group, hi * group, hi - lo))
            elif kind == "engulf-span" and spans:
                # same start, later end, listed first: exact leaves past
                # the inner span's end are only found covered through the
                # running maximum of span ends
                i = index(spans)
                sub = spans[i]
                hi = sub.leaf_hi + group * data.draw(st.integers(1, 2))
                spans.insert(i, AggregateSubtree(
                    len(spans), sub.leaf_lo, hi, (hi - sub.leaf_lo) // group))
            elif kind == "split-span" and spans:
                # [lo, m) + [m - d, hi - d): same total size, no exact leaf
                # covered, but a d-group overlap leaves [hi - d, hi) bare
                i = index(spans)
                sub = spans[i]
                n_sub = sub.n_leaves // group
                if n_sub >= 2:
                    m = data.draw(st.integers(1, n_sub - 1))
                    d = group * data.draw(st.integers(1, m))
                    m = sub.leaf_lo + m * group
                    pieces = [AggregateSubtree(sub.agg_id, sub.leaf_lo, m, 1),
                              AggregateSubtree(len(spans), m - d,
                                               sub.leaf_hi - d, 1)]
                    if data.draw(st.booleans()):
                        pieces.reverse()
                    spans[i:i + 1] = pieces
            elif kind == "special-outside":
                special.add(data.draw(st.integers(0, n_total - 1)))

        want = set_partition_verdict(n_total, group, special, exact, spans)
        try:
            plan = AggregationPlan(n_total=n_total, group=group,
                                   exact_head=fields["exact_head"],
                                   special=frozenset(special),
                                   exact=tuple(exact),
                                   subtrees=tuple(spans))
        except AggregationError as exc:
            assert str(exc) == want
        else:
            assert want is None
            for leaf in range(-1, n_total + 1):
                sub = next((s for s in spans if covers(s, leaf)), None)
                assert subtree_of(plan, leaf) == sub
                assert is_exact(plan, leaf) == (sub is None)


class TestScaleGuard:
    def test_trillion_leaf_plans_cost_exact_plus_spans(self):
        """A 2**40-leaf plan builds, grows and yields hybrid trees
        in memory bounded by its exact region and span count. A per-leaf
        build or check could not run this at all."""
        n = 2 ** 40
        specials = (n // 3, n // 2, n - 1)
        tracemalloc.start()
        try:
            for group in (16, 1):
                plan = AggregationPlan.build(n, exact_head=1024,
                                             special=specials, group=group)
                assert len(plan.subtrees) == 3
                assert plan.n_exact == 1024 + len(specials) * group
                grown = plan.with_special(n // 4)
                assert is_exact(grown, n // 4)
                assert grown.n_exact == plan.n_exact + group
                assert len(grown.subtrees) == 4
                trees = [TBONTopology.hybrid_one_deep(grown)]
                if group > 1:
                    trees.append(TBONTopology.hybrid_balanced(grown, group))
                for tree in trees:
                    assert tree.virtual_leaf_count() == n
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


class TestAutoExpandProperties:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_exact_region_always_contains_every_special(self, data):
        n_total = data.draw(st.integers(min_value=1, max_value=4096))
        group = data.draw(st.sampled_from((1, 2, 4, 8, 16)))
        exact_head = data.draw(st.integers(min_value=0, max_value=n_total))
        leaves = st.integers(min_value=0, max_value=n_total - 1)
        faults = data.draw(st.lists(leaves, max_size=6))
        taps = data.draw(st.lists(leaves, max_size=6))
        repairs = data.draw(st.lists(leaves, max_size=3))
        black = data.draw(st.lists(leaves, max_size=3))

        plan = AggregationPlan.build(
            n_total, exact_head=exact_head, group=group).with_special(
                *faults, *taps, *repairs, *black)

        specials = set(faults) | set(taps) | set(repairs) | set(black)
        exact = set(plan.exact)
        assert specials <= exact
        # ...and each special pulled its whole group out of aggregation
        for leaf in specials:
            lo = (leaf // group) * group
            assert set(range(lo, min(lo + group, n_total))) <= exact
        # plan invariants: exact + subtree spans partition the leaf space
        covered = sorted(set(plan.exact) | {
            leaf for sub in plan.subtrees
            for leaf in range(sub.leaf_lo, sub.leaf_hi)})
        assert covered == list(range(n_total))
        assert plan.n_exact + n_aggregated(plan) == n_total

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_hybrid_topologies_preserve_virtual_counts(self, data):
        fanout = data.draw(st.sampled_from((2, 4, 8, 16)))
        # grouped aggregation only makes sense with a real comm layer
        # (n_total > fanout); below that balanced() degenerates to one-deep
        n_total = data.draw(st.integers(min_value=fanout + 1,
                                        max_value=1024))
        exact_head = data.draw(st.integers(min_value=0, max_value=n_total))
        specials = data.draw(st.lists(
            st.integers(min_value=0, max_value=n_total - 1), max_size=4))

        flat_plan = AggregationPlan.build(
            n_total, exact_head=exact_head).with_special(*specials)
        flat = TBONTopology.hybrid_one_deep(flat_plan)
        assert flat.virtual_leaf_count() == n_total
        assert flat.virtual_daemon_count() == n_total
        assert len(flat.backends()) == flat_plan.n_exact

        grouped = AggregationPlan.build(
            n_total, exact_head=exact_head,
            group=fanout).with_special(*specials)
        tree = TBONTopology.hybrid_balanced(grouped, fanout)
        assert tree.virtual_leaf_count() == n_total
        full = TBONTopology.balanced(n_total, fanout)
        # same modeled daemon population as the full balanced tree
        assert tree.virtual_daemon_count() == full.size - 1


class TestHybridVsFullParity:
    def test_fig6_hybrid_matches_full_within_model_band(self):
        from repro.experiments.fig6 import measure_stat_startup

        full = measure_stat_startup(2048, "launchmon", tasks_per_daemon=1)
        hybrid = measure_stat_startup(2048, "launchmon", tasks_per_daemon=1,
                                      hybrid=True, exact_head=256)
        assert hybrid["classes"] == full["classes"]
        assert hybrid["n_tasks"] == full["n_tasks"]
        err = abs(hybrid["startup"].total - full["startup"].total) \
            / full["startup"].total
        assert err < 0.05, f"hybrid fig6 off by {err:.2%}"
        # the hybrid point must actually be cheaper to simulate
        assert hybrid["sim_events"] < full["sim_events"]

    def test_stream_hybrid_delivers_bit_identical_waves(self):
        from repro.experiments.streaming import measure_stream

        for filter_name in ("histogram", "top_k", "ewma"):
            full = measure_stream(512, filter_name=filter_name, window=4,
                                  credit_limit=4, n_waves=6)
            hybrid = measure_stream(512, filter_name=filter_name, window=4,
                                    credit_limit=4, n_waves=6, hybrid=True,
                                    exact_head=64)
            assert hybrid["waves"] == full["waves"], filter_name
            assert hybrid["final_state"] == full["final_state"], filter_name
            assert hybrid["delivered"] == full["delivered"]
            assert hybrid["sim_events"] < full["sim_events"]
            err = abs(hybrid["throughput"] - full["throughput"]) \
                / full["throughput"]
            assert err < 0.05, f"{filter_name} throughput off by {err:.2%}"

    def test_stream_hybrid_exact_on_ragged_leaf_count(self):
        from repro.experiments.streaming import measure_stream

        full = measure_stream(500, filter_name="histogram", window=4,
                              credit_limit=4, n_waves=4)
        hybrid = measure_stream(500, filter_name="histogram", window=4,
                                credit_limit=4, n_waves=4, hybrid=True,
                                exact_head=64)
        assert hybrid["waves"] == full["waves"]
        assert hybrid["final_state"] == full["final_state"]

    def test_non_hybrid_paths_stay_bit_identical(self):
        from repro.experiments.fig6 import measure_stat_startup
        from repro.experiments.streaming import measure_stream

        a = measure_stat_startup(512, "launchmon", tasks_per_daemon=1)
        b = measure_stat_startup(512, "launchmon", tasks_per_daemon=1)
        assert a["startup"].total == b["startup"].total
        assert a["sim_events"] == b["sim_events"]
        sa = measure_stream(128, n_waves=4)
        sb = measure_stream(128, n_waves=4)
        assert sa["total_latency"] == sb["total_latency"]
        assert sa["waves"] == sb["waves"]


class TestHybridVsFull4096:
    """The 4,096-daemon hybrid-vs-full pair at the default exactness
    boundary. The full fig6 point also pins the 4,096-daemon LaunchMON
    virtual total, so kernel changes cannot silently shift timing."""

    #: the launch model's error band is ~0.1-0.5% at 4k-64k; 5% leaves
    #: headroom without hiding regressions
    TOLERANCE = 0.05

    @pytest.fixture(scope="class")
    def fig6(self):
        from repro.experiments.fig6 import measure_stat_startup

        return {mode: measure_stat_startup(4096, "launchmon",
                                           tasks_per_daemon=1, hybrid=hybrid)
                for mode, hybrid in (("full", False), ("hybrid", True))}

    @pytest.fixture(scope="class")
    def stream(self):
        from repro.experiments.streaming import measure_stream

        return {mode: measure_stream(4096, filter_name="histogram", window=8,
                                     credit_limit=4, n_waves=10,
                                     hybrid=hybrid)
                for mode, hybrid in (("full", False), ("hybrid", True))}

    def test_full_point_pins_the_virtual_total(self, fig6):
        assert fig6["full"]["startup"].total == pytest.approx(
            48.53219607273357, rel=1e-9)

    def test_fig6_virtual_total_within_model_band(self, fig6):
        full = fig6["full"]["startup"].total
        err = abs(fig6["hybrid"]["startup"].total - full) / full
        assert err < self.TOLERANCE, f"hybrid fig6 off by {err:.2%}"

    def test_fig6_counts_exact(self, fig6):
        assert fig6["hybrid"]["classes"] == fig6["full"]["classes"]
        assert fig6["hybrid"]["n_tasks"] == fig6["full"]["n_tasks"]

    def test_fig6_hybrid_simulates_under_half_the_events(self, fig6):
        assert fig6["hybrid"]["sim_events"] < fig6["full"]["sim_events"] / 2

    def test_stream_payloads_bit_exact(self, stream):
        full, hybrid = stream["full"], stream["hybrid"]
        assert hybrid["waves"] == full["waves"]
        assert hybrid["final_state"] == full["final_state"]
        assert hybrid["delivered"] == full["delivered"]

    def test_stream_throughput_within_model_band(self, stream):
        full = stream["full"]["throughput"]
        err = abs(stream["hybrid"]["throughput"] - full) / full
        assert err < self.TOLERANCE, f"hybrid stream off by {err:.2%}"
