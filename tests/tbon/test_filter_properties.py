"""Executable algebraic spec for the built-in stream filters.

The data plane's correctness rests on one algebraic fact: every built-in
filter's per-wave merge is **associative and commutative**, so reducing
through *any* tree shape -- any fanout, any depth, any child arrival
order -- produces the same root value as one flat reduction over all leaf
payloads. These property tests pin that down:

* ``concat`` is associative but NOT commutative, so only the multiset of
  elements is shape-independent (asserted as such);
* ``sum`` is exact for ints (floats only to tolerance -- which is why the
  spec drives it with ints);
* ``histogram`` / ``top_k`` / ``prefix_tree_merge`` are exactly
  shape-independent (pointwise sums, max-deduplicated truncation, set
  unions);
* ``ewma`` reduces each wave to an exact sum, so the root's EWMA state
  equals the flat EWMA of the per-wave flat sums.

Arrival order is randomized by giving every leaf a drawn publish delay;
tree shape by drawing fanout and leaf count.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster, ClusterSpec
from repro.simx import Simulator
from repro.tbon import Overlay, TBONTopology
from repro.tbon.overlay import StreamSpec
from repro.tools.stat_tool.prefix_tree import PrefixTree, merge_trees
from tests.tbon.batch_merges import histogram_merge, top_k_merge


def _build_overlay(n_be, fanout, seed=3):
    sim = Simulator()
    topo = (TBONTopology.balanced(n_be, fanout) if fanout
            else TBONTopology.one_deep(n_be))
    n_comm = len(topo.comm_positions())
    cluster = Cluster(sim, ClusterSpec(n_compute=n_be + n_comm + 1,
                                       seed=seed))
    placement = {0: cluster.front_end}
    for i, pos in enumerate(topo.comm_positions()):
        placement[pos] = cluster.compute[i]
    for i, pos in enumerate(topo.backends()):
        placement[pos] = cluster.compute[n_comm + i]
    overlay = Overlay(sim, cluster.network, topo, placement, streams={})
    overlay.start_routers()
    return sim, topo, overlay


def _stream_rootwise(filter_name, leaf_payloads_per_wave, fanout,
                     delays, window=0, filter_params=()):
    """Run the waves through a real overlay stream; return the delivered
    per-wave payloads and the root's final filter state."""
    n_be = len(leaf_payloads_per_wave[0])
    sim, topo, overlay = _build_overlay(n_be, fanout)
    stream = overlay.open_stream(StreamSpec(
        5, filter_name, credit_limit=3, window=window,
        filter_params=filter_params))

    def leaf(i, pos):
        yield sim.timeout(delays[i])
        for wave, payloads in enumerate(leaf_payloads_per_wave):
            yield from stream.publish(pos, wave, payloads[i])

    delivered = []

    def subscriber():
        for _ in range(len(leaf_payloads_per_wave)):
            pkt = yield from stream.next_wave()
            delivered.append((pkt.wave, pkt.payload))

    for i, pos in enumerate(topo.backends()):
        sim.process(leaf(i, pos))
    sub = sim.process(subscriber())
    sim.run(until=600)
    assert sub.triggered
    return dict(delivered), stream.state_at(0)


shapes = st.tuples(st.integers(min_value=2, max_value=16),
                   st.integers(min_value=0, max_value=4)).map(
    lambda t: (t[0], 0 if t[1] < 2 else t[1]))

delays_for = st.lists(st.floats(min_value=0.0, max_value=0.02),
                      min_size=16, max_size=16)


class TestFlatEqualsTree:
    @settings(max_examples=25, deadline=None)
    @given(shape=shapes, delays=delays_for, data=st.data())
    def test_histogram(self, shape, delays, data):
        n_be, fanout = shape
        n_waves = data.draw(st.integers(min_value=1, max_value=3))
        payloads = [
            [{f"b{data.draw(st.integers(0, 3))}": data.draw(
                st.integers(1, 5))} for _ in range(n_be)]
            for _ in range(n_waves)]
        delivered, _ = _stream_rootwise("histogram", payloads, fanout,
                                        delays)
        for wave in range(n_waves):
            flat = histogram_merge(payloads[wave])
            assert delivered[wave] == flat

    @settings(max_examples=25, deadline=None)
    @given(shape=shapes, delays=delays_for, data=st.data())
    def test_top_k(self, shape, delays, data):
        n_be, fanout = shape
        k = data.draw(st.integers(min_value=1, max_value=4))
        payloads = [[
            [[data.draw(st.integers(0, 50)), f"leaf{i}-{j}"]
             for j in range(data.draw(st.integers(0, 3)))]
            for i in range(n_be)]]
        delivered, _ = _stream_rootwise(
            "top_k", payloads, fanout, delays,
            filter_params=(("k", k),))
        flat = top_k_merge(payloads[0], k=k)
        assert delivered[0] == flat

    @settings(max_examples=25, deadline=None)
    @given(shape=shapes, delays=delays_for, data=st.data())
    def test_sum_and_ewma_over_ints(self, shape, delays, data):
        n_be, fanout = shape
        n_waves = data.draw(st.integers(min_value=1, max_value=4))
        payloads = [[data.draw(st.integers(-100, 100))
                     for _ in range(n_be)] for _ in range(n_waves)]
        delivered, state = _stream_rootwise("ewma", payloads, fanout,
                                            delays)
        # per-wave: the merged value is the exact flat sum (ints)
        for wave in range(n_waves):
            assert delivered[wave] == sum(payloads[wave])
        # the root EWMA equals the flat EWMA of the flat wave sums
        ewma = None
        for wave in range(n_waves):
            total = sum(payloads[wave])
            ewma = total if ewma is None else 0.5 * total + 0.5 * ewma
        assert state["ewma"] == pytest.approx(ewma)

    @settings(max_examples=15, deadline=None)
    @given(shape=shapes, delays=delays_for, data=st.data())
    def test_prefix_tree_merge(self, shape, delays, data):
        n_be, fanout = shape
        trees = []
        for i in range(n_be):
            t = PrefixTree()
            for _ in range(data.draw(st.integers(1, 3))):
                stack = ["main"] + [
                    f"f{data.draw(st.integers(0, 2))}"
                    for _ in range(data.draw(st.integers(1, 3)))]
                t.insert(stack, i)
            trees.append(t)
        payloads = [[t.to_dict() for t in trees]]
        delivered, _ = _stream_rootwise("prefix_tree_merge", payloads,
                                        fanout, delays)
        flat = merge_trees(trees).to_dict()
        assert delivered[0] == flat

    @settings(max_examples=15, deadline=None)
    @given(shape=shapes, delays=delays_for, data=st.data())
    def test_concat_is_shape_independent_only_as_multiset(
            self, shape, delays, data):
        """concat is associative but not commutative: arrival order
        decides element order, so only the multiset is invariant."""
        n_be, fanout = shape
        payloads = [[[f"item{i}-{j}"
                      for j in range(data.draw(st.integers(1, 2)))]
                     for i in range(n_be)]]
        delivered, _ = _stream_rootwise("concat", payloads, fanout,
                                        delays)
        flat = [x for p in payloads[0] for x in p]
        assert sorted(delivered[0]) == sorted(flat)


class TestWindowedState:
    @settings(max_examples=15, deadline=None)
    @given(shape=shapes, delays=delays_for, data=st.data())
    def test_histogram_window_equals_flat_window(self, shape, delays,
                                                 data):
        """The root's running histogram over a window of W waves equals
        the flat merge of the last W waves' leaf payloads -- i.e. the
        windowed state is as shape-independent as the waves are."""
        n_be, fanout = shape
        n_waves = data.draw(st.integers(min_value=2, max_value=5))
        window = data.draw(st.integers(min_value=1, max_value=3))
        payloads = [
            [{f"b{data.draw(st.integers(0, 2))}": 1} for _ in range(n_be)]
            for _ in range(n_waves)]
        _, state = _stream_rootwise("histogram", payloads, fanout,
                                    delays, window=window)
        tail = payloads[-window:]
        flat = histogram_merge([p for wave in tail for p in wave])
        assert state["running"] == flat
