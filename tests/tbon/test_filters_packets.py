"""Filter-registry error paths and Packet routing invariants."""

import pytest

from repro.cluster.network import message_size
from repro.cluster import Cluster, ClusterSpec
from repro.tbon import (
    Filter,
    Overlay,
    Packet,
    StatelessFilter,
    StreamSpec,
    TBONTopology,
    make_filter,
)
from repro.tbon.filters import (
    EwmaRateFilter,
    RunningHistogramFilter,
    TopKFilter,
)


class TestRegistryErrorPaths:
    def test_get_filter_unknown_name(self):
        with pytest.raises(KeyError) as err:
            make_filter("no_such_filter")
        # the error names the offender AND lists the known filters
        msg = str(err.value)
        assert "no_such_filter" in msg
        assert "concat" in msg and "sum" in msg

    def test_make_filter_unknown_name(self):
        with pytest.raises(KeyError, match="unknown TBON filter"):
            make_filter("no_such_filter")
        # an unknown name + params must report unknown-name (listing the
        # real names, so the 'topk' -> 'top_k' typo is self-diagnosing),
        # not complain about the parameters
        with pytest.raises(KeyError, match="unknown TBON filter.*top_k"):
            make_filter("topk", k=5)

    def test_make_filter_rejects_params_for_stateless(self):
        with pytest.raises(KeyError, match="stateless"):
            make_filter("concat", k=3)
        # a stateless built-in merges a wave with no state to carry
        f = make_filter("max")
        assert isinstance(f, StatelessFilter)
        merged = f.merge([4, 2, 9])
        assert merged == 9
        assert f.update(f.initial_state(), merged) is None

    def test_base_filter_reduce_is_abstract(self):
        # a wave's reduction is merge then update, and the base filter
        # has no fold to merge with
        with pytest.raises(NotImplementedError):
            Filter().merge([1])
        with pytest.raises(NotImplementedError):
            Filter().fold(None, 1)


class TestStatefulFilterValidation:
    def test_top_k_rejects_bad_k(self):
        with pytest.raises(ValueError, match="k >= 1"):
            TopKFilter(k=0)

    def test_ewma_rejects_bad_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            EwmaRateFilter(alpha=0.0)
        with pytest.raises(ValueError, match="alpha"):
            EwmaRateFilter(alpha=1.5)

    def test_histogram_window_evicts(self):
        f = RunningHistogramFilter(window=2)
        state = f.initial_state()
        for _ in range(3):
            state = f.update(state, f.merge([{"a": 1}]))
        assert state["running"] == {"a": 2}  # only the last 2 waves

    def test_legacy_faces_are_single_wave(self):
        assert make_filter("histogram").merge(
            [{"a": 1}, {"a": 2, "b": 1}]) == {"a": 3, "b": 1}
        assert make_filter("ewma").merge([2, 3]) == 5
        assert make_filter("top_k").merge(
            [[[5, "x"]], [[9, "y"]]])[0] == [9, "y"]


class TestWindowZeroKeepsNoWaves:
    """At ``window=0`` a stream state keeps its running aggregate only:
    each merged wave folds into it, and no state grows with the waves."""

    N_WAVES = 30

    @staticmethod
    def payload(name, pos, wave):
        if name == "histogram":
            return {f"b{(pos + wave) % 5}": pos + 1}
        if name == "top_k":
            return [[(pos * 7 + wave * 13) % 97, f"k{(pos + wave) % 20}"],
                    [(pos * wave) % 89, f"k{(3 * pos + wave) % 20}"]]
        runs = [pos, pos + 1]
        return {"tree": {"r": runs, "c": {
            f"f{(pos + wave) % 3}": {"r": runs, "c": {}}}}, "n": 1}

    @pytest.mark.parametrize("name",
                             ["histogram", "top_k", "prefix_tree_merge"])
    def test_thirty_waves_leave_no_state_holding_waves(self, sim, name):
        topo = TBONTopology.balanced(8, fanout=4)
        cluster = Cluster(sim, ClusterSpec(n_compute=topo.size, seed=4))
        placement = {0: cluster.front_end}
        for pos in range(1, topo.size):
            placement[pos] = cluster.compute[pos]
        ov = Overlay(sim, cluster.network, topo, placement, {})
        ov.start_routers()
        stream = ov.open_stream(StreamSpec(1, name, window=0))
        delivered = []

        def leaf(pos):
            for wave in range(self.N_WAVES):
                yield from stream.publish(pos, wave,
                                          self.payload(name, pos, wave))

        def root():
            for _ in range(self.N_WAVES):
                pkt = yield from stream.next_wave()
                delivered.append(pkt.payload)

        for pos in topo.backends():
            sim.process(leaf(pos))
        sim.process(root())
        sim.run()
        assert len(delivered) == self.N_WAVES
        states = [stream.state_at(pos) for pos in range(topo.size)]
        states = [st for st in states if st is not None]
        assert states
        assert all(st["waves"] == [] for st in states)
        if name == "top_k":
            # exact: the merge is associative and commutative
            running = stream.state_at(0)["running"]
            assert running == make_filter("top_k").merge(delivered)


class TestPacketInvariants:
    def test_direction_must_be_up_or_down(self):
        Packet(1, 0, "ok", "up")
        Packet(1, 0, "ok", "down")
        with pytest.raises(ValueError, match="direction"):
            Packet(1, 0, "bad", "sideways")

    def test_packets_are_immutable(self):
        pkt = Packet(1, 0, "payload")
        with pytest.raises(AttributeError):
            pkt.wave = 5
        for name in ("stream_id", "payload", "direction"):
            with pytest.raises(AttributeError):
                setattr(pkt, name, None)
            with pytest.raises(AttributeError):
                delattr(pkt, name)
        assert pkt.wave == 0 and pkt.payload == "payload"

    def test_packets_are_values_not_tuples(self):
        pkt = Packet(1, 0, "payload")
        # message_size sizes tuples as sequences: a packet must stay one
        # sized unit
        assert not isinstance(pkt, tuple)
        assert pkt == Packet(1, 0, "payload", "up")
        assert pkt != Packet(1, 0, "payload", "down")
        assert pkt != Packet(1, 1, "payload")
        assert hash(pkt) == hash(Packet(1, 0, "payload"))
        assert repr(pkt) == ("Packet(stream_id=1, wave=0, "
                             "payload='payload', direction='up')")

    def test_wire_size_is_header_plus_payload(self):
        pkt = Packet(1, 0, b"x" * 100)
        assert pkt.wire_size() == 24 + 100
        # opaque payloads (dicts) fall back to the fixed estimate
        assert Packet(1, 0, {"a": 1}).wire_size() \
            == 24 + message_size({"a": 1})

    def test_up_packets_reduce_down_packets_fan_out(self, sim):
        """The routing invariant: an 'up' packet from every leaf yields
        exactly ONE reduced packet at the root; one 'down' packet from
        the root yields exactly one copy at EVERY leaf."""
        from repro.cluster import Cluster, ClusterSpec
        from repro.tbon import Overlay, TBONTopology
        from repro.tbon.overlay import StreamSpec

        topo = TBONTopology.balanced(6, fanout=3)
        cluster = Cluster(sim, ClusterSpec(n_compute=10, seed=4))
        placement = {0: cluster.front_end}
        for i in range(1, topo.size):
            placement[i] = cluster.compute[i % 10]
        ov = Overlay(sim, cluster.network, topo, placement,
                     {1: StreamSpec(1, "sum")})
        ov.start_routers()
        up_got, down_got = [], []

        def be(pos):
            yield from ov.endpoint(pos).send_wave(1, 0, 1)
            pkt = yield from ov.endpoint(pos).recv_broadcast()
            down_got.append((pos, pkt.direction))

        def fe():
            pkt = yield from ov.endpoint(0).collect_wave()
            up_got.append(pkt)
            yield from ov.endpoint(0).broadcast(1, 1, "ctl")

        for pos in topo.backends():
            sim.process(be(pos))
        sim.process(fe())
        sim.run()
        # exactly one reduced 'up' packet, carrying every contribution
        assert len(up_got) == 1
        assert up_got[0].direction == "up"
        assert up_got[0].payload == 6
        # exactly one 'down' copy per leaf
        assert sorted(p for p, _ in down_got) == topo.backends()
        assert all(d == "down" for _, d in down_got)
