"""Persistent streams: flow control, attribution, error paths, taps."""

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.simx import Simulator
from repro.tbon import (
    DEFAULT_CREDIT_LIMIT,
    Overlay,
    StreamError,
    TBONTopology,
)
from repro.tbon.overlay import StreamSpec


def _overlay(sim, n_be=8, fanout=2, seed=4, legacy_streams=None):
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
    overlay = Overlay(sim, cluster.network, topo, placement,
                      streams=dict(legacy_streams or {}))
    overlay.start_routers()
    return topo, overlay


def _run_waves(sim, topo, stream, n_waves, payload=1,
               publish_interval=0.0, consume_delay=0.0):
    delivered = []

    def leaf(pos):
        for w in range(n_waves):
            yield from stream.publish(pos, w, payload)
            if publish_interval > 0:
                yield sim.timeout(publish_interval)

    def subscriber():
        for _ in range(n_waves):
            pkt = yield from stream.next_wave()
            delivered.append((pkt.wave, pkt.payload))
            if consume_delay > 0:
                yield sim.timeout(consume_delay)

    for pos in topo.backends():
        sim.process(leaf(pos), name=f"leaf:{pos}")
    sub = sim.process(subscriber(), name="subscriber")
    sim.run(until=600)
    assert sub.triggered
    return delivered


class TestFlowControl:
    def test_inbox_depth_never_exceeds_credit_limit(self, sim):
        topo, overlay = _overlay(sim, n_be=12, fanout=0)
        stream = overlay.open_stream(StreamSpec(3, "sum", credit_limit=3))
        delivered = _run_waves(sim, topo, stream, n_waves=8,
                               consume_delay=0.01)
        assert [w for w, _ in delivered] == list(range(8))
        assert all(v == 12 for _, v in delivered)
        rep = stream.report
        assert rep.max_inbox_depth() <= 3
        for stats in rep.flow.values():
            assert stats.high_water <= stats.credit_limit

    def test_slow_subscriber_backpressures_publishers(self, sim):
        """With a slow consumer, publishers must stall (credit waits)
        rather than queue unboundedly -- and the stall time must show up
        in the flow stats."""
        topo, overlay = _overlay(sim, n_be=6, fanout=0)
        stream = overlay.open_stream(StreamSpec(3, "sum", credit_limit=2))
        _run_waves(sim, topo, stream, n_waves=10, consume_delay=0.05)
        rep = stream.report
        assert rep.total_stalls() > 0
        assert rep.total_stall_time() > 0.0
        # the backpressure shows up as delivery-dominated waves
        assert rep.dominant_phase() == "t_deliver"

    def test_waves_deliver_in_order(self, sim):
        topo, overlay = _overlay(sim, n_be=9, fanout=3)
        stream = overlay.open_stream(StreamSpec(3, "sum", credit_limit=2))
        delivered = _run_waves(sim, topo, stream, n_waves=12)
        assert [w for w, _ in delivered] == list(range(12))

    def test_multilevel_stateful_views(self, sim):
        """Every internal position holds a live windowed view of its own
        subtree -- the MW value-add of stateful filters."""
        topo, overlay = _overlay(sim, n_be=8, fanout=4)
        stream = overlay.open_stream(StreamSpec(
            3, "histogram", credit_limit=4, window=0))
        payload = {"R": 1}
        _run_waves(sim, topo, stream, n_waves=5, payload=payload)
        comm = topo.comm_positions()[0]
        subtree = len(topo.children(comm))
        assert stream.state_at(comm)["running"] == {"R": 5 * subtree}
        assert stream.state_at(0)["running"] == {"R": 5 * 8}

    def test_banked_waves_leave_no_bookkeeping(self, sim):
        """Unbanked payloads and fold markers are filed by wave, and
        banking a wave drops its entry in one step: once every wave has
        banked, the stream holds none, for no leaf and no position."""
        topo, overlay = _overlay(sim, n_be=8, fanout=4)
        stream = overlay.open_stream(StreamSpec(
            3, "histogram", credit_limit=2, window=2))
        _run_waves(sim, topo, stream, n_waves=5, payload={"R": 1})
        assert stream._unacked == {}
        assert stream._folded == {}

    def test_taps_observe_merged_waves(self, sim):
        topo, overlay = _overlay(sim, n_be=8, fanout=4)
        stream = overlay.open_stream(StreamSpec(3, "sum", credit_limit=4))
        comm = topo.comm_positions()[0]
        tap = stream.subscribe(comm)
        _run_waves(sim, topo, stream, n_waves=3)
        taps = [tap.items[i] for i in range(len(tap.items))]
        assert [w for w, _ in taps] == [0, 1, 2]
        assert all(v == len(topo.children(comm)) for _, v in taps)


class TestRuntimeStreamFaces:
    def test_be_and_mw_faces_end_to_end(self):
        """The whole daemon-side surface over a real LaunchMON startup
        with comm daemons: BEs attach/open, wait on the broadcast plane
        for the FE's go command, then publish; the comm daemons'
        Middleware runtimes (session.mw_runtimes, overlay-attached by
        the startup path) tap their subtree's merged waves and expose
        their windowed state; the FE collects via session.open_stream."""
        from repro.apps import make_compute_app
        from repro.fe import ToolFrontEnd
        from repro.runner import drive, make_env
        from repro.tbon import launchmon_startup

        n_be, n_waves = 8, 3
        env = make_env(n_compute=n_be + 2)  # +2 nodes for comm daemons
        app = make_compute_app(n_tasks=n_be * 2, tasks_per_node=2)
        topo = TBONTopology.balanced(n_be, fanout=4)
        spec = StreamSpec(80, "histogram", credit_limit=2)
        box: dict = {}
        started = []

        def daemon_body(be, ctx, endpoint):
            be.attach_overlay(endpoint)
            stream = be.stream_open(spec)
            # samplers are steered over the broadcast plane: wait for go
            pkt = yield from be.stream_subscribe()
            started.append(pkt.payload)
            for w in range(n_waves):
                yield from be.stream_publish(stream, w, {"R": 1})
                yield ctx.sim.timeout(0.005)

        def scenario(env):
            fe = ToolFrontEnd(env.cluster, env.rm, "t")
            yield from fe.init()
            job = yield from env.rm.launch_job(app, env.rm.allocate(n_be))
            session = fe.create_session()
            overlay, _report = yield from launchmon_startup(
                fe, session, job, topology=topo, image_mb=2.0,
                daemon_body=daemon_body)
            stream = session.open_stream(
                stream_id=80, filter_name="histogram", credit_limit=2)
            assert stream.spec == spec  # both sides share one stream

            mw = session.mw_runtimes[0]
            tap = mw.stream_subscribe(stream)
            yield from overlay.endpoint(0).broadcast(1, 0, "go")
            for _ in range(n_waves):
                yield from stream.next_wave()
            box["taps"] = [tap.items[i] for i in range(len(tap.items))]
            box["mw_state"] = mw.stream_state(stream)
            box["root_state"] = stream.state_at(0)
            yield from fe.detach(session)

        drive(env, scenario(env))
        assert started == ["go"] * n_be
        # the MW tap saw every wave, merged over its own 4-leaf subtree
        assert [w for w, _ in box["taps"]] == list(range(n_waves))
        assert all(p == {"R": 4} for _w, p in box["taps"])
        assert box["mw_state"]["running"] == {"R": 4 * n_waves}
        assert box["root_state"]["running"] == {"R": n_be * n_waves}


class TestAttribution:
    def test_per_wave_phases_sum_to_latency(self, sim):
        topo, overlay = _overlay(sim, n_be=8, fanout=2)
        stream = overlay.open_stream(StreamSpec(3, "sum", credit_limit=4))
        _run_waves(sim, topo, stream, n_waves=6, consume_delay=0.002)
        rep = stream.report
        waves = rep.delivered_waves()
        assert len(waves) == 6
        for wt in waves:
            assert sum(wt.phases().values()) == pytest.approx(
                wt.latency, abs=1e-12)
        assert sum(rep.phase_totals().values()) == pytest.approx(
            rep.total_latency(), abs=1e-9)

    def test_report_as_dict_round_trips_to_json(self, sim):
        import json

        topo, overlay = _overlay(sim, n_be=4, fanout=0)
        stream = overlay.open_stream(StreamSpec(3, "sum", credit_limit=2))
        _run_waves(sim, topo, stream, n_waves=2)
        payload = stream.report.as_dict()
        assert json.loads(json.dumps(payload)) is not None
        assert payload["n_delivered"] == 2
        assert payload["dominant_phase"] in ("t_fanin", "t_filter",
                                             "t_deliver")


class TestStreamLifecycle:
    def test_open_is_idempotent_per_spec(self, sim):
        _topo, overlay = _overlay(sim)
        spec = StreamSpec(3, "sum", credit_limit=2)
        assert overlay.open_stream(spec) is overlay.open_stream(spec)

    def test_reopen_with_different_spec_rejected(self, sim):
        _topo, overlay = _overlay(sim)
        overlay.open_stream(StreamSpec(3, "sum", credit_limit=2))
        with pytest.raises(StreamError, match="already open"):
            overlay.open_stream(StreamSpec(3, "max", credit_limit=2))

    def test_legacy_spec_gets_default_credit_limit(self, sim):
        _topo, overlay = _overlay(sim)
        stream = overlay.open_stream(StreamSpec(3, "sum"))
        assert stream.spec.credit_limit == DEFAULT_CREDIT_LIMIT

    def test_id_collision_with_one_shot_stream_rejected(self, sim):
        _topo, overlay = _overlay(sim, legacy_streams={
            1: StreamSpec(1, "concat")})
        with pytest.raises(StreamError, match="one-shot"):
            overlay.open_stream(StreamSpec(1, "sum", credit_limit=2))

    def test_publish_rejections(self, sim):
        topo, overlay = _overlay(sim, n_be=8, fanout=2)
        stream = overlay.open_stream(StreamSpec(3, "sum", credit_limit=2))
        comm = topo.comm_positions()[0]
        with pytest.raises(StreamError, match="BE leaves"):
            next(stream.publish(comm, 0, 1))
        leaf = topo.backends()[0]

        def double_publish():
            yield from stream.publish(leaf, 0, 1)
            yield from stream.publish(leaf, 0, 2)

        proc = sim.process(double_publish())
        proc.defuse()
        sim.run(until=10)
        assert isinstance(proc.exception, StreamError)

    def test_closed_stream_rejects_publish_and_reopens(self, sim):
        topo, overlay = _overlay(sim)
        spec = StreamSpec(3, "sum", credit_limit=2)
        stream = overlay.open_stream(spec)
        report = stream.close()
        assert report.t_close == sim.now
        with pytest.raises(StreamError, match="closed"):
            next(stream.publish(topo.backends()[0], 0, 1))
        # the id is free again: a fresh open builds a fresh stream
        fresh = overlay.open_stream(spec)
        assert fresh is not stream
