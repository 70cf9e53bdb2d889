"""TBON self-repair: reparenting correctness, cost, and wave integrity
(one-shot waves are dropped; persistent-stream waves are re-credited)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster, ClusterSpec
from repro.simx import Simulator
from repro.tbon import Overlay, TBONTopology
from repro.tbon.overlay import StreamSpec
from repro.experiments.resilience import measure_tbon_repair


def _overlay(sim, topo, n_extra=0, seed=3):
    cluster = Cluster(sim, ClusterSpec(
        n_compute=topo.size + n_extra, seed=seed))
    placement = {0: cluster.front_end}
    comms = topo.comm_positions()
    for i, pos in enumerate(comms):
        placement[pos] = cluster.compute[i]
    for i, pos in enumerate(topo.backends()):
        placement[pos] = cluster.compute[len(comms) + i]
    overlay = Overlay(sim, cluster.network, topo, placement,
                      streams={1: StreamSpec(1, "concat")})
    overlay.start_routers()
    return cluster, placement, overlay


def _reaches_root(overlay, pos) -> bool:
    seen = set()
    while pos is not None and pos not in seen:
        if pos == 0:
            return True
        seen.add(pos)
        pos = overlay.parent_of(pos)
    return False


def _drive(sim, gen):
    proc = sim.process(gen, name="driver")
    sim.run(until=600)
    assert proc.triggered
    return proc.value


class TestRepair:
    def test_noop_when_nothing_dead(self, sim):
        topo = TBONTopology.balanced(16, fanout=4)
        _cluster, _placement, overlay = _overlay(sim, topo)

        def scenario():
            report = yield from overlay.repair()
            assert report.n_dead == 0
            assert report.n_reparented == 0
            assert report.t_repair == 0.0

        _drive(sim, scenario())

    def test_dead_comm_node_reparents_and_costs(self, sim):
        topo = TBONTopology.balanced(32, fanout=8)
        _cluster, placement, overlay = _overlay(sim, topo)
        victim = topo.comm_positions()[0]

        def scenario():
            placement[victim].fail("test")
            report = yield from overlay.repair()
            assert report.n_dead == 1
            # the victim's children now hang off the root directly
            assert report.n_reparented == len(topo.children(victim))
            assert all(p == 0 for p in report.reparented.values())
            assert report.t_repair > 0.0
            assert overlay.repairs == [report]

        _drive(sim, scenario())

    def test_wave_merges_after_repair(self, sim):
        topo = TBONTopology.balanced(24, fanout=4)
        _cluster, placement, overlay = _overlay(sim, topo)

        def scenario():
            for pos in topo.comm_positions()[:2]:
                placement[pos].fail("test")
            yield from overlay.repair()
            root = overlay.endpoint(0)
            for pos in overlay.live_backends():
                sim.process(overlay.endpoint(pos).send_wave(1, 1, [pos]),
                            name=f"w{pos}")
            pkt = yield from root.collect_wave()
            assert len(pkt.payload) == 24  # every leaf still reduces

        _drive(sim, scenario())

    def test_dead_leaf_is_removed_not_reparented(self, sim):
        topo = TBONTopology.balanced(16, fanout=4)
        _cluster, placement, overlay = _overlay(sim, topo)
        leaf = topo.backends()[3]

        def scenario():
            placement[leaf].fail("test")
            report = yield from overlay.repair()
            assert report.n_dead == 1
            assert leaf not in overlay.live_backends()
            assert report.n_reparented == 0  # leaves have no subtree

        _drive(sim, scenario())

    def test_stranded_comm_is_pruned_and_waves_still_merge(self, sim):
        # kill every leaf under one comm node (the comm itself survives):
        # the childless comm must be pruned from the tree, or the root's
        # router would wait forever for its contribution
        topo = TBONTopology.balanced(4, fanout=2)
        _cluster, placement, overlay = _overlay(sim, topo)
        victim_comm = topo.comm_positions()[0]
        orphan_leaves = topo.children(victim_comm)

        def scenario():
            for pos in orphan_leaves:
                placement[pos].fail("test")
            report = yield from overlay.repair()
            assert report.pruned == [victim_comm]
            assert victim_comm in overlay.dead_positions()
            root = overlay.endpoint(0)
            for pos in overlay.live_backends():
                sim.process(overlay.endpoint(pos).send_wave(1, 1, [pos]),
                            name=f"w{pos}")
            pkt = yield from root.collect_wave()
            assert len(pkt.payload) == 4 - len(orphan_leaves)

        _drive(sim, scenario())

    def test_experiment_helper(self):
        cell = measure_tbon_repair(n_backends=32, fanout=4, n_comm_kill=2)
        assert cell["leaves_after"] == cell["leaves_before"] == 32
        assert cell["wave_merged"] == 32
        assert cell["n_reparented"] > 0
        assert cell["report"]["t_repair"] == pytest.approx(cell["t_repair"])


class TestStreamRepair:
    """Waves in flight across repair(): neither lost nor duplicated."""

    def _stream_scenario(self, sim, overlay, placement, victims,
                         n_waves, crash_at, n_be, stagger=0.002):
        stream = overlay.open_stream(StreamSpec(9, "concat",
                                                credit_limit=2))
        topo = overlay.topology

        def leaf(i, pos):
            yield sim.timeout(stagger * i)
            for w in range(n_waves):
                yield from stream.publish(pos, w, [[pos, w]])
                yield sim.timeout(0.004)

        delivered = []

        def subscriber():
            while len(delivered) < n_waves:
                pkt = yield from stream.next_wave()
                delivered.append(pkt)

        def chaos():
            yield sim.timeout(crash_at)
            for pos in victims:
                placement[pos].fail("stream-repair test")
            yield from overlay.repair()

        for i, pos in enumerate(topo.backends()):
            proc = sim.process(leaf(i, pos), name=f"leaf:{pos}")
            # publishers live on their leaf's node (as daemon bodies do):
            # a node crash kills its publisher with it
            placement[pos].register_body(proc)
        sub = sim.process(subscriber(), name="subscriber")
        sim.process(chaos(), name="chaos")
        sim.run(until=600)
        assert sub.triggered
        return stream, delivered

    def test_inflight_waves_survive_comm_death(self, sim):
        """A comm node dies mid-wave: every wave is still delivered
        exactly once, each carrying exactly one contribution per
        surviving leaf."""
        topo = TBONTopology.balanced(8, fanout=2)
        _cluster, placement, overlay = _overlay(sim, topo)
        victim = topo.comm_positions()[0]
        stream, delivered = self._stream_scenario(
            sim, overlay, placement, [victim], n_waves=6,
            crash_at=0.003, n_be=8)
        # no wave lost, none duplicated
        assert sorted(p.wave for p in delivered) == list(range(6))
        # every delivered wave carries every live leaf exactly once
        for pkt in delivered:
            senders = [pos for pos, _w in pkt.payload]
            assert sorted(senders) == overlay.live_backends()
        # the repair actually re-injected in-flight payloads
        assert stream.report.n_repairs == 1
        assert stream.report.n_republished > 0
        assert overlay.repairs[-1].n_streams_repaired == 1
        assert (overlay.repairs[-1].n_waves_republished
                == stream.report.n_republished)

    def test_inflight_waves_survive_leaf_death(self, sim):
        """A leaf dies mid-stream: its pending contributions are dropped
        with it, and subsequent waves assemble from the survivors."""
        topo = TBONTopology.balanced(6, fanout=3)
        _cluster, placement, overlay = _overlay(sim, topo)
        victim = topo.backends()[2]
        stream, delivered = self._stream_scenario(
            sim, overlay, placement, [victim], n_waves=5,
            crash_at=0.005, n_be=6)
        assert sorted(p.wave for p in delivered) == list(range(5))
        survivors = overlay.live_backends()
        assert victim not in survivors
        # late waves merge the survivor set only -- and no leaf twice
        late = delivered[-1]
        senders = [pos for pos, _w in late.payload]
        assert sorted(senders) == survivors
        assert len(senders) == len(set(senders))

    def test_repair_does_not_leak_delivery_credits(self, sim):
        """Regression: a repair that interrupts the root router while it
        waits for a delivery credit (slow subscriber, credit_limit=1)
        must not leak the credit -- the stranded getter dies with the
        rebuilt gate and the stream keeps delivering every wave."""
        topo = TBONTopology.balanced(8, fanout=2)
        _cluster, placement, overlay = _overlay(sim, topo)
        stream = overlay.open_stream(StreamSpec(9, "sum", credit_limit=1))
        victim = topo.comm_positions()[0]
        n_waves = 6

        def leaf(pos):
            for w in range(n_waves):
                yield from stream.publish(pos, w, 1)

        delivered = []

        def slow_subscriber():
            while len(delivered) < n_waves:
                pkt = yield from stream.next_wave()
                delivered.append(pkt.wave)
                yield sim.timeout(0.05)  # delivery queue saturates

        def chaos():
            yield sim.timeout(0.03)  # root router blocked on the gate
            placement[victim].fail("test")
            yield from overlay.repair()

        for pos in topo.backends():
            proc = sim.process(leaf(pos))
            placement[pos].register_body(proc)
        sub = sim.process(slow_subscriber())
        sim.process(chaos())
        sim.run(until=600)
        assert sub.triggered
        assert sorted(delivered) == list(range(n_waves))

    def test_double_repair_does_not_duplicate_republished_waves(self, sim):
        """Regression: a second repair landing while the first repair's
        re-publishers are still draining must supersede them (epoch
        pinning + plane tracking), not race them into duplicate
        contributions."""
        topo = TBONTopology.balanced(16, fanout=4)
        _cluster, placement, overlay = _overlay(sim, topo)
        stream = overlay.open_stream(StreamSpec(9, "concat",
                                                credit_limit=1))
        victims = topo.comm_positions()[:2]
        n_waves = 8

        def leaf(i, pos):
            yield sim.timeout(0.001 * i)
            for w in range(n_waves):
                yield from stream.publish(pos, w, [[pos, w]])
                yield sim.timeout(0.003)

        delivered = []

        def subscriber():
            # slow consumer, so leaves carry multi-wave unbanked
            # backlogs into the first repair and its re-publishers are
            # still draining (stalled on credits) at the second
            while len(delivered) < n_waves:
                pkt = yield from stream.next_wave()
                delivered.append(pkt)
                yield sim.timeout(0.03)

        def chaos():
            yield sim.timeout(0.03)
            placement[victims[0]].fail("first")
            yield from overlay.repair()
            yield sim.timeout(0.002)  # first repair still re-publishing
            placement[victims[1]].fail("second")
            yield from overlay.repair()

        for i, pos in enumerate(topo.backends()):
            proc = sim.process(leaf(i, pos))
            placement[pos].register_body(proc)
        sub = sim.process(subscriber())
        sim.process(chaos())
        sim.run(until=600)
        assert sub.triggered
        assert sorted(p.wave for p in delivered) == list(range(n_waves))
        for pkt in delivered:
            senders = [pos for pos, _w in pkt.payload]
            assert len(senders) == len(set(senders)), pkt  # no duplicates
        assert stream.report.n_repairs == 2

    def test_republished_waves_do_not_double_count_filter_state(self, sim):
        """Regression: a wave a position already folded into its windowed
        state, re-delivered by a repair, must merge upward again but
        must NOT be folded into the aggregates a second time."""
        topo = TBONTopology.balanced(8, fanout=2)
        _cluster, placement, overlay = _overlay(sim, topo)
        stream = overlay.open_stream(StreamSpec(
            9, "histogram", credit_limit=1, window=0))
        victim = topo.comm_positions()[0]
        n_waves = 3

        def leaf(i, pos):
            yield sim.timeout(0.0015 * i)
            for w in range(n_waves):
                yield from stream.publish(pos, w, {"R": 1})
                yield sim.timeout(0.004)

        def subscriber():
            # slow consumer: comm positions fold waves that sit unbanked
            # behind the saturated delivery gate when the crash lands
            for _ in range(n_waves):
                yield from stream.next_wave()
                yield sim.timeout(0.02)

        def chaos():
            yield sim.timeout(0.02)  # folded-but-unbanked waves exist
            placement[victim].fail("test")
            yield from overlay.repair()

        for i, pos in enumerate(topo.backends()):
            proc = sim.process(leaf(i, pos))
            placement[pos].register_body(proc)
        sub = sim.process(subscriber())
        sim.process(chaos())
        sim.run(until=600)
        assert sub.triggered
        assert stream.report.n_republished > 0  # the repair re-delivered
        # 8 leaves x 3 waves, exactly once each -- at the root AND at
        # every surviving comm position (its own subtree's count)
        assert stream.state_at(0)["running"] == {"R": 8 * n_waves}
        for pos in topo.comm_positions():
            if pos in overlay.dead_positions():
                continue
            subtree = len(overlay.children_of(pos))
            assert stream.state_at(pos)["running"] \
                == {"R": subtree * n_waves}

    def test_repair_restarts_every_publisher_with_nothing_to_resend(
            self, sim):
        """Every live leaf that has published gets its own re-publisher,
        also when the root banked all its waves before the crash: the
        repair's event count depends on it (each re-publisher starts and
        ends), however the stream indexes its unbanked payloads."""
        topo = TBONTopology.balanced(16, fanout=4)
        _cluster, placement, overlay = _overlay(sim, topo)
        stream = overlay.open_stream(StreamSpec(9, "concat",
                                                credit_limit=2))
        n_waves = 2

        def leaf(pos):
            for w in range(n_waves):
                yield from stream.publish(pos, w, [[pos, w]])

        delivered = []

        def subscriber():
            for _ in range(n_waves):
                pkt = yield from stream.next_wave()
                delivered.append(pkt.wave)

        reports = []

        def chaos():
            yield sim.timeout(5.0)  # long after both waves banked
            placement[topo.comm_positions()[0]].fail("test")
            reports.append((yield from overlay.repair()))

        for pos in topo.backends():
            proc = sim.process(leaf(pos))
            placement[pos].register_body(proc)
        sim.process(subscriber())
        sim.process(chaos())
        sim.run()
        assert delivered == [0, 1]
        republishers = [p for p in stream._procs
                        if p.name.startswith("stream9-repub:")]
        assert len(republishers) == 16
        assert reports[0].n_waves_republished == 0
        assert stream.report.n_republished == 0
        assert sim.stats.events == 493

    def test_filter_window_state_survives_repair(self, sim):
        """The root's running windowed aggregate keeps accumulating
        across a repair -- stateful filters ride through."""
        topo = TBONTopology.balanced(8, fanout=2)
        _cluster, placement, overlay = _overlay(sim, topo)
        stream = overlay.open_stream(StreamSpec(
            9, "histogram", credit_limit=2, window=0))
        victim = topo.comm_positions()[0]
        n_waves = 4

        def leaf(pos):
            for w in range(n_waves):
                yield from stream.publish(pos, w, {"R": 1})
                yield sim.timeout(0.004)

        def subscriber():
            for _ in range(n_waves):
                yield from stream.next_wave()

        def chaos():
            yield sim.timeout(0.003)
            placement[victim].fail("test")
            yield from overlay.repair()

        for pos in topo.backends():
            sim.process(leaf(pos))
        sub = sim.process(subscriber())
        sim.process(chaos())
        sim.run(until=600)
        assert sub.triggered
        # all 8 leaves x 4 waves landed in the root's running histogram
        assert stream.state_at(0)["running"] == {"R": 32}


class TestRepairProperty:
    @settings(max_examples=30, deadline=None)
    @given(n_be=st.integers(min_value=4, max_value=48),
           fanout=st.integers(min_value=2, max_value=6),
           data=st.data())
    def test_reparent_preserves_all_leaves(self, n_be, fanout, data):
        """Killing any subset of comm nodes never loses a live leaf: every
        BE position stays present and connected to the root through live
        ancestors only."""
        topo = TBONTopology.balanced(n_be, fanout=fanout)
        comms = topo.comm_positions()
        if not comms:
            return  # one-deep shape: no internal nodes to kill
        victims = data.draw(st.sets(st.sampled_from(comms)))
        sim = Simulator()
        _cluster, placement, overlay = _overlay(sim, topo)

        def scenario():
            for pos in victims:
                placement[pos].fail("property kill")
            report = yield from overlay.repair()
            return report

        proc = sim.process(scenario(), name="driver")
        sim.run(until=600)
        assert proc.triggered
        report = proc.value
        assert report.n_dead == len(victims)
        # all leaves preserved...
        assert overlay.live_backends() == topo.backends()
        # ...and each reaches the root without touching a dead position
        for leaf in overlay.live_backends():
            pos = leaf
            while pos != 0:
                pos = overlay.parent_of(pos)
                assert pos not in victims
            assert _reaches_root(overlay, leaf)


class TestChildrenCacheInvalidation:
    """children_of memoizes one O(size) pass; every repair mutation must
    drop the memo, including the *second* repair in a session (a stale
    cache would silently route waves to dead or reparented children)."""

    @staticmethod
    def _brute_children(overlay, pos):
        return [q for q in range(1, overlay.topology.size)
                if q not in overlay._dead
                and overlay._parent[q] == pos]

    def _assert_cache_fresh(self, overlay):
        for pos in range(overlay.topology.size):
            assert overlay.children_of(pos) == \
                self._brute_children(overlay, pos), pos

    def test_second_repair_invalidates_again(self, sim):
        topo = TBONTopology.balanced(64, fanout=4)
        _cluster, placement, overlay = _overlay(sim, topo)
        first, second = topo.comm_positions()[:2]

        def scenario():
            # prime the memo, then mutate + check twice
            self._assert_cache_fresh(overlay)
            for victim in (first, second):
                placement[victim].fail("test")
                yield from overlay.repair()
                self._assert_cache_fresh(overlay)
                # top-level comm: its parent is the root
                assert victim not in overlay.children_of(0)

        _drive(sim, scenario())
        assert len(overlay.repairs) == 2

    def test_orphan_pruning_also_drops_the_memo(self, sim):
        # killing a whole subtree's leaves makes their comm node childless;
        # repair prunes it, which must invalidate the memo mid-repair
        topo = TBONTopology.balanced(64, fanout=4)
        _cluster, placement, overlay = _overlay(sim, topo)
        comm = topo.comm_positions()[0]
        leaves = topo.children(comm)

        def scenario():
            self._assert_cache_fresh(overlay)
            for pos in leaves:
                placement[pos].fail("test")
            yield from overlay.repair()
            self._assert_cache_fresh(overlay)
            assert overlay.children_of(comm) == []

        _drive(sim, scenario())
