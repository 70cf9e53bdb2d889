"""Tests for Network/Pipe timing and the shared-filesystem model."""

import pytest

from repro.cluster import Cluster, ClusterSpec, CostModel, Network, Node
from repro.cluster.network import message_size
from repro.cluster.cluster import SharedFilesystem
from repro.simx import SeededRNG, Simulator
from repro.tbon import Packet
from tests.conftest import run_gen


class TestMessageSize:
    def test_bytes(self):
        assert message_size(b"12345") == 5

    def test_str(self):
        assert message_size("abc") == 3

    def test_nested_list(self):
        assert message_size([b"ab", b"cd"]) == 16 + 4

    def test_wire_size_object(self):
        class M:
            def wire_size(self):
                return 123
        assert message_size(M()) == 123

    def test_opaque_default(self):
        assert message_size(object()) == 64

    def test_packet_inside_a_tuple_is_sized_as_itself(self):
        # a packet is an element of the sequence, never a sequence itself
        pkt = Packet(1, 0, [b"ab", "cd"])
        assert message_size((3, pkt)) == 16 + 64 + pkt.wire_size()

    def test_dict_subclass_with_wire_size_reports_its_own_size(self):
        class SizedDict(dict):
            def wire_size(self):
                return 4242
        assert message_size({"a": 1}) == 64
        assert message_size(SizedDict(a=1)) == 4242


class TestNetwork:
    def test_connect_returns_duplex_pipe(self, sim, rng):
        net = Network(sim, rng=rng)
        a = Node(sim, "a")
        b = Node(sim, "b")
        pipe = run_gen(sim, net.connect(a, b))
        log = []

        def left(sim):
            pipe.a.send(b"ping")
            msg = yield pipe.a.recv()
            log.append(("a-got", msg))

        def right(sim):
            msg = yield pipe.b.recv()
            log.append(("b-got", msg))
            pipe.b.send(b"pong")

        sim.process(left(sim))
        sim.process(right(sim))
        sim.run()
        assert ("b-got", b"ping") in log
        assert ("a-got", b"pong") in log

    def test_connect_costs_handshake(self, sim, rng):
        costs = CostModel()
        net = Network(sim, costs, rng)
        a, b = Node(sim, "a"), Node(sim, "b")
        run_gen(sim, net.connect(a, b))
        assert sim.now >= 0.5 * costs.tcp_connect

    def test_transfer_time_scales_with_size(self, sim, rng):
        net = Network(sim, rng=rng)
        small = net.transfer_time(b"x" * 10)
        large = net.transfer_time(b"x" * 10_000_000)
        assert large > small * 10

    def test_larger_message_arrives_later(self, sim, rng):
        net = Network(sim, rng=rng)
        pipe = net.pipe("a", "b")
        arrivals = {}

        def sender(sim):
            pipe.a.send(b"x" * 1_000_000)
            yield sim.timeout(0)

        def receiver(sim):
            yield pipe.b.recv()
            arrivals["t"] = sim.now

        sim.process(sender(sim))
        sim.process(receiver(sim))
        sim.run()
        assert arrivals["t"] >= 1_000_000 / CostModel().net_bandwidth * 0.9


class TestSharedFilesystem:
    def test_single_load_cost(self, sim, rng):
        costs = CostModel()
        fs = SharedFilesystem(sim, costs, rng)
        run_gen(sim, fs.load_image(25.0))
        expected = costs.fs_open + 25 * 1024 * 1024 / costs.fs_bandwidth
        assert sim.now == pytest.approx(expected, rel=0.1)

    def test_zero_image_is_free(self, sim, rng):
        fs = SharedFilesystem(sim, CostModel(), rng)
        run_gen(sim, fs.load_image(0.0))
        assert sim.now == 0.0
        assert fs.loads == 0

    def test_concurrent_loads_serialize(self, sim, rng):
        """This is the binary-loading-storm model: N loads ~ N x one load."""
        costs = CostModel()
        fs = SharedFilesystem(sim, costs, rng)
        n = 8

        def loader(sim):
            yield from fs.load_image(25.0)

        procs = [sim.process(loader(sim)) for _ in range(n)]
        sim.run()
        one = costs.fs_open + 25 * 1024 * 1024 / costs.fs_bandwidth
        assert sim.now == pytest.approx(n * one, rel=0.15)
        assert fs.loads == n

    def test_multiple_servers_divide_time(self, sim, rng):
        costs = CostModel()
        fs = SharedFilesystem(sim, costs, rng, servers=4)
        n = 8

        def loader(sim):
            yield from fs.load_image(25.0)

        for _ in range(n):
            sim.process(loader(sim))
        sim.run()
        one = costs.fs_open + 25 * 1024 * 1024 / costs.fs_bandwidth
        assert sim.now == pytest.approx(n * one / 4, rel=0.2)

    def test_interrupt_while_queued_releases_slot(self, sim, rng):
        """Regression: a loader killed while *queued* for a server slot must
        withdraw its request -- otherwise the granted-but-dead request
        wedges the filesystem for every later launch."""
        fs = SharedFilesystem(sim, CostModel(), rng)
        done = []

        def loader(tag):
            try:
                yield from fs.load_image(25.0)
            finally:
                done.append(tag)

        holder = sim.process(loader("holder"))
        queued = sim.process(loader("queued"))

        def killer(sim):
            yield sim.timeout(0.001)  # holder is serving, 'queued' waits
            queued.interrupt("daemon spawn aborted")

        sim.process(killer(sim))
        queued.defuse()
        sim.run()
        assert done == ["queued", "holder"]
        assert fs._servers.in_use == 0
        assert fs._servers.pending == 0
        # the aborted loader never consumed FS service
        assert fs.loads == 1

        # the slot is genuinely reusable: a later load completes normally
        t0 = sim.now
        after = sim.process(loader("after"))
        sim.run()
        assert after.ok and done[-1] == "after"
        assert sim.now > t0

    def test_interrupt_while_holding_slot_releases_it(self, sim, rng):
        """Regression: a loader killed mid-transfer releases its server."""
        fs = SharedFilesystem(sim, CostModel(), rng)

        def loader(sim):
            yield from fs.load_image(25.0)

        victim = sim.process(loader(sim))

        def killer(sim):
            yield sim.timeout(0.002)  # victim holds the slot, mid-read
            victim.interrupt("aborted")

        sim.process(killer(sim))
        victim.defuse()
        sim.run()
        assert fs._servers.in_use == 0
        survivor = sim.process(loader(sim))
        sim.run()
        assert survivor.ok


class TestStagingModes:
    def _fs(self, sim, rng, staging, servers=1):
        return SharedFilesystem(sim, CostModel(), rng, servers=servers,
                                staging=staging)

    def test_unknown_mode_rejected(self, sim, rng):
        from repro.cluster import StagingError
        with pytest.raises(StagingError, match="unknown staging mode"):
            SharedFilesystem(sim, CostModel(), rng, staging="carrier-pigeon")

    def test_shared_fs_mode_ignores_cache_hints(self, sim, rng):
        costs = CostModel()
        fs = self._fs(sim, rng, "shared-fs")
        node = Node(sim, "n0")
        for _ in range(2):
            run_gen(sim, fs.load_image(25.0, node=node, key="toold"))
        one = costs.fs_open + 25 * 1024 * 1024 / costs.fs_bandwidth
        assert sim.now == pytest.approx(2 * one, rel=0.1)
        assert fs.loads == 2
        assert fs.cache_hits == 0
        assert not fs.is_cached(node, "toold")

    def test_cache_mode_second_load_is_cheap(self, sim, rng):
        costs = CostModel()
        fs = self._fs(sim, rng, "cache")
        node = Node(sim, "n0")
        run_gen(sim, fs.load_image(25.0, node=node, key="toold"))
        t_cold = sim.now
        run_gen(sim, fs.load_image(25.0, node=node, key="toold"))
        assert fs.is_cached(node, "toold")
        assert fs.cache_hits == 1 and fs.cache_misses == 1
        assert sim.now - t_cold < 10 * costs.cache_hit

    def test_cache_is_per_node_and_per_key(self, sim, rng):
        fs = self._fs(sim, rng, "cache")
        a, b = Node(sim, "a"), Node(sim, "b")
        run_gen(sim, fs.load_image(25.0, node=a, key="toold"))
        run_gen(sim, fs.load_image(25.0, node=b, key="toold"))
        run_gen(sim, fs.load_image(25.0, node=a, key="other"))
        assert fs.loads == 3 and fs.cache_hits == 0

    def test_invalidate_drops_keys(self, sim, rng):
        fs = self._fs(sim, rng, "cache")
        node = Node(sim, "n0")
        run_gen(sim, fs.load_image(25.0, node=node, key="toold"))
        fs.invalidate("toold")
        assert not fs.is_cached(node, "toold")
        run_gen(sim, fs.load_image(25.0, node=node, key="toold"))
        assert fs.loads == 2

    def test_broadcast_one_fs_read_for_many_nodes(self, sim, rng):
        fs = self._fs(sim, rng, "broadcast")
        nodes = [Node(sim, f"n{i}") for i in range(64)]
        run_gen(sim, fs.stage_images(nodes, 25.0, "toold"))
        assert fs.loads == 1          # exactly one shared-FS read
        assert fs.broadcasts == 1
        assert fs.bytes_broadcast == 63 * 25.0 * 1024 * 1024
        assert all(fs.is_cached(n, "toold") for n in nodes)

    def test_broadcast_logarithmic_vs_serial_linear(self, rng):
        def staged_time(staging, n):
            sim = Simulator()
            fs = self._fs(sim, SeededRNG(7), staging)
            nodes = [Node(sim, f"n{i}") for i in range(n)]
            run_gen(sim, fs.stage_images(nodes, 25.0, "toold"))
            return sim.now

        serial = staged_time("shared-fs", 256)
        bcast = staged_time("broadcast", 256)
        assert bcast < serial / 10
        # doubling nodes adds ~one round, not ~double
        assert staged_time("broadcast", 512) < 1.3 * bcast

    def test_broadcast_warm_set_is_noop(self, sim, rng):
        fs = self._fs(sim, rng, "broadcast")
        nodes = [Node(sim, f"n{i}") for i in range(8)]
        run_gen(sim, fs.stage_images(nodes, 25.0, "toold"))
        loads = fs.loads
        t0 = sim.now
        run_gen(sim, fs.stage_images(nodes, 25.0, "toold"))
        assert fs.loads == loads
        assert sim.now - t0 < 10 * CostModel().cache_hit


class TestClusterAssembly:
    def test_spec_shapes_cluster(self, sim):
        c = Cluster(sim, ClusterSpec(n_compute=12, fe_name="head"))
        assert len(c.compute) == 12
        assert c.front_end.name == "head"
        assert len(c.nodes) == 13

    def test_node_lookup(self, sim):
        c = Cluster(sim, ClusterSpec(n_compute=4))
        n = c.compute[2]
        assert c.node(n.name) is n
        assert c.node(c.front_end.name) is c.front_end

    def test_unknown_node_raises(self, sim):
        c = Cluster(sim, ClusterSpec(n_compute=2))
        with pytest.raises(KeyError):
            c.node("nope")

    def test_mpp_spec_disables_compute_rshd(self, sim):
        c = Cluster(sim, ClusterSpec(n_compute=4, compute_rshd=False))
        assert all(not n.rshd_enabled for n in c.compute)
        assert c.front_end.rshd_enabled

    def test_fe_proc_limit_from_spec(self, sim):
        c = Cluster(sim, ClusterSpec(n_compute=2, fe_max_user_procs=7))
        assert c.front_end.max_user_procs == 7
