"""Tests for ICCL topologies and collectives."""

import pytest

from repro.be.iccl import ICCLError, ICCLFabric, TreeTopology
from repro.cluster import ClusterSpec, Cluster
from repro.simx import Simulator


class TestTopology:
    def test_flat_shape(self):
        t = TreeTopology.flat(5)
        assert t.parent == (None, 0, 0, 0, 0)
        assert t.children[0] == (1, 2, 3, 4)
        assert t.depth() == 1

    def test_flat_single_rank(self):
        t = TreeTopology.flat(1)
        assert t.depth() == 0
        assert t.subtree(0) == [0]

    def test_binomial_parent_rule(self):
        t = TreeTopology.binomial(8)
        # parent clears the lowest set bit
        assert t.parent[1] == 0
        assert t.parent[2] == 0
        assert t.parent[3] == 2
        assert t.parent[5] == 4
        assert t.parent[6] == 4
        assert t.parent[7] == 6

    def test_binomial_depth_logarithmic(self):
        assert TreeTopology.binomial(2 ** 6).depth() == 6
        assert TreeTopology.binomial(1024).depth() == 10

    def test_kary_shape(self):
        t = TreeTopology.kary(7, 2)
        assert t.parent[1] == 0 and t.parent[2] == 0
        assert t.parent[3] == 1 and t.parent[4] == 1
        assert t.depth() == 2

    def test_subtree_partition(self):
        t = TreeTopology.binomial(16)
        covered = sorted(
            r for child in t.children[0] for r in t.subtree(child))
        assert covered == list(range(1, 16))

    def test_all_ranks_reach_root(self):
        for kind in ("flat", "binomial", "kary"):
            t = TreeTopology.make(37, kind)
            for r in range(37):
                steps, p = 0, r
                while t.parent[p] is not None:
                    p = t.parent[p]
                    steps += 1
                    assert steps <= 37
                assert p == 0

    @pytest.mark.parametrize("kind", ["flat", "binomial", "kary"])
    def test_make_at_1024_ranks(self, kind):
        assert TreeTopology.make(1024, kind).size == 1024

    def test_invalid_sizes(self):
        with pytest.raises(ICCLError):
            TreeTopology.flat(0)
        with pytest.raises(ICCLError):
            TreeTopology.make(4, "mystery")


def _make_fabric(sim, n, kind="binomial", per_rec=0.0):
    cluster = Cluster(sim, ClusterSpec(n_compute=max(n, 2), seed=5))
    topo = TreeTopology.make(n, kind)
    return ICCLFabric(sim, cluster.network, cluster.compute[:n], topo,
                      costs=cluster.costs, rng=cluster.rng,
                      per_rec_cost=per_rec)


def _run_collective(sim, fabric, body):
    """Run `body(ep, rank)` in one process per rank; return rank->result."""
    results = {}

    def daemon(rank):
        ep = fabric.endpoint(rank)
        yield from ep.wireup()
        value = yield from body(ep, rank)
        results[rank] = value

    for r in range(fabric.size):
        sim.process(daemon(r), name=f"d{r}")
    sim.run()
    return results


@pytest.mark.parametrize("kind", ["flat", "binomial", "kary"])
@pytest.mark.parametrize("n", [1, 2, 5, 16, 33])
class TestCollectives:
    def test_gather_rank_order(self, sim, kind, n):
        fabric = _make_fabric(sim, n, kind)

        def body(ep, rank):
            out = yield from ep.gather(f"payload-{rank}")
            return out

        results = _run_collective(sim, fabric, body)
        assert results[0] == [f"payload-{r}" for r in range(n)]
        assert all(results[r] is None for r in range(1, n))

    def test_broadcast_reaches_all(self, sim, kind, n):
        fabric = _make_fabric(sim, n, kind)

        def body(ep, rank):
            obj = {"cfg": 7} if rank == 0 else None
            out = yield from ep.broadcast(obj)
            return out

        results = _run_collective(sim, fabric, body)
        assert all(results[r] == {"cfg": 7} for r in range(n))

    def test_scatter_delivers_own_slice(self, sim, kind, n):
        fabric = _make_fabric(sim, n, kind)
        data = [f"slice-{r}" for r in range(n)]

        def body(ep, rank):
            out = yield from ep.scatter(data if rank == 0 else None)
            return out

        results = _run_collective(sim, fabric, body)
        assert results == {r: f"slice-{r}" for r in range(n)}

    def test_barrier_synchronizes(self, sim, kind, n):
        fabric = _make_fabric(sim, n, kind)
        release_times = {}

        def body(ep, rank):
            # stagger arrivals; all must leave at/after the last arrival
            yield ep.fabric.sim.timeout(0.01 * rank)
            yield from ep.barrier()
            release_times[rank] = ep.fabric.sim.now
            return None

        _run_collective(sim, fabric, body)
        last_arrival = 0.01 * (n - 1)
        assert all(t >= last_arrival - 1e-9 for t in release_times.values())


class TestCollectiveCosts:
    def test_per_rec_cost_linear_at_root(self, sim):
        """T(collective)'s linear term: root-side per-record processing."""
        def gather_time(n):
            s = Simulator()
            fabric = _make_fabric(s, n, "binomial", per_rec=0.001)

            def body(ep, rank):
                out = yield from ep.gather(rank)
                return out

            _run_collective(s, fabric, body)
            return s.now

        t8, t64 = gather_time(8), gather_time(64)
        assert t64 > t8
        assert (t64 - t8) == pytest.approx(0.001 * 56, rel=0.5)

    def test_wireup_required_before_collectives(self, sim):
        fabric = _make_fabric(sim, 4)
        ep = fabric.endpoint(1)
        with pytest.raises(ICCLError, match="not wired"):
            next(ep.gather("x"))

    def test_scatter_requires_exact_count(self, sim):
        fabric = _make_fabric(sim, 3)

        def body(ep, rank):
            if rank == 0:
                with pytest.raises(ICCLError, match="exactly"):
                    yield from ep.scatter(["a"])
                # recover: supply the correct count so others can finish
                out = yield from ep.scatter(["a", "b", "c"])
            else:
                out = yield from ep.scatter()
            return out

        results = _run_collective(sim, fabric, body)
        assert results[2] == "c"

    def test_topology_node_mismatch_raises(self, sim):
        cluster = Cluster(sim, ClusterSpec(n_compute=4, seed=5))
        with pytest.raises(ICCLError, match="size"):
            ICCLFabric(sim, cluster.network, cluster.compute[:3],
                       TreeTopology.flat(4))

    def test_collective_time_accounted(self, sim):
        fabric = _make_fabric(sim, 8, per_rec=0.001)

        def body(ep, rank):
            out = yield from ep.gather(rank)
            return out

        _run_collective(sim, fabric, body)
        assert fabric.endpoint(0).collective_time > 0
