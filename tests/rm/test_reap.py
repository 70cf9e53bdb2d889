"""The RM epilogue: ``ResourceManager.reap`` ends what runs on an
allocation's nodes and hands the nodes back, once."""

from repro.cluster import Cluster, ClusterSpec
from repro.rm import SlurmRM
from tests.conftest import run_gen


def test_reap_ends_every_live_process_and_releases_once(sim):
    rm = SlurmRM(Cluster(sim, ClusterSpec(n_compute=4, seed=3)))
    alloc = rm.allocate(2)
    other = rm.allocate(1)
    procs = [run_gen(sim, node.fork_exec("task"))
             for node in alloc.nodes for _ in range(2)]
    bystander = run_gen(sim, other.nodes[0].fork_exec("task"))
    procs[0].exit(0)  # already gone: not counted, exit code kept

    assert rm.reap(alloc, 9) == 3
    assert [p.exit_code for p in procs] == [0, 9, 9, 9]
    assert bystander.alive
    assert alloc.alloc_id not in rm.live_allocations
    assert rm.allocated_node_names == {n.name for n in other.nodes}
    assert rm.n_free == 3

    # a second call ends nothing and releases nothing, not even the
    # same nodes granted again meanwhile
    again = rm.allocate(2)
    assert again.nodes == alloc.nodes
    assert rm.reap(alloc, 9) == 0
    assert bystander.alive
    assert again.alloc_id in rm.live_allocations
    assert rm.n_free == 1
