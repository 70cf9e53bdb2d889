"""ICCL envelope exactness: pre-sized messages report their legacy size.

The collectives no longer put the literal per-hop payloads on the wire:
gather relays a growing record list with a running byte count, scatter
forwards one shared per-rank list, barrier tokens are shared constants.
Simulated timing depends only on the byte count each message reports, so
every envelope must report exactly ``message_size`` of the payload the
hop stands for:

* barrier -- ``("bar", rank)`` up, ``("rel", parent)`` down;
* gather -- the sender's subtree records ``[(rank, obj), ...]`` in
  preorder (its own record, then each child's batch in rank order);
* scatter -- the same record list for the receiving child's subtree;
* broadcast -- the broadcast object itself.

A network subclass records every message per tree link, so each link's
sequence of reported sizes is compared with the legacy payloads' sizes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.be.iccl import ICCLFabric, TreeTopology
from repro.cluster import Cluster, ClusterSpec
from repro.cluster.network import Network, Pipe, Sized, message_size
from repro.simx import Simulator


class RecordingNetwork(Network):
    """A network that logs each message sent over a pipe, per pipe."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: connecting (child) node name -> messages sent either way
        self.sent: dict[str, list] = {}

    def pipe(self, a_name, b_name):
        log = self.sent.setdefault(a_name, [])

        def latency(message):
            log.append((message, message.wire_size()))
            return self.transfer_time(message)

        return Pipe(self.sim, a_name, b_name, latency)


scalars = st.one_of(st.integers(), st.floats(allow_nan=False), st.none(),
                    st.text(max_size=6), st.binary(max_size=6))
payloads = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.tuples(inner, inner),
        st.dictionaries(st.text(max_size=3), inner, max_size=2)),
    max_leaves=8)


@st.composite
def scenarios(draw):
    n = draw(st.integers(min_value=1, max_value=64))
    kind = draw(st.sampled_from(["flat", "binomial", "kary"]))
    k = draw(st.integers(min_value=2, max_value=5))
    objs = draw(st.lists(payloads, min_size=n, max_size=n))
    return TreeTopology.make(n, kind, k), objs, draw(payloads)


def _run(topo, objs, bcast):
    sim = Simulator()
    cluster = Cluster(sim, ClusterSpec(n_compute=max(topo.size, 2), seed=5))
    net = RecordingNetwork(sim, cluster.costs, cluster.rng)
    nodes = cluster.compute[:topo.size]
    fabric = ICCLFabric(sim, net, nodes, topo, costs=cluster.costs,
                        rng=cluster.rng, per_rec_cost=0.001)
    results = {}

    def daemon(rank):
        ep = fabric.endpoint(rank)
        yield from ep.wireup()
        yield from ep.barrier()
        gathered = yield from ep.gather(objs[rank])
        mine = yield from ep.scatter(objs if rank == 0 else None)
        got = yield from ep.broadcast(bcast if rank == 0 else None)
        results[rank] = (gathered, mine, got)

    for rank in range(topo.size):
        sim.process(daemon(rank), name=f"d{rank}")
    sim.run()
    return results, [net.sent.get(node.name) for node in nodes]


def _legacy_link_payloads(topo, objs, bcast, child):
    """What the pre-envelope collectives sent over ``child``'s link."""
    parent = topo.parent[child]
    records = [(r, objs[r]) for r in topo.subtree(child)]
    return [("bar", child), ("rel", parent),   # wireup's barrier
            ("bar", child), ("rel", parent),   # the explicit barrier
            records,                           # gather, up
            records,                           # scatter, down
            bcast]                             # broadcast, down


@given(scenarios())
@settings(max_examples=40, deadline=None)
def test_envelopes_report_legacy_sizes_and_results_hold(scenario):
    topo, objs, bcast = scenario
    results, sent = _run(topo, objs, bcast)
    for rank in range(1, topo.size):
        log = sent[rank]
        legacy = _legacy_link_payloads(topo, objs, bcast, rank)
        assert all(isinstance(msg, Sized) for msg, _ in log)
        assert [size for _, size in log] == [message_size(p) for p in legacy]
        gather_env = log[4][0]
        assert gather_env.payload == legacy[4]
    assert results[0][0] == list(objs)
    for rank in range(topo.size):
        gathered, mine, got = results[rank]
        assert (gathered is None) == (rank != 0)
        assert mine is objs[rank]
        assert got is bcast
