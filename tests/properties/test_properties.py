"""Property-based tests (hypothesis) for core data structures/invariants."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.be.iccl import TreeTopology
from repro.lmonp import FrameDecoder, LmonpMessage, MsgClass
from repro.lmonp.header import MAX_TYPE
from repro.mpir import ProcDesc, RPDTAB
from repro.simx import SeededRNG, Simulator
from repro.tbon.topology import TBONTopology
from repro.tools.stat_tool import PrefixTree, merge_trees

# -- strategies ---------------------------------------------------------------

msg_classes = st.sampled_from([MsgClass.FE_ENGINE, MsgClass.FE_BE,
                               MsgClass.FE_MW])
payloads = st.binary(max_size=2048)


@st.composite
def lmonp_messages(draw):
    return LmonpMessage(
        msg_class=draw(msg_classes),
        msg_type=draw(st.integers(min_value=1, max_value=7)),
        num_tasks=draw(st.integers(min_value=0, max_value=2 ** 32 - 1)),
        sec_chk=draw(st.integers(min_value=0, max_value=0xFFFF)),
        lmon_payload=draw(payloads),
        usr_payload=draw(payloads),
    )


@st.composite
def rpdtabs(draw):
    n = draw(st.integers(min_value=0, max_value=64))
    hosts = draw(st.lists(
        st.text(alphabet="abcdefgh0123456789-", min_size=1, max_size=12),
        min_size=1, max_size=8))
    return RPDTAB(
        ProcDesc(rank=i, host_name=hosts[i % len(hosts)],
                 executable_name=draw(st.sampled_from(["app", "sim", "x"])),
                 pid=1000 + i)
        for i in range(n))


frames = st.lists(
    st.sampled_from(["main", "do_work", "solve", "MPI_Barrier", "MPI_Recv",
                     "compute", "io_write", "helper"]),
    min_size=1, max_size=6)
stacks_with_ranks = st.lists(
    st.tuples(frames, st.integers(min_value=0, max_value=200)),
    min_size=0, max_size=30)


def build_tree(samples):
    t = PrefixTree()
    for stack, rank in samples:
        t.insert(stack, rank)
    return t


# -- LMONP ---------------------------------------------------------------------

class TestLmonpProperties:
    @given(lmonp_messages())
    def test_encode_decode_roundtrip(self, msg):
        assert LmonpMessage.decode(msg.encode()) == msg

    @given(lmonp_messages())
    def test_wire_size_is_len_encode(self, msg):
        assert msg.wire_size() == len(msg.encode())

    @given(st.lists(lmonp_messages(), min_size=1, max_size=6),
           st.data())
    def test_frame_decoder_arbitrary_chunking(self, msgs, data):
        stream = b"".join(m.encode() for m in msgs)
        decoder = FrameDecoder()
        out = []
        i = 0
        while i < len(stream):
            step = data.draw(st.integers(min_value=1,
                                         max_value=len(stream) - i))
            out.extend(decoder.feed(stream[i:i + step]))
            i += step
        assert out == msgs
        assert decoder.pending_bytes == 0


# -- RPDTAB ---------------------------------------------------------------------

class TestRpdtabProperties:
    @given(rpdtabs())
    def test_codec_roundtrip(self, tab):
        assert RPDTAB.from_bytes(tab.to_bytes()) == tab

    @given(rpdtabs())
    def test_host_partition(self, tab):
        """entries_on over hosts partitions the table exactly."""
        seen = []
        for h in tab.hosts:
            seen.extend(tab.entries_on(h))
        assert sorted(e.rank for e in seen) == [e.rank for e in tab]

    @given(rpdtabs())
    def test_task_counts_sum(self, tab):
        assert sum(tab.task_counts().values()) == len(tab)


# -- prefix tree algebra -----------------------------------------------------------

class TestPrefixTreeProperties:
    @given(stacks_with_ranks, stacks_with_ranks)
    def test_merge_commutative(self, a, b):
        ab = build_tree(a).merge(build_tree(b))
        ba = build_tree(b).merge(build_tree(a))
        assert ab == ba

    @given(stacks_with_ranks, stacks_with_ranks, stacks_with_ranks)
    @settings(max_examples=50)
    def test_merge_associative(self, a, b, c)            :
        left = build_tree(a).merge(build_tree(b)).merge(build_tree(c))
        right = build_tree(a).merge(build_tree(b).merge(build_tree(c)))
        assert left == right

    @given(stacks_with_ranks)
    def test_merge_idempotent(self, a):
        t = build_tree(a)
        assert t.copy().merge(t.copy()) == t

    @given(stacks_with_ranks)
    def test_insert_order_irrelevant(self, samples):
        fwd = build_tree(samples)
        rev = build_tree(list(reversed(samples)))
        assert fwd == rev

    @given(stacks_with_ranks)
    def test_rank_preservation(self, samples):
        t = build_tree(samples)
        assert t.all_ranks == {r for _, r in samples}

    @given(st.dictionaries(st.integers(min_value=-1, max_value=200), frames,
                           max_size=30))
    def test_classes_partition_ranks(self, stack_of):
        """With one sample per rank, the classes are pairwise disjoint and
        cover every rank -- also when one stack is a prefix of another."""
        t = build_tree([(stack, r) for r, stack in stack_of.items()])
        seen: set = set()
        for _, ranks in t.equivalence_classes():
            assert seen.isdisjoint(ranks)
            seen |= ranks
        assert seen == t.all_ranks == set(stack_of)

    @given(stacks_with_ranks)
    def test_wire_roundtrip(self, samples):
        t = build_tree(samples)
        assert PrefixTree.from_dict(
            json.loads(json.dumps(t.to_dict()))) == t

    @given(st.lists(stacks_with_ranks, min_size=1, max_size=5))
    @settings(max_examples=50)
    def test_tbon_reduction_lossless(self, parts):
        """Merging partial trees in any grouping equals one big tree."""
        flat = [s for part in parts for s in part]
        assert merge_trees(build_tree(p) for p in parts) == build_tree(flat)


# -- ICCL topology invariants ----------------------------------------------------

class TestTopologyProperties:
    @given(st.integers(min_value=1, max_value=300),
           st.sampled_from(["flat", "binomial", "kary"]))
    def test_tree_is_spanning(self, n, kind):
        t = TreeTopology.make(n, kind)
        reached = set(t.subtree(0))
        assert reached == set(range(n))

    @given(st.integers(min_value=1, max_value=300),
           st.sampled_from(["flat", "binomial", "kary"]))
    def test_parent_child_consistency(self, n, kind):
        t = TreeTopology.make(n, kind)
        for rank in range(n):
            for c in t.children[rank]:
                assert t.parent[c] == rank
        assert t.parent[0] is None

    @given(st.integers(min_value=2, max_value=1024))
    def test_binomial_depth_bound(self, n):
        import math
        assert TreeTopology.binomial(n).depth() <= math.ceil(math.log2(n))

    @given(st.integers(min_value=1, max_value=64))
    def test_tbon_jsonable_roundtrip(self, n):
        t = TBONTopology.one_deep(n)
        assert TBONTopology.from_jsonable(
            json.loads(json.dumps(t.to_jsonable()))) == t


# -- TBON topology construction invariants -----------------------------------


class TestTBONTopologyProperties:
    """Balanced fan-out trees must satisfy the structural invariants the
    constructor validates, at every (n_backends, fanout) combination."""

    sizes = st.integers(min_value=1, max_value=400)
    fanouts = st.integers(min_value=2, max_value=32)

    @given(sizes, fanouts)
    def test_balanced_has_exactly_n_backends(self, n, fanout):
        t = TBONTopology.balanced(n, fanout)
        assert len(t.backends()) == n
        assert t.size == 1 + len(t.comm_positions()) + n

    @given(sizes, fanouts)
    def test_balanced_roundtrips_through_wire_form(self, n, fanout):
        t = TBONTopology.balanced(n, fanout)
        assert TBONTopology.from_jsonable(
            json.loads(json.dumps(t.to_jsonable()))) == t

    @given(sizes, fanouts)
    def test_balanced_parent_kind_invariants(self, n, fanout):
        """Re-validating the constructed tuples exercises every
        __post_init__ rule: root position, parent bounds, leaves are BEs,
        internals are fe/comm."""
        t = TBONTopology.balanced(n, fanout)
        assert TBONTopology(t.parent, t.kind) == t
        assert t.parent[0] is None and t.kind[0] == "fe"
        for p in range(1, t.size):
            assert 0 <= t.parent[p] < t.size and t.parent[p] != p
        for be in t.backends():
            assert not t.children(be)
        for comm in t.comm_positions():
            assert t.children(comm)

    @given(sizes, fanouts)
    def test_balanced_respects_fanout_and_depth(self, n, fanout):
        t = TBONTopology.balanced(n, fanout)
        # comm layer: each comm daemon serves at most fanout back ends,
        # and the whole tree is at most two levels deep
        for comm in t.comm_positions():
            assert len(t.children(comm)) <= fanout
        assert t.depth() <= 2

    @given(sizes, fanouts)
    def test_balanced_is_spanning(self, n, fanout):
        """Every position walks parent links back to the root (no cycles,
        no orphans)."""
        t = TBONTopology.balanced(n, fanout)
        for p in range(t.size):
            hops, q = 0, p
            while t.parent[q] is not None:
                q = t.parent[q]
                hops += 1
                assert hops <= t.size
            assert q == 0

    @given(sizes, fanouts, st.data())
    @settings(max_examples=60)
    def test_mutations_fail_validation(self, n, fanout, data):
        """Random structural corruption is rejected by __post_init__."""
        from repro.tbon.topology import TopologyError

        t = TBONTopology.balanced(n, fanout)
        mutation = data.draw(st.sampled_from(
            ["self-parent", "rootless", "be-internal", "comm-leaf"]))
        parent, kind = list(t.parent), list(t.kind)
        if mutation == "self-parent":
            pos = data.draw(st.integers(min_value=1, max_value=t.size - 1))
            parent[pos] = pos
        elif mutation == "rootless":
            parent[0] = 0
        elif mutation == "be-internal":
            be = data.draw(st.sampled_from(t.backends()))
            kind[be] = "comm"  # a leaf that is not a back end
        elif mutation == "comm-leaf":
            # point every backend at the root: comm daemons become leaves
            comms = t.comm_positions()
            if not comms:
                return  # one-deep shape: nothing to orphan
            for be in t.backends():
                parent[be] = 0
        with pytest.raises(TopologyError):
            TBONTopology(tuple(parent), tuple(kind))


# -- DES determinism ----------------------------------------------------------------

class TestSimulatorProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=10.0,
                              allow_nan=False), min_size=1, max_size=20))
    def test_clock_monotone(self, delays):
        sim = Simulator()
        observed = []

        def p(sim, d):
            yield sim.timeout(d)
            observed.append(sim.now)

        for d in delays:
            sim.process(p(sim, d))
        sim.run()
        assert observed == sorted(observed)
        assert len(observed) == len(delays)

    @given(st.integers(min_value=0, max_value=2 ** 31), st.text(min_size=1,
                                                                max_size=8))
    def test_rng_streams_reproducible(self, seed, name):
        a = SeededRNG(seed).child(name)
        b = SeededRNG(seed).child(name)
        assert [a.random() for _ in range(5)] == [
            b.random() for _ in range(5)]
