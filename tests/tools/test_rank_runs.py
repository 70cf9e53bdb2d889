"""STAT rank sets as runs, checked against the set-based implementation.

The prefix tree and the TBON merge hold every rank set as a run list
(:mod:`repro.tbon.filters`). The set-based ``PrefixTree`` and
``_merge_tree_nodes`` they replaced are kept here as the oracle -- with
the interior-class rule (a stack that is a prefix of another still forms
its own class) applied to the oracle's ``paths()`` -- and Hypothesis
drives both with the same samples:

* every node's rank set, ``paths()`` and ``equivalence_classes()`` match;
* the merged wire form, decoded to sets, matches through
  ``prefix_tree_merge`` in any grouping, aggregate-style spans included;
* :class:`RankRuns` agrees with ``frozenset`` on ``len``, ``in``,
  iteration order, ``==`` both ways and ``hash``.

The scale guard then shows what the run form buys: a 2**30-rank STAT
merge costs its exact head, not one integer per modeled task.
"""

import tracemalloc

from hypothesis import given, settings, strategies as st

from repro.tbon import RankRuns, get_filter
from repro.tbon.filters import add_rank, subtract_runs, union_runs
from repro.tools.stat_tool import PrefixTree, merge_trees
from repro.tools.stat_tool.tool import HANG_BULK_STACK

prefix_tree_merge = get_filter("prefix_tree_merge")


# -- the oracle: set-based tree and wire merge ------------------------------

class _SetNode:
    __slots__ = ("ranks", "children")

    def __init__(self):
        self.ranks: set = set()
        self.children: dict = {}


class SetPrefixTree:
    """The set-based prefix tree: one Python int per rank in every node."""

    def __init__(self):
        self._root = _SetNode()

    def insert(self, stack, rank):
        node = self._root
        node.ranks.add(rank)
        for frame in stack:
            node = node.children.setdefault(frame, _SetNode())
            node.ranks.add(rank)

    @property
    def all_ranks(self):
        return frozenset(self._root.ranks)

    def paths(self):
        out = []

        def walk(node, prefix):
            own = set(node.ranks)
            for child in node.children.values():
                own -= child.ranks
            if own:
                out.append((prefix, frozenset(own)))
            for frame in sorted(node.children):
                walk(node.children[frame], prefix + (frame,))

        for frame in sorted(self._root.children):
            walk(self._root.children[frame], (frame,))
        return out

    def equivalence_classes(self):
        return sorted(self.paths(), key=lambda pr: (-len(pr[1]), pr[0]))

    def to_dict(self):
        def conv(node):
            return {"r": sorted(node.ranks),
                    "c": {f: conv(ch) for f, ch in
                          sorted(node.children.items())}}
        return {"tree": conv(self._root)}


def set_merge_tree_nodes(nodes):
    """Pointwise union of set-form wire nodes (``{"r": [...], "c": {}}``)."""
    ranks: set = set()
    for n in nodes:
        ranks.update(n["r"])
    frames = sorted({f for n in nodes for f in n["c"]})
    return {"r": sorted(ranks),
            "c": {f: set_merge_tree_nodes([n["c"][f] for n in nodes
                                           if f in n["c"]])
                  for f in frames}}


def decode(node):
    """A run-form wire node with every rank set expanded to a sorted list."""
    assert is_canonical(node["r"]), node["r"]
    return {"r": list(RankRuns(node["r"])),
            "c": {f: decode(ch) for f, ch in node["c"].items()}}


def is_canonical(runs):
    """Sorted, disjoint, non-empty runs with adjacent runs joined."""
    return (len(runs) % 2 == 0
            and all(a < b for a, b in zip(runs, runs[1:])))


def span_tree(stack, rank_set):
    """A span's tree the way the hybrid aggregate emitter builds it: one
    shared rank set (a run list, or a list of ranks for the oracle) on
    every node of ``stack``."""
    node = {"r": rank_set, "c": {}}
    for frame in reversed(stack):
        node = {"r": rank_set, "c": {frame: node}}
    return node


# -- strategies ---------------------------------------------------------------

frames = st.lists(st.sampled_from(["main", "solve", "MPI_Barrier", "io"]),
                  min_size=1, max_size=4)
#: a small rank range makes duplicates and adjacent (joining) ranks
#: common; -1 is the native startup path's unknown rank
ranks = st.integers(min_value=-1, max_value=24)
samples = st.lists(st.tuples(frames, ranks), max_size=30)
spans = st.tuples(frames, st.integers(-1, 40),
                  st.integers(1, 12)).map(
    lambda t: (t[0], t[1], t[1] + t[2]))
rank_sets = st.frozensets(st.integers(min_value=-5, max_value=60))


def build(tree_cls, sample_list):
    t = tree_cls()
    for stack, rank in sample_list:
        t.insert(stack, rank)
    return t


def runs_of(rank_set):
    runs: list = []
    for rank in rank_set:
        add_rank(runs, rank)
    return runs


# -- the tree against the oracle ----------------------------------------------

class TestTreeMatchesSetOracle:
    @given(samples)
    def test_every_node_rank_set(self, sample_list):
        tree = build(PrefixTree, sample_list)
        oracle = build(SetPrefixTree, sample_list)
        assert decode(tree.to_dict()["tree"]) == oracle.to_dict()["tree"]
        assert tree.all_ranks == oracle.all_ranks

    @given(samples)
    def test_paths_and_classes(self, sample_list):
        tree = build(PrefixTree, sample_list)
        oracle = build(SetPrefixTree, sample_list)
        assert tree.paths() == oracle.paths()
        assert tree.equivalence_classes() == oracle.equivalence_classes()

    @given(samples, samples)
    def test_tree_merge(self, a, b):
        merged = build(PrefixTree, a).merge(build(PrefixTree, b))
        oracle = build(SetPrefixTree, a + b)
        assert decode(merged.to_dict()["tree"]) == oracle.to_dict()["tree"]

    @given(st.lists(samples, min_size=1, max_size=5),
           st.lists(spans, max_size=3), st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_wire_merge_in_any_grouping(self, parts, span_list, rnd):
        payloads = [build(PrefixTree, p).to_dict() for p in parts]
        twins = [build(SetPrefixTree, p).to_dict() for p in parts]
        for stack, lo, hi in span_list:
            payloads.append({"tree": span_tree(stack, [lo, hi]),
                             "n": hi - lo})
            twins.append({"tree": span_tree(stack, list(range(lo, hi)))})
        expected = set_merge_tree_nodes([t["tree"] for t in twins])
        # a random reduction tree: shuffle, merge random groups, repeat
        level = list(payloads)
        rnd.shuffle(level)
        while len(level) > 1:
            cut = rnd.randint(1, len(level))
            level = level[cut:] + [prefix_tree_merge(level[:cut])]
        merged = level[0]
        assert decode(merged["tree"]) == expected
        assert merged == prefix_tree_merge(payloads)
        assert merged["n"] == sum(p["n"] for p in payloads)
        # the tree's own merge runs the same union
        trees = [PrefixTree.from_dict(p) for p in payloads]
        assert merge_trees(trees).to_dict()["tree"] == merged["tree"]


# -- the run primitives and the value type -----------------------------------

class TestRunPrimitives:
    @given(st.lists(rank_sets, max_size=5))
    def test_union_matches_sets(self, sets):
        out = union_runs([runs_of(s) for s in sets])
        assert is_canonical(out)
        assert list(RankRuns(out)) == sorted(set().union(*sets))

    @given(rank_sets, rank_sets)
    def test_subtract_matches_sets(self, a, b):
        out = subtract_runs(runs_of(a), runs_of(b))
        assert is_canonical(out)
        assert list(RankRuns(out)) == sorted(a - b)

    @given(st.lists(st.integers(-5, 60), max_size=40))
    def test_add_rank_keeps_runs_canonical(self, rank_list):
        runs: list = []
        for rank in rank_list:
            add_rank(runs, rank)
            assert is_canonical(runs)
        assert list(RankRuns(runs)) == sorted(set(rank_list))


class TestRankRunsIsAFrozenset:
    @given(rank_sets)
    def test_len_membership_and_order(self, s):
        rr = RankRuns(runs_of(s))
        assert len(rr) == len(s)
        assert bool(rr) == bool(s)
        assert list(rr) == sorted(s)
        for probe in range(-7, 63):
            assert (probe in rr) == (probe in s)
        assert "main" not in rr and 0.5 not in rr

    @given(rank_sets, rank_sets)
    def test_equality_both_ways_and_hash(self, s, t):
        rr = RankRuns(runs_of(s))
        for other in (s, set(s), RankRuns(runs_of(s))):
            assert rr == other and other == rr
            assert not (rr != other) and not (other != rr)
        assert (rr == t) == (s == t) == (t == rr)
        assert (rr == RankRuns(runs_of(t))) == (s == t)
        assert hash(rr) == hash(frozenset(s))
        assert {rr: 1}[frozenset(s)] == 1

    @given(rank_sets, rank_sets)
    def test_set_operators_return_frozensets(self, s, t):
        rr = RankRuns(runs_of(s))
        assert rr | t == s | t and rr & t == s & t
        assert rr - t == s - t and rr ^ t == s ^ t
        assert (rr <= t) == (s <= t)


# -- scale: the run form costs runs, not ranks --------------------------------

class TestScaleGuard:
    def test_billion_rank_merge_costs_its_exact_head(self):
        """An exact head plus two aggregate spans covering 2**30 ranks
        merge, decode and classify in well under a MiB. The set form
        would hold 2**30 ints in every node of the bulk stack."""
        n, head = 2 ** 30, 1024
        exact = PrefixTree()
        exact.insert(("_start", "main", "do_work", "exchange", "MPI_Recv"),
                     0)
        exact.insert(("_start", "main", "do_work", "compute_kernel",
                      "inner_loop"), 1)
        for rank in range(2, head):
            exact.insert(HANG_BULK_STACK, rank)
        payloads = [exact.to_dict(),
                    {"tree": span_tree(HANG_BULK_STACK, [head, n // 2]),
                     "n": n // 2 - head},
                    {"tree": span_tree(HANG_BULK_STACK, [n // 2, n]),
                     "n": n // 2}]
        tracemalloc.start()
        try:
            merged = prefix_tree_merge(payloads)
            tree = PrefixTree.from_dict(merged)
            classes = tree.equivalence_classes()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 ** 20, f"peak {peak / 2 ** 20:.3f} MiB"
        assert [(path[-1], len(r)) for path, r in classes] == [
            ("MPI_Barrier", n - 2), ("inner_loop", 1), ("MPI_Recv", 1)]
        assert len(tree.all_ranks) == n
        assert tree.all_ranks.runs == (0, n)
        assert (n - 1) in classes[0][1] and 1 not in classes[0][1]

    def test_billion_daemon_hybrid_stat_run(self):
        from repro.experiments.fig6 import measure_stat_startup

        box = measure_stat_startup(2 ** 30, "launchmon",
                                   tasks_per_daemon=1, hybrid=True)
        assert box["classes"] == 3
        assert box["n_tasks"] == 2 ** 30
