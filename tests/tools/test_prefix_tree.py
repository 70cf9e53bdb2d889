"""Tests for STAT's call-graph prefix tree."""

import pytest

from repro.tools.stat_tool import PrefixTree, merge_trees


def build(samples):
    t = PrefixTree()
    for stack, rank in samples:
        t.insert(stack, rank)
    return t


BARRIER = ("_start", "main", "do_work", "MPI_Barrier")
COMPUTE = ("_start", "main", "do_work", "compute_kernel", "inner_loop")
RECV = ("_start", "main", "do_work", "exchange", "MPI_Recv")


class TestInsertAndQuery:
    def test_single_stack(self):
        t = build([(BARRIER, 0)])
        assert t.paths() == [(BARRIER, frozenset({0}))]
        assert t.all_ranks == {0}

    def test_shared_prefix_not_duplicated(self):
        t = build([(BARRIER, 0), (COMPUTE, 1)])
        # shared: _start, main, do_work; distinct: MPI_Barrier vs
        # compute_kernel/inner_loop
        assert t.node_count() == 3 + 1 + 2

    def test_ranks_propagate_along_prefix(self):
        t = build([(BARRIER, 0), (COMPUTE, 1), (BARRIER, 2)])
        assert t.ranks_at(("_start", "main", "do_work")) == {0, 1, 2}
        assert t.ranks_at(BARRIER) == {0, 2}
        assert t.ranks_at(COMPUTE) == {1}

    def test_ranks_at_missing_path_empty(self):
        t = build([(BARRIER, 0)])
        assert t.ranks_at(("nope",)) == frozenset()

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError):
            PrefixTree().insert([], 0)

    def test_equivalence_classes_largest_first(self):
        samples = [(BARRIER, r) for r in range(6)]
        samples += [(COMPUTE, 6)]
        samples += [(RECV, 7)]
        classes = build(samples).equivalence_classes()
        assert classes[0] == (BARRIER, frozenset(range(6)))
        assert len(classes) == 3

    def test_classes_partition_ranks(self):
        samples = ([(BARRIER, r) for r in range(5)]
                   + [(COMPUTE, 5), (COMPUTE, 6)])
        classes = build(samples).equivalence_classes()
        all_ranks = [r for _, ranks in classes for r in ranks]
        assert sorted(all_ranks) == list(range(7))

    def test_stack_ending_at_interior_frame_is_a_class(self):
        """A rank whose stack is a prefix of another rank's stack keeps
        its own class instead of dropping out of the partition."""
        t = build([(("_start", "main"), 0),
                   (("_start", "main", "MPI_Barrier"), 1)])
        assert t.equivalence_classes() == [
            (("_start", "main"), frozenset({0})),
            (("_start", "main", "MPI_Barrier"), frozenset({1}))]
        assert t.all_ranks == {0, 1}


class TestMerge:
    def test_merge_unions_ranks(self):
        a = build([(BARRIER, 0)])
        b = build([(BARRIER, 1)])
        a.merge(b)
        assert a.ranks_at(BARRIER) == {0, 1}

    def test_merge_disjoint_paths(self):
        a = build([(BARRIER, 0)])
        b = build([(COMPUTE, 1)])
        a.merge(b)
        assert len(a.paths()) == 2

    def test_merge_trees_helper(self):
        trees = [build([(BARRIER, r)]) for r in range(10)]
        merged = merge_trees(trees)
        assert merged.ranks_at(BARRIER) == set(range(10))

    def test_merge_order_irrelevant(self):
        parts = [build([(BARRIER, 0), (COMPUTE, 1)]),
                 build([(RECV, 2)]),
                 build([(BARRIER, 3)])]
        ab = merge_trees(parts)
        ba = merge_trees(reversed(parts))
        assert ab == ba

    def test_merge_idempotent(self):
        a = build([(BARRIER, 0), (COMPUTE, 1)])
        b = a.copy().merge(a.copy())
        assert b.paths() == a.paths()


class TestWireForm:
    def test_roundtrip(self):
        t = build([(BARRIER, 0), (COMPUTE, 1), (RECV, 2)])
        back = PrefixTree.from_dict(t.to_dict())
        assert back == t
        assert back.paths() == t.paths()

    def test_dict_is_jsonable(self):
        import json
        t = build([(BARRIER, 0)])
        assert json.loads(json.dumps(t.to_dict())) == t.to_dict()

    def test_filter_registered(self):
        from repro.tbon import get_filter
        fn = get_filter("prefix_tree_merge")
        a = build([(BARRIER, 0)]).to_dict()
        b = build([(BARRIER, 1)]).to_dict()
        merged = PrefixTree.from_dict(fn([a, b]))
        assert merged.ranks_at(BARRIER) == {0, 1}
