"""Tests for the RPDTAB (MPIR proctable) and its binary codec."""

import copy
import dataclasses
import pickle

import pytest

from repro.mpir import ProcDesc, RPDTAB


def make_table(n_tasks=16, tasks_per_node=4, exe="app"):
    return RPDTAB(
        ProcDesc(rank=r, host_name=f"node{r // tasks_per_node:03d}",
                 executable_name=exe, pid=1000 + r)
        for r in range(n_tasks))


class TestRPDTAB:
    def test_len_and_iteration_rank_order(self):
        tab = make_table(8)
        assert len(tab) == 8
        assert [e.rank for e in tab] == list(range(8))

    def test_getitem_by_rank(self):
        tab = make_table(8)
        assert tab[5].pid == 1005

    def test_hosts_in_first_rank_order(self):
        tab = make_table(8, tasks_per_node=4)
        assert tab.hosts == ["node000", "node001"]

    def test_entries_on_host(self):
        tab = make_table(8, tasks_per_node=4)
        local = tab.entries_on("node001")
        assert [e.rank for e in local] == [4, 5, 6, 7]

    def test_entries_on_unknown_host_empty(self):
        assert make_table(4).entries_on("nowhere") == []

    def test_task_counts(self):
        tab = make_table(10, tasks_per_node=4)
        assert tab.task_counts() == {"node000": 4, "node001": 4, "node002": 2}

    def test_unsorted_input_sorted(self):
        entries = [ProcDesc(2, "h", "x", 3), ProcDesc(0, "h", "x", 1),
                   ProcDesc(1, "h", "x", 2)]
        tab = RPDTAB(entries)
        assert [e.rank for e in tab] == [0, 1, 2]

    def test_empty_table(self):
        tab = RPDTAB()
        assert len(tab) == 0
        assert tab.hosts == []
        assert RPDTAB.from_bytes(tab.to_bytes()) == tab


class TestCodec:
    def test_roundtrip(self):
        tab = make_table(64, tasks_per_node=8)
        assert RPDTAB.from_bytes(tab.to_bytes()) == tab

    @pytest.mark.parametrize("n_tasks", [1024, 8192])
    def test_roundtrip_at_scale(self, n_tasks):
        tab = RPDTAB(ProcDesc(rank=r, host_name=f"atlas{r // 8:04d}",
                              executable_name="app", pid=1000 + r % 8)
                     for r in range(n_tasks))
        back = RPDTAB.from_bytes(tab.to_bytes())
        assert len(back) == n_tasks
        assert back == tab

    def test_roundtrip_unicode_names(self):
        tab = RPDTAB([ProcDesc(0, "nöde-α", "exé", 42)])
        back = RPDTAB.from_bytes(tab.to_bytes())
        assert back[0].host_name == "nöde-α"
        assert back[0].executable_name == "exé"

    def test_string_table_dedupes(self):
        """Wire size grows ~linearly in tasks, not in total string bytes."""
        small = make_table(10, tasks_per_node=10).wire_size()
        big = make_table(1000, tasks_per_node=10).wire_size()
        per_task = (big - small) / 990
        assert per_task < 40  # fixed record + occasional new hostname

    def test_wire_size_matches_bytes(self):
        tab = make_table(32)
        assert tab.wire_size() == len(tab.to_bytes())

    def test_wire_size_linear_in_tasks(self):
        s1 = make_table(100).wire_size()
        s2 = make_table(200).wire_size()
        s3 = make_table(400).wire_size()
        assert (s3 - s2) == pytest.approx(2 * (s2 - s1), rel=0.2)

    def test_equality_semantics(self):
        assert make_table(8) == make_table(8)
        assert make_table(8) != make_table(9)
        assert make_table(8) != object()


class TestProcDesc:
    """A descriptor is an immutable value, whatever its layout."""

    def test_compares_orders_and_hashes_by_value(self):
        a = ProcDesc(1, "h", "x", 7)
        assert a == ProcDesc(1, "h", "x", 7)
        assert a != ProcDesc(1, "h", "x", 8)
        assert ProcDesc(0, "z", "z", 9) < a < ProcDesc(1, "h", "x", 8)
        assert sorted([ProcDesc(2, "h", "x", 3), ProcDesc(0, "h", "x", 1)]) \
            == [ProcDesc(0, "h", "x", 1), ProcDesc(2, "h", "x", 3)]
        assert hash(a) == hash(ProcDesc(1, "h", "x", 7))
        assert len({a, ProcDesc(1, "h", "x", 7)}) == 1
        assert repr(a) == ("ProcDesc(rank=1, host_name='h', "
                           "executable_name='x', pid=7)")

    def test_refuses_assignment(self):
        a = ProcDesc(1, "h", "x", 7)
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.pid = 8
        with pytest.raises((dataclasses.FrozenInstanceError, AttributeError)):
            a.extra = 1

    @pytest.mark.parametrize("protocol",
                             range(pickle.HIGHEST_PROTOCOL + 1))
    def test_survives_pickle(self, protocol):
        a = ProcDesc(3, "nöde", "exé", 42)
        back = pickle.loads(pickle.dumps(a, protocol))
        assert back == a and type(back) is ProcDesc

    def test_survives_copy(self):
        a = ProcDesc(3, "h", "x", 42)
        assert copy.copy(a) == a
        assert copy.deepcopy(a) == a
        assert dataclasses.replace(a, pid=43) == ProcDesc(3, "h", "x", 43)
