"""Hypothesis properties for partition tolerance: arbitrary seeded
netsplit schedules can never double-allocate, and views always
reconverge within ``suspect_rounds + diameter`` rounds of heal.

The chaos harness's scripted variants cover the storms we thought of;
these properties cover the ones we did not: Hypothesis draws arbitrary
two-sided splits of the fleet (any subset of members and/or the front
door vs the rest), arbitrary onset/heal windows -- optionally two
back-to-back windows with different sides -- and an arbitrary traffic
seed, then holds every run to the same invariants the soak audits:

* **zero double allocations** -- every fenced re-placement bumped the
  epoch first, no stale session outlives its fence, no abandoned
  session is left non-terminal, no fence goes undelivered;
* **zero leaked nodes** -- every member RM ledger drains to empty;
* **reconvergence** -- the harness runs exactly ``suspect_rounds +
  diameter`` rounds past the last heal and requires state agreement,
  so a passing run *is* the bound, not an eventually-converges claim.

Derandomized like the placement properties: a chaos run is a pure
function of (seed, plan), so its property tests may as well be pure
functions of the source tree.

The same schedules drive the gossip merge oracle at the bottom: the
pre-refactor ``FleetView`` merge and ``GossipMesh.run_round`` are kept
here, and every round of a run must match them exactly.
"""

from contextlib import contextmanager
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import NetFaultPlan, NetPartition
from repro.fleet import (
    ChaosScenario,
    ClusterState,
    FleetView,
    GossipMesh,
    run_fleet_chaos,
    scenario_for_seed,
)

PARTICIPANTS = ("c0", "c1", "c2", "c3", "c4", "frontdoor")

sides = st.sets(st.sampled_from(PARTICIPANTS), min_size=1,
                max_size=len(PARTICIPANTS) - 1)
onsets = st.integers(min_value=0, max_value=4)
durations = st.integers(min_value=1, max_value=6)
seeds = st.integers(min_value=0, max_value=2 ** 16)


def _split(side, at_round, duration):
    other = tuple(sorted(set(PARTICIPANTS) - side))
    return NetPartition(groups=(tuple(sorted(side)), other),
                        at_round=at_round, heal_round=at_round + duration)


def _run(seed, partitions):
    scenario = ChaosScenario(
        seed=seed, variant="property",
        plan=NetFaultPlan(partitions=tuple(partitions)))
    return run_fleet_chaos(scenario)


class TestPartitionScheduleProperties:
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(seed=seeds, side=sides, at_round=onsets, duration=durations)
    def test_any_single_split_is_safe_and_reconverges(
            self, seed, side, at_round, duration):
        res = _run(seed, [_split(side, at_round, duration)])
        assert res.double_allocations == 0, res.violations
        assert res.leaked == 0, res.violations
        assert res.converged, res.violations
        assert res.ok, res.violations

    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(seed=seeds, side_a=sides, side_b=sides,
           at_round=onsets, dur_a=durations, dur_b=durations,
           gap=st.integers(min_value=0, max_value=3))
    def test_back_to_back_splits_are_safe_and_reconverge(
            self, seed, side_a, side_b, at_round, dur_a, dur_b, gap):
        first = _split(side_a, at_round, dur_a)
        second = _split(side_b, at_round + dur_a + gap, dur_b)
        res = _run(seed, [first, second])
        assert res.double_allocations == 0, res.violations
        assert res.leaked == 0, res.violations
        assert res.converged, res.violations
        assert res.ok, res.violations


# -- gossip merge oracle ------------------------------------------------------
# FleetView.put/merge/records/clusters and GossipMesh.run_round as they
# were before merge became the view's one merge loop.

def _oracle_put(view, rec):
    cur = view._records.get(rec.cluster)
    if cur is not None and cur.version >= rec.version:
        return False
    if (cur is not None and cur.state is ClusterState.DOWN
            and rec.state is not ClusterState.DOWN):
        view.readmissions += 1
    view._records[rec.cluster] = rec
    return True


def _oracle_merge(view, digest):
    changed = 0
    for rec in digest:
        if view.put(rec):
            changed += 1
    return changed


def _oracle_records(view):
    return tuple(view._records[name] for name in sorted(view._records))


def _oracle_run_round(mesh):
    nf = mesh.netfaults
    changed = 0
    if nf is not None:
        nf.begin_round(mesh.rounds_run)
        changed += mesh._deliver_delayed(mesh.rounds_run)
    mesh.rounds_run += 1
    for name in sorted(mesh._members):
        member = mesh._members[name]
        if not mesh._is_crashed(member):
            member.view.put(member.publish_health())
    digests = {p.name: p.view.records() for p in mesh._participants()}
    for participant in mesh._participants():
        if mesh._is_crashed(participant):
            continue
        for peer_name in mesh._peers[participant.name]:
            peer = mesh._members.get(peer_name,
                                     mesh._observers.get(peer_name))
            if mesh._is_crashed(peer):
                changed += mesh._note_missed(participant, peer_name)
                continue
            if nf is not None:
                listener = participant.name
                if (nf.edge_blocked(listener, peer_name)
                        or nf.digest_lost(listener, peer_name)):
                    changed += mesh._note_missed(participant, peer_name)
                    continue
                delay = nf.digest_delay(listener, peer_name)
                if delay:
                    mesh._missed[(listener, peer_name)] = 0
                    mesh._delayed.append(
                        (mesh.rounds_run - 1 + delay, listener,
                         digests[peer_name]))
                    continue
                mesh._missed[(listener, peer_name)] = 0
                changed += participant.view.merge(digests[peer_name])
                if nf.digest_duplicated(listener, peer_name):
                    changed += participant.view.merge(digests[peer_name])
                continue
            mesh._missed[(participant.name, peer_name)] = 0
            changed += participant.view.merge(digests[peer_name])
    return changed


ORACLE_VIEW = {
    "put": _oracle_put,
    "merge": _oracle_merge,
    "records": _oracle_records,
    "clusters": property(lambda view: tuple(sorted(view._records))),
}


@contextmanager
def _gossip_log(log, oracle):
    """Run gossip on the current code, or on the oracle, appending each
    round's changed count, every participant's records and
    readmissions, and the missed-contact counters to ``log``."""
    saved = {name: FleetView.__dict__[name] for name in ORACLE_VIEW}
    real_round = GossipMesh.run_round
    run_round = _oracle_run_round if oracle else real_round

    def logged(mesh):
        changed = run_round(mesh)
        log.append((mesh.rounds_run, changed,
                    tuple((p.name, p.view.records(), p.view.readmissions)
                          for p in mesh._participants()),
                    tuple(sorted(mesh._missed.items()))))
        return changed

    if oracle:
        for name, attr in ORACLE_VIEW.items():
            setattr(FleetView, name, attr)
    GossipMesh.run_round = logged
    try:
        yield
    finally:
        GossipMesh.run_round = real_round
        for name, attr in saved.items():
            setattr(FleetView, name, attr)


def _same_rounds(run):
    """Run ``run()`` on both implementations; every round must match."""
    new_log, old_log = [], []
    with _gossip_log(new_log, oracle=False):
        new = run()
    with _gossip_log(old_log, oracle=True):
        old = run()
    assert new_log, "no gossip round ran"
    assert len(new_log) == len(old_log)
    for got, want in zip(new_log, old_log):
        assert got == want, f"round {want[0]} diverged"
    return new, old


class TestGossipMergeOracle:
    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(seed=seeds, side_a=sides, side_b=sides, at_round=onsets,
           dur_a=durations, dur_b=durations)
    def test_partition_schedules_match_round_by_round(
            self, seed, side_a, side_b, at_round, dur_a, dur_b):
        first = _split(side_a, at_round, dur_a)
        second = _split(side_b, at_round + dur_a, dur_b)
        new, old = _same_rounds(lambda: _run(seed, [first, second]))
        assert asdict(new) == asdict(old)

    @pytest.mark.parametrize("seed", range(5))
    def test_every_chaos_variant_matches_round_by_round(self, seed):
        # one seed per variant: loss, delay and duplicate weather, one-way
        # links and a member crash on top of a split
        scenario = scenario_for_seed(seed)
        new, old = _same_rounds(lambda: run_fleet_chaos(scenario))
        assert asdict(new) == asdict(old)

    @pytest.mark.parametrize("seed, crashed", [(2, "c0"), (3, "c6")])
    def test_fault_free_fleet_with_a_crashed_member(self, seed, crashed):
        # c0 is the first participant and a shard head; c6 is neither
        from repro.experiments.fleet import run_fleet_once

        def run():
            env, _, info = run_fleet_once(8, 8.0, n_arrivals=24, seed=seed)
            assert info["fault_target"] == crashed
            return env.fleet.door.summary()

        new, old = _same_rounds(run)
        assert new == old
