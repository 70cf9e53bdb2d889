"""Fleet partition-chaos soak: seeded storm schedules across every
variant (minority split, asymmetric links, flap + message weather,
split + member crash, door-in-minority), asserting the standing
invariants on every single run: zero double allocations, zero leaked
nodes, bounded failover, post-heal view convergence.

Every integer and boolean counter of every seed's
:class:`~repro.fleet.chaos.ChaosResult` is pinned, one line per seed, in
``tests/baselines/chaos_soak_counters.txt``: a change that shifts
failovers, fences or re-admissions fails here even while every verdict
stays green. Regenerate the table only for a deliberate model change::

    PYTHONPATH=src python tests/fleet/test_chaos_soak.py > tests/baselines/chaos_soak_counters.txt

``FLEETCHAOS_SOAK_ITERS`` overrides the storm count (CI runs a reduced
soak; the default matches the acceptance bar of 200 storms).
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.fleet.chaos import run_fleet_chaos, scenario_for_seed

SOAK_ITERS = int(os.environ.get("FLEETCHAOS_SOAK_ITERS", "200"))
PINS = Path(__file__).resolve().parents[1] / "baselines" \
    / "chaos_soak_counters.txt"
#: the pinned columns after ``seed``: every int/bool counter of ChaosResult
COUNTERS = ("ok", "submitted", "completed", "rejected", "minority_rejections",
            "failovers", "max_request_failovers", "abandoned",
            "fences_delivered", "fenced_kills", "stale_completions",
            "breaker_trips", "readmissions", "rounds_run", "converged",
            "leaked", "double_allocations")


def counter_row(seed: int, res) -> str:
    return " ".join([str(seed)] + [str(int(getattr(res, name)))
                                   for name in COUNTERS])


def test_pin_table_covers_the_soak():
    header, *rows = PINS.read_text().splitlines()
    assert header.split() == ["seed", *COUNTERS]
    assert [int(row.split()[0]) for row in rows] == list(range(200))


def test_fleet_chaos_soak():
    pinned = {int(row.split()[0]): row
              for row in PINS.read_text().splitlines()[1:]}
    failures = []
    drift = []
    totals = {"abandoned": 0, "fences": 0, "fenced_kills": 0,
              "stale_done": 0, "readmissions": 0, "minority_rej": 0}
    for seed in range(SOAK_ITERS):
        res = run_fleet_chaos(scenario_for_seed(seed))
        totals["abandoned"] += res.abandoned
        totals["fences"] += res.fences_delivered
        totals["fenced_kills"] += res.fenced_kills
        totals["stale_done"] += res.stale_completions
        totals["readmissions"] += res.readmissions
        totals["minority_rej"] += res.minority_rejections
        if not (res.ok and res.double_allocations == 0 and res.leaked == 0
                and res.converged
                and res.max_request_failovers <= res.scenario.max_failovers):
            failures.append((seed, res.violations))
        row = counter_row(seed, res)
        if seed in pinned and row != pinned[seed]:
            drift.append((pinned[seed], row))
    assert not failures, f"{len(failures)} bad storms: {failures[:3]}"
    assert not drift, (f"{len(drift)} seeds moved off the pinned counters "
                       f"({' '.join(COUNTERS)}); pinned vs now: {drift[:3]}")
    # the soak must exercise the fencing machinery, not just ride out
    # storms that never strand an attempt
    assert totals["abandoned"] > 0
    assert totals["fences"] > 0
    assert totals["readmissions"] > 0
    if SOAK_ITERS >= 100:
        assert totals["fenced_kills"] + totals["stale_done"] > 0


if __name__ == "__main__":
    print(" ".join(("seed",) + COUNTERS))
    for seed in range(200):
        print(counter_row(seed, run_fleet_chaos(scenario_for_seed(seed))))
