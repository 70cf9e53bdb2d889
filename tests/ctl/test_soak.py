"""Crash-restart soak: seeded random kill points across many lifecycle
sequences (launching / draining / mid-repair / gate-queued), asserting
that after re-adoption the node accounting balances to zero every time.

Every integer and boolean counter of every seed's
:class:`~repro.ctl.harness.CrashResult` is pinned, one line per seed, in
``tests/baselines/ctl_soak_counters.txt``: a change that shifts
adoptions, resubmissions or reaps fails here even while every verdict
stays green. Regenerate the table only for a deliberate model change::

    PYTHONPATH=src python tests/ctl/test_soak.py > tests/baselines/ctl_soak_counters.txt

``CTL_SOAK_ITERS`` overrides the sequence count (CI runs a reduced
soak; the default matches the acceptance bar of 200 sequences).
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.ctl.harness import run_crash_restart, scenario_for_seed

SOAK_ITERS = int(os.environ.get("CTL_SOAK_ITERS", "200"))
PINS = Path(__file__).resolve().parents[1] / "baselines" \
    / "ctl_soak_counters.txt"
#: the pinned columns after ``seed``: every int/bool counter of CrashResult
COUNTERS = ("generations", "submitted", "rejected_submits", "adopted",
            "resubmitted", "reaped_sessions", "orphan_allocs_reaped",
            "relaunched", "completed", "failed_sessions", "leaked_nodes_mid",
            "leaked_nodes_final", "queue_leak_final", "index_balanced", "ok")


def counter_row(seed: int, res) -> str:
    return " ".join([str(seed)] + [str(int(getattr(res, name)))
                                   for name in COUNTERS])


def test_pin_table_covers_the_soak():
    header, *rows = PINS.read_text().splitlines()
    assert header.split() == ["seed", *COUNTERS]
    assert [int(row.split()[0]) for row in rows] == list(range(200))


def test_crash_restart_soak():
    pinned = {int(row.split()[0]): row
              for row in PINS.read_text().splitlines()[1:]}
    failures = []
    drift = []
    totals = {"adopted": 0, "resubmitted": 0, "reaped": 0, "orphans": 0}
    for seed in range(SOAK_ITERS):
        res = run_crash_restart(scenario_for_seed(seed))
        totals["adopted"] += res.adopted
        totals["resubmitted"] += res.resubmitted
        totals["reaped"] += res.reaped_sessions
        totals["orphans"] += res.orphan_allocs_reaped
        if not (res.ok and res.relaunched == 0 and res.leaked_nodes_mid == 0
                and res.leaked_nodes_final == 0 and res.queue_leak_final == 0
                and res.index_balanced):
            failures.append((seed, res.violations))
        row = counter_row(seed, res)
        if seed in pinned and row != pinned[seed]:
            drift.append((pinned[seed], row))
    assert not failures, f"{len(failures)} bad sequences: {failures[:3]}"
    assert not drift, (f"{len(drift)} seeds moved off the pinned counters "
                       f"({' '.join(COUNTERS)}); pinned vs now: {drift[:3]}")
    # the soak must exercise every disposition, not just the happy adopt
    assert totals["adopted"] > 0
    if SOAK_ITERS >= 100:
        assert totals["resubmitted"] > 0
        assert totals["reaped"] > 0


if __name__ == "__main__":
    print(" ".join(("seed",) + COUNTERS))
    for seed in range(200):
        print(counter_row(seed, run_crash_restart(scenario_for_seed(seed))))
