"""Fleet chaos study: partition x crash x flap schedules, fully audited.

PR 9's ``fleet`` experiment injects clean whole-cluster crashes; this
study runs the partition-tolerance machinery through real network
weather instead. Each seed maps to one scripted storm variant
(:func:`repro.fleet.chaos.scenario_for_seed` -- minority split,
asymmetric links, flap + gossip loss/delay/duplication, netsplit plus a
member crash, door-in-minority) and every run is audited against the
fleet's standing invariants:

* **double_allocations** -- fenced re-placements that could have left a
  request live in two places (stale-but-live sessions, epoch/fence
  mismatches, non-terminal abandoned sessions); must be 0;
* **leaked_nodes** -- nodes still allocated on any member RM ledger
  after the anti-entropy tail; must be 0 (both counts come from the
  run-end audit, :func:`repro.audit.fleet_violations`);
* **max_failovers** -- worst per-request failover count; must stay
  within the scenario budget (no failover storms under flapping links);
* **converged** -- gossip views state-agree within
  ``suspect_rounds + diameter`` rounds of heal, every live member
  re-admitted.

Every scenario is deterministic in its seed; a block is a range of
seeds, so ``--jobs N`` fans blocks out with byte-identical output.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult
from repro.experiments.sweep import map_grid

__all__ = ["run_fleetchaos"]


def _chaos_point(seed_lo: int, seed_hi: int) -> dict:
    """One grid point: scenarios for seeds [seed_lo, seed_hi), reduced to
    row scalars (module-level and picklable for the sweep engine)."""
    from repro.fleet.chaos import run_fleet_chaos, scenario_for_seed

    row = {
        "seeds": f"{seed_lo}..{seed_hi - 1}",
        "scenarios": seed_hi - seed_lo,
        "completed": 0, "rejected": 0, "failovers": 0, "abandoned": 0,
        "fences": 0, "fenced_kills": 0, "stale_done": 0,
        "breaker_trips": 0, "readmissions": 0, "double_alloc": 0,
        "leaked": 0, "max_fo": 0, "converged": 0, "ok": 0,
    }
    per_variant = {}
    for seed in range(seed_lo, seed_hi):
        res = run_fleet_chaos(scenario_for_seed(seed))
        row["completed"] += res.completed
        row["rejected"] += res.rejected
        row["failovers"] += res.failovers
        row["abandoned"] += res.abandoned
        row["fences"] += res.fences_delivered
        row["fenced_kills"] += res.fenced_kills
        row["stale_done"] += res.stale_completions
        row["breaker_trips"] += res.breaker_trips
        row["readmissions"] += res.readmissions
        row["double_alloc"] += res.double_allocations
        row["leaked"] += res.leaked
        row["max_fo"] = max(row["max_fo"], res.max_request_failovers)
        row["converged"] += int(res.converged)
        row["ok"] += int(res.ok)
        variant = res.scenario.variant
        stats = per_variant.setdefault(variant, {"runs": 0, "ok": 0})
        stats["runs"] += 1
        stats["ok"] += int(res.ok)
    row["ok_rate"] = row["ok"] / row["scenarios"]
    # table-invisible, travels through --json: per-variant pass counts
    row["per_variant"] = {k: dict(v) for k, v in sorted(per_variant.items())}
    return row


def run_fleetchaos(n_seeds: int = 40, block: int = 8,
                   jobs: int = 1) -> ExperimentResult:
    """Sweep ``n_seeds`` chaos scenarios in blocks of ``block``."""
    result = ExperimentResult(
        exp_id="fleetchaos",
        title=f"fleet partition chaos: {n_seeds} seeded storms "
              f"(variant mix: minority split / asym links / flap+loss / "
              f"split+crash / door minority)",
        columns=["seeds", "scenarios", "completed", "rejected",
                 "failovers", "abandoned", "fences", "fenced_kills",
                 "stale_done", "breaker_trips", "readmissions",
                 "double_alloc", "leaked", "max_fo", "converged",
                 "ok_rate"],
        paper_reference={
            "note": "beyond the paper: netsplits and flapping links are "
                    "the reliability hazard Scaling Reliably names at "
                    "scale; this tier proves split-brain fencing, "
                    "bounded failover and post-heal convergence with "
                    "seeded, auditable schedules",
        },
    )
    grid = [dict(seed_lo=lo, seed_hi=min(lo + block, n_seeds))
            for lo in range(0, n_seeds, block)]
    result.rows = map_grid(_chaos_point, grid, jobs=jobs)
    double = sum(r["double_alloc"] for r in result.rows)
    leaked = sum(r["leaked"] for r in result.rows)
    worst_fo = max(r["max_fo"] for r in result.rows)
    converged = sum(r["converged"] for r in result.rows)
    ok = sum(r["ok"] for r in result.rows)
    result.notes.append(
        f"{ok}/{n_seeds} storms passed every invariant audit; "
        f"{sum(r['fences'] for r in result.rows)} fences delivered, "
        f"{sum(r['fenced_kills'] for r in result.rows)} stale sessions "
        f"killed, {double} double allocations, {leaked} nodes leaked "
        f"(both must be 0)")
    result.check("zero-double-allocation", double == 0,
                 f"{double} possible double allocations across storms")
    result.check("zero-leaked-nodes", leaked == 0,
                 f"{leaked} node allocations still live after the "
                 f"anti-entropy tail")
    result.check("bounded-failover", worst_fo <= 4,
                 f"a request took {worst_fo} failovers (budget 4)")
    result.check("post-heal-convergence", converged == n_seeds,
                 f"{n_seeds - converged} storms never reconverged")
    result.check("all-storms-ok", ok == n_seeds,
                 f"{n_seeds - ok} of {n_seeds} storms failed "
                 f"(see per-block rows)")
    return result
