"""Geometric scale ladders over the experiment runners.

A :class:`Ladder` names an experiment, a module-level point function (the
same picklable-contract as :func:`repro.experiments.sweep.map_grid` point
functions, so ladders parallelize with ``--jobs``) and the geometric
scale tiers scalecheck runs it at. Each point returns a flat ``{metric:
value}`` dict mixing three metric kinds:

* **virtual** -- per-phase simulated seconds (``LaunchReport`` phases for
  launch ladders, ``WaveTiming`` phase totals for stream ladders) plus
  the virtual total. Deterministic per seed: exponents reproduce to
  machine epsilon across runs and machines.
* **count** -- kernel event counts (:attr:`SimStats.events`): how much
  *work* the simulation itself did, also deterministic.
* **wall** -- real seconds for the whole point (``wall_s``). The only
  kind that sees the host machine, and the one that catches wall-clock
  O(N^2) regressions invisible in virtual time -- the exact class PR 5
  purged (per-daemon topology re-parses, cacheless ``children_of``).

The quick tiers are sized so an O(N^2)-class fault dominates the top of
the ladder (detectable by extrapolation) while the whole ladder stays a
few seconds of CI time.
"""

from __future__ import annotations

import gc
import warnings
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional, Sequence

from repro.experiments.sweep import map_grid

__all__ = ["LADDERS", "Ladder", "collect_samples", "dropped_metric_points",
           "fig6_ladder_point", "fig6_hybrid_ladder_point",
           "fleet_ladder_point", "str_ladder_point",
           "str_hybrid_ladder_point"]


def _timed(measure: Callable[[], dict]) -> tuple[dict, float]:
    """Run one point under a quiesced collector; return (result, wall).

    The wall metric is the only thing here that sees the host process,
    and the host is often a long test session with a large live heap:
    a generational collection triggered mid-measurement scans that whole
    heap, a near-constant cost that inflates *small* ladder points
    disproportionately and flattens the fitted exponent below the
    detection limit. Pay the collection before the clock starts and
    freeze survivors out of the collector's reach for the duration.
    """
    gc.collect()
    # freezing only shrinks what a full pass walks; Simulator.run() still
    # owns enabling and disabling the collector
    gc.freeze()  # simlint: allow[gc-policy]
    try:
        # harness measurement bracketing a whole simulator run, never
        # read inside one
        t0 = perf_counter()  # simlint: allow[wall-clock]
        result = measure()
        wall = perf_counter() - t0  # simlint: allow[wall-clock]
    finally:
        gc.unfreeze()  # simlint: allow[gc-policy]
    return result, wall


def fig6_ladder_point(n: int) -> dict:
    """Launch-path point: one fig6 LaunchMON startup at ``n`` daemons."""
    from repro.experiments.fig6 import measure_stat_startup

    box, wall = _timed(lambda: measure_stat_startup(
        n, "launchmon", tasks_per_daemon=1))
    report = box["startup"]
    metrics = dict(report.phases())
    metrics["virtual_total"] = report.total
    metrics["sim_events"] = float(box["sim_events"])
    metrics["wall_s"] = wall
    return metrics


def fig6_hybrid_ladder_point(n: int) -> dict:
    """fig6 launch point on the hybrid analytic/discrete tier: only the
    exact head is simulated; aggregate spans contribute model terms."""
    from repro.experiments.fig6 import measure_stat_startup

    box, wall = _timed(lambda: measure_stat_startup(
        n, "launchmon", tasks_per_daemon=1, hybrid=True))
    report = box["startup"]
    metrics = dict(report.phases())
    metrics["virtual_total"] = report.total
    metrics["sim_events"] = float(box["sim_events"])
    metrics["wall_s"] = wall
    return metrics


def str_ladder_point(n: int) -> dict:
    """Data-plane point: a sustained stream over ``n`` leaves."""
    from repro.experiments.streaming import measure_stream

    cell, wall = _timed(lambda: measure_stream(
        n, filter_name="histogram", window=4, credit_limit=4, n_waves=10))
    metrics = dict(cell["phase_totals"])
    metrics["virtual_total"] = cell["total_latency"]
    metrics["sim_events"] = float(cell["sim_events"])
    metrics["wall_s"] = wall
    return metrics


def str_hybrid_ladder_point(n: int) -> dict:
    """Stream point on the hybrid tier: collapsed spans publish their
    closed-form merged payloads with model-derived delays."""
    from repro.experiments.streaming import measure_stream

    cell, wall = _timed(lambda: measure_stream(
        n, filter_name="histogram", window=4, credit_limit=4, n_waves=10,
        hybrid=True))
    metrics = dict(cell["phase_totals"])
    metrics["virtual_total"] = cell["total_latency"]
    metrics["sim_events"] = float(cell["sim_events"])
    metrics["wall_s"] = wall
    return metrics


def fleet_ladder_point(n: int) -> dict:
    """Routing-tier point: an ``n``-cluster fleet absorbing an open-loop
    stream of ``4 * n`` arrivals (offered load grows with the fleet, so
    per-cluster pressure is constant and any super-linear term belongs
    to the front door / gossip / placement tier itself). Fault-free: the
    failover detour is a constant the scaling fit should not see."""
    from repro.experiments.common import percentile
    from repro.experiments.fleet import run_fleet_once

    def measure():
        env, handles, info = run_fleet_once(
            n, arrival_rate=8.0, n_arrivals=4 * n, nodes_per_cluster=8,
            fault=False)
        assert info["audit"]["ok"], info["audit"]
        lat = env.fleet.door.summary()["launch_latencies"]
        return {
            "virtual_total": max(h.finished_at for h in handles),
            "p99_latency": percentile(lat, 99),
            "sim_events": float(env.sim.stats.events),
        }

    metrics, wall = _timed(measure)
    metrics["wall_s"] = wall
    return metrics


@dataclass(frozen=True)
class Ladder:
    """One experiment's scale ladder for scalecheck."""

    experiment: str
    #: module-level point function ``(n) -> {metric: value}`` (picklable)
    point: Callable[[int], dict]
    #: CI tier -- small enough for minutes, big enough to extrapolate
    quick_scales: tuple
    #: local/deep tier
    full_scales: tuple
    description: str

    def scales_for(self, quick: bool) -> tuple:
        return self.quick_scales if quick else self.full_scales


LADDERS: dict[str, Ladder] = {
    "fig6": Ladder(
        experiment="fig6",
        point=fig6_ladder_point,
        quick_scales=(256, 1024, 4096),
        full_scales=(256, 1024, 4096, 16384),
        description="STAT startup via LaunchMON (launch-path phases: "
                    "spawn / image-stage / connect / handshake)",
    ),
    "str": Ladder(
        experiment="str",
        point=str_ladder_point,
        quick_scales=(64, 256, 1024),
        full_scales=(64, 256, 1024, 4096),
        description="sustained stream waves under credit flow control "
                    "(data-plane phases: fanin / filter / deliver)",
    ),
    "fig6-hybrid": Ladder(
        experiment="fig6-hybrid",
        point=fig6_hybrid_ladder_point,
        quick_scales=(4096, 16384, 65536),
        full_scales=(4096, 16384, 65536, 262144),
        description="STAT startup via LaunchMON on the hybrid "
                    "analytic/discrete tier (exact head + aggregated "
                    "spans); extends the launch ladder past 64k",
    ),
    "fleet": Ladder(
        experiment="fleet",
        point=fleet_ladder_point,
        quick_scales=(4, 8, 16),
        full_scales=(4, 8, 16, 32),
        description="federated front door absorbing 4 arrivals/cluster "
                    "(routing tier: placement + gossip + failover "
                    "supervision; load scales with the fleet)",
    ),
    "str-hybrid": Ladder(
        experiment="str-hybrid",
        point=str_hybrid_ladder_point,
        quick_scales=(4096, 16384, 65536),
        full_scales=(4096, 16384, 65536, 262144),
        description="sustained stream waves on the hybrid tier "
                    "(closed-form span merges, model-derived delays); "
                    "extends the data-plane ladder past 64k",
    ),
}


def dropped_metric_points(samples: Sequence[tuple[int, dict]],
                          ) -> dict[str, list[int]]:
    """Map each metric to the scales whose value is non-positive.

    These are exactly the pairs :func:`repro.analysis.fitting.fit_power`
    silently drops before its log-log regression; surfacing them keeps a
    zeroed metric from faking a flat (or steep) exponent unremarked."""
    dropped: dict[str, list[int]] = {}
    for n, metrics in samples:
        for name, value in metrics.items():
            if not value > 0:
                dropped.setdefault(name, []).append(n)
    return dropped


def collect_samples(ladder: Ladder,
                    scales: Optional[Sequence[int]] = None,
                    jobs: int = 1,
                    repeats: int = 1) -> list[tuple[int, dict]]:
    """Run the ladder; return ``[(scale, {metric: value}), ...]``.

    ``repeats > 1`` re-runs every point and keeps the *minimum* wall
    metric per scale (the standard noise filter for timing) -- virtual
    and count metrics are deterministic, so the first run's values stand
    for all repeats (asserted, as a cheap determinism probe).

    Any non-positive metric value is reported via ``warnings.warn``:
    ``fit_power`` drops such pairs silently, and an unremarked drop lets
    a zeroed metric fake a flat exponent (scalecheck folds the same
    information into its report notes).
    """
    scales = tuple(scales if scales is not None else ladder.quick_scales)
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    grid = [dict(n=n) for n in scales]
    rounds = [map_grid(ladder.point, grid, jobs=jobs)
              for _ in range(repeats)]
    samples: list[tuple[int, dict]] = []
    for i, n in enumerate(scales):
        merged = dict(rounds[0][i])
        for later in rounds[1:]:
            for name, value in later[i].items():
                if name == "wall_s":
                    merged[name] = min(merged[name], value)
                elif merged.get(name) != value:
                    raise AssertionError(
                        f"{ladder.experiment}@{n}: metric {name!r} is not "
                        f"deterministic across repeats "
                        f"({merged.get(name)!r} != {value!r})")
        samples.append((n, merged))
    for name, at in sorted(dropped_metric_points(samples).items()):
        warnings.warn(
            f"{ladder.experiment}: metric {name!r} is non-positive at "
            f"scale(s) {', '.join(str(n) for n in at)} -- these points "
            f"drop out of the power fit", stacklevel=2)
    return samples
