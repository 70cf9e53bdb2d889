"""Command-line entry point: ``repro-experiments <experiment> [options]``.

Scale tiers select how far each sweep pushes the simulated machine:

* ``--scale quick`` (alias ``--quick``) -- reduced grids for CI/smoke;
* ``--scale full`` -- the paper-fidelity grids (default);
* ``--scale xl`` -- the 16k/64k-daemon tier: the machine sizes the paper
  could only extrapolate to (BlueGene/L-class partitions), runnable since
  the kernel fast path landed. Task counts per daemon are reduced where
  noted so the xl tier stresses *daemon-launch* scalability rather than
  the application-side process count.
* ``--scale xxl`` -- the 1,048,576-daemon tier, reachable only through
  the hybrid analytic/discrete path (``--hybrid`` is implied): all but
  the exact head and any special positions of the TBON leaf space are
  charged from the validated perfmodel closed forms instead of being
  simulated leaf by leaf. Covers fig6 and str, the two experiments with
  hybrid tiers.

``--hybrid`` turns the hybrid tier on at any scale for fig6 and str
(it is rejected for experiments without a hybrid path).

``--jobs N`` fans independent grid points out over N worker processes
(every cell builds its own simulator, so sweeps are embarrassingly
parallel); results merge in deterministic grid order, making the output
byte-identical to a serial run.
"""

from __future__ import annotations

import argparse
import sys

import repro.experiments
from repro.experiments.common import write_json_report

__all__ = ["main"]

QUICK_SWEEPS = {
    "fig3": dict(daemon_counts=(16, 64, 128)),
    "fig5": dict(daemon_counts=(64, 256, 512)),
    "fig6": dict(node_counts=(4, 64, 256)),
    "table1": dict(node_counts=(2, 8, 32)),
    "A1": dict(daemon_counts=(16, 64)),
    "A2": dict(daemon_counts=(16, 64)),
    "A3": dict(daemon_counts=(16, 64)),
    "A4": dict(daemon_counts=(64,)),
    "mt": dict(tenant_counts=(1, 4, 8), n_compute=32,
               nodes_per_session=4),
    "lmx": dict(daemon_counts=(16, 64)),
    "res": dict(daemon_counts=(32,), fault_rates=(0.0, 0.05),
                strategies=("serial-rsh", "tree-rsh")),
    "str": dict(leaf_counts=(16, 64), filters=("histogram", "ewma"),
                windows=(4,), credit_limits=(2, 8), n_waves=10),
    "ctl": dict(n_seeds=8, block=4),
    # the acceptance grid: 8 clusters x 4 arrival rates, one injected
    # cluster crash per point, leak-audited against every member RM
    "fleet": dict(cluster_counts=(8,), arrival_rates=(2.0, 4.0, 8.0, 16.0),
                  n_arrivals=24),
    # 16 storms across all 5 chaos variants; every run audited for zero
    # double allocation / zero leaks / bounded failover / convergence
    "fleetchaos": dict(n_seeds=16, block=4),
}

#: the 16k/64k-daemon tier (see module docstring). Per-daemon task counts
#: are dialed down where the default (8 tasks/daemon) would make the
#: *application* the bottleneck rather than the daemon launch under study.
XL_SWEEPS = {
    "fig3": dict(daemon_counts=(4096, 16384, 65536), tasks_per_daemon=1),
    "fig5": dict(daemon_counts=(4096, 16384, 65536), tasks_per_daemon=2),
    "fig6": dict(node_counts=(1024, 4096, 16384, 65536),
                 tasks_per_daemon=1),
    "table1": dict(node_counts=(4096, 16384, 65536), tasks_per_node=1),
    "A1": dict(daemon_counts=(1024, 4096)),
    "A2": dict(daemon_counts=(1024, 4096)),
    "A3": dict(daemon_counts=(1024, 4096)),
    "A4": dict(daemon_counts=(1024,)),
    "mt": dict(tenant_counts=(64, 128, 256), n_compute=8192,
               nodes_per_session=16, tasks_per_node=2, max_in_flight=64),
    "lmx": dict(daemon_counts=(16384, 65536)),
    "res": dict(daemon_counts=(16384,), fault_rates=(0.0, 0.02),
                strategies=("tree-rsh", "rm-bulk")),
    "str": dict(leaf_counts=(16384, 65536), filters=("histogram", "ewma"),
                windows=(8,), credit_limits=(4,), n_waves=10),
    "ctl": dict(n_seeds=256, block=16),
    "fleet": dict(cluster_counts=(16, 32), arrival_rates=(8.0, 32.0, 64.0),
                  n_arrivals=192, nodes_per_cluster=32,
                  nodes_per_session=4),
    "fleetchaos": dict(n_seeds=200, block=20),
}

#: the 1M-daemon tier: only the hybrid analytic/discrete path reaches it
#: on a laptop, so the grids force ``hybrid=True`` and cover the two
#: experiments with hybrid tiers (fig6 launches, str streaming)
XXL_SWEEPS = {
    "fig6": dict(node_counts=(1048576,), tasks_per_daemon=1, hybrid=True),
    "str": dict(leaf_counts=(1048576,), filters=("histogram", "ewma"),
                windows=(8,), credit_limits=(4,), n_waves=10, hybrid=True),
}

SCALE_SWEEPS = {"quick": QUICK_SWEEPS, "full": {}, "xl": XL_SWEEPS,
                "xxl": XXL_SWEEPS}

#: experiments with a hybrid analytic/discrete tier (--hybrid)
HYBRID_EXPERIMENTS = ("fig6", "str")

#: CLI name -> public runner of :mod:`repro.experiments`, resolved (and
#: so imported) only when that experiment runs
RUNNERS = {
    "fig3": "run_fig3",
    "fig5": "run_fig5",
    "fig6": "run_fig6",
    "table1": "run_table1",
    "A1": "run_ablation_rm_events",
    "A2": "run_ablation_iccl",
    "A3": "run_ablation_launchers",
    "A4": "run_ablation_jobsnap_tbon",
    "mt": "run_multitenant",
    "lmx": "run_launch_matrix",
    "res": "run_resilience",
    "str": "run_streaming",
    "ctl": "run_ctl",
    "fleet": "run_fleet",
    "fleetchaos": "run_fleetchaos",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures on the "
                    "simulated cluster.")
    parser.add_argument("experiment", nargs="+",
                        choices=sorted(RUNNERS) + ["all"],
                        help="which experiment(s) to run")
    parser.add_argument("--quick", action="store_true",
                        help="alias for --scale quick (CI / smoke runs)")
    parser.add_argument("--scale", choices=sorted(SCALE_SWEEPS),
                        default=None,
                        help="sweep tier: quick (reduced), full "
                             "(paper-fidelity, default), xl (16k/64k "
                             "daemons), xxl (1M daemons, hybrid)")
    parser.add_argument("--hybrid", action="store_true",
                        help="use the hybrid analytic/discrete tier "
                             "(fig6 and str only): aggregate homogeneous "
                             "leaf subtrees analytically, simulate the "
                             "exact head and special positions")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write every result (columns, rows, "
                             "notes) as a JSON report to PATH (CI "
                             "artifact)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run independent grid points across N worker "
                             "processes (-1 = one per CPU); the merged "
                             "output is byte-identical to a serial run")
    args = parser.parse_args(argv)

    if args.quick and args.scale not in (None, "quick"):
        parser.error("--quick conflicts with --scale " + args.scale)
    scale = args.scale or ("quick" if args.quick else "full")

    names = sorted(RUNNERS) if "all" in args.experiment else args.experiment
    if scale == "xxl":
        unsupported = [n for n in names if n not in XXL_SWEEPS]
        if unsupported:
            parser.error("--scale xxl only covers the hybrid experiments "
                         f"({', '.join(sorted(XXL_SWEEPS))}), not "
                         + ", ".join(unsupported))
    if args.hybrid:
        unsupported = [n for n in names if n not in HYBRID_EXPERIMENTS]
        if unsupported:
            parser.error("--hybrid only applies to "
                         f"{', '.join(HYBRID_EXPERIMENTS)}, not "
                         + ", ".join(unsupported))
    sweeps = SCALE_SWEEPS[scale]
    results = []
    for name in names:
        runner = getattr(repro.experiments, RUNNERS[name])
        kwargs = dict(sweeps.get(name, {}))
        kwargs["jobs"] = args.jobs
        if args.hybrid:
            kwargs["hybrid"] = True
        result = runner(**kwargs)
        results.append(result)
        print(result.format_table())
        print()
    if args.json:
        write_json_report(args.json, results, scale=scale)
        print(f"wrote JSON report: {args.json}")
    failed = [r.exp_id for r in results if not r.ok]
    if failed:
        print("audit failed: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
