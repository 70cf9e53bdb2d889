"""repro.experiments -- runners regenerating every table and figure.

Each runner sweeps the paper's parameter range on the simulated cluster and
returns an :class:`~repro.experiments.common.ExperimentResult` whose rows
mirror the published series:

========  ==========================================================
fig3      launchAndSpawn modeled vs measured breakdown (16..128 daemons)
fig5      Jobsnap total vs init->attachAndSpawn (64..1024 daemons)
fig6      STAT startup: MRNet-rsh vs LaunchMON (4..512 daemons)
table1    O|SS APAI access times: DPCL vs LaunchMON (2..32 nodes)
A1        ablation: legacy per-task RM debug events vs fixed SLURM
A2        ablation: ICCL topology (flat vs binomial vs k-ary)
A3        ablation: launcher mechanisms (rsh-seq, rsh-tree, RM)
A4        extension: Jobsnap collection over a TBON (paper future work)
mt        extension: multi-tenant ToolService throughput + latency sweep
lmx       extension: launch strategy x image-staging matrix (per-phase)
res       extension: fault-rate x strategy x repair resilience sweep
str       extension: streaming data plane (leaves x filter x window x
          credit-limit, sim vs StreamModel)
ctl       extension: control-plane crash-restart (adoption across daemon
          restarts; relaunches and node leaks must be zero)
fleet     extension: federated multi-cluster front door (clusters x
          arrival rate; failover under an injected cluster crash,
          fleet-wide leak audit)
fleetchaos extension: fleet partition chaos (seeded netsplit/flap/crash
          storms; split-brain fencing, bounded failover, post-heal
          convergence -- every invariant audited per storm)
========  ==========================================================

Run from the command line: ``python -m repro.experiments fig3`` (or the
installed ``repro-experiments`` script). ``--quick`` shrinks sweeps for CI.

Runners load on first access (PEP 562 ``__getattr__``), so importing
one experiment module, e.g. ``repro.experiments.fig6``, loads only what
that experiment needs, not every experiment's dependencies.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.experiments.common": ("ExperimentResult", "percentile"),
    "repro.experiments.ablations": (
        "run_ablation_iccl", "run_ablation_jobsnap_tbon",
        "run_ablation_launchers", "run_ablation_rm_events"),
    "repro.experiments.ctlrestart": ("run_ctl",),
    "repro.experiments.fig3": ("run_fig3",),
    "repro.experiments.fig5": ("run_fig5",),
    "repro.experiments.fig6": ("run_fig6",),
    "repro.experiments.fleet": ("run_fleet",),
    "repro.experiments.fleetchaos": ("run_fleetchaos",),
    "repro.experiments.launchmatrix": ("run_launch_matrix",),
    "repro.experiments.multitenant": ("run_multitenant",),
    "repro.experiments.resilience": ("run_resilience",),
    "repro.experiments.streaming": ("run_streaming",),
    "repro.experiments.table1": ("run_table1",),
})

__all__ = list(__getattr__.exports)
