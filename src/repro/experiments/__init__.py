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

import importlib

#: public name -> the submodule that defines it
_SUBMODULES = {
    "ExperimentResult": "common",
    "run_ablation_iccl": "ablations",
    "run_ablation_jobsnap_tbon": "ablations",
    "run_ablation_launchers": "ablations",
    "run_ablation_rm_events": "ablations",
    "run_ctl": "ctlrestart",
    "run_fig3": "fig3",
    "run_fig5": "fig5",
    "run_fig6": "fig6",
    "run_fleet": "fleet",
    "run_fleetchaos": "fleetchaos",
    "run_launch_matrix": "launchmatrix",
    "run_multitenant": "multitenant",
    "run_resilience": "resilience",
    "run_streaming": "streaming",
    "run_table1": "table1",
    "percentile": "common",
}

__all__ = list(_SUBMODULES)


def __getattr__(name):
    try:
        submodule = _SUBMODULES[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value
    return value
