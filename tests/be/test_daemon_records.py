"""What one launched daemon holds.

Per-daemon records are slotted, so none carries a ``__dict__``, and a
tool daemon's process holds no debug-event store and no /proc
statistics, which only a traced launcher and the application's tasks
use. The census walks the collector's objects during a 64-daemon fig6
LaunchMON launch, so it sees records that the launch drops again. A
daemon's context holds no tool scratch dict, and until its handshake
fills them its task and daemon tables are one shared empty tuple.
"""

import gc

from repro.be import BackEnd, BEContext
from repro.cluster.process import ProcStats
from repro.fe import ToolFrontEnd
from repro.experiments.fig6 import measure_stat_startup
from repro.mpir import ProcDesc
from repro.rm import LaunchedDaemon
from repro.runner import make_env
from repro.simx import Store

RECORDS = (ProcDesc, ProcStats, BEContext, LaunchedDaemon, BackEnd)

#: kernel events between two object walks
WALK_EVERY = 500


def _launch_census(n: int):
    seen: dict[int, object] = {}
    envs = []

    def walk():
        for obj in gc.get_objects():
            if isinstance(obj, RECORDS):
                seen[id(obj)] = obj

    def trace(when, prio, seq, event):
        if seq % WALK_EVERY == 0:
            walk()

    def env_factory(**kwargs):
        env = make_env(**kwargs)
        env.sim.trace = trace
        envs.append(env)
        return env

    box = measure_stat_startup(n, "launchmon", tasks_per_daemon=1,
                               env_factory=env_factory)
    walk()
    assert box["n_tasks"] == n
    (env,) = envs
    daemons = [d for job in env.rm.jobs for d in job.daemons]
    return list(seen.values()), daemons


def test_daemon_records_carry_no_dict_and_daemons_no_unused_extras():
    n = 64
    records, daemons = _launch_census(n)
    for cls in RECORDS:
        found = [r for r in records if type(r) is cls]
        assert len(found) >= n, cls.__name__
        assert not any(hasattr(r, "__dict__") for r in found), cls.__name__
    assert len(daemons) == n
    for d in daemons:
        held = gc.get_referents(d.proc)
        assert not any(isinstance(r, (Store, ProcStats)) for r in held), d


def test_a_context_starts_with_shared_empty_tables_and_no_tool_state(
        monkeypatch):
    n = 16
    built = []
    real = ToolFrontEnd._context_factory

    def recording(fe, session, rendezvous):
        factory = real(fe, session, rendezvous)

        def build(*args):
            ctx = factory(*args)
            built.append((ctx, ctx.local_entries, ctx.daemon_table))
            return ctx
        return build

    monkeypatch.setattr(ToolFrontEnd, "_context_factory", recording)
    box = measure_stat_startup(n, "launchmon", tasks_per_daemon=1)
    assert box["n_tasks"] == n
    assert len(built) >= n
    empty = built[0][1]
    assert empty == ()
    for ctx, entries, table in built:
        assert type(ctx) is BEContext
        assert not hasattr(ctx, "tool_state")
        assert entries is empty and table is empty
    # the handshake replaced both tables of every back end
    backends = [ctx for ctx, _, _ in built if ctx.local_entries is not empty]
    assert len(backends) == n
    assert all(len(ctx.daemon_table) == n for ctx in backends)
