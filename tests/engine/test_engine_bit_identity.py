"""Bit-identity guards for the engine's printed and recorded face.

Three examples have byte baselines here, each captured by running the
script with ``PYTHONPATH=src``:

* ``examples/quickstart.py`` -> ``tests/baselines/quickstart.txt``: the
  only output that prints every Figure 2 mark and every
  ``ComponentTimes`` field;
* ``examples/jobsnap_demo.py`` -> ``tests/baselines/jobsnap_demo.txt``:
  an attachAndSpawn launch and its /proc snapshot;
* ``examples/oss_apai_demo.py`` -> ``tests/baselines/oss_apai_demo.txt``:
  the APAI acquisition through DPCL and through LaunchMON.

The printed tables round to 3-5 digits, so they cannot see a last-bit
change in a time the engine accumulates (``t_trace`` adds the handling
cost once per debug event: twelve additions of 1.5 ms give ``0.018``,
while ``12 * 0.0015`` gives ``0.018000000000000002``). The ``repr`` pins
below hold every ``ComponentTimes`` field and every timeline mark of two
launches to the last bit: the quickstart's and one under the legacy
one-event-per-task SLURM stream (ablation A1, 140 debug events).

If one of these fails after an intentional cost-model or mechanism
change, regenerate the file or the pins and say so in the change; if it
fails after a refactor, the refactor moved simulated behaviour.
"""

import contextlib
import io
import runpy
from dataclasses import fields
from pathlib import Path

import pytest

from repro import DaemonSpec, ToolFrontEnd, drive, make_env
from repro.apps import make_compute_app
from repro.experiments.fig3 import measure_launch_and_spawn
from repro.rm import SlurmConfig

ROOT = Path(__file__).parent.parent.parent
BASELINES = ROOT / "tests" / "baselines"


@pytest.mark.parametrize("example", ["quickstart", "jobsnap_demo",
                                     "oss_apai_demo"])
def test_example_matches_baseline_byte_for_byte(example):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(ROOT / "examples" / f"{example}.py"),
                       run_name="__main__")
    assert out.getvalue() == (BASELINES / f"{example}.txt").read_text()


QUICKSTART_TIMES = {
    "t_job": "0.12399366626874612",
    "t_daemon": "0.05321974915367175",
    "t_setup": "0.00109143870381187",
    "t_collective": "0.010279083957355273",
    "t_trace": "0.018",
    "t_rpdtab": "0.004620000000000013",
    "t_handshake": "0.001779138682431236",
    "t_other": "0.009209727553482094",
    "total": "0.22219280431949834",
}

QUICKSTART_MARKS = {
    "e0_client_call": "0.002376061111621904",
    "e1_engine_invoked": "0.002376061111621904",
    "e2_launcher_started": "0.011333609735693577",
    "e3_breakpoint": "0.1533272760044397",
    "e4_rpdtab_fetched": "0.15794727600443972",
    "e5_daemon_spawn_req": "0.15794727600443972",
    "e6_daemons_spawned": "0.21116702515811148",
    "e7_handshake_begin": "0.21141920408752185",
    "e10_ready": "0.22456886543112023",
    "e11_returned": "0.22456886543112023",
}

LEGACY_TIMES = {
    "t_job": "0.21359366626874463",
    "t_daemon": "0.053219749153671836",
    "t_setup": "0.0010914387038118423",
    "t_collective": "0.010278782591534974",
    "t_trace": "0.21000000000000016",
    "t_rpdtab": "0.0046199999999999575",
    "t_handshake": "0.0017755091508013798",
    "t_other": "0.009209727553482039",
    "total": "0.5037888734220468",
}

LEGACY_MARKS = {
    "e0_client_call": "0.002376061111621904",
    "e1_engine_invoked": "0.002376061111621904",
    "e2_launcher_started": "0.011333609735693577",
    "e3_breakpoint": "0.43492727600443837",
    "e4_rpdtab_fetched": "0.4395472760044383",
    "e5_daemon_spawn_req": "0.4395472760044383",
    "e6_daemons_spawned": "0.49276702515811016",
    "e7_handshake_begin": "0.49301920408752054",
    "e10_ready": "0.5061649345336687",
    "e11_returned": "0.5061649345336687",
}


def _quickstart_launch():
    """The quickstart's launch, run with the example's own daemon."""
    example = runpy.run_path(str(ROOT / "examples" / "quickstart.py"),
                             run_name="quickstart")
    env = make_env(n_compute=16)
    app = make_compute_app(n_tasks=128, tasks_per_node=8)
    spec = DaemonSpec("mytool_be", main=example["my_tool_daemon"],
                      image_mb=1.0)

    def tool(env):
        fe = ToolFrontEnd(env.cluster, env.rm, "mytool")
        yield from fe.init()
        session = fe.create_session()
        yield from fe.launch_and_spawn(session, app, spec,
                                       usr_data={"greeting": "hello"})
        yield from fe.recv_usrdata_be(session)
        yield from fe.detach(session)
        return session.times, session.timeline

    return drive(env, tool(env))


def _legacy_launch():
    times, timeline, _env = measure_launch_and_spawn(
        16, slurm_config=SlurmConfig(legacy_events=True))
    return times, timeline


@pytest.mark.parametrize("launch, want_times, want_marks", [
    pytest.param(_quickstart_launch, QUICKSTART_TIMES, QUICKSTART_MARKS,
                 id="quickstart"),
    pytest.param(_legacy_launch, LEGACY_TIMES, LEGACY_MARKS,
                 id="legacy-events"),
])
def test_launch_times_and_marks_hold_to_the_last_bit(launch, want_times,
                                                     want_marks):
    times, timeline = launch()
    assert {f.name: repr(getattr(times, f.name))
            for f in fields(times)} == want_times
    assert {name: repr(t) for name, t in timeline.marks.items()} \
        == want_marks
