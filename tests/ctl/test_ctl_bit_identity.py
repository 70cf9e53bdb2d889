"""Byte baselines for the control plane's printed face.

``python -m repro.experiments ctl --quick`` must print
``tests/baselines/ctl_quick.txt`` and ``examples/ctl_demo.py`` must print
``tests/baselines/ctl_demo.txt``, byte for byte. The quick table pins the
crash-restart harness's dispositions over eight seeded restart points;
the demo pins the verbs a client calls -- start, launch, wait, info,
crash, restart, open_stream, end, stop -- and what the restore adopted.

If either fails after a refactor of :mod:`repro.ctl`, the refactor moved
simulated behaviour: fix it, not the baseline. Only a deliberate model
change regenerates them, from those two commands.
"""

import contextlib
import io
import runpy
from pathlib import Path

from repro.experiments import run_ctl
from repro.experiments.cli import QUICK_SWEEPS

ROOT = Path(__file__).parent.parent.parent
BASELINES = ROOT / "tests" / "baselines"


def test_ctl_quick_matches_baseline_byte_for_byte():
    # exactly what `python -m repro.experiments ctl --quick` prints
    rendered = run_ctl(**QUICK_SWEEPS["ctl"]).format_table() + "\n\n"
    assert rendered == (BASELINES / "ctl_quick.txt").read_text()


def test_ctl_demo_matches_baseline_byte_for_byte():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(ROOT / "examples" / "ctl_demo.py"),
                       run_name="__main__")
    assert out.getvalue() == (BASELINES / "ctl_demo.txt").read_text()
