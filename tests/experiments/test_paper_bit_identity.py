"""Bit-identity guard for the paper experiments no other baseline pins.

``fig6``, ``lmx``, ``str``, ``res`` and ``A3`` have byte baselines of
their own. This file pins the rest of the paper's quick tier -- the
Figure 3 launch breakdown, the Figure 5 Jobsnap run, Table 1's APAI
access times and the A1, A2 and A4 ablations -- against
``tests/baselines/paper_quick.txt``, captured by running::

    python -m repro.experiments fig3 fig5 table1 A1 A2 A4 --quick

If this test fails after an intentional cost-model or mechanism change,
regenerate the baseline with that command and say so in the change; if
it fails after a refactor, the refactor moved simulated behaviour -- fix
the refactor, not the baseline.
"""

import contextlib
import io
from pathlib import Path

from repro.experiments.cli import main

BASELINE = Path(__file__).parent.parent / "baselines" / "paper_quick.txt"


def test_paper_quick_matches_baseline_byte_for_byte():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(["fig3", "fig5", "table1", "A1", "A2", "A4",
                       "--quick"])
    assert status == 0
    assert out.getvalue() == BASELINE.read_text()
