"""Bit-identity guard for the launch layer's failure paths.

``res`` drives every launch strategy through injected node crashes: with
no policy an rsh launch stops at its first failed spawn and the short set
is rejected, with one it launches past the failures and the session ends
DEGRADED. ``A3`` launches the rsh strategies directly, including the
sequential loop whose held clients fill the front end's process table.
Their quick sweeps must match ``tests/baselines/res_A3_quick.txt``
**byte for byte** (captured by running
``python -m repro.experiments res A3 --quick``).

If this test fails after an intentional cost-model or mechanism change,
regenerate the baseline with that command and say so in the change; if
it fails after a refactor of the launch layer, the refactor moved
simulated behaviour -- fix the refactor, not the baseline.
"""

from pathlib import Path

from repro.experiments.cli import QUICK_SWEEPS
from repro.experiments import run_ablation_launchers, run_resilience

BASELINE = Path(__file__).parent.parent / "baselines" / "res_A3_quick.txt"


def test_res_and_a3_quick_match_baseline_byte_for_byte():
    res = run_resilience(**QUICK_SWEEPS["res"])
    a3 = run_ablation_launchers(**QUICK_SWEEPS["A3"])
    # exactly what `python -m repro.experiments res A3 --quick` prints
    rendered = res.format_table() + "\n\n" + a3.format_table() + "\n\n"
    assert rendered == BASELINE.read_text()
