"""Bit-identity guards: the stream-less path and the stream plane's
printed face.

The streaming data plane reuses the overlay, the filter registry, and the
network RNG stream -- all places where an accidental extra event or RNG
draw would silently shift every downstream timing. This guard pins the
contract the same way the fault-injection PR pinned its empty-FaultPlan
case: the ``fig6`` and ``lmx`` quick sweeps must match the PR 3 baseline
**byte for byte** (``tests/baselines/pr3_fig6_lmx_quick.txt``, captured
from the pre-streaming tree by running
``python -m repro.experiments fig6 lmx --quick``).

The stream plane itself is pinned by two more files: the ``str`` quick
sweep (``tests/baselines/str_quick.txt``, from
``python -m repro.experiments str --quick``: throughput, latency, inbox
depth and stalls over leaf counts, filters and credit limits) and
``examples/streaming_demo.py`` (``tests/baselines/streaming_demo.txt``:
the monitor tool's waves, then a stream repaired through a comm-node
crash with its re-published waves).

If one of these fails after an intentional cost-model or mechanism
change, regenerate the baseline with that command and say so in the PR;
if it fails after a data-plane refactor, the refactor moved simulated
behaviour -- fix it, not the baseline.
"""

import contextlib
import io
import runpy
from pathlib import Path

from repro.experiments.cli import QUICK_SWEEPS
from repro.experiments import run_fig6, run_launch_matrix, run_streaming

ROOT = Path(__file__).parent.parent.parent
BASELINES = ROOT / "tests" / "baselines"
BASELINE = BASELINES / "pr3_fig6_lmx_quick.txt"


def test_fig6_and_lmx_quick_match_pr3_baseline_byte_for_byte():
    fig6 = run_fig6(**QUICK_SWEEPS["fig6"])
    lmx = run_launch_matrix(**QUICK_SWEEPS["lmx"])
    # exactly what `python -m repro.experiments fig6 lmx --quick` prints
    rendered = (fig6.format_table() + "\n\n"
                + lmx.format_table() + "\n\n")
    assert rendered == BASELINE.read_text()


def test_str_quick_matches_baseline_byte_for_byte():
    # exactly what `python -m repro.experiments str --quick` prints
    rendered = run_streaming(**QUICK_SWEEPS["str"]).format_table() + "\n\n"
    assert rendered == (BASELINES / "str_quick.txt").read_text()


def test_streaming_demo_matches_baseline_byte_for_byte():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(ROOT / "examples" / "streaming_demo.py"),
                       run_name="__main__")
    assert out.getvalue() == (BASELINES / "streaming_demo.txt").read_text()
