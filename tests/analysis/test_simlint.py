"""simlint: every rule fires on its bad fixture, stays quiet on the tree."""

import json
from pathlib import Path

import pytest

from repro.analysis.simlint import (GC_POLICY_OWNER, HOT_PATH_MODULES,
                                    RULES, Finding, lint_file, lint_paths,
                                    lint_source, main)

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parents[2] / "src"


def rules_fired(findings):
    return sorted({f.rule for f in findings})


class TestFixturesFire:
    """Each bad fixture produces exactly its rule's findings."""

    def test_wall_clock(self):
        findings = lint_file(FIXTURES / "bad_wall_clock.py")
        assert rules_fired(findings) == ["wall-clock"]
        assert len(findings) == 3
        assert "sim.now" in findings[0].message

    def test_unseeded_random(self):
        findings = lint_file(FIXTURES / "bad_unseeded_random.py")
        assert rules_fired(findings) == ["unseeded-random"]
        # random.random(), randint() and the seedless random.Random();
        # random.Random(42) stays quiet
        assert len(findings) == 3

    def test_linear_scan_needs_hot_flag(self):
        path = FIXTURES / "bad_linear_scan.py"
        # not a registered hot-path module: the rule is scoped off
        assert lint_file(path) == []
        findings = lint_file(path, hot=True)
        assert rules_fired(findings) == ["linear-scan"]
        # .remove / .pop(0) / .insert(0, ...); plain .pop() and the
        # explicit set.remove(...) are exempt
        assert len(findings) == 3

    def test_eager_default_needs_hot_flag(self):
        path = FIXTURES / "bad_eager_default.py"
        # not a registered hot-path module: the rule is scoped off
        assert lint_file(path) == []
        findings = lint_file(path, hot=True)
        assert rules_fired(findings) == ["eager-default"]
        # set() / {} / [0, 0] / a set comprehension; a constant, an
        # existing object and the get-then-build idiom stay quiet
        assert [f.line for f in findings] == [11, 14, 17, 20]

    def test_sweep_pickle(self):
        findings = lint_file(FIXTURES / "bad_sweep_pickle.py")
        assert rules_fired(findings) == ["sweep-pickle"]
        assert len(findings) == 2
        assert any("lambda" in f.message for f in findings)
        assert any("nested def" in f.message for f in findings)

    def test_blocking_io(self):
        findings = lint_file(FIXTURES / "bad_blocking_io.py")
        assert rules_fired(findings) == ["blocking-io"]
        # sleep/open/subprocess inside the generator body only; the
        # plain helper and the non-generator outer stay quiet
        assert len(findings) == 3

    def test_agg_leaves_needs_agg_aware_flag(self):
        path = FIXTURES / "bad_agg_leaves.py"
        # not a registered hybrid hot-path module: the rule is scoped off
        assert lint_file(path) == []
        findings = lint_file(path, agg_aware=True)
        assert rules_fired(findings) == ["agg-leaves"]
        # .backends() and .live_backends() fire; the allowed site and the
        # aggregate-aware leaves()/live_leaves() stay quiet
        assert len(findings) == 2
        assert all("leaves()" in f.message for f in findings)

    def test_gc_policy(self):
        findings = lint_file(FIXTURES / "bad_gc_policy.py")
        assert rules_fired(findings) == ["gc-policy"]
        # disable / set_threshold / freeze (imported bare) / unfreeze /
        # enable; gc.collect() and gc.isenabled() stay quiet
        assert len(findings) == 5
        assert all(GC_POLICY_OWNER in f.message for f in findings)

    def test_gc_policy_exempts_only_the_kernel(self):
        src = "import gc\ndef run():\n    gc.disable()\n    gc.enable()\n"
        assert lint_source(src, path="/r/src/repro/simx/core.py") == []
        elsewhere = lint_source(src, path="/r/src/repro/simx/channels.py")
        assert rules_fired(elsewhere) == ["gc-policy"]
        assert len(elsewhere) == 2

    def test_self_closure(self):
        findings = lint_file(FIXTURES / "bad_self_closure.py")
        assert rules_fired(findings) == ["self-closure"]
        # a recursive helper, one that registers itself, one a nested
        # lambda refers to, and a recursive helper inside a method;
        # module-level recursion, methods, a parameter that shadows the
        # name and the allowed def stay quiet
        assert [f.message.split("'")[1] for f in findings] == [
            "walk", "once", "relay", "visit"]

    def test_suppressions_silence_everything(self):
        assert lint_file(FIXTURES / "good_suppressed.py", hot=True) == []


class TestRuleMechanics:
    def test_alias_resolution_sees_through_import_as(self):
        findings = lint_source(
            "import time as t\n"
            "from time import monotonic as mono\n"
            "def f():\n"
            "    return t.time() + mono()\n")
        assert len(findings) == 2
        assert all(f.rule == "wall-clock" for f in findings)

    def test_selective_suppression_leaves_other_rules_armed(self):
        findings = lint_source(
            "import time, random\n"
            "def f():\n"
            "    return time.time() + random.random()"
            "  # simlint: allow[wall-clock]\n")
        assert rules_fired(findings) == ["unseeded-random"]

    def test_nested_generator_does_not_taint_outer_scope(self):
        findings = lint_source(
            "def outer(sim, path):\n"
            "    def inner():\n"
            "        yield sim.timeout(1)\n"
            "    return open(path).read(), inner\n")
        assert findings == []

    def test_syntax_error_becomes_a_finding(self):
        findings = lint_source("def broken(:\n", path="x.py")
        assert len(findings) == 1
        assert findings[0].rule == "syntax"

    def test_hot_path_registry_suffix_matches(self):
        src = "def f(xs, x):\n    xs.remove(x)\n"
        hot = lint_source(src, path="/r/src/repro/simx/core.py")
        cold = lint_source(src, path="/r/src/repro/apps.py")
        assert rules_fired(hot) == ["linear-scan"] and cold == []
        assert any(p.endswith("simx/core.py") for p in HOT_PATH_MODULES)

    def test_finding_str_and_dict_round_trip(self):
        f = Finding(path="m.py", line=3, col=4, rule="wall-clock",
                    message="time.time() reads the wall clock")
        assert str(f).startswith("m.py:3:4: [wall-clock]")
        assert f.as_dict()["rule"] == "wall-clock"


class TestRealTree:
    def test_src_is_clean(self):
        findings = lint_paths([SRC])
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_every_rule_has_a_description(self):
        assert set(RULES) == {"wall-clock", "unseeded-random",
                              "linear-scan", "eager-default",
                              "sweep-pickle", "blocking-io", "agg-leaves",
                              "gc-policy", "self-closure"}
        assert all(desc for desc in RULES.values())


class TestCLI:
    def test_exit_one_and_json_on_findings(self, tmp_path, capsys):
        out = tmp_path / "findings.json"
        rc = main([str(FIXTURES / "bad_wall_clock.py"),
                   "--json", str(out)])
        assert rc == 1
        payload = json.loads(out.read_text())
        assert payload["ok"] is False
        assert len(payload["findings"]) == 3
        assert "3 finding(s)" in capsys.readouterr().out

    def test_exit_zero_on_clean_file(self, capsys):
        rc = main([str(FIXTURES / "good_suppressed.py")])
        assert rc == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_hot_flag_extends_registry(self):
        rc = main([str(FIXTURES / "bad_linear_scan.py"),
                   "--hot", "fixtures/bad_linear_scan.py"])
        assert rc == 1

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule in out
