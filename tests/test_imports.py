"""Import-time contracts: the standard library suffices, importing one
experiment loads only that experiment, and no entry point maps OpenSSL
or the process pool before a run asks for them.

Each runs in a fresh interpreter, because this process has already
imported most of ``repro`` and everything pytest and Hypothesis pull in.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro.experiments

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: the package's public names (unchanged by loading runners lazily)
EXPERIMENTS_ALL = {
    "ExperimentResult", "percentile",
    "run_ablation_iccl", "run_ablation_jobsnap_tbon",
    "run_ablation_launchers", "run_ablation_rm_events",
    "run_ctl", "run_fig3", "run_fig5", "run_fig6", "run_fleet",
    "run_fleetchaos", "run_launch_matrix", "run_multitenant",
    "run_resilience", "run_streaming", "run_table1",
}


def _run_child(code: str, *flags: str) -> subprocess.CompletedProcess:
    prelude = f"import sys\nsys.path.insert(0, {SRC!r})\n"
    return subprocess.run([sys.executable, *flags, "-c", prelude + code],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=120)


STDLIB_ONLY = """
import importlib
import importlib.util
import pkgutil

# -I -S leaves only the standard library and src/ on the path
assert importlib.util.find_spec("pytest") is None, sys.path

import repro
import repro.analysis
import repro.experiments.cli
import repro.perfmodel

for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if not info.name.endswith(".__main__"):  # runs the CLI on import
        importlib.import_module(info.name)
sys.exit(repro.experiments.cli.main(["fig6", "--quick"]))
"""


def test_every_module_imports_and_fig6_runs_on_the_stdlib_alone():
    # -I ignores PYTHON* variables and the user site; -S skips site, so
    # no site-packages directory (numpy, pytest, ...) is importable; -B
    # writes no bytecode into src/, which -I would do even under
    # PYTHONDONTWRITEBYTECODE
    proc = _run_child(STDLIB_ONLY, "-I", "-S", "-B")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("fig6: "), proc.stdout


class TestLazyExperimentsPackage:
    def test_importing_fig6_loads_no_fleet_or_ctl_module(self):
        proc = _run_child("import repro.experiments.fig6\n"
                          "print('\\n'.join(sorted(sys.modules)))")
        assert proc.returncode == 0, proc.stderr
        loaded = proc.stdout.split()
        assert "repro.experiments.fig6" in loaded
        unwanted = [name for name in loaded
                    if name in ("repro.fleet", "repro.ctl",
                                "repro.experiments.fleetchaos")
                    or name.startswith(("repro.fleet.", "repro.ctl."))]
        assert unwanted == []

    def test_all_is_unchanged(self):
        assert set(repro.experiments.__all__) == EXPERIMENTS_ALL
        assert len(repro.experiments.__all__) == len(EXPERIMENTS_ALL)

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS_ALL))
    def test_name_resolves_to_its_submodule_attribute(self, name):
        obj = getattr(repro.experiments, name)
        module = importlib.import_module(obj.__module__)
        assert module.__name__.startswith("repro.experiments.")
        assert getattr(module, name) is obj

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="run_fig7"):
            repro.experiments.run_fig7  # noqa: B018
        assert not hasattr(repro.experiments, "run_fig7")

    def test_star_import_binds_every_public_name(self):
        namespace: dict = {}
        exec("from repro.experiments import *", namespace)
        namespace.pop("__builtins__")
        assert set(namespace) == EXPERIMENTS_ALL
        for name, obj in namespace.items():
            assert getattr(repro.experiments, name) is obj


#: what loading OpenSSL's libcrypto (``hashlib``, ``ssl``) or the process
#: pool (``multiprocessing``, ``concurrent.futures``) looks like
OPENSSL = ("_hashlib", "hashlib", "_ssl")
POOL = ("multiprocessing", "concurrent.futures")

#: what each suite workload imports in its set-up (recovery-mix takes
#: the ctl harness and the chaos storms), and the CLI
ENTRY_POINTS = [
    ("repro.experiments.fig6",),
    ("repro.experiments.streaming",),
    ("repro.experiments.fleet",),
    ("repro.ctl.harness", "repro.fleet.chaos"),
    ("repro.experiments.cli",),
]

#: whether this interpreter builds SHA-256 in (``_sha2`` on 3.12+,
#: ``_sha256`` before); without it only ``hashlib`` has the digest
BUILTIN_SHA256 = any(importlib.util.find_spec(name) is not None
                     for name in ("_sha2", "_sha256"))


def _loads(name: str, modules) -> bool:
    return any(m == name or m.startswith(name + ".") for m in modules)


@pytest.mark.parametrize("imports", ENTRY_POINTS, ids="+".join)
def test_an_entry_point_maps_no_openssl_and_no_process_pool(imports):
    code = "".join(f"import {name}\n" for name in imports)
    proc = _run_child(code + "print('\\n'.join(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert imports[0] in loaded
    heavy = POOL + (OPENSSL if BUILTIN_SHA256 else ("_ssl",))
    assert [name for name in heavy if _loads(name, loaded)] == []


#: streams and session keys whose digests the fallback must reproduce
DIGEST_CORPUS = """
from repro.lmonp import security_token
from repro.simx import SeededRNG

draws = [[SeededRNG(seed).child(name).random() for _ in range(3)]
         for seed in (0, 1, 2**40)
         for name in ("net", "node:7/fork", "nœud-ü/ß")]
tokens = [security_token(key)
          for key in ("", "session-1", "s" * 100, "clé-ü/ß")]
"""


def test_hashlib_fallback_gives_the_same_seeds_and_tokens():
    """Without a built-in SHA-256 module, streams and tokens come from
    ``hashlib`` and do not change."""
    namespace: dict = {}
    exec(DIGEST_CORPUS, namespace)
    code = ('sys.modules["_sha256"] = sys.modules["_sha2"] = None\n'
            + DIGEST_CORPUS
            + 'assert "hashlib" in sys.modules\n'
              'print(json.dumps([draws, tokens]))')
    proc = _run_child("import json\n" + code)
    assert proc.returncode == 0, proc.stderr
    draws, tokens = json.loads(proc.stdout)
    assert draws == namespace["draws"]
    assert tokens == namespace["tokens"]
