"""Import-time contracts: the standard library suffices, every package
resolves its public names on first access, importing one experiment
loads only what that experiment runs, a run imports nothing its set-up
did not, and no entry point maps OpenSSL or the process pool before a
run asks for them.

What an import loads is checked in a fresh interpreter, because this
process has already imported most of ``repro`` and everything pytest
and Hypothesis pull in.
"""

import importlib
import importlib.util
import json
import pkgutil
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
                                "repro.experiments.fleetchaos",
                                "repro.cluster.netfaults")
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


#: every package whose public names resolve on first access, through
#: ``repro._lazy_exports``; ``repro.tools`` only lists its subpackages
LAZY_PACKAGES = [
    "repro", "repro.analysis", "repro.apps", "repro.be", "repro.cluster",
    "repro.ctl", "repro.engine", "repro.experiments", "repro.fe",
    "repro.fleet", "repro.launch", "repro.lmonp", "repro.mpir", "repro.mw",
    "repro.perfmodel", "repro.rm", "repro.simx", "repro.tbon",
    "repro.tools.jobsnap", "repro.tools.monitor", "repro.tools.oss",
    "repro.tools.stat_tool",
]

#: public names a package ``__init__`` defines itself
OWN_NAMES = {"repro": {"__version__"}}


def _defining_object(package, name: str):
    """What *name* is in the module its package's table names for it."""
    module = package.__getattr__.exports[name]
    if module == package.__name__:
        return importlib.import_module(f"{module}.{name}")
    return getattr(importlib.import_module(module), name)


def _repro_modules(stdout: str) -> list:
    return [name for name in stdout.split()
            if name == "repro" or name.startswith("repro.")]


def test_every_package_is_lazy_but_tools():
    packages = {info.name for info in pkgutil.walk_packages(
        repro.__path__, "repro.") if info.ispkg}
    assert packages | {"repro"} == set(LAZY_PACKAGES) | {"repro.tools"}


@pytest.mark.parametrize("name", LAZY_PACKAGES)
class TestLazyExports:
    def test_table_lists_exactly_all(self, name):
        package = importlib.import_module(name)
        exports = package.__getattr__.exports
        own = OWN_NAMES.get(name, set())
        assert set(exports) == set(package.__all__) - own
        assert len(package.__all__) == len(set(package.__all__))

    def test_each_name_is_its_defining_module_attribute(self, name):
        package = importlib.import_module(name)
        for public in package.__getattr__.exports:
            assert getattr(package, public) is _defining_object(
                package, public), public

    def test_dir_lists_every_public_name(self, name):
        package = importlib.import_module(name)
        assert set(package.__getattr__.exports) <= set(package.__dir__())

    def test_star_import_binds_exactly_all(self, name):
        package = importlib.import_module(name)
        namespace: dict = {}
        exec(f"from {name} import *", namespace)
        namespace.pop("__builtins__")
        assert set(namespace) == set(package.__all__)
        for public, obj in namespace.items():
            assert getattr(package, public) is obj

    def test_unknown_name_raises_attribute_error(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match="no_such_export"):
            package.no_such_export  # noqa: B018
        assert not hasattr(package, "no_such_export")

    def test_importing_the_package_loads_no_submodule(self, name):
        proc = _run_child(f"import {name}\n"
                          "print('\\n'.join(sorted(sys.modules)))")
        assert proc.returncode == 0, proc.stderr
        parts = name.split(".")
        ancestors = {".".join(parts[:i]) for i in range(1, len(parts) + 1)}
        assert set(_repro_modules(proc.stdout)) == ancestors


ALL_RESOLVE_AFTER_EVERY_IMPORT = f"""
import importlib
import json
import pkgutil

import repro

for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if not info.name.endswith(".__main__"):  # runs the CLI on import
        importlib.import_module(info.name)

def defining_object(package, name):
    module = package.__getattr__.exports[name]
    if module == package.__name__:
        return importlib.import_module(module + "." + name)
    return getattr(importlib.import_module(module), name)

wrong = []
for name in {LAZY_PACKAGES!r}:
    package = importlib.import_module(name)
    wrong += [name + "." + public for public in package.__getattr__.exports
              if getattr(package, public) is not defining_object(
                  package, public)]
print(json.dumps(wrong))
"""


def test_every_name_resolves_after_every_module_is_imported():
    """A submodule import binds the submodule on its package; no public
    name may be shadowed that way, whatever was imported first."""
    proc = _run_child(ALL_RESOLVE_AFTER_EVERY_IMPORT)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


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


#: modules a set-up import must not load, because its workload's run
#: never calls them: a stream runs no front end, LaunchMON engine, tool,
#: back end, app, proctable, launch model, sweep table, other RM,
#: network weather, fleet or ctl; a fleet no chaos storm, other RM or
#: TBON
SETUP_SKIPS = [
    ("repro.experiments.streaming",
     ("repro.engine", "repro.fe", "repro.lmonp", "repro.mpir.rpdtab",
      "repro.mpir.trace", "repro.tools", "repro.be", "repro.apps",
      "repro.rm.bgl", "repro.rm.rsh", "repro.mw", "repro.fleet",
      "repro.ctl", "repro.cluster.netfaults", "repro.perfmodel.model",
      "repro.experiments.common", "repro.experiments.sweep")),
    ("repro.experiments.fleet",
     ("repro.fleet.chaos", "repro.rm.bgl", "repro.rm.rsh", "repro.mw",
      "repro.tbon", "repro.tools")),
]


@pytest.mark.parametrize("entry, skipped", SETUP_SKIPS,
                         ids=[entry for entry, _ in SETUP_SKIPS])
def test_a_setup_import_loads_nothing_its_run_never_calls(entry, skipped):
    proc = _run_child(f"import {entry}\n"
                      "print('\\n'.join(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert [name for name in skipped if _loads(name, loaded)] == []


#: the rest of each workload's set-up after its ENTRY_POINTS import, and
#: one smoke-size run of it (recovery-mix: every ctl crash-restart and
#: chaos storm variant)
SMOKE_RUNS = [
    (ENTRY_POINTS[0], "from repro.experiments.fig6 import "
                      "measure_stat_startup as run", """
run(256, "launchmon", tasks_per_daemon=1)
run(256, "launchmon", tasks_per_daemon=1, hybrid=True)
"""),
    (ENTRY_POINTS[1], "from repro.experiments.streaming import "
                      "measure_stream as run", """
run(256, "histogram", window=4, credit_limit=4, n_waves=5, fanout=16)
"""),
    (ENTRY_POINTS[2], "from repro.experiments.fleet import "
                      "run_fleet_once as run", """
run(4, 8.0, n_arrivals=16, fault=True)
"""),
    (ENTRY_POINTS[3], """
from repro.ctl.harness import run_crash_restart, scenario_for_seed
from repro.fleet.chaos import run_fleet_chaos
from repro.fleet.chaos import scenario_for_seed as storm_for_seed
crashes = [scenario_for_seed(seed) for seed in range(4)]
storms = [storm_for_seed(seed) for seed in range(5)]
""", """
for scenario in crashes:
    run_crash_restart(scenario)
for storm in storms:
    run_fleet_chaos(storm)
"""),
]


@pytest.mark.parametrize("imports, setup, run", SMOKE_RUNS,
                         ids=["+".join(entry[0]) for entry in SMOKE_RUNS])
def test_a_run_imports_nothing_its_setup_did_not(imports, setup, run):
    """Compiling a module the run needs belongs to set-up, not to the
    first (warm-up) iteration and its peak."""
    code = "".join(f"import {name}\n" for name in imports) + setup
    proc = _run_child(code + "\nbefore = set(sys.modules)\n" + run
                      + "print('\\n'.join(sorted(set(sys.modules) - before)))")
    assert proc.returncode == 0, proc.stderr
    assert _repro_modules(proc.stdout) == []


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
