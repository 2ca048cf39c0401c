"""Start-up guard: a jacobiforge process imports only what its command uses.

Each check runs a fresh interpreter under ``-X importtime``, which lists
every module the process imports on stderr; the test process itself has
long since imported everything.  ``import jacobiforge`` loads the table
layer and resolves the names of the checks layer (designs, harmonic,
verify) on first use, so a table command never compiles that layer.
The checks layer imports at module top (harmonic imports designs, and
verify imports both), so ``design-check`` and ``polarize`` compile only
``designs`` of it, ``hahn`` ``harmonic`` and ``designs``, and
``mw-check`` all three.  The table
layer stays eager for perfbench's tracer test, which this module also
runs on its own, as ``python -m pytest perfbench/tests`` does.

``verify`` runs in one process for any ``--jobs``, and the records are
NamedTuple or ``__slots__`` classes, so neither ``multiprocessing`` nor
``pickle`` nor ``dataclasses`` (nor the ``inspect`` that ``dataclasses``
pulls in) belongs on the import path of a command, one given ``--jobs 2``
included.

The garbage collector is frozen by the entry point, never by a library
call: ``python -m jacobiforge`` and the installed ``jacobiforge`` script
both start at ``cli.entry_point`` and freeze what they have imported,
while ``import jacobiforge`` and ``verify_all`` leave the caller's
collector as they found it.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import jacobiforge
from helpers import HAMMING74_TEXT

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
UNWANTED = ("multiprocessing", "pickle", "dataclasses", "inspect")
# the command-line front end and the entry point are not library modules
FRONT_END = {"cli", "__main__"}
# what `import jacobiforge` loads; a command imports the checks it runs
TABLE_LAYER = {"bipoly", "code", "enumerators", "errors", "exactmath", "gf", "qcomb", "transforms"}
CHECKS_LAYER = {"designs", "harmonic", "verify"}


def imported(*argv) -> set[str]:
    """Every module a fresh interpreter running argv imports."""
    env = dict(os.environ, PYTHONPATH=SRC)
    res = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert res.returncode == 0, res.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in res.stderr.splitlines()
        if line.startswith("import time:")
    }


def under(name: str, modules: set[str]) -> bool:
    return any(mod == name or mod.startswith(name + ".") for mod in modules)


def unwanted(modules: set[str]) -> list[str]:
    """The unwanted modules among modules, save those a bare interpreter
    already imports (from a site hook, say), which no package change can
    keep out."""
    bare = imported("-c", "pass")
    return [name for name in UNWANTED if under(name, modules) and not under(name, bare)]


def test_importing_the_package_loads_no_unwanted_module():
    assert unwanted(imported("-c", "import jacobiforge")) == []


def test_a_cli_command_loads_no_unwanted_module(tmp_path):
    code = tmp_path / "hamming7.txt"
    code.write_text(HAMMING74_TEXT)
    modules = imported("-m", "jacobiforge", "wenum", "--code", str(code))
    assert "jacobiforge.cli" in modules
    assert unwanted(modules) == []


def test_a_parallel_verify_loads_no_unwanted_module(tmp_path):
    code = tmp_path / "hamming7.txt"
    code.write_text(HAMMING74_TEXT)
    modules = imported("-m", "jacobiforge", "verify", "--code", str(code), "--jobs", "2")
    assert "jacobiforge.verify" in modules
    assert unwanted(modules) == []


def library_modules(modules: set[str]) -> set[str]:
    """The bare names of the jacobiforge submodules among modules."""
    return {mod.split(".", 1)[1] for mod in modules if mod.startswith("jacobiforge.")}


def test_importing_the_package_loads_the_table_layer_only():
    # perfbench/tests/test_tracer.py's restored_jacobiforge fixture saves
    # and restores only the modules `import jacobiforge` loads, and asserts
    # that the tracer rebinds more than 20 names in them: the table layer
    # holds enough of them, so only the checks layer waits for a command
    package = {info.name for info in pkgutil.iter_modules(jacobiforge.__path__)}
    assert package == TABLE_LAYER | CHECKS_LAYER | FRONT_END
    assert library_modules(imported("-c", "import jacobiforge")) == TABLE_LAYER


@pytest.mark.parametrize(
    "argv, checks",
    [
        (("wenum",), set()),
        (("jacobi", "-T", "1,2"), set()),
        (("hwenum", "-r", "1"), set()),
        (("hjacobi", "-r", "1", "-T", "1,2"), set()),
        (("ejacobi", "-m", "2", "-T", "1,2"), set()),
        (("design-check", "-r", "1", "-t", "2"), {"designs"}),
        (("polarize", "-r", "1", "-t", "2"), {"designs"}),
        (("mw-check", "--kind", "hjac", "-r", "1", "-T", "1,2"), CHECKS_LAYER),
        (("hahn", "-m", "1", "-x", "2", "--alpha", "1", "--beta", "1", "-N", "5"),
         {"harmonic", "designs"}),
    ],
    ids=["wenum", "jacobi", "hwenum", "hjacobi", "ejacobi", "design-check", "polarize",
         "mw-check", "hahn"],
)
def test_a_command_loads_only_the_checks_it_runs(tmp_path, argv, checks):
    code = tmp_path / "hamming7.txt"
    code.write_text(HAMMING74_TEXT)
    # hahn reads no code
    code_args = () if argv[0] == "hahn" else ("--code", str(code))
    modules = imported("-m", "jacobiforge", *argv, *code_args)
    assert library_modules(modules) & CHECKS_LAYER == checks


def test_the_tracer_tests_pass_on_their_own():
    # run after tests/, which imports every module, the restored_jacobiforge
    # fixture saves every module whatever the package __init__ imports; run
    # alone, as here, it sees only what `import jacobiforge` loads
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "perfbench/tests/test_tracer.py", "-q"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stdout + res.stderr


# every name `import jacobiforge` exports, by the module that defines it
EXPORTS = {
    "bipoly": ("BiHomPoly",),
    "code": ("LinearCode", "RefSet", "Run", "parse_code"),
    "designs": (
        "BlockMultiset", "DesignVerdict", "is_t_design", "jacobi_by_polarization",
        "subcode_support_designs", "t_independence_check",
    ),
    "enumerators": (
        "JacobiTable", "extended_jacobi", "extended_jacobi_direct", "extended_jacobi_via_q",
        "higher_from_extended", "higher_jacobi", "higher_jacobi_via_q", "higher_weight_enum",
        "jacobi", "weight_enum",
    ),
    "errors": (
        "DegreeMismatch", "DegreeUnderflow", "DesignHypothesisFails", "DivisionByZero",
        "FieldMismatch", "JacobiForgeError", "NonIntegerResult", "NotPrime", "ParseError",
        "PochhammerZeroDenominator", "SingularMatrix", "TooLarge",
    ),
    "exactmath": ("RatMatrix", "rat_solve"),
    "gf": ("FieldSpec", "field_new"),
    "harmonic": (
        "HahnParams", "SubsetFn", "delsarte_design_check", "f_tilde", "h_dt", "hahn_eval",
        "harm_basis", "harmonic_higher_wenum", "recover_jacobi",
    ),
    "qcomb": ("gauss_binom", "qbracket", "qfact"),
    "transforms": ("MWContext", "mw_extended_jacobi", "mw_higher_jacobi", "mw_higher_weight"),
    "verify": ("verify_all",),
}


def test_every_exported_name_is_its_defining_modules_object():
    """In a fresh interpreter, so that each checks-layer name is resolved
    before its module is loaded; the package caches none of them."""
    script = (
        "import importlib, jacobiforge\n"
        "exports = %r\n"
        "for module, names in exports.items():\n"
        "    for name in names:\n"
        "        ns = {}\n"
        "        exec(f'from jacobiforge import {name}', ns)\n"
        "        defining = importlib.import_module(f'jacobiforge.{module}')\n"
        "        assert ns[name] is getattr(defining, name), (module, name)\n"
        "    exec(f'from jacobiforge import {module}', ns)\n"
        "    assert ns[module] is defining, module\n"
        "try:\n"
        "    jacobiforge.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
        "print(*sorted(n for ns in exports.values() for n in ns if n in vars(jacobiforge)))\n"
        % EXPORTS
    )
    out = run_python("-c", script).splitlines()
    assert out[0] == "module 'jacobiforge' has no attribute 'no_such_name'"
    eager = [name for module in TABLE_LAYER for name in EXPORTS[module]]
    assert out[1].split() == sorted(eager)


def run_python(*argv) -> str:
    """stdout of a fresh interpreter running argv, which must succeed."""
    env = dict(os.environ, PYTHONPATH=SRC)
    res = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_the_library_leaves_the_collector_unfrozen():
    """A whole verify_all run, the library's longest call, leaves the
    collector unfrozen."""
    script = (
        "import gc, jacobiforge\n"
        "code = jacobiforge.parse_code(%r)\n"
        "lines, ok = jacobiforge.verify_all(code)\n"
        "print(ok, gc.get_freeze_count())\n" % HAMMING74_TEXT
    )
    assert run_python("-c", script).split() == ["True", "0"]


def test_the_entry_point_freezes_the_collector(tmp_path):
    code = tmp_path / "hamming7.txt"
    code.write_text(HAMMING74_TEXT)
    script = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
        "sys.argv[0] = 'jacobiforge'\n"
        "runpy.run_module('jacobiforge', run_name='__main__', alter_sys=True)\n"
    )
    out = run_python("-c", script, "wenum", "--code", str(code))
    assert out.splitlines()[-1] == "frozen True"


def test_the_installed_script_freezes_the_collector(tmp_path):
    # the [project.scripts] target, run as the installed script would run it
    import tomllib

    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    module, func = pyproject["project"]["scripts"]["jacobiforge"].split(":")
    code = tmp_path / "hamming7.txt"
    code.write_text(HAMMING74_TEXT)
    script = (
        "import atexit, gc, importlib, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
        "sys.argv[0] = 'jacobiforge'\n"
        f"importlib.import_module({module!r}).{func}()\n"
    )
    out = run_python("-c", script, "wenum", "--code", str(code)).splitlines()
    assert out == ["x^7 + 7*x^4*y^3 + 7*x^3*y^4 + y^7", "frozen True"]
