"""Start-up guard: a jacobiforge process imports only what its command uses.

Each check runs a fresh interpreter under ``-X importtime``, which lists
every module the process imports on stderr; the test process itself has
long since imported everything.  ``verify`` runs in one process for any
``--jobs``, and the records are NamedTuple or ``__slots__`` classes, so
neither ``multiprocessing`` nor ``pickle`` nor ``dataclasses`` (nor the
``inspect`` that ``dataclasses`` pulls in) belongs on the import path of a
command, one given ``--jobs 2`` included.

The garbage collector is frozen by the entry point, never by a library
call: ``python -m jacobiforge`` freezes what it has imported, while
``import jacobiforge`` and ``verify_all`` leave the caller's collector as
they found it.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import jacobiforge
from helpers import HAMMING74_TEXT

SRC = str(Path(__file__).resolve().parent.parent / "src")
UNWANTED = ("multiprocessing", "pickle", "dataclasses", "inspect")
# the command-line front end and the entry point are not library modules
FRONT_END = {"cli", "__main__"}


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


def test_importing_the_package_loads_every_library_module():
    # the restored_jacobiforge fixture of perfbench/tests/test_tracer.py
    # saves and restores only the modules `import jacobiforge` has loaded,
    # and its test asserts that the tracer rebinds more than 20 names in
    # them, so the package __init__ must stay eager (the tracer's install()
    # imports every module it rebinds by name, so it does not need this)
    library = {
        f"jacobiforge.{info.name}"
        for info in pkgutil.iter_modules(jacobiforge.__path__)
        if info.name not in FRONT_END
    }
    assert len(library) >= 10
    modules = imported("-c", "import jacobiforge")
    assert library <= modules, sorted(library - modules)


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
