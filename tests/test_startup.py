"""Start-up guard: a jacobiforge process imports only what its command uses.

Each check runs a fresh interpreter under ``-X importtime``, which lists
every module the process imports on stderr; the test process itself has
long since imported everything.  ``multiprocessing`` is needed only by
``verify --jobs`` above 1, and the records are NamedTuple or ``__slots__``
classes, so neither it nor ``dataclasses`` (nor the ``inspect`` that
``dataclasses`` pulls in) belongs on the import path of a command.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import jacobiforge
from helpers import HAMMING74_TEXT

SRC = str(Path(__file__).resolve().parent.parent / "src")
UNWANTED = ("multiprocessing", "dataclasses", "inspect")
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


def test_importing_the_package_loads_every_library_module():
    # perfbench's tracer rebinds names in every module that `import
    # jacobiforge` has loaded, so the package __init__ must stay eager
    library = {
        f"jacobiforge.{info.name}"
        for info in pkgutil.iter_modules(jacobiforge.__path__)
        if info.name not in FRONT_END
    }
    assert len(library) >= 10
    modules = imported("-c", "import jacobiforge")
    assert library <= modules, sorted(library - modules)
