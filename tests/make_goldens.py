"""Golden outputs of the acceptance command lines, and the script that
rewrites them.

    PYTHONPATH=src python3 tests/make_goldens.py

Run from the root of a source checkout.  Each command of ``COMMANDS`` runs
in process through ``cli.main``, and ``tests/golden/<name>.txt`` holds its
exit code on the first line and its stdout after it.  ``tests/test_goldens.py``
reads the same list, so a change to any report byte fails tier-1.  Rewrite
the files only with a change that alters output on purpose, and say so in
CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

from helpers import C12_TEXT, GOLAY24_TEXT, HAMMING74_TEXT, TGOLAY12_TEXT
from jacobiforge import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CODES = {
    "hamming7": HAMMING74_TEXT,
    "c12": C12_TEXT,
    "tgolay12": TGOLAY12_TEXT,
    "golay24": GOLAY24_TEXT,
}


def _commands() -> dict[str, tuple[str, tuple[str, ...]]]:
    """{golden name: (code name, argv after --code)}."""
    out = {}
    verify_lines = [
        ("hamming7", "-r 2 -t 2 -m 2"),
        ("c12", "-r 2 -t 2 -m 2"),
        ("tgolay12", "-r 2 -t 2 -m 1"),
        ("tgolay12", "-r 1 -t 1 -m 2"),
        ("golay24", "-r 1 -t 1 -m 1"),
    ]
    for code, caps in verify_lines:
        for seed in range(3):
            name = f"verify-{code}-{caps.replace(' ', '').replace('-', '')}-seed{seed}"
            out[name] = (code, ("verify", *caps.split(), "--seed", str(seed)))
    # guard-limited runs, so the SKIP lines of a guard hit are pinned too
    guarded_lines = [
        ("c12", "-r 2 -t 2 -m 2 --max-subcodes 100"),
        ("tgolay12", "-r 1 -t 1 -m 2 --max-words 1000"),
    ]
    for code, argv in guarded_lines:
        out[f"verify-{code}-{argv.replace(' ', '').replace('-', '')}"] = (
            code, ("verify", *argv.split())
        )
    tables = {
        "jacobi": ("jacobi", "--json", "-T", "1,2"),
        "hjacobi": ("hjacobi", "--json", "-r", "2", "-T", "1,3"),
        "ejacobi": ("ejacobi", "--json", "-m", "2", "-T", "1,2"),
        "mw-check-hw": ("mw-check", "--kind", "hw", "-r", "2"),
        "mw-check-hjac": ("mw-check", "--kind", "hjac", "-r", "1", "-T", "1,2"),
        "mw-check-ejac": ("mw-check", "--kind", "ejac", "-m", "2", "-T", "2,5"),
        "recover": ("recover", "-r", "2", "-T", "1,2"),
        "design-check": ("design-check", "-r", "2", "-t", "2"),
    }
    for code in ("hamming7", "c12", "tgolay12"):
        for label, argv in tables.items():
            out[f"{label}-{code}"] = (code, argv)
    return out


COMMANDS = _commands()


def run_command(name: str, code_dir: Path) -> str:
    """The golden text of one command: its exit code, then its stdout."""
    code, argv = COMMANDS[name]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = cli.main([argv[0], "--code", str(code_dir / f"{code}.txt"), *argv[1:]])
    return f"exit {status}\n{stdout.getvalue()}"


def write_codes(code_dir: Path) -> None:
    for code, text in CODES.items():
        (code_dir / f"{code}.txt").write_text(text)


def stale(names, code_dir: Path) -> list[str]:
    """The names among names whose output differs from its golden file."""
    return [
        name for name in names
        if run_command(name, code_dir) != (GOLDEN / f"{name}.txt").read_text()
    ]


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        write_codes(Path(tmp))
        for name in COMMANDS:
            (GOLDEN / f"{name}.txt").write_text(run_command(name, Path(tmp)))
    print(f"wrote {len(COMMANDS)} files to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
