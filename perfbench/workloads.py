"""The benchmark's workloads, input codes and correctness gate.

Every workload is a list of jacobiforge CLI invocations on codes kept in
``perfbench/codes``.  A command carries the check its stdout must pass:
a golden file, the verify contract, or byte equality with the output of
another command in the same pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent
CODES = HERE / "codes"
GOLDEN = HERE / "golden"

# Known weight enumerators {weight: count}; a mistyped matrix fails loudly.
KNOWN_WENUM = {
    "hamming7": {0: 1, 3: 7, 4: 7, 7: 1},
    "c12": {0: 1, 3: 2, 4: 6, 5: 18, 6: 16, 7: 6, 8: 9, 9: 6},
    "golay24": {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1},
    "tgolay12": {0: 1, 6: 264, 9: 440, 12: 24},
}


def code_path(name: str) -> Path:
    return CODES / f"{name}.txt"


def read_matrix(text: str) -> tuple[int, int, list[list[int]]]:
    """(q, n, rows) of a prime-field matrix file with digit rows."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    header = dict(tok.split("=", 1) for tok in lines[0].split())
    q, n = int(header["q"]), int(header["n"])
    rows = [[int(ch) for ch in ln] for ln in lines[1:]]
    if any(len(row) != n for row in rows):
        raise ValueError(f"a row does not have {n} digits")
    return q, n, rows


def weight_distribution(q: int, n: int, rows: list[list[int]]) -> dict[int, int]:
    """Weight distribution of the row space over the prime field GF(q)."""
    counts: dict[int, int] = {}
    for msg in product(range(q), repeat=len(rows)):
        word = [0] * n
        for a, row in zip(msg, rows):
            if a:
                word = [(x + a * y) % q for x, y in zip(word, row)]
        w = sum(1 for x in word if x)
        counts[w] = counts.get(w, 0) + 1
    return dict(sorted(counts.items()))


def check_codes(names) -> None:
    """Raise ValueError unless every named code has its known weight enumerator."""
    for name in names:
        q, n, rows = read_matrix(code_path(name).read_text())
        got = weight_distribution(q, n, rows)
        if got != KNOWN_WENUM[name]:
            raise ValueError(f"{name}: weight distribution {got}, expected {KNOWN_WENUM[name]}")


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the check its stdout must pass.

    check is ("verify",), ("golden", relative path) or ("same-as", key):
    byte equality with the stdout of the command with that key in the pass.
    """

    key: str
    argv: tuple[str, ...]
    check: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    codes: tuple[str, ...]
    commands: tuple[Command, ...]
    # Run with two-way parallelism: jobs2 commands, split over jobs2_clients
    # concurrent client processes.
    jobs2: tuple[Command, ...]
    jobs2_clients: int


def _verify(key: str, code: str, opts: str, seed: int, jobs: int, check) -> Command:
    argv = ("verify", "--code", str(code_path(code)), *opts.split(), f"--seed={seed}", f"--jobs={jobs}")
    return Command(key, argv, check)


def _tset(rng: random.Random, n: int, size: int) -> str:
    return ",".join(str(c) for c in sorted(rng.sample(range(1, n + 1), size)))


def golay24_commands(seed: int) -> tuple[Command, ...]:
    """The single-table commands on Golay [24,12]_2, with T drawn from seed.

    Every shell of the Golay code is a 5-design, so no golden depends on T.
    """
    rng = random.Random(seed)
    g = str(code_path("golay24"))
    specs = [
        ("wenum", ()),
        ("jacobi", ("-T", _tset(rng, 24, 3))),
        ("hwenum", ("-r", "1")),
        ("hjacobi", ("-r", "1", "-T", _tset(rng, 24, 2))),
        ("polarize", ("-r", "1", "-t", "3")),
        ("recover", ("-r", "1", "-T", _tset(rng, 24, 2))),
        ("mw-check", ("--kind", "hjac", "-r", "1", "-T", _tset(rng, 24, 2))),
        ("design-check", ("-r", "1", "-t", "5")),
    ]
    return tuple(
        Command(name, (name, "--code", g, *opts), ("golden", f"golay24/{name}.txt"))
        for name, opts in specs
    )


def workload(name: str, seed: int) -> Workload:
    if name == "verify-c12":
        opts = "-r 2 -t 2 -m 2"
        return Workload(
            name,
            ("hamming7", "c12"),
            (
                _verify("hamming7", "hamming7", opts, seed, 1, ("verify",)),
                _verify("c12", "c12", opts, seed, 1, ("verify",)),
            ),
            (_verify("c12-jobs2", "c12", opts, seed, 2, ("same-as", "c12")),),
            1,
        )
    if name == "ext-tgolay":
        opts = "-r 1 -t 1 -m 2"
        return Workload(
            name,
            ("tgolay12",),
            (_verify("tgolay12", "tgolay12", opts, seed, 1, ("verify",)),),
            (_verify("tgolay12-jobs2", "tgolay12", opts, seed, 2, ("same-as", "tgolay12")),),
            1,
        )
    if name == "tables-golay24":
        cmds = golay24_commands(seed)
        return Workload(name, ("golay24",), cmds, cmds, 2)
    raise KeyError(name)


WORKLOADS = ("verify-c12", "ext-tgolay", "tables-golay24")


def check_output(cmd: Command, returncode: int, stdout: str, seen: dict[str, str]) -> str | None:
    """None when the command's result is correct, else the reason it is not.

    seen maps command keys of the pass to their stdout, for "same-as".
    """
    if returncode != 0:
        return f"exit code {returncode}"
    lines = stdout.splitlines()
    if any(ln.startswith("FAIL") or "DIFFER" in ln for ln in lines):
        return "a check printed FAIL or DIFFER"
    kind = cmd.check[0]
    if kind == "verify":
        if not lines or not lines[-1].startswith("verify: all checks passed"):
            return "verify did not end with 'all checks passed'"
        return None
    if kind == "golden":
        if stdout != (GOLDEN / cmd.check[1]).read_text():
            return f"stdout differs from golden {cmd.check[1]}"
        return None
    if kind == "same-as":
        if stdout != seen.get(cmd.check[1]):
            return f"stdout differs from that of {cmd.check[1]}"
        return None
    raise ValueError(f"unknown check {cmd.check!r}")
