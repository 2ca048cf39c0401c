"""Write the golden stdout of every tables-golay24 command, after
confirming each one by a second route.

    python3 perfbench/make_goldens.py

Run from the root of a source checkout.  For each of seeds 0-4 the workload's
commands run with that seed's reference sets; every command must print
the same bytes for every seed.  Then:

* wenum equals the known Golay weight enumerator, and hwenum -r 1 equals
  it without the zero word;
* polarize -r 1 -t 3 equals hjacobi -r 1 for every sampled 3-set T, and
  jacobi (|T| = 3) equals it plus the zero word's term w^3*x^21;
* hjacobi -r 1 (|T| = 2) equals polarize -r 1 -t 2;
* recover and mw-check print EQUAL, and their tables equal hjacobi's;
* design-check reports every shell as a 5-design with
  lambda = A_w * C(w, 5) / C(24, 5).

Nothing is written unless every confirmation holds.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from math import comb
from pathlib import Path

from workloads import GOLDEN, KNOWN_WENUM, code_path, golay24_commands

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(5)


def cli(*argv: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "jacobiforge", *argv],
        capture_output=True, text=True, env=env, cwd=ROOT, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"jacobiforge {' '.join(argv)} exited {proc.returncode}: {proc.stderr}")
    return proc.stdout


def render_wenum(counts: dict[int, int], n: int) -> str:
    """A weight enumerator in the CLI's monomial format."""
    terms = []
    for w, c in sorted(counts.items()):
        factors = [f"{v}^{e}" if e > 1 else v for v, e in (("x", n - w), ("y", w)) if e]
        terms.append("*".join(([str(c)] if c != 1 else []) + factors))
    return " + ".join(terms) + "\n"


def confirm(out: dict[str, str], extra_tsets: list[str]) -> list[str]:
    """Reasons the goldens in out fail their second routes (empty when none)."""
    g = str(code_path("golay24"))
    wenum = KNOWN_WENUM["golay24"]
    problems = []

    def expect(name, got, want):
        if got != want:
            problems.append(f"{name}: {got!r} != {want!r}")

    expect("wenum", out["wenum"], render_wenum(wenum, 24))
    expect("hwenum", out["hwenum"], render_wenum({w: c for w, c in wenum.items() if w}, 24))
    for tset in extra_tsets:
        expect(f"polarize vs hjacobi T={tset}", out["polarize"],
               cli("hjacobi", "--code", g, "-r", "1", "-T", tset))
    expect("jacobi", out["jacobi"], "w^3*x^21 + " + out["polarize"])
    expect("hjacobi", out["hjacobi"], cli("polarize", "--code", g, "-r", "1", "-t", "2"))
    table = out["hjacobi"].rstrip("\n")
    expect("recover", out["recover"], f"{table}\nEQUAL\n")
    expect("mw-check", out["mw-check"], f"transform: {table}\ndual:      {table}\nEQUAL\n")
    design = "".join(
        f"i={w}: 5-design lambda={c * comb(w, 5) // comb(24, 5)}\n"
        for w, c in sorted(wenum.items()) if w
    )
    if any(c * comb(w, 5) % comb(24, 5) for w, c in wenum.items() if w):
        problems.append("a Golay shell has a fractional 5-design lambda")
    expect("design-check", out["design-check"], design)
    return problems


def main() -> int:
    outputs: dict[str, str] = {}
    extra_tsets = []
    for seed in SEEDS:
        for cmd in golay24_commands(seed):
            text = cli(*cmd.argv)
            if outputs.setdefault(cmd.key, text) != text:
                raise SystemExit(f"{cmd.key}: output depends on the seed ({seed})")
        rng = random.Random(f"extra-{seed}")
        extra_tsets.append(",".join(map(str, sorted(rng.sample(range(1, 25), 3)))))
    problems = confirm(outputs, extra_tsets)
    for problem in problems:
        print(f"NOT CONFIRMED {problem}", file=sys.stderr)
    if problems:
        return 1
    for cmd in golay24_commands(SEEDS[0]):
        path = GOLDEN / cmd.check[1]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(outputs[cmd.key])
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
