"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a single summary line so a plain run doubles as a
conformance report: run ``pytest tests/test_acceptance.py -v -s``.
"""

import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from helpers import (
    C12_TEXT,
    ex44,
    hamming74,
    occurrences,
    qbinom_expansion_check,
    sample_tsets,
    subcodes,
    sweep_codes,
)
from jacobiforge import (
    BiHomPoly,
    LinearCode,
    MWContext,
    RefSet,
    Run,
    extended_jacobi_direct,
    extended_jacobi_via_q,
    field_new,
    gauss_binom,
    hahn_eval,
    HahnParams,
    harm_basis,
    higher_jacobi,
    mw_higher_jacobi,
    qbracket,
    qfact,
)
from jacobiforge.code import MAX_SUBCODES_DEFAULT, MAX_WORDS_DEFAULT
from jacobiforge.designs import support_shells
from jacobiforge.verify import CHECKS, run_item

import random


def report(n, name, ok):
    print(f"ACCEPTANCE {n} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} ({name}) failed"


def grid_of(table):
    return [list(row) for row in table.grid]


GUARDS = (MAX_SUBCODES_DEFAULT, MAX_WORDS_DEFAULT)


def failed(code, kind, *params):
    """[(code, kind, params)] unless verify's check of the item passes; a
    SKIP counts as a failure."""
    ok, _ = run_item(code, kind, params, GUARDS)
    return [] if ok else [(code, kind, params)]


# golden grids for the [6,3] code with T = {i}; the full-support rank-2
# count is 4 (three weight-4 and four weight-6 subcodes, mass 7)
G_J0 = [[1, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0]]
G_J1 = [[0, 0], [0, 1], [2, 0], [0, 2], [1, 0], [0, 1]]
G_J2 = [[0, 0], [0, 0], [0, 0], [0, 2], [1, 0], [0, 4]]


def sweep_tsets(rng, n):
    return [t for t in sample_tsets(rng, n, 3) if len(t) <= n]


def test_criterion_1_golden_example():
    code = ex44()
    ok = code.dual() == code
    for i in range(1, 7):
        tset = RefSet.of(6, [i])
        ok = ok and grid_of(higher_jacobi(code, tset, 0)) == G_J0
        ok = ok and grid_of(higher_jacobi(code, tset, 1)) == G_J1
        ok = ok and grid_of(higher_jacobi(code, tset, 2)) == G_J2
    shells1 = support_shells(code, 1)
    shells2 = support_shells(code, 2)
    ok = ok and sorted(map(sorted, occurrences(shells1[2]))) == [[1, 2], [3, 4], [5, 6]]
    ok = ok and sorted(map(sorted, occurrences(shells1[4]))) == [
        [1, 2, 3, 4],
        [1, 2, 5, 6],
        [3, 4, 5, 6],
    ]
    ok = ok and sorted(map(sorted, occurrences(shells2[4]))) == [
        [1, 2, 3, 4],
        [1, 2, 5, 6],
        [3, 4, 5, 6],
    ]
    ctx = MWContext(q=2, n=6, k=3, tsize=1)
    for i in range(1, 7):
        tset = RefSet.of(6, [i])
        tables = [higher_jacobi(code, tset, ell) for ell in range(3)]
        ok = ok and grid_of(mw_higher_jacobi(tables, ctx)) == G_J2
    report(1, "golden [6,3] example", ok)


def test_criterion_2_macwilliams_sweep():
    codes = sweep_codes()
    assert len(codes) >= 50
    rng = random.Random(11)
    failures = []
    for code in codes:
        q, n, k = code.spec.q, code.n, code.k
        dual = code.dual()
        rcap = min(k, n - k)
        for T in sweep_tsets(rng, n):
            tset = RefSet.of(n, T)
            for r in range(rcap + 1):
                failures += failed(code, "mw_hjac", r, T)
            for m in (1, 2):
                failures += failed(code, "mw_ejac", m, T)
                # two more routes to the dual table than the check's own
                got, _ = CHECKS["mw_ejac"].routes(code, Run(*GUARDS), m, T)
                if got.grid != extended_jacobi_via_q(dual, tset, m).grid:
                    failures.append((code, "via-dims dual", m, T))
                if q ** (m * dual.k) <= 1 << 13:
                    if got.grid != extended_jacobi_direct(dual, tset, m).grid:
                        failures.append((code, "direct dual", m, T))
        for r in range(rcap + 1):
            failures += failed(code, "mw_hw", r)
    report(2, f"duality sweep over {len(codes)} codes", failures == [])


def test_criterion_3_conversion_identities():
    codes = sweep_codes()
    rng = random.Random(12)
    failures = []
    for code in codes:
        for T in sweep_tsets(rng, code.n):
            for r in range(code.k + 1):
                failures += failed(code, "hjac_from_ext", r, T)
            for m in (1, 2):
                failures += failed(code, "ejac_direct", m, T)
    report(3, "rank-decomposition conversions", failures == [])


def test_criterion_4_reinterpretation_paths():
    codes = sweep_codes()
    rng = random.Random(13)
    failures = []
    for code in codes:
        for T in sweep_tsets(rng, code.n):
            for r in range(code.k + 1):
                failures += failed(code, "hjac_via_q", r, T)
            for m in (1, 2):
                failures += failed(code, "ejac_via_q", m, T)
    report(4, "vanishing-dimension reinterpretations", failures == [])


def test_criterion_5_design_machinery():
    failures = []
    for code in (ex44(), hamming74()):
        for r in range(code.k + 1):
            for t in range(0, code.n + 1):
                if comb(code.n, t) > 40:
                    continue
                failures += failed(code, "design_equiv", r, t)
    # polarization against the table at every t-set
    failures += failed(ex44(), "polarize", 1, 1)
    failures += failed(ex44(), "polarize", 2, 1)
    failures += failed(hamming74(), "polarize", 1, 2)
    report(5, "design equivalence and polarization", failures == [])


def test_criterion_6_harmonic_hahn():
    ok = True
    for n in range(2, 9):
        for d in range(1, min(4, n) + 1):
            expect = max(0, comb(n, d) - comb(n, d - 1))
            ok = ok and len(harm_basis(n, d)) == expect
    for n, t in ((6, 1), (6, 2), (7, 2), (8, 3)):
        alpha, beta, big_n = Fraction(t - n - 1), Fraction(-t - 1), t + 1
        for m in range(0, min(4, big_n)):
            params = HahnParams(alpha, beta, big_n, m)
            ok = ok and hahn_eval(params, 0) == 1
            if m == 0:
                ok = ok and all(hahn_eval(params, x) == 1 for x in range(big_n))
            num = Fraction(1)
            den = Fraction(1)
            for idx in range(1, m + 1):
                num *= beta + idx
                den *= alpha + idx
            ok = ok and hahn_eval(params, big_n - 1) == (-1) ** m * num / den
    failures = []
    for code in (ex44(), hamming74()):
        # every shell of weight w >= t, for t = 1..3
        for r in range(1, code.k + 1):
            for t in range(1, 4):
                failures += failed(code, "delsarte", r, t)
        for tsize in (1, 2):
            for coords in list(combinations(range(1, code.n + 1), tsize))[:4]:
                for r in range(code.k + 1):
                    failures += failed(code, "recover", r, coords)
    report(6, "harmonic spaces, Hahn values, recovery", ok and failures == [])


def test_criterion_7_combinatorial_ground_truth():
    ok = True
    for q in (2, 3):
        for k in range(0, 6):
            full = LinearCode(
                field_new(q), max(k, 1), [[int(i == j) for j in range(max(k, 1))] for i in range(k)]
            )
            for r in range(k + 1):
                ok = ok and sum(1 for _ in subcodes(full, r)) == gauss_binom(k, r, q)
    for q in (2, 3, 4):
        for a in range(7):
            for b in range(7):
                ok = ok and qbinom_expansion_check(a, b, q)
    for q in (2, 3, 4):
        for r in range(6):
            for j in range(r + 1):
                for ell in range(j + 1):
                    lhs = Fraction(
                        gauss_binom(r, j, q) * qfact(j, ell, q), qbracket(r, q)
                    )
                    rhs = Fraction(
                        1,
                        q ** (j * (r - j))
                        * qbracket(r - j, q)
                        * q ** (ell * (j - ell))
                        * qbracket(j - ell, q),
                    )
                    ok = ok and lhs == rhs
    report(7, "brackets, subspace counts, expansion identity", ok)


def test_criterion_8_verify_all_performance(tmp_path):
    path = tmp_path / "c12.txt"
    path.write_text(C12_TEXT)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    args = [
        sys.executable,
        "-m",
        "jacobiforge",
        "verify",
        "--code",
        str(path),
        "-r",
        "2",
        "-t",
        "2",
        "-m",
        "2",
    ]
    start = time.monotonic()
    single = subprocess.run(args, capture_output=True, env=env, timeout=120)
    elapsed = time.monotonic() - start
    parallel = subprocess.run(args + ["--jobs", "4"], capture_output=True, env=env, timeout=180)
    ok = (
        single.returncode == 0
        and elapsed < 60.0
        and parallel.returncode == 0
        and parallel.stdout == single.stdout
        and b"FAIL" not in single.stdout
    )
    report(8, f"[12,6] verify in {elapsed:.1f}s, parallel byte-identical", ok)
