"""Batch verification: run every identity the library implements against
its independent computation route on one code, and report PASS/FAIL/SKIP
per item.

``CHECKS`` is the one table of identity checks, keyed by item kind.  An
entry computes the two routes for an item's parameters and compares the
two results in one of three ways: table grids entry by entry
(``same_grid``, reporting the first difference), plain ``==``
(``same_value``), or two maps key by key (``same_per_key``, for the
design, Delsarte and polarization verdicts).  ``run_item`` is a lookup in
this table and the one place a route's outcome becomes an item status:
a guard hit or a failed design hypothesis is a SKIP that states the
route's message.  The CLI's ``mw-check`` and ``recover`` print what the
entries compute, and the acceptance tests sweep through ``run_item``.

The item list is built deterministically from the code and a seed (the
seed only drives which reference sets and coordinates are sampled), so
two runs with the same inputs produce byte-identical reports.

``verify_all`` runs every item, in item order, in the calling process,
with one ``designs.Run``: the guards every route is bounded by, and the
memo (``run.shared``) of the objects that many items read: the direct
rank-r table, the rank-decomposition extension table, the dual code, the
rank-r weight enumerator, the shell verdicts of each (r, t) and the
support shells of each rank, whose lambda kernel serves the design,
polarization, Delsarte, recovery and punctured items, each built once per
(code, T, parameter).  The code's enumerations (histograms, rank sweep)
are cached by ``enumerators``, so each is built once too.  The memo only
shares one route's output among the items that read that route, and it
belongs to the run, so the next run (or a corrupted route) starts afresh;
a library call given no run makes its own.  A shell transposes its masks
once and walks them again for a deeper t; a rank over the subcode guard
is never enumerated, and its items SKIP.  The design items run for t <= n.
The summary line counts the items and the SKIPs.
"""

from __future__ import annotations

import random
from math import comb
from typing import Callable, NamedTuple

from .code import MAX_SUBCODES_DEFAULT, MAX_WORDS_DEFAULT, LinearCode, RefSet
from .designs import (
    Run,
    is_t_design,
    jacobi_by_polarization,
    kernel_tables,
    subcode_support_designs,
    support_shells,
    t_independence_check,
)
from .enumerators import (
    extended_jacobi,
    extended_jacobi_direct,
    extended_jacobi_via_q,
    higher_from_extended,
    higher_jacobi,
    higher_jacobi_via_q,
    higher_weight_enum,
    jacobi,
    weight_enum,
)
from .errors import DesignHypothesisFails, NonIntegerResult, SingularMatrix, TooLarge
from .harmonic import delsarte_design_check, recover_jacobi
from .qcomb import gauss_binom
from .transforms import MWContext, mw_extended_jacobi, mw_higher_jacobi, mw_higher_weight

_SAMPLES_PER_SIZE = 2
_COORD_SAMPLES = 3


def _tset_at(n: int, t: int, index: int) -> tuple[int, ...]:
    """The index-th t-subset of {1, ..., n} in lexicographic order."""
    out, c = [], 1
    while len(out) < t:
        if index < (after := comb(n - c, t - len(out) - 1)):  # the subsets that take c next
            out.append(c)
        else:
            index -= after
        c += 1
    return tuple(out)


def _sample_tsets(n: int, t_max: int, seed: int) -> list[tuple[int, ...]]:
    rng = random.Random(seed)
    out: list[tuple[int, ...]] = []
    for t in range(0, t_max + 1):
        chosen = {tuple(range(1, t + 1))}
        total = comb(n, t)
        while len(chosen) < min(_SAMPLES_PER_SIZE, total):
            chosen.add(_tset_at(n, t, rng.randrange(total)))
        out.extend(sorted(chosen))
    return out


def build_items(code: LinearCode, r_max: int, m_max: int, t_max: int, seed: int):
    """Deterministic list of (label, kind, params) verification items."""
    n, k, q = code.n, code.k, code.spec.q
    t_max = min(t_max, n)
    tsets = _sample_tsets(n, t_max, seed)
    rng = random.Random(seed + 1)
    coords = sorted(rng.sample(range(1, n + 1), min(_COORD_SAMPLES, n)))
    rs = list(range(0, min(r_max, k) + 1))
    ms = list(range(1, m_max + 1))
    mw_rs = list(range(0, min(r_max, k, n - k) + 1))
    items = []
    items.append(("dual-involution", "dual_involution", ()))
    items.append(("plain-table-vs-weight-enum", "plain_vs_wenum", ()))
    for r in rs:
        items.append((f"subcode-mass r={r}", "mass", (r,)))
    for T in tsets:
        tlabel = "{" + ",".join(map(str, T)) + "}"
        for r in rs:
            items.append(
                (f"hjac-via-dims r={r} T={tlabel}", "hjac_via_q", (r, T))
            )
            items.append(
                (f"hjac-from-ext r={r} T={tlabel}", "hjac_from_ext", (r, T))
            )
        for m in ms:
            items.append((f"ejac-via-dims m={m} T={tlabel}", "ejac_via_q", (m, T)))
            items.append((f"ejac-direct m={m} T={tlabel}", "ejac_direct", (m, T)))
            items.append((f"mw-ejac m={m} T={tlabel}", "mw_ejac", (m, T)))
        for r in mw_rs:
            items.append((f"mw-hjac r={r} T={tlabel}", "mw_hjac", (r, T)))
        if len(T) >= 1:
            for r in rs:
                items.append((f"recover r={r} T={tlabel}", "recover", (r, T)))
    for r in mw_rs:
        items.append((f"mw-hweight r={r}", "mw_hw", (r,)))
    for r in rs:
        for t in range(0, t_max + 1):
            items.append((f"design-equiv r={r} t={t}", "design_equiv", (r, t)))
            items.append((f"polarize r={r} t={t}", "polarize", (r, t)))
            items.append((f"delsarte r={r} t={t}", "delsarte", (r, t)))
        for i in coords:
            items.append((f"punctured-split r={r} i={i}", "punctured", (r, i)))
    return items


_FIRST_DIFFERENCE = "first difference at (i={}, j={}): {} vs {}"


def same_grid(lhs, rhs):
    """Tables: equal grids, and the first differing (i, j, lhs, rhs) or None."""
    return lhs.grid == rhs.grid, lhs.first_difference(rhs)


def same_value(lhs, rhs):
    return lhs == rhs, (lhs, rhs)


def same_per_key(lhs, rhs):
    """Maps over the same keys: the first differing (key, lhs, rhs) or None."""
    diff = next(((key, a, rhs[key]) for key, a in lhs.items() if a != rhs[key]), None)
    return diff is None, diff


class Check(NamedTuple):
    """One identity: two independent routes to one object, compared.

    ``routes(code, run, *params)`` returns (lhs, rhs), run being the
    ``Run`` whose guards bound the routes and whose memo shares their
    inputs.  ``compare(lhs, rhs)`` returns (ok, fields) and the detail is
    ``detail.format(*fields)`` unless fields is None.
    """

    routes: Callable
    compare: Callable
    detail: str = ""


def _hjac(code, run, r, T):
    """The rank-r table at T enumerated directly: the reference route."""
    return run.shared(higher_jacobi, code, RefSet.of(code.n, T), r, run.max_subcodes)


def _ejac(code, run, m, T):
    """The degree-m table at T by rank decomposition."""
    return run.shared(extended_jacobi, code, RefSet.of(code.n, T), m, run.max_subcodes)


def _dual(code, run):
    return run.shared(LinearCode.dual, code)


def _dual_involution(code, run):
    return _dual(_dual(code, run), run), code


def _plain_vs_wenum(code, run):
    plain = jacobi(code, RefSet.of(code.n), run.max_words).to_bipoly()
    return plain, weight_enum(code, run.max_words)


def _mass(code, run, r):
    return _hjac(code, run, r, ()).mass(), gauss_binom(code.k, r, code.spec.q)


def _hjac_via_q(code, run, r, T):
    return higher_jacobi_via_q(code, RefSet.of(code.n, T), r), _hjac(code, run, r, T)


def _hjac_from_ext(code, run, r, T):
    return higher_from_extended(code, RefSet.of(code.n, T), r), _hjac(code, run, r, T)


def _ejac_via_q(code, run, m, T):
    return extended_jacobi_via_q(code, RefSet.of(code.n, T), m), _ejac(code, run, m, T)


def _ejac_direct(code, run, m, T):
    direct = extended_jacobi_direct(code, RefSet.of(code.n, T), m, run.max_words)
    return direct, _ejac(code, run, m, T)


def _mw_hw(code, run, r):
    enums = [
        run.shared(higher_weight_enum, code, ell, run.max_subcodes) for ell in range(r + 1)
    ]
    lhs = mw_higher_weight(enums, MWContext(code.spec.q, code.n, code.k))
    return lhs, run.shared(higher_weight_enum, _dual(code, run), r, run.max_subcodes)


def _mw_hjac(code, run, r, T):
    tables = [_hjac(code, run, ell, T) for ell in range(r + 1)]
    lhs = mw_higher_jacobi(tables, MWContext(code.spec.q, code.n, code.k))
    return lhs, _hjac(_dual(code, run), run, r, T)


def _mw_ejac(code, run, m, T):
    lhs = mw_extended_jacobi(_ejac(code, run, m, T), MWContext(code.spec.q, code.n, code.k))
    return lhs, _ejac(_dual(code, run), run, m, T)


def _recover(code, run, r, T):
    return recover_jacobi(code, r, RefSet.of(code.n, T), run), _hjac(code, run, r, T)


def _design_equiv(code, run, r, t):
    """All shells are t-designs vs the table is the same at every t-set,
    keyed by the witness pair of t-sets (None when it is the same)."""
    verdicts = run.shared(subcode_support_designs, code, r, t, run)
    independent, witness = t_independence_check(code, r, t, run)
    return {witness: all(v.is_design for v in verdicts.values())}, {witness: independent}


def _polarize(code, run, r, t):
    """The polarized polynomial vs the lambda kernel's table at each t-set."""
    poly = jacobi_by_polarization(code, r, t, run)
    tables = run.shared(kernel_tables, code, r, t, run)
    return dict.fromkeys(tables, poly), tables


def _delsarte(code, run, r, t):
    """Brute-force vs harmonic verdict on each shell."""
    shells = run.shared(support_shells, code, r, run.max_subcodes).items()
    brute = {w: is_t_design(shell, t).is_design for w, shell in shells}
    return brute, {w: delsarte_design_check(shell, t) for w, shell in shells}


def _punctured(code, run, r, i):
    """The lambda kernel's table at T = {i} vs the split counts at {i}."""
    tables = run.shared(kernel_tables, code, r, 1, run)
    return tables[(i,)], _hjac(code, run, r, (i,)).to_bipoly()


# each entry's comment names the two kernels its routes read
CHECKS: dict[str, Check] = {
    "dual_involution": Check(_dual_involution, same_value),  # GF(q) nullspace vs RREF
    "plain_vs_wenum": Check(_plain_vs_wenum, same_value),  # codeword histogram, split vs not
    "mass": Check(_mass, same_value, "mass {} vs {}"),  # subcode histogram vs q-binomial
    "hjac_via_q": Check(_hjac_via_q, same_grid, _FIRST_DIFFERENCE),  # rank sweep vs split counts
    # the rank sweep, inverted by rank decomposition, vs split counts
    "hjac_from_ext": Check(_hjac_from_ext, same_grid, _FIRST_DIFFERENCE),
    # the rank sweep vs split counts summed by rank decomposition
    "ejac_via_q": Check(_ejac_via_q, same_grid, _FIRST_DIFFERENCE),
    # the extension histogram vs split counts summed by rank
    "ejac_direct": Check(_ejac_direct, same_grid, _FIRST_DIFFERENCE),
    # the pair substitution of the code's table vs the dual's, both from split counts
    "mw_ejac": Check(_mw_ejac, same_grid, _FIRST_DIFFERENCE),
    "mw_hjac": Check(_mw_hjac, same_grid, _FIRST_DIFFERENCE),
    # the cached Hahn inverse of lambda kernel sums vs split counts
    "recover": Check(_recover, same_grid, _FIRST_DIFFERENCE),
    "mw_hw": Check(_mw_hw, same_value),  # substituted subcode histograms vs the dual's
    "design_equiv": Check(  # is_t_design's incidence vs the lambda kernel's tables
        _design_equiv, same_per_key, "designs={1} independence={2} witness={0}"
    ),
    # is_t_design and polarization vs the lambda kernel's tables
    "polarize": Check(_polarize, same_per_key, "differs at T={}"),
    # is_t_design's incidence vs the lambda kernel's Delsarte sums
    "delsarte": Check(_delsarte, same_per_key, "weight {}: brute={} harmonic={}"),
    # the lambda kernel's Moebius table at one coordinate vs split counts
    "punctured": Check(_punctured, same_value),
}


def run_item(code: LinearCode, kind: str, params, run) -> tuple[bool | None, str]:
    """Execute one item in run, a ``Run`` or a (max_subcodes, max_words)
    tuple; returns (ok, detail), ok None meaning SKIP: a guard hit or a
    failed design hypothesis.  A fraction or a singular system that an
    exact route meets is an identity violation, a FAIL."""
    if isinstance(run, tuple):
        run = Run(*run)
    check = CHECKS[kind]
    try:
        lhs, rhs = check.routes(code, run, *params)
    except DesignHypothesisFails as exc:
        return None, str(exc)
    except TooLarge as exc:
        return None, f"guard exceeded: {exc}"
    except NonIntegerResult as exc:
        return False, f"non-integer result: {exc}"
    except SingularMatrix as exc:
        return False, f"singular system: {exc}"
    ok, fields = check.compare(lhs, rhs)
    return ok, "" if fields is None else check.detail.format(*fields)


def verify_all(
    code: LinearCode,
    r_max: int = 2,
    m_max: int = 2,
    t_max: int = 2,
    seed: int = 0,
    max_subcodes: int = MAX_SUBCODES_DEFAULT,
    max_words: int = MAX_WORDS_DEFAULT,
) -> tuple[list[str], bool]:
    """Run the whole identity suite; returns (report lines, all passed).

    The items run in order in the calling process, in one ``Run``.  The
    summary line counts the items and the SKIPs among them.
    """
    items = build_items(code, r_max, m_max, t_max, seed)
    run = Run(max_subcodes, max_words)
    lines, statuses = [], []
    for label, kind, params in items:
        ok, detail = run_item(code, kind, params, run)
        statuses.append("SKIP" if ok is None else ("PASS" if ok else "FAIL"))
        lines.append(f"{statuses[-1]} {label}" + (f": {detail}" if detail else ""))
    ok = "FAIL" not in statuses
    summary = "all checks passed" if ok else "IDENTITY VIOLATION FOUND"
    skipped = statuses.count("SKIP")
    lines.append(f"verify: {summary} ({len(items)} items, {skipped} skipped, seed={seed})")
    return lines, ok
