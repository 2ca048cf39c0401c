"""Batch verification: run every identity the library implements against
its independent computation route on one code, and report PASS/FAIL/SKIP
per item.

``CHECKS`` is the one table of identity checks, keyed by item kind.  An
entry computes the two routes for an item's parameters, names when the
item is a SKIP, and compares the two results in one of three ways: table
grids entry by entry (``same_grid``, reporting the first difference),
plain ``==`` (``same_value``), or two maps key by key (``same_per_key``,
for the design, Delsarte and polarization verdicts).  ``run_item`` is a
lookup in this table; the CLI's ``mw-check`` and ``recover`` print what
its entries compute, and the acceptance tests sweep through ``run_item``.

The item list is built deterministically from the code and a seed (the
seed only drives which reference sets and coordinates are sampled), so
two runs with the same inputs produce byte-identical reports no matter
how many worker processes execute the items.
"""

from __future__ import annotations

import os
import random
from itertools import combinations
from typing import Callable, NamedTuple

from .code import (
    MAX_SUBCODES_DEFAULT,
    MAX_WORDS_DEFAULT,
    LinearCode,
    RefSet,
    parse_code,
    render_code,
    subcode_count,
)
from .designs import (
    is_t_design,
    jacobi_by_polarization,
    punctured_split,
    reassemble_punctured,
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
from .errors import DesignHypothesisFails, NonIntegerResult, TooLarge
from .harmonic import delsarte_design_check, recover_jacobi
from .qcomb import gauss_binom
from .transforms import MWContext, mw_extended_jacobi, mw_higher_jacobi, mw_higher_weight

_SAMPLES_PER_SIZE = 2
_COORD_SAMPLES = 3


def _sample_tsets(n: int, t_max: int, seed: int) -> list[tuple[int, ...]]:
    rng = random.Random(seed)
    out: list[tuple[int, ...]] = []
    for t in range(0, t_max + 1):
        if t > n:
            break
        chosen = {tuple(range(1, t + 1))}
        universe = list(combinations(range(1, n + 1), t))
        while len(chosen) < min(_SAMPLES_PER_SIZE, len(universe)):
            chosen.add(universe[rng.randrange(len(universe))])
        out.extend(sorted(chosen))
    return out


def build_items(code: LinearCode, r_max: int, m_max: int, t_max: int, seed: int):
    """Deterministic list of (label, kind, params) verification items."""
    n, k, q = code.n, code.k, code.spec.q
    tsets = _sample_tsets(n, min(t_max, n), seed)
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

    ``routes(code, guards, *params)`` returns (lhs, rhs), guards being
    (max_subcodes, max_words).  ``compare(lhs, rhs)`` returns (ok, fields)
    and the detail is ``detail.format(*fields)`` unless fields is None.
    The item is a SKIP with ``skip_reason`` when ``skip_if(code, guards,
    *params)`` holds, and with its message when a route raises
    DesignHypothesisFails.
    """

    routes: Callable
    compare: Callable
    detail: str = ""
    skip_if: Callable | None = None
    skip_reason: str = ""


def _hjac(code, guards, r, T):
    """The rank-r table at T enumerated directly: the reference route."""
    return higher_jacobi(code, RefSet.of(code.n, T), r, guards[0])


def _ejac(code, guards, m, T):
    """The degree-m table at T by rank decomposition."""
    return extended_jacobi(code, RefSet.of(code.n, T), m, guards[0])


def _dual_involution(code, guards):
    return code.dual().dual(), code


def _plain_vs_wenum(code, guards):
    return jacobi(code, RefSet.of(code.n), guards[1]).to_bipoly(), weight_enum(code, guards[1])


def _mass(code, guards, r):
    return _hjac(code, guards, r, ()).mass(), gauss_binom(code.k, r, code.spec.q)


def _hjac_via_q(code, guards, r, T):
    return higher_jacobi_via_q(code, RefSet.of(code.n, T), r), _hjac(code, guards, r, T)


def _hjac_from_ext(code, guards, r, T):
    return higher_from_extended(code, RefSet.of(code.n, T), r), _hjac(code, guards, r, T)


def _ejac_via_q(code, guards, m, T):
    return extended_jacobi_via_q(code, RefSet.of(code.n, T), m), _ejac(code, guards, m, T)


def _ejac_direct(code, guards, m, T):
    direct = extended_jacobi_direct(code, RefSet.of(code.n, T), m, guards[1])
    return direct, _ejac(code, guards, m, T)


def _mw_context(code, T) -> MWContext:
    return MWContext(q=code.spec.q, n=code.n, k=code.k, tsize=len(T))


def _mw_hw(code, guards, r):
    enums = [higher_weight_enum(code, ell, guards[0]) for ell in range(r + 1)]
    lhs = mw_higher_weight(enums, _mw_context(code, ()))
    return lhs, higher_weight_enum(code.dual(), r, guards[0])


def _mw_hjac(code, guards, r, T):
    tables = [_hjac(code, guards, ell, T) for ell in range(r + 1)]
    return mw_higher_jacobi(tables, _mw_context(code, T)), _hjac(code.dual(), guards, r, T)


def _mw_ejac(code, guards, m, T):
    lhs = mw_extended_jacobi(_ejac(code, guards, m, T), _mw_context(code, T))
    return lhs, _ejac(code.dual(), guards, m, T)


def _recover(code, guards, r, T):
    return recover_jacobi(code, r, RefSet.of(code.n, T), guards[0]), _hjac(code, guards, r, T)


def _design_equiv(code, guards, r, t):
    """All shells are t-designs vs the table is the same at every t-set,
    keyed by the witness pair of t-sets (None when it is the same)."""
    verdicts = subcode_support_designs(code, r, t, guards[0])
    independent, witness = t_independence_check(code, r, t, guards[0])
    return {witness: all(v.is_design for v in verdicts.values())}, {witness: independent}


def _t_over_n(code, guards, r, t) -> bool:
    return t > code.n


def _polarize(code, guards, r, t):
    """The polarized polynomial vs the table at each t-set."""
    poly = jacobi_by_polarization(code, r, t, guards[0])
    tsets = list(combinations(range(1, code.n + 1), t))
    return dict.fromkeys(tsets, poly), {T: _hjac(code, guards, r, T).to_bipoly() for T in tsets}


def _delsarte(code, guards, r, t):
    """Brute-force vs harmonic verdict on each shell of weight >= t."""
    shells = [(w, s) for w, s in support_shells(code, r, guards[0]).items() if w >= t]
    brute = {w: is_t_design(shell, t).is_design for w, shell in shells}
    return brute, {w: delsarte_design_check(shell, t) for w, shell in shells}


def _punctured(code, guards, r, i):
    zero_w, one_w = punctured_split(code, r, i, guards[0])
    return reassemble_punctured(code.n, zero_w, one_w), _hjac(code, guards, r, (i,)).to_bipoly()


CHECKS: dict[str, Check] = {
    "dual_involution": Check(_dual_involution, same_value),
    "plain_vs_wenum": Check(_plain_vs_wenum, same_value),
    "mass": Check(_mass, same_value, "mass {} vs {}"),
    "hjac_via_q": Check(_hjac_via_q, same_grid, _FIRST_DIFFERENCE),
    "hjac_from_ext": Check(_hjac_from_ext, same_grid, _FIRST_DIFFERENCE),
    "ejac_via_q": Check(_ejac_via_q, same_grid, _FIRST_DIFFERENCE),
    "ejac_direct": Check(
        _ejac_direct,
        same_grid,
        _FIRST_DIFFERENCE,
        skip_if=lambda code, guards, m, T: code.spec.q ** (m * code.k) > guards[1],
        skip_reason="extension word count exceeds the guard",
    ),
    "mw_ejac": Check(_mw_ejac, same_grid, _FIRST_DIFFERENCE),
    "mw_hjac": Check(_mw_hjac, same_grid, _FIRST_DIFFERENCE),
    "recover": Check(
        _recover,
        same_grid,
        _FIRST_DIFFERENCE,
        skip_if=lambda code, guards, r, T: 2 * len(T) > code.n,
        skip_reason="|T| exceeds n/2",
    ),
    "mw_hw": Check(_mw_hw, same_value),
    "design_equiv": Check(
        _design_equiv,
        same_per_key,
        "designs={1} independence={2} witness={0}",
        skip_if=_t_over_n,
        skip_reason="t exceeds n",
    ),
    "polarize": Check(
        _polarize,
        same_per_key,
        "differs at T={}",
        skip_if=_t_over_n,
        skip_reason="t exceeds n",
    ),
    "delsarte": Check(_delsarte, same_per_key, "weight {}: brute={} harmonic={}"),
    "punctured": Check(_punctured, same_value),
}


def run_item(code: LinearCode, kind: str, params, guards) -> tuple[bool | None, str]:
    """Execute one item; returns (ok, detail) with ok None meaning SKIP."""
    check = CHECKS[kind]
    if check.skip_if and check.skip_if(code, guards, *params):
        return None, check.skip_reason
    try:
        lhs, rhs = check.routes(code, guards, *params)
    except DesignHypothesisFails as exc:
        return None, str(exc)
    ok, fields = check.compare(lhs, rhs)
    return ok, "" if fields is None else check.detail.format(*fields)


_WORKER_CODE: LinearCode | None = None
_WORKER_GUARDS = (MAX_SUBCODES_DEFAULT, MAX_WORDS_DEFAULT)


def _init_worker(code_text: str, guards):
    global _WORKER_CODE, _WORKER_GUARDS
    _WORKER_CODE = parse_code(code_text)
    _WORKER_GUARDS = guards


def _run_worker(item) -> tuple[str, str]:
    label, kind, params = item
    try:
        ok, detail = run_item(_WORKER_CODE, kind, params, _WORKER_GUARDS)
    except TooLarge as exc:
        return "SKIP", f"guard exceeded: {exc}"
    except NonIntegerResult as exc:
        # an exact route produced a fraction: an identity violation, not a crash
        return "FAIL", f"non-integer result: {exc}"
    status = "SKIP" if ok is None else ("PASS" if ok else "FAIL")
    return status, detail


def worker_count(jobs: int, items: int, cpus: int | None = None) -> int:
    """Processes worth starting: never more than the items or the CPUs."""
    if cpus is None:
        cpus = os.cpu_count() or 1
    return max(1, min(jobs, items, cpus))


def verify_all(
    code: LinearCode,
    r_max: int = 2,
    m_max: int = 2,
    t_max: int = 2,
    seed: int = 0,
    jobs: int = 1,
    max_subcodes: int = MAX_SUBCODES_DEFAULT,
    max_words: int = MAX_WORDS_DEFAULT,
) -> tuple[list[str], bool]:
    """Run the whole identity suite; returns (report lines, all passed)."""
    for r in range(min(r_max, code.k) + 1):
        if subcode_count(code, r) > max_subcodes:
            raise TooLarge(
                f"rank {r} needs {subcode_count(code, r)} subcodes, guard {max_subcodes}"
            )
    items = build_items(code, r_max, m_max, t_max, seed)
    guards = (max_subcodes, max_words)
    jobs = worker_count(jobs, len(items))
    if jobs <= 1:
        _init_worker(render_code(code), guards)
        results = [_run_worker(item) for item in items]
    else:
        # imported here, so that no other command pays for it at start-up
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(
            processes=jobs, initializer=_init_worker, initargs=(render_code(code), guards)
        ) as pool:
            results = pool.map(_run_worker, items)
    lines = []
    ok_all = True
    for (label, _, _), (status, detail) in zip(items, results):
        if status == "FAIL":
            ok_all = False
        lines.append(f"{status} {label}" + (f": {detail}" if detail else ""))
    summary = "all checks passed" if ok_all else "IDENTITY VIOLATION FOUND"
    lines.append(f"verify: {summary} ({len(items)} items, seed={seed})")
    return lines, ok_all
