"""Batch verification: run every identity the library implements against
its independent computation route on one code, and report PASS/FAIL per
item.

The item list is built deterministically from the code and a seed (the
seed only drives which reference sets and coordinates are sampled), so
two runs with the same inputs produce byte-identical reports no matter
how many worker processes execute the items.
"""

from __future__ import annotations

import multiprocessing
import os
import random
from itertools import combinations

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


def run_item(code: LinearCode, kind: str, params, guards) -> tuple[bool | None, str]:
    """Execute one item; returns (ok, detail) with ok None meaning SKIP."""
    max_subcodes, max_words = guards
    n, k, q = code.n, code.k, code.spec.q
    if kind == "dual_involution":
        return code.dual().dual() == code, ""
    if kind == "plain_vs_wenum":
        table = jacobi(code, RefSet.of(n), max_words)
        return table.to_bipoly() == weight_enum(code, max_words), ""
    if kind == "mass":
        (r,) = params
        tset = RefSet.of(n)
        got = higher_jacobi(code, tset, r, max_subcodes).mass()
        want = gauss_binom(k, r, q)
        return got == want, f"mass {got} vs {want}"
    if kind == "hjac_via_q":
        r, T = params
        tset = RefSet.of(n, T)
        lhs = higher_jacobi_via_q(code, tset, r)
        rhs = higher_jacobi(code, tset, r, max_subcodes)
        return lhs.grid == rhs.grid, _diff_detail(lhs, rhs)
    if kind == "hjac_from_ext":
        r, T = params
        tset = RefSet.of(n, T)
        lhs = higher_from_extended(code, tset, r)
        rhs = higher_jacobi(code, tset, r, max_subcodes)
        return lhs.grid == rhs.grid, _diff_detail(lhs, rhs)
    if kind == "ejac_via_q":
        m, T = params
        tset = RefSet.of(n, T)
        lhs = extended_jacobi_via_q(code, tset, m)
        rhs = extended_jacobi(code, tset, m, max_subcodes)
        return lhs.grid == rhs.grid, _diff_detail(lhs, rhs)
    if kind == "ejac_direct":
        m, T = params
        if q ** (m * k) > max_words:
            return None, "extension word count exceeds the guard"
        tset = RefSet.of(n, T)
        lhs = extended_jacobi_direct(code, tset, m, max_words)
        rhs = extended_jacobi(code, tset, m, max_subcodes)
        return lhs.grid == rhs.grid, _diff_detail(lhs, rhs)
    if kind == "mw_hw":
        (r,) = params
        ctx = MWContext(q=q, n=n, k=k, tsize=0)
        enums = [higher_weight_enum(code, ell, max_subcodes) for ell in range(r + 1)]
        lhs = mw_higher_weight(enums, ctx)
        rhs = higher_weight_enum(code.dual(), r, max_subcodes)
        return lhs == rhs, ""
    if kind == "mw_hjac":
        r, T = params
        tset = RefSet.of(n, T)
        ctx = MWContext(q=q, n=n, k=k, tsize=len(T))
        tables = [higher_jacobi(code, tset, ell, max_subcodes) for ell in range(r + 1)]
        lhs = mw_higher_jacobi(tables, ctx)
        rhs = higher_jacobi(code.dual(), tset, r, max_subcodes)
        return lhs.grid == rhs.grid, _diff_detail(lhs, rhs)
    if kind == "mw_ejac":
        m, T = params
        tset = RefSet.of(n, T)
        ctx = MWContext(q=q, n=n, k=k, tsize=len(T))
        lhs = mw_extended_jacobi(extended_jacobi(code, tset, m, max_subcodes), ctx)
        rhs = extended_jacobi_via_q(code.dual(), tset, m)
        return lhs.grid == rhs.grid, _diff_detail(lhs, rhs)
    if kind == "design_equiv":
        r, t = params
        if t > n:
            return None, "t exceeds n"
        verdicts = subcode_support_designs(code, r, t, max_subcodes)
        all_designs = all(v.is_design for v in verdicts.values())
        independent, witness = t_independence_check(code, r, t, max_subcodes)
        detail = "" if independent == all_designs else (
            f"designs={all_designs} independence={independent} witness={witness}"
        )
        return independent == all_designs, detail
    if kind == "polarize":
        r, t = params
        if t > n:
            return None, "t exceeds n"
        try:
            poly = jacobi_by_polarization(code, r, t, max_subcodes)
        except DesignHypothesisFails as exc:
            return None, str(exc)
        for coords in combinations(range(1, n + 1), t):
            tset = RefSet.of(n, coords)
            direct = higher_jacobi(code, tset, r, max_subcodes).to_bipoly()
            if direct != poly:
                return False, f"differs at T={coords}"
        return True, ""
    if kind == "delsarte":
        r, t = params
        for w, shell in support_shells(code, r, max_subcodes).items():
            if w < t:
                continue
            brute = is_t_design(shell, t).is_design
            harm = delsarte_design_check(shell, t)
            if brute != harm:
                return False, f"weight {w}: brute={brute} harmonic={harm}"
        return True, ""
    if kind == "punctured":
        r, i = params
        zero_w, one_w = punctured_split(code, r, i, max_subcodes)
        rebuilt = reassemble_punctured(n, zero_w, one_w)
        direct = higher_jacobi(code, RefSet.of(n, (i,)), r, max_subcodes).to_bipoly()
        return rebuilt == direct, ""
    if kind == "recover":
        r, T = params
        if 2 * len(T) > n:
            return None, "|T| exceeds n/2"
        tset = RefSet.of(n, T)
        lhs = recover_jacobi(code, r, tset, max_subcodes)
        rhs = higher_jacobi(code, tset, r, max_subcodes)
        return lhs.grid == rhs.grid, _diff_detail(lhs, rhs)
    raise ValueError(f"unknown item kind {kind!r}")


def _diff_detail(lhs, rhs) -> str:
    diff = lhs.first_difference(rhs)
    if diff is None:
        return ""
    i, j, a, b = diff
    return f"first difference at (i={i}, j={j}): {a} vs {b}"


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
