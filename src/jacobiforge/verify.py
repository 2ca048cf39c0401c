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
how many processes execute the items.

While ``verify_all`` runs, the run memo (``designs._shared``) holds the
objects that many items read: the direct rank-r table, the
rank-decomposition extension table, the dual code and the support shells
of each rank, whose lambda kernel serves the design, polarization,
Delsarte and recovery items, each built once per (code, T, parameter,
guard).  It only shares one route's output among the items that read that
route, and it is dropped when the run ends, so the next run (or a
corrupted route) starts afresh; outside a run every route builds directly.

The items are grouped by kind.  Before any item runs, the caller builds
what two or more kinds read: the dual, the codeword histogram, the
subcode histograms of the code and of the dual, the rank sweep grouped
by each sampled T, the memo's tables at the sampled T-sets, and the
lambda kernel of each rank at the largest t asked of it, so that each is
built once.  An input that a guard or the sweep cap refuses is left to
the items that read it, which report the SKIP.  Then the calling process
and ``jobs - 1`` forked children (none when ``jobs`` is 1) each claim the
next whole kind from a pipe whenever they are free.  The children inherit
the built inputs, and freeze the garbage collector's view of them so
that no collection touches (and copies) those pages.  They send their
verdicts back through a pipe with ``marshal`` and the report is
assembled in item order.
"""

from __future__ import annotations

import gc
import marshal
import os
import random
import sys
from functools import partial
from itertools import combinations
from typing import Callable, NamedTuple

from .code import (
    MAX_SUBCODES_DEFAULT,
    MAX_WORDS_DEFAULT,
    LinearCode,
    RefSet,
    subcode_count,
)
from . import designs
from .designs import (
    _shared,
    is_t_design,
    jacobi_by_polarization,
    kernel_tables,
    punctured_split,
    reassemble_punctured,
    subcode_support_designs,
    support_shells,
    t_independence_check,
)
from .enumerators import (
    _dims_by_split,
    codeword_support_histogram,
    extended_jacobi,
    extended_jacobi_direct,
    extended_jacobi_via_q,
    higher_from_extended,
    higher_jacobi,
    higher_jacobi_via_q,
    higher_weight_enum,
    jacobi,
    subcode_support_histogram,
    weight_enum,
)
from .errors import DesignHypothesisFails, NonIntegerResult, SingularMatrix, TooLarge
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
    return _shared(higher_jacobi, code, RefSet.of(code.n, T), r, guards[0])


def _ejac(code, guards, m, T):
    """The degree-m table at T by rank decomposition."""
    return _shared(extended_jacobi, code, RefSet.of(code.n, T), m, guards[0])


def _dual(code):
    return _shared(LinearCode.dual, code)


def _dual_involution(code, guards):
    return _dual(_dual(code)), code


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
    return lhs, higher_weight_enum(_dual(code), r, guards[0])


def _mw_hjac(code, guards, r, T):
    tables = [_hjac(code, guards, ell, T) for ell in range(r + 1)]
    return mw_higher_jacobi(tables, _mw_context(code, T)), _hjac(_dual(code), guards, r, T)


def _mw_ejac(code, guards, m, T):
    lhs = mw_extended_jacobi(_ejac(code, guards, m, T), _mw_context(code, T))
    return lhs, _ejac(_dual(code), guards, m, T)


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
    """The polarized polynomial vs the lambda kernel's table at each t-set."""
    poly = jacobi_by_polarization(code, r, t, guards[0])
    tables = _shared(kernel_tables, code, r, t, guards[0])
    return dict.fromkeys(tables, poly), tables


def _delsarte(code, guards, r, t):
    """Brute-force vs harmonic verdict on each shell."""
    shells = _shared(support_shells, code, r, guards[0]).items()
    brute = {w: is_t_design(shell, t).is_design for w, shell in shells}
    return brute, {w: delsarte_design_check(shell, t) for w, shell in shells}


def _punctured(code, guards, r, i):
    zero_w, one_w = punctured_split(code, r, i, guards[0])
    return reassemble_punctured(code.n, zero_w, one_w), _hjac(code, guards, r, (i,)).to_bipoly()


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
    "ejac_direct": Check(  # the extension histogram vs split counts summed by rank
        _ejac_direct,
        same_grid,
        _FIRST_DIFFERENCE,
        skip_if=lambda code, guards, m, T: code.spec.q ** (m * code.k) > guards[1],
        skip_reason="extension word count exceeds the guard",
    ),
    # the pair substitution of the code's table vs the dual's, both from split counts
    "mw_ejac": Check(_mw_ejac, same_grid, _FIRST_DIFFERENCE),
    "mw_hjac": Check(_mw_hjac, same_grid, _FIRST_DIFFERENCE),
    "recover": Check(  # the cached Hahn inverse of lambda kernel sums vs split counts
        _recover,
        same_grid,
        _FIRST_DIFFERENCE,
        skip_if=lambda code, guards, r, T: 2 * len(T) > code.n,
        skip_reason="|T| exceeds n/2",
    ),
    "mw_hw": Check(_mw_hw, same_value),  # substituted subcode histograms vs the dual's
    "design_equiv": Check(  # is_t_design's incidence vs the lambda kernel's tables
        _design_equiv,
        same_per_key,
        "designs={1} independence={2} witness={0}",
        skip_if=_t_over_n,
        skip_reason="t exceeds n",
    ),
    "polarize": Check(  # is_t_design and polarization vs the lambda kernel's tables
        _polarize,
        same_per_key,
        "differs at T={}",
        skip_if=_t_over_n,
        skip_reason="t exceeds n",
    ),
    # is_t_design's incidence vs the lambda kernel's Delsarte sums
    "delsarte": Check(
        _delsarte, same_per_key, "weight {}: brute={} harmonic={}", _t_over_n, "t exceeds n"
    ),
    "punctured": Check(_punctured, same_value),  # histogram at one coordinate vs split counts
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


def _run_one(code: LinearCode, kind: str, params, guards) -> tuple[str, str]:
    """One item's (status, detail): a guard hit is a SKIP, a fraction or a
    singular system an exact route met is an identity violation, a FAIL."""
    try:
        ok, detail = run_item(code, kind, params, guards)
    except TooLarge as exc:
        return "SKIP", f"guard exceeded: {exc}"
    except NonIntegerResult as exc:
        return "FAIL", f"non-integer result: {exc}"
    except SingularMatrix as exc:
        return "FAIL", f"singular system: {exc}"
    status = "SKIP" if ok is None else ("PASS" if ok else "FAIL")
    return status, detail


def worker_count(jobs: int, items: int) -> int:
    """Processes worth starting: never more than the items or the usable CPUs."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(jobs, items, cpus))


# a process claims a kind by reading its number, one byte, from a pipe
assert len(CHECKS) < 256


def _run_claimed(code, items, kinds: list[list[int]], claims: int, guards) -> list:
    """Run whole kinds, each claimed from the claims pipe, until the pipe is
    empty; returns [(item index, status, detail)]."""
    done = []
    while claim := os.read(claims, 1):
        for i in kinds[claim[0]]:
            _, kind, params = items[i]
            done.append((i, *_run_one(code, kind, params, guards)))
    return done


def _build_shared(code, items, guards) -> None:
    """Build what two or more kinds read, once, before any item runs and
    any worker forks: the dual, the rank sweep grouped by each sampled T,
    the codeword histogram, the subcode histograms of the dual, the direct
    and rank-decomposition tables at the sampled T-sets, which build the
    code's histograms, and the lambda kernel's tables that the t-set kinds
    read, each rank's at its largest t.  A build that a guard or the sweep
    cap refuses, or that comes out fractional, is left to the items that
    read it, which report it."""
    builds: dict[tuple, None] = {}
    for _, kind, params in items:
        if kind == "hjac_via_q":
            r, T = params
            builds[_dims_by_split, code, RefSet.of(code.n, T).mask] = None
            builds[_hjac, code, guards, r, T] = None
        elif kind == "ejac_via_q":
            builds[_ejac, code, guards, *params] = None
        elif kind == "ejac_direct":
            builds[codeword_support_histogram, code, guards[1]] = None
        elif kind == "mw_hw":
            builds[subcode_support_histogram, _dual(code), params[0], guards[0]] = None
        elif kind in ("design_equiv", "polarize", "delsarte"):
            builds[_shared, kernel_tables, code, *params, guards[0]] = None
    # in reverse, so that each rank's largest t comes first: its lambdas
    # serve every smaller t
    for build, *args in reversed(builds):
        try:
            build(*args)
        except (TooLarge, NonIntegerResult):
            pass


def _fork_worker(work) -> tuple[int, int]:
    """Fork a child that writes marshal (error, work()) to a pipe and exits;
    returns its pid and the pipe's read end."""
    reply_r, reply_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        gc.freeze()  # no collection walks (and so copies) the inherited objects
        status = 1
        try:
            os.close(reply_r)
            try:
                reply = (None, work())
            except Exception:
                import traceback

                reply = (traceback.format_exc(), None)
            with open(reply_w, "wb") as fh:
                fh.write(marshal.dumps(reply))
            status = 0
        finally:
            os._exit(status)
    os.close(reply_w)
    return pid, reply_r


def _run_forked(code, items, kinds: list[list[int]], guards, processes: int) -> list:
    """(status, detail) per item, the kinds (lists of item indices) being
    claimed in order by this process and processes - 1 forked children
    (none when processes is 1), each taking the next kind when it is free."""
    claims, feed = os.pipe()
    os.write(feed, bytes(range(len(kinds))))
    os.close(feed)
    work = partial(_run_claimed, code, items, kinds, claims, guards)
    sys.stdout.flush()
    sys.stderr.flush()
    children: dict[int, int] = {}  # pid: read end of its reply pipe
    replies = []
    try:
        for _ in range(processes - 1):
            pid, reply_r = _fork_worker(work)
            children[pid] = reply_r
        done = work()
        for pid, reply_r in children.items():
            with open(reply_r, "rb", closefd=False) as fh:
                data = fh.read()
            replies.append((pid, os.waitpid(pid, 0)[1], data))
    except BaseException:
        import signal

        for pid in children.keys() - {pid for pid, _, _ in replies}:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    finally:
        os.close(claims)
        for reply_r in children.values():
            os.close(reply_r)
    for pid, wait_status, data in replies:
        exit_code = os.waitstatus_to_exitcode(wait_status)
        if exit_code != 0:
            raise RuntimeError(f"verify worker {pid} exited with status {exit_code}")
        error, share = marshal.loads(data)
        if error is not None:
            raise RuntimeError(f"verify worker {pid} raised:\n{error}")
        done.extend(share)
    results: list = [None] * len(items)
    for i, status, detail in done:
        results[i] = (status, detail)
    return results


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
    """Run the whole identity suite; returns (report lines, all passed).

    The shared inputs are built before any item runs.  With ``jobs`` above
    1 the calling process forks, so it should run no other threads.  The
    run memo lives until this call returns or raises.
    """
    for r in range(min(r_max, code.k) + 1):
        if subcode_count(code, r) > max_subcodes:
            raise TooLarge(
                f"rank {r} needs {subcode_count(code, r)} subcodes, guard {max_subcodes}"
            )
    items = build_items(code, r_max, m_max, t_max, seed)
    guards = (max_subcodes, max_words)
    groups: dict[str, list[int]] = {}
    for i, (_, kind, _) in enumerate(items):
        groups.setdefault(kind, []).append(i)
    processes = worker_count(jobs, len(groups))
    designs._memo = {}
    try:
        _build_shared(code, items, guards)
        results = _run_forked(code, items, list(groups.values()), guards, processes)
    finally:
        designs._memo = None
    lines = []
    ok_all = True
    for (label, _, _), (status, detail) in zip(items, results):
        if status == "FAIL":
            ok_all = False
        lines.append(f"{status} {label}" + (f": {detail}" if detail else ""))
    summary = "all checks passed" if ok_all else "IDENTITY VIOLATION FOUND"
    lines.append(f"verify: {summary} ({len(items)} items, seed={seed})")
    return lines, ok_all
