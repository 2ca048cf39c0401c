"""Command-line front end.

Exit codes: 0 for success and EQUAL verdicts, 1 when an identity check
reports DIFFER (or a stated hypothesis fails), 2 for usage, parse, and
guard errors.  All numeric output is exact; rationals print as p/q.
"""

from __future__ import annotations

import argparse
import json
import sys

from .code import (
    MAX_SUBCODES_DEFAULT,
    MAX_WORDS_DEFAULT,
    LinearCode,
    RefSet,
    parse_code,
)
from .designs import is_t_design, jacobi_by_polarization, support_shells
from .enumerators import (
    extended_jacobi,
    higher_jacobi,
    higher_weight_enum,
    jacobi,
    weight_enum,
)
from .errors import DesignHypothesisFails, JacobiForgeError
from .exactmath import format_rational, parse_rational
from .harmonic import HahnParams, hahn_eval, harm_basis, harmonic_higher_wenum, recover_jacobi
from .transforms import MWContext, mw_extended_jacobi, mw_higher_jacobi, mw_higher_weight
from .verify import verify_all


class UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacobiforge",
        description="Exact split-weight enumerators of linear codes and their identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *, code=True, r=False, m=False, t=False, T=False):
        p = sub.add_parser(name, help=help_text)
        if code:
            p.add_argument("--code", required=True, help="path to a matrix file")
            p.add_argument("--json", action="store_true", help="emit JSON")
            p.add_argument("--max-subcodes", type=int, default=MAX_SUBCODES_DEFAULT)
            p.add_argument("--max-words", type=int, default=MAX_WORDS_DEFAULT)
        if r:
            p.add_argument("-r", type=int, required=r == "required", default=None)
        if m:
            p.add_argument("-m", type=int, required=m == "required", default=None)
        if t:
            p.add_argument("-t", type=int, required=t == "required", default=None)
        if T:
            p.add_argument(
                "-T",
                default="",
                help="comma-separated 1-based coordinates, empty for the empty set",
            )
        return p

    add("wenum", "weight enumerator")
    add("hwenum", "subcode weight enumerator of rank r", r="required")
    add("jacobi", "split-weight table relative to T", T=True)
    add("hjacobi", "rank-r split-weight table relative to T", r="required", T=True)
    add("ejacobi", "degree-m extension split-weight table", m="required", T=True)
    p = add(
        "mw-check",
        "apply a duality transform and compare with direct dual enumeration",
        r=True,
        m=True,
        T=True,
    )
    p.add_argument("--kind", choices=("hw", "hjac", "ejac"), required=True)
    add("design-check", "design verdicts of the rank-r support shells", r="required", t="required")
    add("polarize", "rank-r split-weight polynomial via polarization", r="required", t="required")
    p = add("harm-wenum", "harmonically weighted rank-r weight enumerator", r="required")
    p.add_argument("-d", type=int, required=True, help="harmonic degree")
    p.add_argument("--basis-index", type=int, default=0)
    p = sub.add_parser("hahn", help="evaluate a Hahn polynomial exactly")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-x", type=int, required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("-N", type=int, required=True)
    add("recover", "recover the rank-r table from weighted enumerators", r="required", T=True)
    p = add("verify", "run the full identity suite on the code")
    p.add_argument("--all", action="store_true", help="use the default sweep caps")
    p.add_argument("-r", type=int, default=2, help="rank cap")
    p.add_argument("-m", type=int, default=2, help="extension degree cap")
    p.add_argument("-t", type=int, default=2, help="reference set size cap")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    return parser


def _load_code(args) -> LinearCode:
    try:
        with open(args.code, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {args.code}: {exc}") from exc
    return parse_code(text)


def _parse_tset(code: LinearCode, text: str) -> RefSet:
    text = (text or "").strip()
    if not text:
        return RefSet.of(code.n)
    try:
        coords = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"bad -T value {text!r}") from exc
    if len(set(coords)) != len(coords):
        raise UsageError("-T coordinates must be distinct")
    for c in coords:
        if not 1 <= c <= code.n:
            raise UsageError(f"coordinate {c} outside 1..{code.n}")
    return RefSet.of(code.n, coords)


def _check_rank(code: LinearCode, r: int):
    if r is None:
        raise UsageError("this subcommand needs -r")
    if r < 0:
        raise UsageError("r must be nonnegative")
    if r > code.k:
        raise UsageError(f"r exceeds dimension k={code.k}")


def _check_range(name: str, value: int, low: int, high: int):
    if not low <= value <= high:
        raise UsageError(f"{name} must lie in {low}..{high}")


def _parse_rational_arg(name: str, text: str):
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad {name} value {text!r}") from exc


def _emit_poly(poly, as_json: bool):
    if as_json:
        print(json.dumps(poly.to_json_dict()))
    else:
        print(poly.render())


def _emit_table(table, as_json: bool):
    if as_json:
        print(json.dumps(table.to_json_dict()))
    else:
        print(table.render())


def _cmd_mw_check(args, code: LinearCode) -> int:
    tset = _parse_tset(code, getattr(args, "T", ""))
    ctx = MWContext(q=code.spec.q, n=code.n, k=code.k, tsize=tset.size)
    dual = code.dual()
    if args.kind == "hw":
        _check_rank(code, args.r)
        if args.r > min(code.k, dual.k):
            raise UsageError(f"r exceeds min(k, n-k) = {min(code.k, dual.k)}")
        enums = [
            higher_weight_enum(code, ell, args.max_subcodes) for ell in range(args.r + 1)
        ]
        lhs = mw_higher_weight(enums, ctx)
        rhs = higher_weight_enum(dual, args.r, args.max_subcodes)
        print(f"transform: {lhs.render()}")
        print(f"dual:      {rhs.render()}")
        if lhs == rhs:
            print("EQUAL")
            return 0
        print("DIFFER")
        return 1
    if args.kind == "hjac":
        _check_rank(code, args.r)
        if args.r > min(code.k, dual.k):
            raise UsageError(f"r exceeds min(k, n-k) = {min(code.k, dual.k)}")
        tables = [
            higher_jacobi(code, tset, ell, args.max_subcodes) for ell in range(args.r + 1)
        ]
        lhs = mw_higher_jacobi(tables, ctx)
        rhs = higher_jacobi(dual, tset, args.r, args.max_subcodes)
    else:
        if args.m is None or args.m < 1:
            raise UsageError("mw-check --kind ejac needs -m >= 1")
        lhs = mw_extended_jacobi(
            extended_jacobi(code, tset, args.m, args.max_subcodes), ctx
        )
        rhs = extended_jacobi(dual, tset, args.m, args.max_subcodes)
    print(f"transform: {lhs.render()}")
    print(f"dual:      {rhs.render()}")
    diff = lhs.first_difference(rhs)
    if diff is None:
        print("EQUAL")
        return 0
    i, j, a, b = diff
    print(f"DIFFER at (i={i}, j={j}): transform={a} dual={b}")
    return 1


def _cmd_verify(args, code: LinearCode) -> int:
    lines, ok = verify_all(
        code,
        r_max=args.r,
        m_max=args.m,
        t_max=args.t,
        seed=args.seed,
        jobs=args.jobs,
        max_subcodes=args.max_subcodes,
        max_words=args.max_words,
    )
    for line in lines:
        print(line)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "hahn":
            if not 0 <= args.m < args.N:
                raise UsageError("hahn needs 0 <= m < N")
            params = HahnParams(
                _parse_rational_arg("--alpha", args.alpha),
                _parse_rational_arg("--beta", args.beta),
                args.N,
                args.m,
            )
            print(format_rational(hahn_eval(params, args.x)))
            return 0
        code = _load_code(args)
        if args.command == "wenum":
            _emit_poly(weight_enum(code, args.max_words), args.json)
            return 0
        if args.command == "hwenum":
            _check_rank(code, args.r)
            _emit_poly(higher_weight_enum(code, args.r, args.max_subcodes), args.json)
            return 0
        if args.command == "jacobi":
            tset = _parse_tset(code, args.T)
            _emit_table(jacobi(code, tset, args.max_words), args.json)
            return 0
        if args.command == "hjacobi":
            _check_rank(code, args.r)
            tset = _parse_tset(code, args.T)
            _emit_table(higher_jacobi(code, tset, args.r, args.max_subcodes), args.json)
            return 0
        if args.command == "ejacobi":
            if args.m < 1:
                raise UsageError("m must be at least 1")
            tset = _parse_tset(code, args.T)
            _emit_table(extended_jacobi(code, tset, args.m, args.max_subcodes), args.json)
            return 0
        if args.command == "mw-check":
            return _cmd_mw_check(args, code)
        if args.command == "design-check":
            _check_rank(code, args.r)
            _check_range("t", args.t, 0, code.n)
            for w, shell in support_shells(code, args.r, args.max_subcodes).items():
                verdict = is_t_design(shell, args.t)
                if verdict.is_design:
                    print(f"i={w}: {args.t}-design lambda={verdict.lam}")
                else:
                    print(f"i={w}: not a {args.t}-design")
            return 0
        if args.command == "polarize":
            _check_rank(code, args.r)
            _check_range("t", args.t, 0, code.n)
            try:
                poly = jacobi_by_polarization(code, args.r, args.t, args.max_subcodes)
            except DesignHypothesisFails as exc:
                print(f"DesignHypothesisFails: {exc}")
                return 1
            _emit_poly(poly, args.json)
            return 0
        if args.command == "harm-wenum":
            _check_rank(code, args.r)
            _check_range("d", args.d, 0, code.n)
            basis = harm_basis(code.n, args.d)
            if not 0 <= args.basis_index < len(basis):
                raise UsageError(
                    f"basis index outside 0..{len(basis) - 1} for degree {args.d}"
                )
            poly = harmonic_higher_wenum(
                code, basis[args.basis_index], args.r, args.max_subcodes
            )
            _emit_poly(poly, args.json)
            return 0
        if args.command == "recover":
            _check_rank(code, args.r)
            tset = _parse_tset(code, args.T)
            if 2 * tset.size > code.n:
                raise UsageError(f"recover needs |T| <= n/2 = {code.n // 2}")
            lhs = recover_jacobi(code, args.r, tset, args.max_subcodes)
            rhs = higher_jacobi(code, tset, args.r, args.max_subcodes)
            _emit_table(lhs, args.json)
            diff = lhs.first_difference(rhs)
            if diff is None:
                print("EQUAL")
                return 0
            i, j, a, b = diff
            print(f"DIFFER at (i={i}, j={j}): recovered={a} direct={b}")
            return 1
        if args.command == "verify":
            return _cmd_verify(args, code)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except JacobiForgeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
