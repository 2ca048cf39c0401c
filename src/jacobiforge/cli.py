"""Command-line front end.

Exit codes: 0 for success and EQUAL verdicts, 1 when an identity check
reports DIFFER (or a stated hypothesis fails), 2 for usage, parse, and
guard errors (``verify`` reports a guard hit as a SKIP), and for a closed
stdout.  All numeric output is exact; rationals print as p/q.

A command imports the checks it runs where it runs them (verify brings
designs and harmonic, harmonic brings designs): a table command compiles none.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from contextlib import contextmanager
from itertools import islice
from math import comb

from .code import (
    MAX_SUBCODES_DEFAULT,
    MAX_WORDS_DEFAULT,
    LinearCode,
    RefSet,
    Run,
    parse_code,
)
from .enumerators import (
    extended_jacobi,
    higher_jacobi,
    higher_weight_enum,
    jacobi,
    weight_enum,
)
from .errors import DesignHypothesisFails, JacobiForgeError
from .exactmath import format_rational, parse_rational


class UsageError(Exception):
    pass


def integer(text: str) -> int:
    """The argparse type of every integer option: an optional -, then ASCII
    digits, where int() also reads a +, spaces, _ and other scripts' digits."""
    digits = text.removeprefix("-")
    if digits.isascii() and digits.isdigit():
        return int(text)  # more digits than int() reads: ValueError, a usage error too
    raise ValueError(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacobiforge",
        description="Exact split-weight enumerators of linear codes and their identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *, json=False, r=False, m=False, t=False, T=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--code", required=True, help="path to a matrix file")
        if json:
            p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument("--max-subcodes", type=integer, default=MAX_SUBCODES_DEFAULT)
        p.add_argument("--max-words", type=integer, default=MAX_WORDS_DEFAULT)
        if r:
            p.add_argument("-r", type=integer, required=r == "required", default=None)
        if m:
            p.add_argument("-m", type=integer, required=m == "required", default=None)
        if t:
            p.add_argument("-t", type=integer, required=t == "required", default=None)
        if T:
            p.add_argument(
                "-T",
                default="",
                help="comma-separated 1-based coordinates, empty for the empty set",
            )
        return p

    add("wenum", "weight enumerator", json=True)
    add("hwenum", "subcode weight enumerator of rank r", json=True, r="required")
    add("jacobi", "split-weight table relative to T", json=True, T=True)
    add("hjacobi", "rank-r split-weight table relative to T", json=True, r="required", T=True)
    add("ejacobi", "degree-m extension split-weight table", json=True, m="required", T=True)
    p = add(
        "mw-check",
        "apply a duality transform and compare with direct dual enumeration",
        r=True,
        m=True,
        T=True,
    )
    p.add_argument("--kind", choices=("hw", "hjac", "ejac"), required=True)
    add("design-check", "design verdicts of the rank-r support shells", r="required", t="required")
    add("polarize", "rank-r split-weight polynomial via polarization",
        json=True, r="required", t="required")
    p = add("harm-wenum", "harmonically weighted rank-r weight enumerator", json=True, r="required")
    p.add_argument("-d", type=integer, required=True, help="harmonic degree")
    p.add_argument("--basis-index", type=integer, default=0)
    p = sub.add_parser("hahn", help="evaluate a Hahn polynomial exactly")
    p.add_argument("-m", type=integer, required=True)
    p.add_argument("-x", type=integer, required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("-N", type=integer, required=True)
    add("recover", "recover the rank-r table from weighted enumerators",
        json=True, r="required", T=True)
    p = add("verify", "run the full identity suite on the code")
    p.add_argument("-r", type=integer, default=2, help="rank cap")
    p.add_argument("-m", type=integer, default=2, help="extension degree cap")
    p.add_argument("-t", type=integer, default=2, help="reference set size cap")
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument(
        "--jobs",
        type=integer,
        default=1,
        help="accepted for existing command lines and changes nothing: "
        "verify runs in one process",
    )
    return parser


def _load_code(args) -> LinearCode:
    try:
        with open(args.code, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {args.code}: {exc}") from exc
    return parse_code(text)


def _parse_tset(code: LinearCode, text: str) -> RefSet:
    text = (text or "").strip()
    if not text:
        return RefSet.of(code.n)
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    # ASCII decimal only: int() also takes signs, underscores and other scripts' digits
    if not all(tok.isascii() and tok.isdigit() for tok in tokens):
        raise UsageError(f"bad -T value {text!r}")
    try:
        coords = [int(tok) for tok in tokens]
    except ValueError:  # more digits than int() reads from a str
        raise UsageError(f"coordinate of {max(map(len, tokens))} digits outside 1..{code.n}")
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
        # ASCII, no _ and no exponent (Fraction would build 10**exponent first)
        if not text.isascii() or "_" in text or "e" in text.lower():
            raise ValueError(text)
        return parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad {name} value {text!r}") from exc


@contextmanager
def _any_length():
    """Lift Python's cap on the digits of an int written in decimal inside the
    block only: exact values print at any length, and input keeps the cap."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _emit(poly_or_table, as_json: bool):
    with _any_length():
        if as_json:
            import json  # only --json pays for it at start-up

            print(json.dumps(poly_or_table.to_json_dict()))
        else:
            print(poly_or_table.render())


def _verdict(check, lhs, rhs, names=None) -> int:
    """Print EQUAL (exit 0) or DIFFER (exit 1) by the check's comparison;
    names label the two sides of the first differing grid entry."""
    ok, diff = check.compare(lhs, rhs)
    if ok:
        print("EQUAL")
        return 0
    if names is None:
        print("DIFFER")
    else:
        i, j, a, b = diff
        print(f"DIFFER at (i={i}, j={j}): {names[0]}={a} {names[1]}={b}")
    return 1


def _cmd_mw_check(args, code: LinearCode, run: Run) -> int:
    from .verify import CHECKS

    T = _parse_tset(code, args.T).sorted()
    if args.kind == "ejac":
        if args.m is None or args.m < 1:
            raise UsageError("mw-check --kind ejac needs -m >= 1")
        params = (args.m, T)
    else:
        _check_rank(code, args.r)
        cap = min(code.k, code.n - code.k)
        if args.r > cap:
            raise UsageError(f"r exceeds min(k, n-k) = {cap}")
        params = (args.r,) if args.kind == "hw" else (args.r, T)
    check = CHECKS["mw_" + args.kind]
    lhs, rhs = check.routes(code, run, *params)
    with _any_length():
        print(f"transform: {lhs.render()}")
        print(f"dual:      {rhs.render()}")
        return _verdict(check, lhs, rhs, None if args.kind == "hw" else ("transform", "dual"))


def _cmd_verify(args, code: LinearCode, run: Run) -> int:
    for flag, cap in (("-r", args.r), ("-m", args.m), ("-t", args.t)):
        if cap < 0:
            raise UsageError(f"{flag} must be nonnegative")
    if args.jobs < 1:
        raise UsageError("--jobs must be at least 1")
    from .verify import verify_all

    lines, ok = verify_all(code, args.r, args.m, args.t, args.seed, run)
    for line in lines:
        print(line)
    return 0 if ok else 1


def _attach_rational_values(argv: list[str]) -> list[str]:
    """`--alpha -3/4` as `--alpha=-3/4`: argparse reads a token such as
    -3/4 as an option, although --alpha and --beta always take the next one."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in ("--alpha", "--beta"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    try:
        status = _run(argv)
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
    except BrokenPipeError:
        # stdout's reader is gone: send what is still buffered to devnull,
        # so that the flush at exit is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout is closed", file=sys.stderr)
        return 2
    return status


def _run(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_rational_values(sys.argv[1:] if argv is None else argv))
    try:
        if args.command == "hahn":
            from .harmonic import HahnParams, hahn_eval

            if not 0 <= args.m < args.N:
                raise UsageError("hahn needs 0 <= m < N")
            params = HahnParams(
                _parse_rational_arg("--alpha", args.alpha),
                _parse_rational_arg("--beta", args.beta),
                args.N,
                args.m,
            )
            value = hahn_eval(params, args.x)
            with _any_length():
                print(format_rational(value))
            return 0
        guards = (("--max-subcodes", args.max_subcodes), ("--max-words", args.max_words))
        for flag, guard in guards:
            if guard < 1:
                raise UsageError(f"{flag} must be at least 1")
        run = Run(args.max_subcodes, args.max_words)
        code = _load_code(args)
        if args.command == "wenum":
            _emit(weight_enum(code, run), args.json)
            return 0
        if args.command == "hwenum":
            _check_rank(code, args.r)
            _emit(higher_weight_enum(code, args.r, run), args.json)
            return 0
        if args.command == "jacobi":
            tset = _parse_tset(code, args.T)
            _emit(jacobi(code, tset, run), args.json)
            return 0
        if args.command == "hjacobi":
            _check_rank(code, args.r)
            tset = _parse_tset(code, args.T)
            _emit(higher_jacobi(code, tset, args.r, run), args.json)
            return 0
        if args.command == "ejacobi":
            if args.m < 1:
                raise UsageError("m must be at least 1")
            tset = _parse_tset(code, args.T)
            _emit(extended_jacobi(code, tset, args.m, run), args.json)
            return 0
        if args.command == "mw-check":
            return _cmd_mw_check(args, code, run)
        if args.command == "design-check":
            from .designs import is_t_design, support_shells

            _check_rank(code, args.r)
            _check_range("t", args.t, 0, code.n)
            for w, shell in support_shells(code, args.r, run).items():
                verdict = is_t_design(shell, args.t)
                if verdict.is_design:
                    print(f"i={w}: {args.t}-design lambda={verdict.lam}")
                else:
                    print(f"i={w}: not a {args.t}-design")
            return 0
        if args.command == "polarize":
            from .designs import jacobi_by_polarization

            _check_rank(code, args.r)
            _check_range("t", args.t, 0, code.n)
            try:
                poly = jacobi_by_polarization(code, args.r, args.t, run)
            except DesignHypothesisFails as exc:
                print(f"DesignHypothesisFails: {exc}")
                return 1
            _emit(poly, args.json)
            return 0
        if args.command == "harm-wenum":
            from .harmonic import basis_function, harmonic_higher_wenum, top_sets

            _check_rank(code, args.r)
            _check_range("d", args.d, 0, code.n)
            if 2 * args.d > code.n:
                raise UsageError(
                    f"harm-wenum needs d <= n/2 = {code.n // 2}: "
                    f"the degree-{args.d} harmonic space is {{0}}"
                )
            size = comb(code.n, args.d) - (comb(code.n, args.d - 1) if args.d else 0)
            if not 0 <= args.basis_index < size:
                raise UsageError(f"basis index outside 0..{size - 1} for degree {args.d}")
            # the basis has C(n, d) - C(n, d-1) functions: build the one printed
            top = next(islice(top_sets(code.n, args.d), args.basis_index, None))
            f = basis_function(code.n, top)
            _emit(harmonic_higher_wenum(code, f, args.r, run), args.json)
            return 0
        if args.command == "recover":
            from .verify import CHECKS

            _check_rank(code, args.r)
            tset = _parse_tset(code, args.T)
            check = CHECKS["recover"]
            lhs, rhs = check.routes(code, run, args.r, tset.sorted())
            _emit(lhs, args.json)
            return _verdict(check, lhs, rhs, ("recovered", "direct"))
        if args.command == "verify":
            return _cmd_verify(args, code, run)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except JacobiForgeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry_point():
    """Run the command line and exit with main()'s status: the start of
    both ``python -m jacobiforge`` and the installed ``jacobiforge``
    script.  The modules imported so far live until exit, so collections
    are kept off them; a module a command imports later (designs,
    harmonic, verify) is not frozen, and a library call freezes nothing."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
