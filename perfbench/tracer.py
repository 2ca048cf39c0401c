"""Span tracer for the jacobiforge layers, kept outside the library.

``python3 perfbench/tracer.py STATS_PATH ARGV...`` runs
``jacobiforge.cli.main(ARGV)`` with every traced entry point rebound in
each jacobiforge module namespace that holds it, then writes the
per-layer self times and counts to STATS_PATH as JSON.  Spans stay in
memory until the command ends.  The wrappers return what the wrapped
function returns, so stdout is the same as an untraced run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter


def merged_length(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Self time of each (name, start, end, parent) span: its duration minus
    the part of its interval covered by its children (parent is an index
    into spans, or -1 for a root)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, start, end, parent) in enumerate(spans):
        clipped = [
            (max(s, start), min(e, end))
            for s, e in children.get(idx, ())
            if min(e, end) > max(s, start)
        ]
        out.append((end - start) - merged_length(clipped))
    return out


class Tracer:
    """Records spans [name, start, end, parent] and named counts in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, name, fn, after=None):
        """fn inside a span; after(args, result) runs once fn has returned.

        name may be a callable of the call's args, for per-kind spans.
        """
        spans, stack, clock = self.spans, self.stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            label = name(args) if callable(name) else name
            spans.append([label, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(args, result)
            return result

        return traced

    def counted(self, name, fn):
        """fn with a call count and no span, for hot helpers."""
        counts = self.counts

        @functools.wraps(fn)
        def counted_fn(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted_fn

    def summary(self) -> dict:
        """Self and inclusive seconds and call counts per span name, plus counts."""
        self_s: Counter = Counter()
        incl_s: Counter = Counter()
        calls: Counter = Counter()
        for (name, start, end, _), own in zip(self.spans, self_times(self.spans)):
            self_s[name] += own
            incl_s[name] += end - start
            calls[name] += 1
        return {
            "self_s": dict(self_s),
            "incl_s": dict(incl_s),
            "calls": dict(calls),
            "counts": dict(self.counts),
        }


def rebind(modules, original, replacement) -> int:
    """Replace original by replacement in every module namespace holding it."""
    hits = 0
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                hits += 1
    return hits


def install(tracer: Tracer):
    """Rebind the traced entry points of every jacobiforge module."""
    from jacobiforge import (
        bipoly, cli, code, designs, enumerators, exactmath, gf, harmonic,
        transforms, verify,
    )
    from jacobiforge.errors import TooLarge

    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("jacobiforge")]
    counts = tracer.counts

    def trace(fn, name, after=None):
        if rebind(modules, fn, tracer.wrap(name, fn, after)) == 0:
            raise RuntimeError(f"{name}: no module holds {fn.__qualname__}")

    def trace_cached(fn, name, cache, on_miss=None):
        """A span around an lru-cached helper, with its cache_info() deltas.

        on_miss(args, result) runs after the span closes, so the counting
        it does is not charged to the helper.
        """
        missed: list[int] = []

        @functools.wraps(fn)
        def call(*args):
            before = fn.cache_info()
            result = fn(*args)
            after = fn.cache_info()
            counts[cache + "_hits"] += after.hits - before.hits
            counts[cache + "_misses"] += after.misses - before.misses
            missed.append(after.misses - before.misses)
            return result

        def after_span(args, result):
            if missed.pop() and on_miss is not None:
                on_miss(args, result)

        traced = tracer.wrap(name, call, after_span)
        traced.cache_info = fn.cache_info
        traced.cache_clear = fn.cache_clear
        if rebind(modules, fn, traced) == 0:
            raise RuntimeError(f"{name}: no module holds {fn.__qualname__}")

    def supports_found(counter):
        def on_miss(args, result):
            counts[counter] += len(result)
            counts["code.distinct_supports"] += len(set(result))
            counts["code.supports"] += len(result)

        return on_miss

    trace(gf.field_new, "gf.field_new")
    trace(code.parse_code, "code.parse")
    cache = "enumerators.support_cache"
    trace_cached(enumerators._codeword_supports, "code.enum", cache,
                 supports_found("code.codeword_supports"))
    trace_cached(enumerators._subcode_supports, "code.enum", cache,
                 supports_found("code.subcode_supports"))
    trace_cached(enumerators._extension_supports, "code.enum", cache,
                 supports_found("code.extension_words"))

    def swept(args, result):
        counts["enumerators.sweep_subsets"] += len(result)

    trace_cached(enumerators._vanishing_dims, "enumerators.sweep",
                 "enumerators.sweep_cache", swept)
    trace(code.column_set_dim, "code.column_set_dim")

    def scanned(args, result):
        counts["enumerators.split_supports_scanned"] += len(args[0])

    trace(enumerators._split_counts, "enumerators.split", scanned)
    for fn in (enumerators.higher_jacobi_via_q, enumerators.extended_jacobi_via_q):
        trace(fn, "enumerators.via_q")
    for fn in (enumerators.extended_jacobi, enumerators.higher_from_extended):
        trace(fn, "enumerators.rank_decomp")
    for fn in (transforms.mw_higher_weight, transforms.mw_higher_jacobi,
               transforms.mw_extended_jacobi):
        trace(fn, "transforms.mw")
    bipoly.BiHomPoly.polarize = tracer.wrap("bipoly.polarize", bipoly.BiHomPoly.polarize)
    bipoly.BiHomPoly.render = tracer.wrap("bipoly.render", bipoly.BiHomPoly.render)
    trace_cached(harmonic.harm_basis, "harmonic.basis", "harmonic.basis_cache")
    trace(harmonic.delsarte_design_check, "harmonic.delsarte")
    rebind(modules, harmonic.f_tilde, tracer.counted("harmonic.f_tilde_calls", harmonic.f_tilde))
    trace(harmonic.recover_jacobi, "harmonic.recover")
    trace(exactmath.rat_solve, "exactmath.solve")
    trace(designs.is_t_design, "designs.is_t_design")
    trace(designs.support_shells, "designs.shells")
    trace(designs.t_independence_check, "designs.independence")

    run_item = verify.run_item

    @functools.wraps(run_item)
    def run_item_counted(code_, kind, params, guards):
        try:
            ok, detail = run_item(code_, kind, params, guards)
        except TooLarge:
            counts["verify.skips"] += 1
            raise
        if ok is None:
            counts["verify.skips"] += 1
        return ok, detail

    rebind(modules, run_item,
           tracer.wrap(lambda args: f"verify.item.{args[1]}", run_item_counted))
    trace(cli.main, "cli.main")


def main(argv) -> int:
    stats_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from jacobiforge import cli, harmonic

    try:
        return cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        out = tracer.summary()
        info = harmonic.h_dt.cache_info()
        out["counts"]["harmonic.h_dt_hits"] = info.hits
        out["counts"]["harmonic.h_dt_misses"] = info.misses
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(out, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
