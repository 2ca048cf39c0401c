"""Benchmark driver for the jacobiforge CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every command is a fresh
``python3 -m jacobiforge`` process started by this one process and
reaped with ``os.wait4``: a closed loop with one client (two for the
parallel phase of tables-golay24).  With ``--trace 0`` it repeats passes
over the workload while another pass still fits in S seconds (at least
one) and reports the medians of the end-to-end metrics, each timing
rescaled to the nominal host speed (see hostspeed.py); with
``--trace 1`` it alternates an untraced pass with a pass under
``perfbench/tracer.py`` and reports the per-layer metrics.  Each output is checked (see workloads.check_output); the last
stdout line is the JSON result, a readable summary goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from hostspeed import SpeedProbe
from workloads import WORKLOADS, check_codes, check_output, code_path, workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 10  # before the passes, and again after them
# Import the package and parse the codes, computing no table.
SETUP_SNIPPET = (
    "import sys, pathlib, jacobiforge\n"
    "for p in sys.argv[1:]:\n"
    "    jacobiforge.parse_code(pathlib.Path(p).read_text())\n"
)

ITEM_KINDS = (
    "dual_involution", "plain_vs_wenum", "mass", "hjac_via_q", "hjac_from_ext",
    "ejac_via_q", "ejac_direct", "mw_ejac", "mw_hjac", "recover", "mw_hw",
    "design_equiv", "polarize", "delsarte", "punctured",
)
# per-layer metric -> span name whose self seconds it reports
SELF_SECONDS = {
    "gf.field_new_s": "gf.field_new",
    "code.parse_s": "code.parse",
    "code.enum_s": "code.enum",
    "enumerators.split_s": "enumerators.split",
    "enumerators.sweep_s": "enumerators.sweep",
    "code.column_set_dim_s": "code.column_set_dim",
    "enumerators.via_q_s": "enumerators.via_q",
    "enumerators.rank_decomp_s": "enumerators.rank_decomp",
    "transforms.mw_s": "transforms.mw",
    "bipoly.polarize_s": "bipoly.polarize",
    "bipoly.render_s": "bipoly.render",
    "harmonic.basis_s": "harmonic.basis",
    "harmonic.delsarte_s": "harmonic.delsarte",
    "harmonic.recover_s": "harmonic.recover",
    "exactmath.solve_s": "exactmath.solve",
    "designs.is_t_design_s": "designs.is_t_design",
    "designs.shells_s": "designs.shells",
    "designs.independence_s": "designs.independence",
    "cli.self_s": "cli.main",
}
# per-layer metric -> span name whose calls it counts
CALLS = {
    "gf.field_new_calls": "gf.field_new",
    "code.column_set_dim_calls": "code.column_set_dim",
    "transforms.mw_calls": "transforms.mw",
    "exactmath.solves": "exactmath.solve",
    "designs.is_t_design_calls": "designs.is_t_design",
}
COUNTS = (
    "code.codeword_supports", "code.subcode_supports", "code.extension_words",
    "enumerators.split_supports_scanned", "enumerators.support_cache_hits",
    "enumerators.support_cache_misses", "enumerators.sweep_subsets",
    "harmonic.basis_cache_hits", "harmonic.basis_cache_misses",
    "harmonic.f_tilde_calls", "verify.skips",
)


@dataclass
class Proc:
    """Outcome of one child process."""

    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    start: float
    end: float


def run_procs(argvs, workdir: Path, clients: int = 1, cpu: int | None = None) -> tuple[list[Proc], float]:
    """Run the argv lists, at most `clients` at a time, each started when a
    slot frees, pinned to `cpu` if given.  Returns the outcomes in argv order
    and the elapsed wall time."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    pending = list(enumerate(argvs))
    running = {}
    results: list[Proc | None] = [None] * len(argvs)
    start = time.perf_counter()
    try:
        while pending or running:
            while pending and len(running) < clients:
                idx, argv = pending.pop(0)
                out, err = workdir / f"{idx}.out", workdir / f"{idx}.err"
                t0 = time.perf_counter()
                with open(out, "wb") as fo, open(err, "wb") as fe:
                    proc = subprocess.Popen(argv, stdout=fo, stderr=fe, cwd=ROOT, env=env,
                                            preexec_fn=pin)
                running[proc.pid] = (idx, proc, t0, out, err)
            pid, status, usage = os.wait4(-1, 0)
            done = time.perf_counter()
            idx, proc, t0, out, err = running.pop(pid)
            proc.returncode = os.waitstatus_to_exitcode(status)
            results[idx] = Proc(
                returncode=proc.returncode,
                stdout=out.read_text(encoding="utf-8", errors="replace"),
                stderr=err.read_text(encoding="utf-8", errors="replace"),
                wall_s=done - t0,
                cpu_s=usage.ru_utime + usage.ru_stime,
                rss_mb=usage.ru_maxrss / 1024,
                start=t0,
                end=done,
            )
    finally:
        for _, proc, *_ in running.values():  # only after an error
            proc.kill()
            proc.wait()
    return results, time.perf_counter() - start


class Gate:
    """Counts commands attempted and failed, remembering why they failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, cmd, proc: Proc, seen: dict, expected: str | None = None):
        self.attempted += 1
        reason = check_output(cmd, proc.returncode, proc.stdout, seen)
        if reason is None and expected is not None and proc.stdout != expected:
            reason = "traced stdout differs from untraced stdout"
        if reason is not None:
            self.failures.append(f"{cmd.key}: {reason}; stderr: {proc.stderr.strip()[-300:]}")
        seen[cmd.key] = proc.stdout

    @property
    def failed_share(self) -> float:
        return len(self.failures) / self.attempted


def another_pass_fits(start: float, pass_start: float, seconds: float) -> bool:
    """Whether a pass as long as the last one would still end within seconds."""
    now = time.perf_counter()
    return (now - start) + (now - pass_start) <= seconds


def cli_argv(cmd) -> list[str]:
    return [sys.executable, "-m", "jacobiforge", *cmd.argv]


def measure_setup(wl, workdir: Path, probe: SpeedProbe, cpu: int) -> list[float]:
    """Rescaled wall times of SETUP_REPEATS set-up processes pinned to cpu."""
    argv = [sys.executable, "-c", SETUP_SNIPPET, *(str(code_path(c)) for c in wl.codes)]
    procs, _ = run_procs([argv] * SETUP_REPEATS, workdir, cpu=cpu)
    for proc in procs:
        if proc.returncode != 0:
            raise RuntimeError(f"set-up exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return [p.wall_s * probe.scale(p.start, p.end, {cpu}) for p in procs]


def end_to_end(wl, seconds: float, workdir: Path, gate: Gate) -> tuple[dict, int]:
    """The jobs-1 commands run pinned to one CPU, with the probe sampling it;
    the parallel phase runs unpinned and is rescaled by the probe on all CPUs."""
    cpus = os.sched_getaffinity(0)
    cpu = min(cpus)
    samples: dict[str, list[float]] = {}
    raw: list[tuple[float, float]] = []
    with SpeedProbe(cpus) as probe:
        setup = measure_setup(wl, workdir, probe, cpu)
        start = time.perf_counter()
        passes = 0
        while True:
            pass_start = time.perf_counter()
            seen: dict[str, str] = {}
            procs, wall = run_procs([cli_argv(c) for c in wl.commands], workdir, cpu=cpu)
            for cmd, proc in zip(wl.commands, procs):
                gate.check(cmd, proc, seen)
            par, par_wall = run_procs([cli_argv(c) for c in wl.jobs2], workdir, wl.jobs2_clients)
            for cmd, proc in zip(wl.jobs2, par):
                gate.check(cmd, proc, seen)
            k = probe.scale(procs[0].start, procs[-1].end, {cpu})
            k2 = probe.scale(min(p.start for p in par), max(p.end for p in par))
            for name, value in (
                ("wall_s", wall * k),
                ("cpu_s", sum(p.cpu_s for p in procs) * k),
                ("peak_rss_mb", max(p.rss_mb for p in procs)),
                ("jobs2_wall_s", par_wall * k2),
                ("jobs2_cpu_s", sum(p.cpu_s for p in par) * k2),
            ):
                samples.setdefault(name, []).append(value)
            raw.append((wall, k))
            passes += 1
            if not another_pass_fits(start, pass_start, seconds):
                break
        setup += measure_setup(wl, workdir, probe, cpu)
    for wall, k in raw:
        print(f"pass: raw wall_s {wall:.4f}, host scale {k:.4f}", file=sys.stderr)
    metrics = {name: statistics.median(vals) for name, vals in samples.items()}
    metrics["setup_s"] = statistics.median(setup)
    return metrics, passes


def layer_metrics(stats: list[dict], base_wall: float, traced_wall: float) -> dict:
    """Per-layer metrics of one traced pass from its commands' tracer stats."""
    self_s, incl_s, calls, counts = Counter(), Counter(), Counter(), Counter()
    for s in stats:
        self_s.update(s["self_s"])
        incl_s.update(s["incl_s"])
        calls.update(s["calls"])
        counts.update(s["counts"])
    out = {name: self_s[span] for name, span in SELF_SECONDS.items()}
    out.update({name: calls[span] for name, span in CALLS.items()})
    out.update({name: counts[name] for name in COUNTS})
    supports = counts["code.supports"]
    out["code.distinct_support_ratio"] = counts["code.distinct_supports"] / supports if supports else 0.0
    h_dt = counts["harmonic.h_dt_hits"] + counts["harmonic.h_dt_misses"]
    out["harmonic.h_dt_cache_hit_ratio"] = counts["harmonic.h_dt_hits"] / h_dt if h_dt else 0.0
    out["verify.items"] = sum(n for span, n in calls.items() if span.startswith("verify.item."))
    for kind in ITEM_KINDS:
        out[f"verify.item_s.{kind}"] = incl_s[f"verify.item.{kind}"]
    out["trace.overhead_s"] = traced_wall - base_wall
    out["trace.base_wall_s"] = base_wall
    return out


def traced(wl, seconds: float, workdir: Path, gate: Gate) -> tuple[dict, int]:
    samples: dict[str, list[float]] = {}
    start = time.perf_counter()
    passes = 0
    tracer = str(HERE / "tracer.py")
    while True:
        pass_start = time.perf_counter()
        seen: dict[str, str] = {}
        base, base_wall = run_procs([cli_argv(c) for c in wl.commands], workdir)
        for cmd, proc in zip(wl.commands, base):
            gate.check(cmd, proc, seen)
        stats_paths = [workdir / f"stats{i}.json" for i in range(len(wl.commands))]
        argvs = [
            [sys.executable, tracer, str(path), *cmd.argv]
            for cmd, path in zip(wl.commands, stats_paths)
        ]
        procs, wall = run_procs(argvs, workdir)
        for cmd, proc, ref in zip(wl.commands, procs, base):
            gate.check(cmd, proc, {}, expected=ref.stdout)
        stats = []
        for path in stats_paths:
            if path.exists():  # absent when the traced command crashed
                stats.append(json.loads(path.read_text()))
                path.unlink()
        for name, value in layer_metrics(stats, base_wall, wall).items():
            samples.setdefault(name, []).append(value)
        passes += 1
        if not another_pass_fits(start, pass_start, seconds):
            break
    return {name: statistics.median(vals) for name, vals in samples.items()}, passes


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "jacobiforge" / "__init__.py").is_file():
        print(f"error: no jacobiforge sources under {SRC}", file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))
    wl = workload(args.workload, args.seed)
    try:
        check_codes(wl.codes)
    except ValueError as exc:
        print(f"error: input code check failed: {exc}", file=sys.stderr)
        return 2
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        # Untimed warm-up: byte-compiles the sources once, as an install would.
        run_procs([[sys.executable, "-c", SETUP_SNIPPET]], workdir)
        gate = Gate()
        measure = traced if args.trace else end_to_end
        values, passes = measure(wl, args.seconds, workdir, gate)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(values) != set(units):
        print(f"error: measured {sorted(set(values) ^ set(units))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 2
    for failure in gate.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {passes} passes, {gate.attempted} commands, "
          f"failed_share={gate.failed_share:.4f}", file=sys.stderr)
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}", file=sys.stderr)
    print(json.dumps({
        "correct": not gate.failures,
        "attempted": gate.attempted,
        "failed": len(gate.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
