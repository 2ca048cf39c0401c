import gc
import os
import random
import signal
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import c12, ex44, hamming74, random_code, tgolay12
from jacobiforge import LinearCode, TooLarge, designs, enumerators, field_new, harmonic, verify
from jacobiforge import verify_all
from jacobiforge import code as code_module
from jacobiforge.code import subcode_count
from jacobiforge.verify import build_items, worker_count

two_cpus = pytest.mark.skipif(worker_count(2, 2) < 2, reason="needs two usable CPUs")


@pytest.fixture
def time_limit():
    """Turn a hang of a parallel verify into a TimeoutError after 60 s."""

    def expire(signum, frame):
        raise TimeoutError("parallel verify did not finish")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_verify_all_golden_code():
    lines, ok = verify_all(ex44(), r_max=3, m_max=2, t_max=2, seed=0)
    assert ok
    assert not any(line.startswith("FAIL") for line in lines)
    assert lines[-1].startswith("verify: all checks passed")
    assert "seed=0" in lines[-1]


def test_verify_all_hamming():
    lines, ok = verify_all(hamming74(), r_max=2, m_max=2, t_max=2, seed=1)
    assert ok, [l for l in lines if l.startswith("FAIL")]


def test_verify_all_random_ternary_code():
    rng = random.Random(84)
    while True:
        code = random_code(rng, 3, 8, 4)
        if code.k == 4:
            break
    lines, ok = verify_all(code, r_max=2, m_max=2, t_max=2, seed=3)
    assert ok, [l for l in lines if l.startswith("FAIL")]


# (p, e) of every field the random-code sweep draws from
SWEEP_FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}
# guards that keep each code to milliseconds: the subcode one is checked
# up front, while the word one turns items into SKIPs
SWEEP_GUARDS = dict(max_subcodes=2000, max_words=1 << 16)


@st.composite
def random_codes(draw):
    """Codes over every sweep field with n <= 8 and any number of rows, so
    dependent rows, zero columns, k = 0 and k = n all occur."""
    q = draw(st.sampled_from(sorted(SWEEP_FIELDS)))
    n = draw(st.integers(1, 8))
    row = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    rows = draw(st.lists(row, max_size=n + 1))
    return LinearCode(field_new(*SWEEP_FIELDS[q]), n, rows)


def test_verify_all_random_codes(monkeypatch):
    """No check FAILs or raises on random small codes; only the up-front
    subcode guard may refuse a code.  The sweep must reach both paths of
    the extension OR-power and the rank sweep over every field."""
    reached = Counter()
    or_power, dense = code_module.or_power, code_module._or_power_dense
    sweep = enumerators._vanishing_dims

    def spy(name, fn, key):
        def call(*args):
            reached[name, key(*args)] += 1
            return fn(*args)

        return call

    monkeypatch.setattr(enumerators, "or_power", spy("power", or_power, lambda h, n, m: m > 1))
    monkeypatch.setattr(code_module, "_or_power_dense", spy("dense", dense, lambda h, n, m: True))
    monkeypatch.setattr(enumerators, "_vanishing_dims", spy("sweep", sweep, lambda c: c.spec.q))

    @settings(derandomize=True, database=None, max_examples=700, deadline=None)
    @given(random_codes(), st.integers(0, 3), st.integers(0, 3), st.integers(1, 2),
           st.integers(0, 99))
    def check(c, r_max, t_max, m_max, seed):
        caps = dict(r_max=r_max, t_max=t_max, m_max=m_max, seed=seed, **SWEEP_GUARDS)
        ranks = range(min(r_max, c.k) + 1)
        if any(subcode_count(c, r) > SWEEP_GUARDS["max_subcodes"] for r in ranks):
            with pytest.raises(TooLarge):
                verify_all(c, **caps)
            return
        lines, ok = verify_all(c, **caps)
        assert ok, (c.gen, [line for line in lines if line.startswith("FAIL")])

    check()
    assert reached["dense", True]  # subset sums
    assert reached["power", True] > reached["dense", True]  # and pair loops
    assert {q for name, q in reached if name == "sweep"} == set(SWEEP_FIELDS)


def test_verify_all_deterministic_lines():
    a, _ = verify_all(ex44(), seed=5)
    b, _ = verify_all(ex44(), seed=5)
    assert a == b
    c, _ = verify_all(ex44(), seed=6)
    assert c != a  # different reference-set samples


def test_worker_count_is_clamped_to_items_and_cpus(monkeypatch):
    assert 1 <= worker_count(4, 10) <= 4

    def cpus(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)

    cpus(2)
    assert worker_count(2, 131) == 2
    assert worker_count(10 ** 6, 131) == 2
    cpus(16)
    assert worker_count(8, 3) == 3
    cpus(4)
    assert worker_count(0, 5) == 1
    assert worker_count(-3, 5) == 1


def test_verify_all_same_lines_for_any_jobs():
    code = hamming74()
    one, _ = verify_all(code, r_max=1, m_max=1, t_max=1, seed=2, jobs=1)
    many, _ = verify_all(code, r_max=1, m_max=1, t_max=1, seed=2, jobs=10 ** 6)
    assert one == many


def test_worker_count_defaults_to_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert worker_count(4, 10) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert worker_count(4, 10) == 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert worker_count(4, 10) == 4


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_verify_all_same_lines_with_more_processes_than_cpus(monkeypatch, time_limit):
    code = ex44()
    one, _ = verify_all(code, r_max=2, m_max=2, t_max=2, seed=4, jobs=1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    many, _ = verify_all(code, r_max=2, m_max=2, t_max=2, seed=4, jobs=8)
    assert one == many
    _no_child_left()


@two_cpus
def test_parallel_verify_runs_each_kind_in_one_process(monkeypatch, time_limit):
    def pid_item(code, kind, params, guards):
        if kind == "dual_involution":
            time.sleep(0.5)  # holds one process while the other claims the rest
        return True, str(os.getpid())

    monkeypatch.setattr(verify, "run_item", pid_item)
    caps = dict(r_max=1, m_max=1, t_max=1, seed=2)
    lines, ok = verify_all(hamming74(), jobs=2, **caps)
    assert ok
    kind_of = {label: kind for label, kind, _ in build_items(hamming74(), **caps)}
    pids: dict[str, set[str]] = {}
    for line in lines[:-1]:
        label, pid = line.removeprefix("PASS ").rsplit(": ", 1)
        pids.setdefault(kind_of[label], set()).add(pid)
    assert set(pids) == set(kind_of.values())
    assert all(len(p) == 1 for p in pids.values()), pids
    assert len(set().union(*pids.values())) == 2


@two_cpus
def test_parallel_verify_raises_when_a_route_raises(monkeypatch, time_limit):
    def divide(code, guards, *params):
        return 1 // 0, None

    monkeypatch.setitem(verify.CHECKS, "mass", verify.CHECKS["mass"]._replace(routes=divide))
    with pytest.raises((ZeroDivisionError, RuntimeError)):
        verify_all(hamming74(), r_max=1, m_max=1, t_max=1, seed=2, jobs=2)
    _no_child_left()


@two_cpus
def test_parallel_verify_raises_when_the_parent_share_raises(monkeypatch, time_limit):
    parent = os.getpid()

    def divide(code, kind, params, guards):
        if os.getpid() != parent:
            time.sleep(60)  # still running when the parent fails: it must be killed
        return 1 // 0, ""

    monkeypatch.setattr(verify, "run_item", divide)
    with pytest.raises(ZeroDivisionError):
        verify_all(hamming74(), r_max=1, m_max=1, t_max=1, seed=2, jobs=2)
    _no_child_left()


@two_cpus
@pytest.mark.parametrize("failure", ["raise", "exit"])
def test_parallel_verify_raises_when_a_child_fails(monkeypatch, time_limit, failure):
    parent = os.getpid()

    def child_fails(code, kind, params, guards):
        if os.getpid() == parent:
            time.sleep(0.01)
            return True, ""
        if failure == "exit":
            os._exit(3)
        raise ZeroDivisionError

    monkeypatch.setattr(verify, "run_item", child_fails)
    with pytest.raises(RuntimeError, match="ZeroDivisionError" if failure == "raise" else "status 3"):
        verify_all(hamming74(), r_max=1, m_max=1, t_max=1, seed=2, jobs=2)
    _no_child_left()


def test_verify_all_same_lines_when_a_shared_input_trips_a_limit(monkeypatch, time_limit):
    # n = 21 is over the sweep cap, and the [21, 19] dual has 2^19 - 1 > 1000
    # subcodes of rank 1 while the code itself has 3: the caller's build
    # before the fork must leave both to the items
    code = LinearCode(field_new(2), 21, [[1] * 11 + [0] * 10, [0] * 5 + [1] * 16])
    caps = dict(r_max=2, m_max=2, t_max=1, seed=3, max_subcodes=1000)
    one, _ = verify_all(code, jobs=1, **caps)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    two, _ = verify_all(code, jobs=2, **caps)
    assert one == two
    assert any(line.startswith("SKIP hjac-via-dims ") and "sweep needs n <= 20" in line
               for line in one)
    assert any(line.startswith("SKIP mw-ejac m=1 ") and "subcodes exceed the guard" in line
               for line in one)
    _no_child_left()


@two_cpus
def test_only_a_forked_worker_freezes_the_collector(monkeypatch, time_limit):
    parent = os.getpid()

    def frozen_item(code, kind, params, guards):
        if kind == "dual_involution":
            time.sleep(0.5)  # holds one process while the other claims the rest
        return True, f"{os.getpid() != parent} {gc.get_freeze_count() > 0}"

    monkeypatch.setattr(verify, "run_item", frozen_item)
    lines, ok = verify_all(hamming74(), r_max=1, m_max=1, t_max=1, seed=2, jobs=2)
    assert {line.rsplit(": ", 1)[1] for line in lines[:-1]} == {"True True", "False False"}
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("code, transposes", [(hamming74, 7), (c12, 23)])
@pytest.mark.parametrize("jobs", [1, 2])
def test_each_lambda_kernel_is_built_once_per_run(monkeypatch, time_limit, code, transposes, jobs):
    # the prebuild takes each rank's kernel at its largest t, so no item
    # transposes a multiplicity class of a shell again at a deeper t
    code = code()
    real = designs._incidence
    calls = []  # a forked child appends to its own copy

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(designs, "_incidence", spy)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    lines, ok = verify_all(code, r_max=2, m_max=2, t_max=2, seed=1, jobs=jobs)
    assert ok, [line for line in lines if line.startswith("FAIL")]
    classes = sum(
        len(set(shell.counts.values()))
        for r in range(3)
        for shell in designs.support_shells(code, r).values()
    )
    assert len(calls) == classes == transposes
    _no_child_left()


@pytest.mark.parametrize(
    "code, caps",
    [
        (hamming74, dict(r_max=2, t_max=2, m_max=2)),
        (c12, dict(r_max=2, t_max=2, m_max=2)),
        (tgolay12, dict(r_max=1, t_max=1, m_max=2)),
    ],
)
def test_prebuild_holds_every_input_two_kinds_read(monkeypatch, code, caps):
    """Every run-memo key and every cached enumeration that two or more
    kinds read is built before the items run; otherwise each process of a
    parallel run that claims one of those kinds would build it again."""
    readers: dict[tuple, set[str]] = {}
    phase = ["prebuild"]

    def record(fn):
        def call(*args):
            readers.setdefault((fn, *args), set()).add(phase[0])
            return fn(*args)

        return call

    shared = record(designs._shared)
    for module in (designs, harmonic, verify):
        monkeypatch.setattr(module, "_shared", shared)
    for name, fn in vars(enumerators).copy().items():
        if hasattr(fn, "cache_info"):  # the code's cached enumerations
            monkeypatch.setattr(enumerators, name, record(fn))
            if getattr(verify, name, None) is fn:
                monkeypatch.setattr(verify, name, getattr(enumerators, name))
    run_one = verify._run_one

    def claimed(code, kind, params, guards):
        phase[0] = kind
        return run_one(code, kind, params, guards)

    monkeypatch.setattr(verify, "_run_one", claimed)
    lines, ok = verify_all(code(), seed=1, jobs=1, **caps)
    assert ok, [line for line in lines if line.startswith("FAIL")]
    shared_reads = {key: kinds for key, kinds in readers.items() if len(kinds - {"prebuild"}) > 1}
    assert shared_reads  # the spies see what the kinds share
    assert {key: kinds for key, kinds in shared_reads.items() if "prebuild" not in kinds} == {}
