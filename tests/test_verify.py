import random
import re
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import HAMMING74_TEXT, c12, ex44, hamming74, random_code, render_code, tgolay12
from jacobiforge import LinearCode, cli, designs, enumerators, field_new, verify
from jacobiforge import verify_all
from jacobiforge import code as code_module
from jacobiforge.code import subcode_count


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
# guards that keep each code to milliseconds: each turns the items over it
# into SKIPs
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
    """No check FAILs or raises on random small codes, the items of each
    rank over the subcode guard SKIP, and every SKIP states its reason.
    The sweep must reach both paths of the extension OR-power and the rank
    sweep over every field."""
    reached = Counter()
    over_guard = []  # the item lines at a rank over the subcode guard
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
        lines, ok = verify_all(c, **caps)
        assert ok, (c.gen, [line for line in lines if line.startswith("FAIL")])
        for line in lines[:-1]:
            assert not line.startswith("SKIP ") or re.match(r"SKIP [^:]+: \S", line), line
            rank = re.search(r" r=(\d+)", line)
            if rank and subcode_count(c, int(rank[1])) > SWEEP_GUARDS["max_subcodes"]:
                over_guard.append(line)
                assert line.startswith("SKIP ") and "subcodes exceed the guard" in line, line

    check()
    assert reached["dense", True]  # subset sums
    assert reached["power", True] > reached["dense", True]  # and pair loops
    assert {q for name, q in reached if name == "sweep"} == set(SWEEP_FIELDS)
    assert over_guard


def test_the_summary_line_counts_the_skips():
    # a failed design hypothesis makes a SKIP, |T| > n/2 does not, t > n
    # makes no item, and the last line counts the SKIPs next to "all checks
    # passed"
    lines, ok = verify_all(hamming74(), r_max=1, m_max=1, t_max=8, seed=0)
    assert ok
    assert sum(line.startswith("SKIP ") for line in lines) == 2
    assert lines[-1] == "verify: all checks passed (212 items, 2 skipped, seed=0)"
    assert not any(" t=8" in line for line in lines)


def test_an_extension_over_the_word_guard_is_a_skip_that_names_the_count():
    lines, ok = verify_all(hamming74(), r_max=1, m_max=2, t_max=1, seed=0, max_words=255)
    assert ok
    skips = [line for line in lines if line.startswith("SKIP ")]
    assert len(skips) == 3
    for line in skips:
        assert line.startswith("SKIP ejac-direct m=2 T=")
        assert line.endswith(": guard exceeded: 2^8 extension words exceed the guard")


def test_verify_all_deterministic_lines():
    a, _ = verify_all(ex44(), seed=5)
    b, _ = verify_all(ex44(), seed=5)
    assert a == b
    c, _ = verify_all(ex44(), seed=6)
    assert c != a  # different reference-set samples


def test_verify_all_same_lines_for_any_jobs(tmp_path, capsys):
    # --jobs is accepted and changes nothing: the CLI prints verify_all's lines
    path = tmp_path / "ham.txt"
    path.write_text(HAMMING74_TEXT)
    lines, _ = verify_all(hamming74(), r_max=1, m_max=1, t_max=1, seed=2)
    argv = ["verify", "--code", str(path), "-r", "1", "-m", "1", "-t", "1", "--seed", "2"]
    for jobs in ("1", str(10 ** 6)):
        assert cli.main(argv + ["--jobs", jobs]) == 0
        assert capsys.readouterr().out.splitlines() == lines


def test_verify_raises_when_a_route_raises(monkeypatch):
    def divide(code, guards, *params):
        return 1 // 0, None

    monkeypatch.setitem(verify.CHECKS, "mass", verify.CHECKS["mass"]._replace(routes=divide))
    with pytest.raises(ZeroDivisionError):
        verify_all(hamming74(), r_max=1, m_max=1, t_max=1, seed=2)


def test_verify_all_skips_when_a_shared_input_trips_a_limit():
    # n = 21 is over the sweep cap, and the [21, 19] dual has 2^19 - 1 > 1000
    # subcodes of rank 1 while the code itself has 3: the items that read
    # them report the SKIP
    code = LinearCode(field_new(2), 21, [[1] * 11 + [0] * 10, [0] * 5 + [1] * 16])
    lines, _ = verify_all(code, r_max=2, m_max=2, t_max=1, seed=3, max_subcodes=1000)
    assert any(line.startswith("SKIP hjac-via-dims ") and "sweep needs n <= 20" in line
               for line in lines)
    assert any(line.startswith("SKIP mw-ejac m=1 ") and "subcodes exceed the guard" in line
               for line in lines)


@pytest.mark.parametrize("code, transposes", [(hamming74, 7), (c12, 23)])
@pytest.mark.parametrize("jobs", [1, 2])
def test_each_lambda_kernel_is_built_once_per_run(
    monkeypatch, tmp_path, capsys, code, transposes, jobs
):
    # a shell keeps the incidences of its first transpose, and a deeper t
    # walks them again, so no item transposes a multiplicity class of a
    # shell twice, whatever -t and --jobs say
    code = code()
    path = tmp_path / "code.txt"
    path.write_text(render_code(code))
    real = designs._incidence
    calls = []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(designs, "_incidence", spy)
    classes = sum(
        len(set(shell.counts.values()))
        for r in range(3)
        for shell in designs.support_shells(code, r).values()
    )
    assert classes == transposes
    for t in ("0", "1", "2"):
        calls.clear()
        argv = ["verify", "--code", str(path), "-r", "2", "-m", "2", "-t", t, "--seed", "1"]
        status = cli.main(argv + ["--jobs", str(jobs)])
        lines = capsys.readouterr().out.splitlines()
        assert status == 0, [line for line in lines if line.startswith("FAIL")]
        assert len(calls) == transposes, t


def test_no_kernel_is_built_past_the_subcode_guard(monkeypatch, tmp_path, capsys):
    # the guard case of the test above: at --max-subcodes 100 on C12 the
    # kernels of ranks 0 and 1 (1 and 63 subcodes) are each built once, and
    # rank 2 (651 subcodes) is never enumerated, so its items SKIP
    code = c12()
    path = tmp_path / "c12.txt"
    path.write_text(render_code(code))
    real_incidence, real_supports = designs._incidence, enumerators._subcode_supports
    transposes, ranks = [], Counter()

    def incidence(*args):
        transposes.append(args)
        return real_incidence(*args)

    def supports(code_, r):
        ranks[r] += 1
        return real_supports(code_, r)

    monkeypatch.setattr(designs, "_incidence", incidence)
    monkeypatch.setattr(enumerators, "_subcode_supports", supports)
    argv = ["verify", "--code", str(path), "-r", "2", "-m", "2", "-t", "2", "--seed", "1"]
    assert cli.main(argv + ["--max-subcodes", "100"]) == 0
    lines = capsys.readouterr().out.splitlines()
    classes = sum(
        len(set(shell.counts.values()))
        for r in range(2)
        for shell in designs.support_shells(code, r).values()
    )
    assert len(transposes) == classes
    assert ranks[2] == 0 and ranks[1] > 0
    assert any(line.startswith("SKIP delsarte r=2 ") for line in lines)


def test_each_verdict_enumerator_and_grouping_is_built_once_per_run(monkeypatch):
    # one run on C12: design-equiv and polarize read the same verdicts of
    # each (r, t), polarize and mw-hweight the same rank-r weight
    # enumerators, and each shell groups its masks once for both transposes
    code = c12()
    judged, enums, groupings = Counter(), Counter(), Counter()
    real_design, real_enum = designs.is_t_design, designs.higher_weight_enum
    real_grouped = designs.BlockMultiset._grouped

    def design(shell, s):
        judged[id(shell), s] += 1
        return real_design(shell, s)

    def enum(code_, r, guard):
        enums[code_ is code, r] += 1
        return real_enum(code_, r, guard)

    def grouped(shell):
        groupings[id(shell)] += shell._groups is None
        return real_grouped(shell)

    monkeypatch.setattr(designs, "is_t_design", design)
    monkeypatch.setattr(designs, "higher_weight_enum", enum)
    monkeypatch.setattr(verify, "higher_weight_enum", enum)
    monkeypatch.setattr(designs.BlockMultiset, "_grouped", grouped)
    lines, ok = verify_all(code, r_max=2, m_max=2, t_max=2, seed=1)
    assert ok, [line for line in lines if line.startswith("FAIL")]
    shells = [len(designs.support_shells(code, r)) for r in range(3)]
    # one verdict per shell and t; only strength 0 repeats, on the
    # weight-0 shell of rank 0, which every t judges at min(t, 0, n - t)
    assert sum(judged.values()) == 3 * sum(shells)
    assert {key: count for key, count in judged.items() if count > 1 and key[1]} == {}
    assert enums == {(True, r): 1 for r in range(3)} | {(False, r): 1 for r in range(3)}
    assert len(groupings) == sum(shells) and set(groupings.values()) == {1}


def test_a_single_item_over_the_guard_is_a_skip():
    # the rank-128 subcode count of [256,256]_2 has 4933 digits: the SKIP
    # names the rank and the guard instead
    code = LinearCode(field_new(2), 256, [[int(i == j) for j in range(256)] for i in range(256)])
    assert verify.run_item(code, "mass", (128,), (10 ** 7, 1 << 24)) == (
        None,
        "guard exceeded: rank-128 subcodes exceed the guard 10000000",
    )


def _hashable(arg):
    if isinstance(arg, dict):
        return tuple(sorted(arg.items()))
    return tuple(arg) if isinstance(arg, list) else arg


@pytest.mark.parametrize(
    "code, caps, builds",
    [
        (hamming74, dict(r_max=2, t_max=2, m_max=2), 12),
        (c12, dict(r_max=2, t_max=2, m_max=2), 12),
        (tgolay12, dict(r_max=1, t_max=1, m_max=2), 7),
    ],
)
def test_each_expensive_input_is_built_once_per_run(monkeypatch, code, caps, builds):
    """In one run the subcode histograms, the extension OR-powers, the
    monic masks and the duals are each built once per argument tuple: the
    lru caches of ``enumerators`` and the run memo share each of them
    among every item that reads it."""
    for fn in vars(enumerators).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()  # a hit left by an earlier test would hide a build
    built = Counter()

    def spy(name, fn):
        def build(*args):
            built[(name, *map(_hashable, args))] += 1
            return fn(*args)

        return build

    for name in ("subcode_histogram", "or_power", "monic_masks"):
        monkeypatch.setattr(enumerators, name, spy(name, getattr(enumerators, name)))
    monkeypatch.setattr(LinearCode, "dual", spy("dual", LinearCode.dual))
    lines, ok = verify_all(code(), seed=1, **caps)
    assert ok, [line for line in lines if line.startswith("FAIL")]
    assert {key: count for key, count in built.items() if count > 1} == {}
    assert sum(built.values()) == builds


def listed_tsets(n, t_max, seed):
    """The reference sets drawn by position from the list of all t-subsets:
    the oracle for ``verify._sample_tsets``, which lists none of them."""
    rng = random.Random(seed)
    out = []
    for t in range(t_max + 1):
        chosen = {tuple(range(1, t + 1))}
        universe = list(combinations(range(1, n + 1), t))
        while len(chosen) < min(verify._SAMPLES_PER_SIZE, len(universe)):
            chosen.add(universe[rng.randrange(len(universe))])
        out.extend(sorted(chosen))
    return out


@pytest.mark.parametrize("seed", range(5))
def test_sampled_tsets_are_the_ones_drawn_from_the_list(seed):
    for n in range(13):
        assert verify._sample_tsets(n, n, seed) == listed_tsets(n, n, seed), n


def test_sampling_tsets_lists_no_subsets():
    # C(22, 11) = 705,432 subsets: listing them peaks near 200 MB
    tracemalloc.start()
    try:
        tsets = verify._sample_tsets(22, 11, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20
    assert [len(T) for T in tsets] == [0] + [t for t in range(1, 12) for _ in range(2)]
    wide = verify._sample_tsets(40, 20, 3)  # C(40, 20) is about 1.4e11
    assert all(len(set(T)) == len(T) and set(T) <= set(range(1, 41)) for T in wide)
