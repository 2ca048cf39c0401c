"""Each identity check must be able to fail: corrupt one route and the
check that compares it with an independent route must report it."""

from collections import Counter
from dataclasses import replace

from helpers import golay24, hamming74
from jacobiforge import BlockMultiset, delsarte_design_check, is_t_design, verify_all
from jacobiforge import bipoly, enumerators
from jacobiforge.designs import support_shells


def bumped(fn):
    """fn with one more count at its first key, cache untouched."""

    def corrupt(*args):
        hist = Counter(fn(*args))
        hist[next(iter(hist))] += 1
        return hist

    return corrupt


def failing_labels(lines):
    return [line for line in lines if line.startswith("FAIL ")]


def test_extension_histogram_corruption_fails_ejac_direct(monkeypatch):
    monkeypatch.setattr(
        enumerators, "_extension_supports", bumped(enumerators._extension_supports)
    )
    lines, ok = verify_all(hamming74(), r_max=1, m_max=2, t_max=1, seed=1)
    assert not ok
    assert lines[-1].startswith("verify: IDENTITY VIOLATION FOUND")
    fails = failing_labels(lines)
    assert any(line.startswith("FAIL ejac-direct m=2 ") for line in fails), fails


def test_subcode_histogram_corruption_fails_hjac_via_dims(monkeypatch):
    monkeypatch.setattr(
        enumerators, "_subcode_supports", bumped(enumerators._subcode_supports)
    )
    lines, ok = verify_all(hamming74(), r_max=1, m_max=1, t_max=1, seed=1)
    assert not ok
    fails = failing_labels(lines)
    assert any(line.startswith("FAIL hjac-via-dims r=1 ") for line in fails), fails
    # a transform that no longer comes out integral is reported, not raised
    assert any(
        line.startswith("FAIL mw-hjac r=1 ") and "non-integer result" in line
        for line in fails
    ), fails


def test_pair_matrix_corruption_fails_the_transforms(monkeypatch):
    real = bipoly._pair_matrix

    def corrupt(m, deg):
        cols = [list(col) for col in real(m, deg)]
        cols[0][0] += 1
        return tuple(map(tuple, cols))

    monkeypatch.setattr(bipoly, "_pair_matrix", corrupt)
    lines, ok = verify_all(hamming74(), r_max=1, m_max=1, t_max=1, seed=1)
    assert not ok
    fails = failing_labels(lines)
    # a wrong expansion either differs or no longer comes out integral
    for label in ("mw-hjac r=1 ", "mw-ejac m=1 ", "mw-hweight r=1"):
        assert any(line.startswith("FAIL " + label) for line in fails), (label, fails)


def test_grouped_dims_corruption_fails_via_dims(monkeypatch):
    monkeypatch.setattr(
        enumerators, "_dims_by_split", bumped(enumerators._dims_by_split)
    )
    lines, ok = verify_all(hamming74(), r_max=1, m_max=1, t_max=1, seed=1)
    assert not ok
    fails = failing_labels(lines)
    for label in ("hjac-via-dims r=1 ", "ejac-via-dims m=1 "):
        assert any(line.startswith("FAIL " + label) for line in fails), (label, fails)


def test_extension_grid_corruption_is_a_non_integer_fail(monkeypatch):
    real = enumerators.extended_jacobi_via_q

    def corrupt(code, tset, m):
        table = real(code, tset, m)
        grid = [list(row) for row in table.grid]
        grid[0][0] += 1
        return replace(table, grid=tuple(map(tuple, grid)))

    monkeypatch.setattr(enumerators, "extended_jacobi_via_q", corrupt)
    lines, ok = verify_all(hamming74(), r_max=2, m_max=1, t_max=0, seed=1)
    assert not ok
    # [2]_2 = 6 does not divide the alternating sum 2 - 3*2 + 1*2 = -2
    want = "FAIL hjac-from-ext r=2 T={}: non-integer result: entry (0,0) = -1/3 is not an integer"
    assert want in lines, failing_labels(lines)


def test_golay_shell_missing_one_block_is_not_a_5_design():
    shell = support_shells(golay24(), 1)[8]
    damaged = BlockMultiset(shell.n, shell.blocks[1:])
    assert is_t_design(damaged, 5).is_design is False
    assert delsarte_design_check(damaged, 5) is False


def test_delsarte_fails_above_degree_one():
    # every point lies on two blocks, but the pairs {1,4} and {2,3} on none
    blocks = BlockMultiset(4, [{1, 2}, {3, 4}, {1, 3}, {2, 4}])
    assert is_t_design(blocks, 1).is_design is True
    assert delsarte_design_check(blocks, 1) is True
    assert is_t_design(blocks, 2).is_design is False
    assert delsarte_design_check(blocks, 2) is False
