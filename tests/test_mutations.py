"""Each identity check must be able to fail: corrupt one route and the
check that compares it with an independent route must report it."""

import inspect
import os
from collections import Counter
from fractions import Fraction

import pytest

from helpers import EX44_TEXT, HAMMING74_TEXT, block_multiset, ex44, golay24, hamming74
from jacobiforge import BiHomPoly, BlockMultiset, delsarte_design_check, is_t_design, verify_all
from jacobiforge import bipoly, cli, code, designs, enumerators, harmonic, transforms, verify
from jacobiforge.designs import support_shells
from jacobiforge.errors import SingularMatrix
from jacobiforge.verify import CHECKS, build_items


def bumped(fn):
    """fn with one more count at its first key, cache untouched."""

    def corrupt(*args):
        hist = Counter(fn(*args))
        hist[next(iter(hist))] += 1
        return hist

    return corrupt


def failing_labels(lines):
    return [line for line in lines if line.startswith("FAIL ")]


def plus_one_at_origin(table):
    """table with one more count in grid entry (0, 0)."""
    grid = [list(row) for row in table.grid]
    grid[0][0] += 1
    return table._replace(grid=tuple(map(tuple, grid)))


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


def test_no_table_outlives_its_run(monkeypatch):
    # a clean run, then one that raises after the memo is filled: neither
    # may leave a table behind for the corrupted run that follows
    lines, ok = verify_all(hamming74(), r_max=1, m_max=1, t_max=1, seed=1)
    assert ok, failing_labels(lines)

    def raises(code_, guards, *params):
        raise ZeroDivisionError

    with monkeypatch.context() as patch:
        patch.setitem(CHECKS, "punctured", CHECKS["punctured"]._replace(routes=raises))
        with pytest.raises(ZeroDivisionError):
            verify_all(hamming74(), r_max=1, m_max=1, t_max=1, seed=1)
    monkeypatch.setattr(
        enumerators, "_subcode_supports", bumped(enumerators._subcode_supports)
    )
    lines, ok = verify_all(hamming74(), r_max=1, m_max=1, t_max=1, seed=1)
    assert not ok
    fails = failing_labels(lines)
    assert any(line.startswith("FAIL hjac-via-dims r=1 ") for line in fails), fails


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
    monkeypatch.setattr(
        enumerators, "extended_jacobi_via_q", lambda *args: plus_one_at_origin(real(*args))
    )
    lines, ok = verify_all(hamming74(), r_max=2, m_max=1, t_max=0, seed=1)
    assert not ok
    # [2]_2 = 6 does not divide the alternating sum 2 - 3*2 + 1*2 = -2
    want = "FAIL hjac-from-ext r=2 T={}: non-integer result: entry (0,0) = -1/3 is not an integer"
    assert want in lines, failing_labels(lines)


def test_fractional_fold_is_a_non_integer_fail(monkeypatch):
    real = transforms._fold

    def corrupt(polys, ctx):
        poly = real(polys, ctx)
        coeff = [list(row) for row in poly.coeff]
        coeff[0][0] += Fraction(1, 2)
        return BiHomPoly(poly.deg_wz, poly.deg_xy, coeff)

    monkeypatch.setattr(transforms, "_fold", corrupt)
    lines, ok = verify_all(hamming74(), r_max=1, m_max=1, t_max=1, seed=1)
    assert not ok
    want = "FAIL mw-hweight r=1: non-integer result: entry (0,0) = 1/2 is not an integer"
    assert want in lines, failing_labels(lines)


def solve_then(change):
    """harmonic.apply_inverse, the per-weight solve of recover_jacobi, with
    change applied to the last count of each solve (the cached inverses
    are untouched, so no cache needs clearing)."""
    real = harmonic.apply_inverse

    def corrupt(*args):
        solution = real(*args)
        solution[-1] = change(solution[-1])
        return solution

    return corrupt


def test_fractional_recovered_count_is_a_non_integer_fail(monkeypatch):
    monkeypatch.setattr(harmonic, "apply_inverse", solve_then(lambda x: x + Fraction(1, 2)))
    lines, ok = verify_all(hamming74(), r_max=1, m_max=1, t_max=1, seed=1)
    assert not ok
    want = "FAIL recover r=1 T={1}: non-integer result: entry (0,0) = 1/2 is not an integer"
    assert want in lines, failing_labels(lines)


def test_wrong_recovered_count_fails_recover(monkeypatch):
    monkeypatch.setattr(harmonic, "apply_inverse", solve_then(lambda x: x + 1))
    lines, ok = verify_all(hamming74(), r_max=1, m_max=1, t_max=1, seed=1)
    assert not ok
    want = "FAIL recover r=1 T={1}: first difference at (i=0, j=0): 1 vs 0"
    assert want in lines, failing_labels(lines)


def test_complement_without_the_transpose_fails_recover(monkeypatch):
    # recover_jacobi with its |T| > n/2 branch returning the table at [n] - T
    # untransposed: every recover item past n/2, and only those, FAILs
    source = inspect.getsource(harmonic.recover_jacobi)
    transpose = "grid=tuple(zip(*table.grid))"
    assert source.count(transpose) == 1
    namespace = dict(vars(harmonic))
    exec(source.replace(transpose, "grid=table.grid"), namespace)
    monkeypatch.setattr(verify, "recover_jacobi", namespace["recover_jacobi"])
    lines, ok = verify_all(hamming74(), r_max=1, m_max=1, t_max=4, seed=1)
    assert not ok
    fails = failing_labels(lines)
    assert len(fails) == 4, fails  # two 4-sets, ranks 0 and 1
    labels = [line.split(":")[0] for line in fails]
    assert all(label.startswith("FAIL recover r=") and label.count(",") == 3 for label in labels)


@pytest.fixture
def fresh_recovery_systems():
    """No recovery system built from a corrupted route outlives the test."""
    harmonic._recovery_systems.cache_clear()
    yield
    harmonic._recovery_systems.cache_clear()


def test_corrupted_hahn_kernel_row_fails_recover(monkeypatch, fresh_recovery_systems):
    # h_{1,1}(3, 0) on n = 7 is one coefficient of the weight-3 system; the
    # right-hand side reads h_{d,t}(d, j) only, so it cannot follow the change
    real = harmonic.h_dt

    def corrupt(n, t, d, ell, i):
        return real(n, t, d, ell, i) + ((t, d, ell, i) == (1, 1, 3, 0))

    monkeypatch.setattr(harmonic, "h_dt", corrupt)
    lines, ok = verify_all(hamming74(), r_max=1, m_max=1, t_max=1, seed=1)
    assert not ok
    fails = failing_labels(lines)
    assert fails and all(line.startswith("FAIL recover r=1 ") for line in fails), fails


def test_singular_recovery_system_fails_alike_for_any_jobs(
    monkeypatch, tmp_path, capsys, fresh_recovery_systems
):
    def singular(rows):
        raise SingularMatrix("no pivot in column 1")

    monkeypatch.setattr(harmonic, "rat_inverse", singular)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    path = tmp_path / "ham.txt"
    path.write_text(HAMMING74_TEXT)
    runs = []
    for jobs in ("1", "2"):
        argv = ["verify", "--code", str(path), "-r", "1", "-t", "1", "-m", "1", "--jobs", jobs]
        status = cli.main(argv)
        runs.append((status, *capsys.readouterr()))
    assert runs[0] == runs[1]
    status, out, err = runs[0]
    assert (status, err) == (1, "")
    fails = failing_labels(out.splitlines())
    assert "FAIL recover r=1 T={1}: singular system: no pivot in column 1" in fails, fails
    assert all(line.startswith("FAIL recover ") for line in fails), fails


def test_flipped_incidence_bit_fails_design_equiv_and_delsarte(monkeypatch):
    # the lambda kernel reads one block's membership of point 1 wrongly;
    # is_t_design builds its own incidence, so the two sides now disagree
    real = designs._incidence

    def flipped(*args):
        incidence = real(*args)
        incidence[0] ^= 1
        return incidence

    monkeypatch.setattr(designs, "_incidence", flipped)
    lines, ok = verify_all(hamming74(), r_max=1, m_max=1, t_max=1, seed=1)
    assert not ok
    fails = failing_labels(lines)
    for label in ("design-equiv r=1 t=1", "delsarte r=1 t=1"):
        assert any(line.startswith("FAIL " + label) for line in fails), (label, fails)


def test_a_grouping_that_drops_a_block_fails_against_the_split_counts(monkeypatch):
    # both transposes read the one grouping of a shell, so design-equiv
    # cannot see a block missing from it; the items that compare the lambda
    # kernel with the split counts must
    real = designs.BlockMultiset._grouped

    def dropped(shell):
        width, groups = real(shell)
        mult = next(iter(groups))
        return width, {**groups, mult: groups[mult][width:]}

    monkeypatch.setattr(designs.BlockMultiset, "_grouped", dropped)
    lines, ok = verify_all(hamming74(), r_max=1, m_max=1, t_max=1, seed=1)
    assert not ok
    fails = failing_labels(lines)
    for label in ("punctured-split r=1 ", "recover r=1 "):
        assert any(line.startswith("FAIL " + label) for line in fails), (label, fails)


def test_flipped_moebius_sign_fails_polarize(monkeypatch):
    real = designs._mobius_row

    def flipped(size):
        row = real(size)
        if size == 1:
            row[0] = -row[0]  # N(T, 0) = lambda({}) + lambda({i})
        return row

    monkeypatch.setattr(designs, "_mobius_row", flipped)
    lines, ok = verify_all(hamming74(), r_max=1, m_max=1, t_max=1, seed=1)
    assert not ok
    fails = failing_labels(lines)
    # every table is wrong in the same way, so only polarize sees it: the
    # tables still vary with T exactly when lambda does
    assert any(line.startswith("FAIL polarize r=1 t=1") for line in fails), fails


def test_short_nullspace_fails_the_dual_checks(monkeypatch):
    real = code.nullspace
    monkeypatch.setattr(code, "nullspace", lambda *args: real(*args)[:-1])
    lines, ok = verify_all(hamming74(), r_max=1, m_max=1, t_max=1, seed=1)
    assert not ok
    fails = failing_labels(lines)
    for label in ("dual-involution", "mw-hweight r=1", "mw-hjac r=1 ", "mw-ejac m=1 "):
        assert any(line.startswith("FAIL " + label) for line in fails), (label, fails)


def test_golay_shell_missing_one_block_is_not_a_5_design():
    shell = support_shells(golay24(), 1)[8]
    counts = Counter(shell.counts)
    counts[next(iter(counts))] -= 1
    damaged = BlockMultiset(shell.n, +counts)
    assert is_t_design(damaged, 5).is_design is False
    assert delsarte_design_check(damaged, 5) is False


def test_delsarte_fails_above_degree_one():
    # every point lies on two blocks, but the pairs {1,4} and {2,3} on none
    blocks = block_multiset(4, [{1, 2}, {3, 4}, {1, 3}, {2, 4}])
    assert is_t_design(blocks, 1).is_design is True
    assert delsarte_design_check(blocks, 1) is True
    assert is_t_design(blocks, 2).is_design is False
    assert delsarte_design_check(blocks, 2) is False


def doubled(fn):
    return lambda *args: fn(*args).scale(2)


def each_doubled(fn):
    """fn returning {key: polynomial}, with every polynomial doubled."""
    return lambda *args: {key: poly.scale(2) for key, poly in fn(*args).items()}


# kind -> (route name the table reads in verify, its corruption, an item label
# that must then FAIL)
CORRUPTIONS = {
    "mass": ("gauss_binom", lambda fn: lambda *args: fn(*args) + 1, "subcode-mass r=1"),
    "plain_vs_wenum": ("weight_enum", doubled, "plain-table-vs-weight-enum"),
    "design_equiv": (
        "t_independence_check",
        lambda fn: lambda *args: (not fn(*args)[0], None),
        "design-equiv r=1 t=1",
    ),
    "polarize": ("jacobi_by_polarization", doubled, "polarize r=1 t=1"),
    "delsarte": (
        "delsarte_design_check", lambda fn: lambda *args: not fn(*args), "delsarte r=1 t=1"
    ),
    # the lambda side; test_split_side_corruption_fails_punctured corrupts the other
    "punctured": ("kernel_tables", each_doubled, "punctured-split r=1 "),
}


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_corrupted_route_fails_its_check(monkeypatch, kind):
    name, corrupt, label = CORRUPTIONS[kind]
    monkeypatch.setattr(verify, name, corrupt(getattr(verify, name)))
    lines, ok = verify_all(hamming74(), r_max=1, m_max=1, t_max=1, seed=1)
    assert not ok
    fails = failing_labels(lines)
    assert any(line.startswith("FAIL " + label) for line in fails), fails


def test_split_side_corruption_fails_punctured(monkeypatch):
    # the other side of the punctured item: the directly enumerated table at {i}
    real = verify.higher_jacobi
    monkeypatch.setattr(verify, "higher_jacobi", lambda *args: plus_one_at_origin(real(*args)))
    lines, ok = verify_all(hamming74(), r_max=1, m_max=1, t_max=1, seed=1)
    assert not ok
    fails = failing_labels(lines)
    assert any(line.startswith("FAIL punctured-split r=1 ") for line in fails), fails


def test_mw_higher_jacobi_corruption_fails_verify_and_mw_check(monkeypatch, tmp_path, capsys):
    # transforms.mw_higher_jacobi, corrupted where the table reads it: verify
    # and mw-check both fail, so they share one definition of the identity
    real = transforms.mw_higher_jacobi
    monkeypatch.setattr(verify, "mw_higher_jacobi", lambda *args: plus_one_at_origin(real(*args)))
    lines, ok = verify_all(hamming74(), r_max=1, m_max=1, t_max=1, seed=1)
    assert not ok
    fails = failing_labels(lines)
    assert any(line.startswith("FAIL mw-hjac r=1 ") for line in fails), fails
    path = tmp_path / "ham.txt"
    path.write_text(HAMMING74_TEXT)
    argv = ["mw-check", "--code", str(path), "--kind", "hjac", "-r", "1", "-T", "3"]
    assert cli.main(argv) == 1
    assert "DIFFER at (i=0, j=0): " in capsys.readouterr().out


def test_mw_higher_weight_corruption_fails_mw_check(monkeypatch, tmp_path, capsys):
    # the hw transform is a polynomial, not a table: its DIFFER names no entry
    real = transforms.mw_higher_weight

    def plus_one_at_origin_poly(*args):
        poly = real(*args)
        coeff = [list(row) for row in poly.coeff]
        coeff[0][0] += 1
        return BiHomPoly(poly.deg_wz, poly.deg_xy, coeff)

    monkeypatch.setattr(verify, "mw_higher_weight", plus_one_at_origin_poly)
    path = tmp_path / "ham.txt"
    path.write_text(HAMMING74_TEXT)
    assert cli.main(["mw-check", "--code", str(path), "--kind", "hw", "-r", "1"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "DIFFER"


def test_reversed_table_rows_break_the_hjacobi_golden(monkeypatch, tmp_path, capsys):
    # the counted and the polynomial routes read their tables through one
    # table_from_bipoly, so their agreement cannot show a fault in it; the
    # golden table can
    path = tmp_path / "ex44.txt"
    path.write_text(EX44_TEXT)
    argv = ["hjacobi", "--code", str(path), "-r", "2", "-T", "1"]
    golden = "w*x*y^4 + 2*z*x^2*y^3 + 4*z*y^5\n"
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == golden
    real = enumerators.table_from_bipoly

    def reversed_rows(*args):
        table = real(*args)
        return table._replace(grid=table.grid[::-1])

    monkeypatch.setattr(enumerators, "table_from_bipoly", reversed_rows)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out != golden


# kinds whose failing mode an earlier test shows, by the test that shows it
SHOWN_ABOVE = {
    "dual_involution": test_short_nullspace_fails_the_dual_checks,
    "hjac_via_q": test_subcode_histogram_corruption_fails_hjac_via_dims,
    "hjac_from_ext": test_extension_grid_corruption_is_a_non_integer_fail,
    "ejac_via_q": test_grouped_dims_corruption_fails_via_dims,
    "ejac_direct": test_extension_histogram_corruption_fails_ejac_direct,
    "mw_hw": test_pair_matrix_corruption_fails_the_transforms,
    "mw_hjac": test_mw_higher_jacobi_corruption_fails_verify_and_mw_check,
    "mw_ejac": test_pair_matrix_corruption_fails_the_transforms,
    "recover": test_corrupted_hahn_kernel_row_fails_recover,
}


def test_every_check_kind_has_a_failing_mode():
    items = build_items(ex44(), 2, 2, 2, seed=0)
    prefix = {kind: label.split()[0] for label, kind, _ in items}
    assert set(CHECKS) == set(prefix)
    assert set(CORRUPTIONS) | set(SHOWN_ABOVE) == set(CHECKS)
    for kind, (_, _, label) in CORRUPTIONS.items():
        assert label.split()[0] == prefix[kind], kind
    for kind, test in SHOWN_ABOVE.items():
        assert prefix[kind] in inspect.getsource(test), kind
