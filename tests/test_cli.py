import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import C12_TEXT, EX44_TEXT, HAMMING74_TEXT, TGOLAY12_TEXT, hamming74
from jacobiforge import (
    HahnParams,
    JacobiTable,
    RefSet,
    cli,
    extended_jacobi,
    hahn_eval,
    harm_basis,
    harmonic,
    harmonic_higher_wenum,
    higher_jacobi,
    parse_code,
)
from jacobiforge.code import MAX_SUBCODES_DEFAULT
from jacobiforge.exactmath import format_rational

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, timeout=120):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "jacobiforge", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


@pytest.fixture()
def ex44_path(tmp_path):
    path = tmp_path / "ex44.txt"
    path.write_text(EX44_TEXT)
    return str(path)


@pytest.fixture()
def hamming_path(tmp_path):
    path = tmp_path / "ham.txt"
    path.write_text(HAMMING74_TEXT)
    return str(path)


def test_hjacobi_golden_output(ex44_path):
    res = run_cli("hjacobi", "--code", ex44_path, "-r", "2", "-T", "1")
    assert res.returncode == 0
    assert res.stdout.strip() == "w*x*y^4 + 2*z*x^2*y^3 + 4*z*y^5"


def test_rank_validation_exit_code(ex44_path):
    res = run_cli("hjacobi", "--code", ex44_path, "-r", "5", "-T", "1")
    assert res.returncode == 2
    assert "r exceeds dimension k=3" in res.stderr


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.txt"
    # a short row, an unknown header key, a repeated header key; and numbers that
    # int() reads but that are not ASCII decimal: underscores, an Arabic-Indic 1
    for text in ("q=2 n=3\n01\n", "q=2 n=3 x=7\n010\n", "q=3 q=2 n=3\n010\n",
                 "q=2_0 n=3\n010\n", "q=2 n=1_0\n0101010101\n", "q=11 n=2\n1_0 1\n",
                 "q=2 n=3\n\u066101\n"):
        bad.write_text(text, encoding="utf-8")
        res = run_cli("wenum", "--code", str(bad))
        assert res.returncode == 2, text
        assert "ParseError" in res.stderr, text


def test_a_matrix_file_that_is_not_utf8_is_a_usage_error(tmp_path):
    bad = tmp_path / "utf16.txt"
    bad.write_bytes("q=2 n=3\n010\n".encode("utf-16"))  # starts with the BOM ff fe
    res = run_cli("wenum", "--code", str(bad))
    assert res.returncode == 2
    assert res.stderr.startswith(f"error: cannot read {bad}: ")
    assert "Traceback" not in res.stderr


def test_wenum_and_hwenum(ex44_path):
    assert run_cli("wenum", "--code", ex44_path).stdout.strip() == (
        "x^6 + 3*x^4*y^2 + 3*x^2*y^4 + y^6"
    )
    assert run_cli("hwenum", "--code", ex44_path, "-r", "2").stdout.strip() == (
        "3*x^2*y^4 + 4*y^6"
    )


def test_json_roundtrip(ex44_path):
    res = run_cli("hjacobi", "--code", ex44_path, "-r", "1", "-T", "2,4", "--json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    table = JacobiTable.from_json_dict(data)
    code = parse_code(EX44_TEXT)
    assert table == higher_jacobi(code, RefSet.of(6, [2, 4]), 1)


def test_ejacobi(ex44_path):
    res = run_cli("ejacobi", "--code", ex44_path, "-m", "2", "-T", "")
    assert res.returncode == 0
    assert res.stdout.strip() == "x^6 + 9*x^4*y^2 + 27*x^2*y^4 + 27*y^6"


def test_jacobi_subcommand(ex44_path):
    res = run_cli("jacobi", "--code", ex44_path, "-T", "1")
    assert res.returncode == 0
    assert res.stdout.strip() == (
        "w*x^5 + 2*w*x^3*y^2 + w*x*y^4 + z*x^4*y + 2*z*x^2*y^3 + z*y^5"
    )


def test_guard_flag_exit_code(hamming_path):
    res = run_cli("hjacobi", "--code", hamming_path, "-r", "2", "-T", "1", "--max-subcodes", "5")
    assert res.returncode == 2
    assert "TooLarge" in res.stderr


@pytest.mark.parametrize(
    "argv",
    [
        "polarize -r 2 -t 1",
        "design-check -r 2 -t 1",
        "recover -r 2 -T 1",
        "mw-check --kind hjac -r 2 -T 1",
        "mw-check --kind hw -r 2",
        "mw-check --kind ejac -m 1 -T 1",
    ],
)
def test_the_subcode_guard_stops_each_command_that_shares_a_run(tmp_path, capsys, argv):
    # C12 has 63 rank-1 subcodes: the guard of 5 is hit before any output
    path = tmp_path / "c12.txt"
    path.write_text(C12_TEXT)
    command, *rest = argv.split()
    assert cli.main([command, "--code", str(path), "--max-subcodes", "5", *rest]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: TooLarge: "), err


def test_verify_past_the_subcode_guard_skips_the_ranks_over_it(tmp_path, capsys):
    # the same guard of 5 in verify: the run goes on, its rank-0 items PASS
    # and every item at a rank of 63 or 651 subcodes SKIPs with the reason
    path = tmp_path / "c12.txt"
    path.write_text(C12_TEXT)
    assert cli.main(["verify", "--code", str(path), "--max-subcodes", "5"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    ranked = [line for line in out.splitlines() if re.search(r" r=\d", line)]
    rank0 = [line for line in ranked if " r=0" in line]
    assert rank0 and all(line.startswith("PASS ") for line in rank0), rank0
    over = [line for line in ranked if line not in rank0]
    assert over and all(
        line.startswith("SKIP ") and ": guard exceeded: rank-" in line for line in over
    ), over
    assert out.splitlines()[-1].startswith("verify: all checks passed")


@pytest.mark.parametrize(
    "argv",
    [
        "hwenum -r 128",
        "hjacobi -r 128 -T 1",
        "design-check -r 128 -t 1",
        "recover -r 128 -T 1",
        "polarize -r 128 -t 1",
        "harm-wenum -r 128 -d 1",
    ],
)
def test_a_subcode_count_too_long_to_print_is_a_guard_error(tmp_path, capsys, argv):
    # the [256,256]_2 code has 4933 decimal digits' worth of rank-128
    # subcodes, more than Python writes an int with: the message names
    # the rank and the guard instead of the count
    path = tmp_path / "id256.txt"
    path.write_text("q=2 n=256\n" + "".join(f"{1 << i:0256b}\n" for i in range(256)))
    command, *rest = argv.split()
    assert cli.main([command, "--code", str(path), *rest]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: TooLarge: rank-128 subcodes exceed the guard {MAX_SUBCODES_DEFAULT}\n"


def test_mw_check_non_self_dual(hamming_path):
    res = run_cli("mw-check", "--code", hamming_path, "--kind", "hjac", "-r", "1", "-T", "3")
    assert res.returncode == 0
    assert "EQUAL" in res.stdout


def test_mw_check_equal(ex44_path):
    for kind, flag, val in (("hjac", "-r", "2"), ("ejac", "-m", "2"), ("hw", "-r", "1")):
        res = run_cli(
            "mw-check", "--code", ex44_path, "--kind", kind, flag, val, "-T", "1"
        )
        assert res.returncode == 0, res.stderr
        assert "EQUAL" in res.stdout


def test_design_check_output(ex44_path):
    res = run_cli("design-check", "--code", ex44_path, "-r", "1", "-t", "1")
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines == [
        "i=2: 1-design lambda=1",
        "i=4: 1-design lambda=2",
        "i=6: 1-design lambda=1",
    ]


def test_polarize_ok_and_hypothesis_failure(ex44_path):
    res = run_cli("polarize", "--code", ex44_path, "-r", "2", "-t", "1")
    assert res.returncode == 0
    assert res.stdout.strip() == "w*x*y^4 + 2*z*x^2*y^3 + 4*z*y^5"
    res = run_cli("polarize", "--code", ex44_path, "-r", "1", "-t", "2")
    assert res.returncode == 1
    assert "DesignHypothesisFails" in res.stdout


def test_polarize_refuses_a_shell_smaller_than_t(tmp_path):
    # the one weight-1 shell {2} x 2 is vacuously a raw 2-design, but not a
    # 1-design, so the table depends on T and polarizing cannot give it
    path = tmp_path / "one_word.txt"
    path.write_text("q=3 n=3\n010\n")
    res = run_cli("polarize", "--code", str(path), "-r", "1", "-t", "2")
    assert res.returncode == 1
    assert res.stdout.strip() == (
        "DesignHypothesisFails: support shells at weights [1] are not 1-designs"
    )
    res = run_cli("verify", "--code", str(path), "-r", "1", "-t", "2", "-m", "1")
    assert res.returncode == 0
    assert res.stdout.splitlines()[-1].startswith("verify: all checks passed")


def test_harm_wenum(ex44_path):
    res = run_cli("harm-wenum", "--code", ex44_path, "-r", "1", "-d", "1")
    assert res.returncode == 0
    assert res.stdout.strip() == "0"


def test_harm_wenum_above_half_n_names_the_cap(tmp_path):
    # n = 10, d = 6: the degree-6 harmonic space is {0}, so no basis index exists
    path = tmp_path / "n10.txt"
    path.write_text("q=2 n=10\n1100000000\n0011111111\n")
    res = run_cli("harm-wenum", "--code", str(path), "-r", "1", "-d", "6", timeout=10)
    assert res.returncode == 2
    assert res.stderr == (
        "error: harm-wenum needs d <= n/2 = 5: the degree-6 harmonic space is {0}\n"
    )


def test_harm_wenum_builds_only_the_function_it_prints(hamming_path, monkeypatch, capsys):
    # degree 2 on n = 7 has C(7, 2) - C(7, 1) = 14 basis functions: index 13
    # prints the sum of the last, and no whole basis is built for it
    want = harmonic_higher_wenum(hamming74(), harm_basis(7, 2)[13], 1).render()

    def whole_basis(n, d):
        raise AssertionError("harm-wenum built the whole basis")

    monkeypatch.setattr(harmonic, "harm_basis", whole_basis)
    argv = ["harm-wenum", "--code", hamming_path, "-r", "1", "-d", "2", "--basis-index"]
    assert cli.main(argv + ["13"]) == 0
    assert capsys.readouterr().out == want + "\n"
    assert cli.main(argv + ["14"]) == 2
    assert capsys.readouterr().err == "error: basis index outside 0..13 for degree 2\n"


def test_hahn_subcommand():
    res = run_cli("hahn", "-m", "1", "-x", "1", "--alpha", "-6", "--beta", "-2", "-N", "2")
    assert res.returncode == 0
    assert res.stdout.strip() == "-1/5"
    # a negative fraction after --alpha/--beta is a value, not an option
    spaced = run_cli("hahn", "-m", "1", "-x", "1", "--alpha", "-6", "--beta", "-3/4", "-N", "2")
    joined = run_cli("hahn", "-m", "1", "-x", "1", "--alpha", "-6", "--beta=-3/4", "-N", "2")
    assert spaced.returncode == joined.returncode == 0, spaced.stderr
    assert spaced.stdout == joined.stdout


def test_hahn_prints_an_exact_value_of_any_length(capsys):
    argv = ["hahn", "-m", "2900", "-x", "1500", "--alpha", "1/3", "--beta", "1/7", "-N", "100000"]
    limit = sys.get_int_max_str_digits()
    assert cli.main(argv) == 0
    out = capsys.readouterr().out.strip()
    # Python's int-to-str digit limit is lifted only while the value prints
    assert sys.get_int_max_str_digits() == limit
    value = hahn_eval(HahnParams(Fraction(1, 3), Fraction(1, 7), 100000, 2900), 1500)
    sys.set_int_max_str_digits(0)
    try:
        expected = format_rational(value)
    finally:
        sys.set_int_max_str_digits(limit)
    assert out == expected and len(out) > limit


@pytest.mark.parametrize(
    "argv",
    [["ejacobi", "-m", "5000", "-T", "1"], ["ejacobi", "-m", "5000", "-T", "1", "--json"],
     ["mw-check", "--kind", "ejac", "-m", "5000", "-T", "1"]],
    ids=["text", "json", "mw-check"],
)
def test_tables_print_exact_values_of_any_length(hamming_path, capsys, argv):
    # at m = 5000 the tables of the [7,4] code and of its dual have entries
    # of over 4,300 digits, more than Python writes in decimal by default
    limit = sys.get_int_max_str_digits()
    assert cli.main(argv + ["--code", hamming_path]) == 0
    out = capsys.readouterr().out
    assert sys.get_int_max_str_digits() == limit
    assert max(map(len, re.findall(r"[0-9]+", out))) > limit
    if argv[0] == "mw-check":
        assert out.splitlines()[-1] == "EQUAL"
        return
    table = extended_jacobi(parse_code(HAMMING74_TEXT), RefSet.of(7, [1]), 5000)
    sys.set_int_max_str_digits(0)
    try:
        if "--json" in argv:
            assert JacobiTable.from_json_dict(json.loads(out)) == table
        else:
            assert out == table.render() + "\n"
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("flag", ["--alpha", "--beta"])
@pytest.mark.parametrize("text", ["1e5", "2E-3", "1e10000000"])
def test_hahn_refuses_exponent_notation(flag, text):
    # README documents p/q; an exponent would first build 10**exponent
    args = {"--alpha": "1", "--beta": "1", flag: text}
    res = run_cli("hahn", "-m", "1", "-x", "1", "-N", "3", *(x for kv in args.items() for x in kv),
                  timeout=10)
    assert res.returncode == 2
    assert res.stderr == f"error: bad {flag} value {text!r}\n"


HAHN = ("hahn", "-x", "1", "--beta", "1")
# the matrix files the cases below name in braces
MATRIX_FILES = {
    "{code}": HAMMING74_TEXT,
    "{long-q}": "q=" + "1" * 5000 + " n=2\n11\n",
    "{long-entry}": "q=11 n=2\n" + "1" * 5000 + " 1\n",
}


@pytest.mark.parametrize(
    "argv, message",
    [
        (HAHN + ("-m", "5", "-N", "3", "--alpha", "1"), "error: hahn needs 0 <= m < N"),
        (HAHN + ("-m", "1", "-N", "3", "--alpha", "abc"), "error: bad --alpha value 'abc'"),
        (HAHN + ("-m", "1", "-N", "3", "--alpha", "1/0"), "error: bad --alpha value '1/0'"),
        (("harm-wenum", "--code", "{code}", "-r", "1", "-d", "9"), "error: d must lie in 0..7"),
        (("harm-wenum", "--code", "{code}", "-r", "1", "-d", "-1"), "error: d must lie in 0..7"),
        (("polarize", "--code", "{code}", "-r", "1", "-t", "9"), "error: t must lie in 0..7"),
        (("polarize", "--code", "{code}", "-r", "1", "-t", "-1"), "error: t must lie in 0..7"),
        (("verify", "--code", "{code}", "-r", "-1"), "error: -r must be nonnegative"),
        (("verify", "--code", "{code}", "-t", "-1"), "error: -t must be nonnegative"),
        (("verify", "--code", "{code}", "-m", "-1"), "error: -m must be nonnegative"),
        (("verify", "--code", "{code}", "--jobs", "0"), "error: --jobs must be at least 1"),
        (("mw-check", "--code", "{code}", "--kind", "hjac", "-r", "1", "--json"),
         "jacobiforge: error: unrecognized arguments: --json"),
        (("jacobi", "--code", "{code}", "-T", "\u0661,2"), "error: bad -T value '\u0661,2'"),
        (("jacobi", "--code", "{code}", "-T", "2_0"), "error: bad -T value '2_0'"),
        (("jacobi", "--code", "{code}", "-T", "+1"), "error: bad -T value '+1'"),
        # a guard below 1 is the flag's fault, not a TooLarge of the code
        (("hwenum", "--code", "{code}", "-r", "1", "--max-subcodes", "-5"),
         "error: --max-subcodes must be at least 1"),
        (("design-check", "--code", "{code}", "-r", "1", "-t", "2", "--max-subcodes", "0"),
         "error: --max-subcodes must be at least 1"),
        (("wenum", "--code", "{code}", "--max-words", "0"),
         "error: --max-words must be at least 1"),
        (("verify", "--code", "{code}", "--max-words", "-1"),
         "error: --max-words must be at least 1"),
        # numbers longer than int() reads from a str
        (("wenum", "--code", "{long-q}"), "error: ParseError: header value q= has 5000 digits"),
        (("wenum", "--code", "{long-entry}"), "error: ParseError: entry of 5000 digits in row 1"),
        (("jacobi", "--code", "{code}", "-T", "1" * 5000),
         "error: coordinate of 5000 digits outside 1..7"),
        (("jacobi", "--code", "{code}", "-T", "1,1"), "error: -T coordinates must be distinct"),
        (("mw-check", "--code", "{code}", "--kind", "hjac", "-r", "4", "-T", "1"),
         "error: r exceeds min(k, n-k) = 3"),
    ],
    ids=["hahn-m-ge-N", "hahn-alpha-abc", "hahn-alpha-div0", "harm-d-9", "harm-d-neg",
         "polarize-t-9", "polarize-t-neg", "verify-r-neg", "verify-t-neg",
         "verify-m-neg", "verify-jobs-0", "mw-check-json", "jacobi-T-arabic-indic",
         "jacobi-T-underscore", "jacobi-T-plus", "hwenum-max-subcodes-neg",
         "design-check-max-subcodes-0", "wenum-max-words-0", "verify-max-words-neg",
         "header-q-5000-digits", "row-entry-5000-digits", "jacobi-T-5000-digits",
         "jacobi-T-repeated", "mw-check-r-past-min-k-n-k"],
)
def test_malformed_input_is_a_usage_error(tmp_path, argv, message):
    # exit 1 is reserved for DIFFER; bad arguments on the [7,4] code, and
    # bad matrix files, exit 2
    paths = {}
    for name, text in MATRIX_FILES.items():
        paths[name] = tmp_path / f"{name.strip('{}')}.txt"
        paths[name].write_text(text)
    res = run_cli(*(str(paths[a]) if a in paths else a for a in argv))
    assert res.returncode == 2
    assert res.stderr.splitlines()[-1] == message
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


def test_t_coordinates_are_ascii_decimal(hamming_path, capsys):
    # int() reads signs, underscores and other scripts' digits; -T does not
    for text in ("\u0661,2", "2_0", "+1"):
        assert cli.main(["jacobi", "--code", hamming_path, "-T", text]) == 2
        assert capsys.readouterr().err == f"error: bad -T value {text!r}\n"
    assert cli.main(["jacobi", "--code", hamming_path, "-T", "1, 2"]) == 0
    spaced = capsys.readouterr().out
    assert cli.main(["jacobi", "--code", hamming_path, "-T", "1,2"]) == 0
    assert capsys.readouterr().out == spaced


@pytest.mark.parametrize(
    "entry",
    # python -m, and what the installed jacobiforge script runs
    [["-m", "jacobiforge"], ["-c", "import sys; from jacobiforge.cli import main; sys.exit(main())"]],
    ids=["python-m", "script"],
)
def test_a_closed_stdout_is_a_usage_error(hamming_path, entry):
    # the read end is closed before the child starts, so its first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = subprocess.run(
            [sys.executable, *entry, "jacobi", "--code", hamming_path, "-T", "1,2"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=SRC), timeout=60,
        )
    finally:
        os.close(write_end)
    assert res.returncode == 2
    assert res.stderr == "error: stdout is closed\n"


def test_recover_equal(hamming_path):
    res = run_cli("recover", "--code", hamming_path, "-r", "1", "-T", "1,2")
    assert res.returncode == 0
    assert "EQUAL" in res.stdout


def test_recover_past_half_n(hamming_path):
    # |T| = 4 > 7/2 is recovered at the complement: the table, then EQUAL
    res = run_cli("recover", "--code", hamming_path, "-r", "1", "-T", "1,2,3,4")
    direct = run_cli("hjacobi", "--code", hamming_path, "-r", "1", "-T", "1,2,3,4")
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout == direct.stdout + "EQUAL\n"


def test_verify_passes_and_is_deterministic(ex44_path):
    first = run_cli("verify", "--code", ex44_path)
    assert first.returncode == 0, first.stdout + first.stderr
    assert "PASS" in first.stdout and "FAIL" not in first.stdout
    second = run_cli("verify", "--code", ex44_path)
    assert second.stdout == first.stdout
    parallel = run_cli("verify", "--code", ex44_path, "--jobs", "3")
    assert parallel.returncode == 0
    assert parallel.stdout == first.stdout


@pytest.mark.parametrize(
    "text, opts",
    [(C12_TEXT, "-r 2 -t 2 -m 2"), (TGOLAY12_TEXT, "-r 1 -t 1 -m 2")],
    ids=["c12", "tgolay12"],
)
def test_verify_output_is_byte_identical_for_jobs_1_and_2(tmp_path, text, opts):
    # the codes and options of the benchmark's verify workloads
    path = tmp_path / "code.txt"
    path.write_text(text)
    env = dict(os.environ, PYTHONPATH=SRC)
    args = [sys.executable, "-m", "jacobiforge", "verify", "--code", str(path), *opts.split()]
    one, two = (
        subprocess.run(args + ["--seed", "1", "--jobs", jobs], capture_output=True, env=env,
                       timeout=120)
        for jobs in ("1", "2")
    )
    assert (one.returncode, one.stderr) == (0, b""), one.stderr
    assert (two.returncode, two.stderr) == (0, b""), two.stderr
    assert one.stdout == two.stdout
    assert b"PASS" in one.stdout and b"FAIL" not in one.stdout


def test_verify_never_forks(hamming_path, monkeypatch, capsys):
    def no_fork():
        raise AssertionError("verify forked")

    argv = ["verify", "--code", hamming_path, "--seed", "1"]
    assert cli.main(argv + ["--jobs", "1"]) == 0
    one = capsys.readouterr()
    monkeypatch.setattr(os, "fork", no_fork)
    # two CPUs that a pool of processes could use
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert cli.main(argv + ["--jobs", "2"]) == 0
    assert capsys.readouterr() == one


def test_oversized_field_order_exits_promptly(tmp_path):
    big = tmp_path / "big.txt"
    for q in (257, 65521, 100000000003):
        big.write_text(f"q={q} n=3\n1 2 3\n")
        res = run_cli("wenum", "--code", str(big), timeout=2)
        assert res.returncode == 2, q
        assert "TooLarge" in res.stderr, q


def test_large_field_subcode_enumerator_is_bounded_by_subcodes(tmp_path):
    # 63253 one-dim subcodes but 251^3 = 15813251 codewords: the subcode
    # route must never touch every codeword
    code = tmp_path / "bigq.txt"
    code.write_text("q=251 n=4\n1 0 0 5\n0 1 0 7\n0 0 1 11\n")
    res = run_cli("hwenum", "-r", "1", "--code", str(code), timeout=10)
    assert res.returncode == 0, res.stderr
    # (a, b, c) maps to (a, b, c, 5a + 7b + 11c): the three unit messages
    # have weight 2, and so does one message for each pair of nonzero
    # digits with 5a + 7b + 11c = 0
    assert res.stdout.strip() == "6*x^2*y^2 + 996*x*y^3 + 62251*y^4"
