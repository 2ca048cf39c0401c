import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import C12_TEXT, EX44_TEXT, HAMMING74_TEXT, TGOLAY12_TEXT
from jacobiforge import HahnParams, JacobiTable, RefSet, cli, hahn_eval, higher_jacobi, parse_code
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


@pytest.mark.parametrize(
    "argv",
    [
        HAHN + ("-m", "5", "-N", "3", "--alpha", "1"),
        HAHN + ("-m", "1", "-N", "3", "--alpha", "abc"),
        HAHN + ("-m", "1", "-N", "3", "--alpha", "1/0"),
        ("harm-wenum", "--code", "{code}", "-r", "1", "-d", "9"),
        ("harm-wenum", "--code", "{code}", "-r", "1", "-d", "-1"),
        ("recover", "--code", "{code}", "-r", "1", "-T", "1,2,3,4"),
        ("polarize", "--code", "{code}", "-r", "1", "-t", "9"),
        ("polarize", "--code", "{code}", "-r", "1", "-t", "-1"),
        ("verify", "--code", "{code}", "-r", "-1"),
        ("verify", "--code", "{code}", "-t", "-1"),
        ("verify", "--code", "{code}", "-m", "-1"),
        ("verify", "--code", "{code}", "--jobs", "0"),
        ("mw-check", "--code", "{code}", "--kind", "hjac", "-r", "1", "--json"),
    ],
    ids=["hahn-m-ge-N", "hahn-alpha-abc", "hahn-alpha-div0", "harm-d-9", "harm-d-neg",
         "recover-T-4", "polarize-t-9", "polarize-t-neg", "verify-r-neg", "verify-t-neg",
         "verify-m-neg", "verify-jobs-0", "mw-check-json"],
)
def test_malformed_input_is_a_usage_error(hamming_path, argv):
    # exit 1 is reserved for DIFFER; bad arguments on the [7,4] code exit 2
    res = run_cli(*(hamming_path if a == "{code}" else a for a in argv))
    assert res.returncode == 2
    assert "error:" in res.stderr
    assert "Traceback" not in res.stderr


def test_recover_equal(hamming_path):
    res = run_cli("recover", "--code", hamming_path, "-r", "1", "-T", "1,2")
    assert res.returncode == 0
    assert "EQUAL" in res.stdout


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
