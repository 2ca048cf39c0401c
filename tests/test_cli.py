import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import EX44_TEXT, HAMMING74_TEXT
from jacobiforge import JacobiTable, RefSet, higher_jacobi, parse_code

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
    bad.write_text("q=2 n=3\n01\n")
    res = run_cli("wenum", "--code", str(bad))
    assert res.returncode == 2
    assert "error" in res.stderr


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


def test_hahn_subcommand():
    res = run_cli("hahn", "-m", "1", "-x", "1", "--alpha", "-6", "--beta", "-2", "-N", "2")
    assert res.returncode == 0
    assert res.stdout.strip() == "-1/5"
    # a negative fraction after --alpha/--beta is a value, not an option
    spaced = run_cli("hahn", "-m", "1", "-x", "1", "--alpha", "-6", "--beta", "-3/4", "-N", "2")
    joined = run_cli("hahn", "-m", "1", "-x", "1", "--alpha", "-6", "--beta=-3/4", "-N", "2")
    assert spaced.returncode == joined.returncode == 0, spaced.stderr
    assert spaced.stdout == joined.stdout


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


def test_oversized_field_order_exits_promptly(tmp_path):
    big = tmp_path / "big.txt"
    big.write_text("q=100000000003 n=3\n1 2 3\n")
    res = run_cli("wenum", "--code", str(big), timeout=2)
    assert res.returncode == 2
    assert "TooLarge" in res.stderr


def test_large_field_subcode_enumerator_is_bounded_by_subcodes(tmp_path):
    # 65522 one-dim subcodes but 65521^2 codewords: the subcode route must
    # never touch every codeword
    code = tmp_path / "bigq.txt"
    code.write_text("q=65521 n=3\n1 0 5\n0 1 7\n")
    res = run_cli("hwenum", "-r", "1", "--code", str(code), timeout=10)
    assert res.returncode == 0, res.stderr
    # (1,t) has weight 2 at t = 0 and at 5 + 7t = 0; (0,1) has weight 2
    assert res.stdout.strip() == "3*x*y^2 + 65519*y^3"
