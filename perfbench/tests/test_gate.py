import shutil
import subprocess
import sys

import pytest

import run
import steadiness
import workloads
from workloads import Command, check_output


def _golay_wenum(tmp_path):
    cmd = workloads.golay24_commands(0)[0]
    assert cmd.key == "wenum"
    procs, _ = run.run_procs([run.cli_argv(cmd)], tmp_path)
    return cmd, procs[0]


def test_golden_passes_and_a_corrupted_golden_raises_failed_share(tmp_path, monkeypatch):
    cmd, proc = _golay_wenum(tmp_path)
    gate = run.Gate()
    gate.check(cmd, proc, {})
    assert gate.failures == [] and gate.failed_share == 0

    corrupted = tmp_path / "golden"
    shutil.copytree(workloads.GOLDEN, corrupted)
    path = corrupted / cmd.check[1]
    path.write_text(path.read_text().replace("759*", "758*", 1))
    monkeypatch.setattr(workloads, "GOLDEN", corrupted)
    gate.check(cmd, proc, {})
    assert len(gate.failures) == 1 and "golden" in gate.failures[0]
    assert gate.failed_share == 0.5


def test_traced_stdout_must_match_untraced(tmp_path):
    cmd, proc = _golay_wenum(tmp_path)
    gate = run.Gate()
    gate.check(cmd, proc, {}, expected=proc.stdout + "extra\n")
    assert gate.failed_share == 1


VERIFY = Command("c12", ("verify",), ("verify",))


@pytest.mark.parametrize("stdout, ok", [
    ("PASS a\nverify: all checks passed (1 items, seed=0)\n", True),
    ("FAIL a\nverify: all checks passed (1 items, seed=0)\n", False),
    ("PASS a\nverify: IDENTITY VIOLATION FOUND (1 items, seed=0)\n", False),
    ("PASS a\n", False),
])
def test_verify_contract(stdout, ok):
    assert (check_output(VERIFY, 0, stdout, {}) is None) == ok


def test_nonzero_exit_fails():
    assert check_output(VERIFY, 1, "verify: all checks passed\n", {}) is not None


def test_jobs2_stdout_must_equal_jobs1_stdout():
    jobs2 = Command("c12-jobs2", ("verify", "--jobs=2"), ("same-as", "c12"))
    seen = {"c12": "PASS a\nverify: all checks passed\n"}
    assert check_output(jobs2, 0, seen["c12"], seen) is None
    assert check_output(jobs2, 0, "PASS b\nverify: all checks passed\n", seen) is not None
    assert check_output(jobs2, 0, seen["c12"], {}) is not None


def test_every_workload_command_has_a_check_that_can_run():
    for name in workloads.WORKLOADS:
        wl = workloads.workload(name, 7)
        keys = {c.key for c in wl.commands}
        for cmd in wl.commands + wl.jobs2:
            if cmd.check[0] == "golden":
                assert (workloads.GOLDEN / cmd.check[1]).is_file()
            elif cmd.check[0] == "same-as":
                assert cmd.check[1] in keys


def test_input_codes_match_their_known_weight_enumerators():
    workloads.check_codes(workloads.KNOWN_WENUM)


def test_a_mistyped_matrix_fails_loudly(tmp_path, monkeypatch):
    shutil.copytree(workloads.CODES, tmp_path / "codes")
    path = tmp_path / "codes" / "golay24.txt"
    lines = path.read_text().splitlines()
    lines[3] = lines[3][:5] + str(1 - int(lines[3][5])) + lines[3][6:]
    path.write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(workloads, "CODES", tmp_path / "codes")
    with pytest.raises(ValueError, match="golay24"):
        workloads.check_codes(["golay24"])


def test_tables_golay24_samples_reference_sets_from_the_seed():
    a, b = workloads.golay24_commands(1), workloads.golay24_commands(2)
    assert a == workloads.golay24_commands(1)
    assert [c.argv for c in a] != [c.argv for c in b]


def test_benchmark_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-c12", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_steadiness_judges_spread_and_median_agreement():
    metric = {"name": "wall_s", "better": "lower", "bound": 0.1}
    steady = steadiness.judge(metric, [1.0, 1.01, 0.99, 1.0, 1.02], [1.01, 1.0, 1.02, 0.99, 1.0])
    assert steady["steady"] and steady["sets"][0]["n"] == 5
    slower = steadiness.judge(metric, [1.0] * 5, [1.2] * 5)
    assert not slower["steady"] and slower["median_change"] == pytest.approx(0.2)
    faster = steadiness.judge(metric, [1.0] * 5, [0.8] * 5)
    assert not faster["steady"] and faster["median_change"] == pytest.approx(-0.2)
    noisy = steadiness.judge(metric, [1.0, 2.0, 1.0, 2.0, 1.5], [1.5] * 5)
    assert not noisy["steady"]
    setup = dict(metric, name="setup_s")
    assert not steadiness.judge(setup, [1.0, 2.0, 1.0, 2.0, 1.5], [1.5] * 5)["steady"]
