"""The acceptance command lines print their golden outputs byte for byte:
the ``verify`` reports of the four benchmark codes, seeds 0-2, two of them
again under a low guard, and the table, duality, recovery and design commands
on three of them.  The command list
and the rewriting script are in tests/make_goldens.py."""

import pytest

from jacobiforge import verify
from make_goldens import COMMANDS, GOLDEN, stale, write_codes


@pytest.fixture(scope="module")
def code_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("codes")
    write_codes(path)
    return path


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_prints_its_golden_output(code_dir, name):
    assert stale([name], code_dir) == []


def test_every_golden_file_has_a_command():
    assert sorted(path.stem for path in GOLDEN.glob("*.txt")) == sorted(COMMANDS)


def test_a_changed_detail_string_fails_the_golden_check(code_dir, monkeypatch):
    # every mass item prints its detail, so one changed word shows in each report
    mass = verify.CHECKS["mass"]
    monkeypatch.setitem(verify.CHECKS, "mass", mass._replace(detail="mass {} against {}"))
    names = [name for name in COMMANDS if name.startswith("verify-c12")]
    assert stale(names, code_dir) == names
