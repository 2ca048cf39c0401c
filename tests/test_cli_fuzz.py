"""Property test of the command line: whatever integers (negative ones
included) and ``-T`` strings a subcommand is given, ``cli.main`` returns
0, 1 or 2, or argparse exits with 2; it never raises anything else.

It runs in process on Hamming [7,4]_2 and draws every subcommand and
every option from the parser itself, so a new subcommand or option is
fuzzed without a change here."""

import argparse
import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import HAMMING74_TEXT
from jacobiforge import cli


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    (sub,) = (
        action for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return dict(sub.choices)


SUBCOMMANDS = _subcommands()
small_ints = st.integers(min_value=-3, max_value=9)
tset_texts = st.text(alphabet="0123456789, -", max_size=8)
rational_texts = st.text(alphabet="0123456789/-e._", min_size=1, max_size=5)


def option_value(action: argparse.Action, code_path: str):
    """A strategy for one option's argv tokens; None leaves it out."""
    flag = action.option_strings[-1]
    if flag == "--code":
        return st.just([flag, code_path])
    if action.nargs == 0:
        return st.sampled_from([[], [flag]])
    if action.choices is not None:
        values = st.sampled_from(sorted(action.choices))
    elif action.type is int:
        values = small_ints.map(str)
    elif flag == "-T":
        values = tset_texts
    else:
        values = rational_texts
    drawn = st.tuples(st.just(flag), values).map(list)
    return drawn if action.required else st.one_of(st.just([]), drawn)


@st.composite
def argvs(draw, code_path):
    name = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv = [name]
    for action in SUBCOMMANDS[name]._actions:
        if action.option_strings and action.dest != "help":
            argv += draw(option_value(action, code_path))
    return argv


@pytest.fixture(scope="module")
def hamming_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "hamming7.txt"
    path.write_text(HAMMING74_TEXT)
    return str(path)


def test_the_fuzz_reaches_every_subcommand():
    assert len(SUBCOMMANDS) >= 12
    assert {"verify", "hahn", "mw-check", "harm-wenum"} <= set(SUBCOMMANDS)


def test_cli_exits_with_a_known_code_on_any_input(hamming_file):
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(argvs(hamming_file))
    def run(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                assert exc.code == 2, (argv, out.getvalue())
                return
        assert code in (0, 1, 2), (argv, code, out.getvalue())

    run()
