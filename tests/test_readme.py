"""The README's library quick tour runs as written and prints what it says,
and its records paragraph names records of the kinds it says."""

import contextlib
import io
import re
from pathlib import Path

import jacobiforge
from jacobiforge.verify import Check

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour() -> str:
    text = README.read_text()
    section = text[text.index("## Library quick tour"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_tour_prints_the_render_it_shows():
    source = quick_tour()
    printed = re.search(r"^print\(.*\)\s+# (.+)$", source, re.M)
    assert printed, "the quick tour no longer shows a printed render"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, str(README), "exec"), {})
    assert out.getvalue() == printed.group(1) + "\n"


# what the records paragraph says of the records it names, phrase by phrase
RECORD_KINDS = {
    "are `typing.NamedTuple`s": lambda cls: issubclass(cls, tuple) and hasattr(cls, "_fields"),
    "are `__slots__` classes with explicit `__eq__` and `__hash__`": lambda cls: (
        "__slots__" in vars(cls) and "__eq__" in vars(cls) and vars(cls).get("__hash__")
    ),
    "is a `__slots__` class with an explicit `__eq__` and no hash": lambda cls: (
        "__slots__" in vars(cls) and "__eq__" in vars(cls) and cls.__hash__ is None
    ),
}


def test_the_records_paragraph_names_records_of_the_kind_it_says():
    text = README.read_text()
    paragraph = text[text.index("The records ("):].split("\n\n", 1)[0]
    rest = " ".join(paragraph.split())
    for phrase, is_kind in RECORD_KINDS.items():
        named, rest = rest.split(phrase, 1)
        names = re.findall(r"`([\w.]+)`", named)
        assert names, f"no record named before {phrase!r}"
        for name in names:
            cls = Check if name == "verify.Check" else getattr(jacobiforge, name, None)
            assert cls is not None, f"{name} is not a jacobiforge export"
            assert is_kind(cls), f"{name} is not a record that {phrase}"
