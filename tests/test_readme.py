"""The README's library quick tour runs as written and prints what it says."""

import contextlib
import io
import re
from pathlib import Path

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
