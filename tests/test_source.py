"""The library holds no test-only code: every module-level function or class
and every method in src is reached from src itself.  A helper only the
tests need lives in tests/helpers.py."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "jacobiforge"

# defined in src but read by no src code, each on purpose
KEEPERS = {
    "column_set_dim": "perfbench/tracer.py traces it by rebinding (ROADMAP items 1 and 7)",
    "rat_solve": "the public one-off solve; perfbench/tracer.py traces it (src inverts once)",
    "JacobiTable.from_json_dict": "the README promises the --json round trip",
    "BiHomPoly.from_json_dict": "the README promises the --json round trip",
}


def definitions(tree: ast.Module):
    """(qualified name, bare name) of every module-level function or class
    and every non-dunder method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (
                    sub.name.startswith("__") and sub.name.endswith("__")
                ):
                    yield f"{node.name}.{sub.name}", sub.name


def test_every_definition_in_src_is_referenced_from_src():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    assert trees
    referenced = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    defined = {qual: bare for tree in trees for qual, bare in definitions(tree)}
    unreferenced = {qual for qual, bare in defined.items() if bare not in referenced}
    assert unreferenced - set(KEEPERS) == set()
    # a keeper that src starts to use, or that is deleted, leaves the list
    assert set(KEEPERS) <= unreferenced
