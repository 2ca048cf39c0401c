"""The library holds no test-only code: every module-level function or class
and every method in src is reached from src itself.  A helper only the
tests need lives in tests/helpers.py.  No src module writes the globals of
another module, or its own through ``global``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "jacobiforge"

# defined in src but read by no src code, each on purpose
KEEPERS = {
    "column_set_dim": "perfbench/tracer.py traces it by rebinding (ROADMAP items 1 and 7)",
    "rat_solve": "the public one-off solve; perfbench/tracer.py traces it (src inverts once)",
    "f_tilde": "the literal sum over d-subsets that the tests check the lambda kernel sums "
    "against; perfbench/tracer.py counts its calls (ROADMAP items 7 and 13)",
    "JacobiTable.from_json_dict": "the README promises the --json round trip",
    "BiHomPoly.from_json_dict": "the README promises the --json round trip",
    "__getattr__": "the import system calls it (PEP 562)",
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


def module_aliases(tree: ast.Module, modules: set[str]) -> set[str]:
    """The names a module binds to modules by its imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(
                alias.asname or alias.name
                for alias in node.names
                if node.module is None or alias.name in modules
            )
    return names


def test_no_src_module_writes_module_state():
    # the state of a run lives in a designs.Run, not in globals that one
    # module sets in another
    paths = sorted(SRC.glob("*.py"))
    modules = {path.stem for path in paths}
    writes = []
    for path in paths:
        tree = ast.parse(path.read_text())
        aliases = module_aliases(tree, modules)
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                writes.append((path.name, node.lineno, "global"))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
                if isinstance(node.value, ast.Name) and node.value.id in aliases:
                    writes.append((path.name, node.lineno, f"{node.value.id}.{node.attr}"))
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in (
                "setattr", "delattr"
            ):
                if getattr(node.args[0], "id", None) in aliases:
                    writes.append((path.name, node.lineno, node.func.id))
    assert writes == []
