"""The library holds no test-only code: every module-level function or class
and every method in src is reached from src itself.  A helper only the
tests need lives in tests/helpers.py.  No src module writes the globals of
another module, or its own through ``global``.  A library module imports
at its top; only cli.py and the package ``__getattr__`` defer an import."""

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


def unreferenced(trees: list[ast.Module]) -> set[str]:
    """The qualified names of the definitions that no tree reads.  A
    module-level name counts as read through a bare name or an attribute,
    a method only through an attribute (``x.value``, not a variable named
    ``value``).  An attribute carries no class, so a method is read
    whenever any object's attribute of its name is: ``RefSet.of`` and a
    ``JacobiTable.of`` would read each other."""
    names, attributes = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return {
        qual
        for tree in trees
        for qual, bare in definitions(tree)
        if bare not in attributes and (qual != bare or bare not in names)
    }


def test_every_definition_in_src_is_referenced_from_src():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    assert trees
    unread = unreferenced(trees)
    assert unread - set(KEEPERS) == set()
    # a keeper that src starts to use, or that is deleted, leaves the list
    assert set(KEEPERS) <= unread


def test_a_method_is_read_only_through_an_attribute():
    module = ast.parse(
        "def helper():\n"
        "    value = 1\n"
        "    return Fn(value).of, Other\n"
        "class Fn:\n"
        "    def value(self): ...\n"
        "    def of(self): ...\n"
        "class Other:\n"
        "    def of(self): ...\n"
        "    def unused(self): ...\n"
    )
    # a variable named value does not read Fn.value; Fn(...).of reads Fn.of,
    # and, with no class to tell them apart, Other.of as well
    assert unreferenced([module]) == {"helper", "Fn.value", "Other.unused"}


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
    # the state of a run lives in a code.Run, not in globals that one
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


def deferred_imports(tree: ast.Module) -> set[tuple[str, int]]:
    """(function name, line) of every import inside a function body, under
    each function that encloses it."""
    return {
        (func.name, node.lineno)
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    }


def test_only_the_front_end_defers_an_import():
    # the import graph is the dependency graph (designs <- harmonic <-
    # verify); cli.py imports each command's checks where it runs them, and
    # the package __getattr__ resolves the checks layer's names on first use
    deferred = [
        (path.name, line, func)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "cli.py"
        for func, line in deferred_imports(ast.parse(path.read_text()))
        if (path.name, func) != ("__init__.py", "__getattr__")
    ]
    assert deferred == []
