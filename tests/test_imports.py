"""Every name a `han` module imports is used in that module, and every name
it defines at module level is used somewhere.

No linter ships with the project, so this stands in for unused-import and
dead-code checks: a deletion that leaves an import or an orphaned helper
behind fails here.
"""

import ast
import pathlib
import re

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "han"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # a package re-exports by listing names in __all__
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_the_check_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom a import b, c as d\nprint(sys, d)\n") == [
        "line 1: os", "line 3: b"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# --- dead names -------------------------------------------------------------
#
# A module-level function, class or constant of `han` that no file under
# src/, tests/ or bench/ names, apart from its own definition, is dead code.
# A name counts when it appears as an identifier, an attribute or an imported
# name, or as a word of a string that is not a docstring (`__all__` entries,
# monkeypatch targets).

ROOT = SRC.parent.parent
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def defined_names(stmt: ast.stmt) -> list[str]:
    """The module-level names a statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def names_used(node: ast.AST) -> set[str]:
    """Every name `node` mentions; docstrings are skipped."""
    if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
        return set()
    if isinstance(node, ast.Name):
        found = {node.id}
    elif isinstance(node, ast.Attribute):
        found = {node.attr}
    elif isinstance(node, ast.alias):
        found = {node.name.split(".")[-1], node.asname or ""}
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        found = set(WORD.findall(node.value))
    else:
        found = set()
    for child in ast.iter_child_nodes(node):
        found |= names_used(child)
    return found


def dead_names(modules: dict[str, str], others: list[str]) -> list[str]:
    """`module.name` for each definition in `modules` (name -> source) that no source names elsewhere."""
    bodies = {module: ast.parse(source).body for module, source in modules.items()}
    per_stmt = {module: [names_used(stmt) for stmt in body] for module, body in bodies.items()}
    per_file = {module: set().union(*sets) for module, sets in per_stmt.items()}
    outside = set().union(*(names_used(ast.parse(source)) for source in others))
    dead = []
    for module, body in bodies.items():
        seen = outside.union(*(names for other, names in per_file.items() if other != module))
        for i, stmt in enumerate(body):
            rest = seen.union(*(names for j, names in enumerate(per_stmt[module]) if j != i))
            dead += [f"{module}.{name}" for name in defined_names(stmt) if name not in rest]
    return dead


def test_the_check_finds_a_dead_name():
    modules = {
        "a": "X = 1\nY = X\ndef f():\n    return f()\ndef g():\n    pass\nclass C:\n    pass\n",
        "b": '"""Y and f, in a docstring, do not count."""\nfrom a import g\nprint("C")\n',
    }
    assert dead_names(modules, []) == ["a.Y", "a.f"]
    assert dead_names(modules, ["a.f(Y)"]) == []


def test_every_module_level_name_is_used():
    modules = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    others = [path.read_text(encoding="utf-8")
              for folder in ("tests", "bench") for path in sorted((ROOT / folder).rglob("*.py"))]
    assert dead_names(modules, others) == []
