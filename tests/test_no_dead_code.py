"""Every module-level function, class, method and import in `src/setmeans`
has a user.

A definition counts as used when its name is referenced (as a name, an
attribute or an imported name) anywhere in `src/` or `tests/` outside its
own definition.  Re-exports from `setmeans/__init__.py` are imports, so they
count too.  A method counts as used when it is read as an attribute
(`x.name`) outside its own body.  A module-level import counts as used when
its module reads the imported name; `__init__.py`, which imports to
re-export, is left out.

The rearrangement remainder of `cesaro` leaves shared values to the
witnesses' own membership tests, so no `cesaro` function picks a branch by
catching a budget error, and the collision walk between two sequence
witnesses serves `split_three` alone.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "setmeans"


def _names(node, skip=None) -> set[str]:
    """Names referenced inside `node`, leaving out the subtree `skip`."""
    out: set[str] = set()
    stack = [node]
    while stack:
        cur = stack.pop()
        if cur is skip:
            continue
        if isinstance(cur, ast.Name):
            out.add(cur.id)
        elif isinstance(cur, ast.Attribute):
            out.add(cur.attr)
        elif isinstance(cur, ast.ImportFrom):
            out.update(alias.name for alias in cur.names)
        stack.extend(ast.iter_child_nodes(cur))
    return out


def _trees() -> dict[Path, ast.Module]:
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    return {p: ast.parse(p.read_text(), filename=str(p)) for p in files}


def test_every_definition_is_referenced():
    trees = _trees()
    names = {p: _names(t) for p, t in trees.items()}
    unused = []
    for path, tree in trees.items():
        if path.parent != PACKAGE or path.name == "__init__.py":
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            used_here = node.name in _names(tree, skip=node)
            used_elsewhere = any(
                node.name in refs for p, refs in names.items() if p != path
            )
            if not (used_here or used_elsewhere):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, "unreferenced definitions: " + ", ".join(unused)


def test_every_module_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported: dict[str, int] = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]
    assert not unused, "unused imports: " + ", ".join(unused)


def _attributes(node, skip=None) -> set[str]:
    """Attribute names read inside `node`, leaving out the subtree `skip`."""
    out: set[str] = set()
    stack = [node]
    while stack:
        cur = stack.pop()
        if cur is skip:
            continue
        if isinstance(cur, ast.Attribute):
            out.add(cur.attr)
        stack.extend(ast.iter_child_nodes(cur))
    return out


def test_every_method_is_read():
    trees = _trees()
    attrs = {p: _attributes(t) for p, t in trees.items()}
    unused = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or node.name.startswith("__"):
                    continue
                used_here = node.name in _attributes(tree, skip=node)
                used_elsewhere = any(node.name in a for p, a in attrs.items() if p != path)
                if not (used_here or used_elsewhere):
                    unused.append(f"{path.name}:{node.lineno} {cls.name}.{node.name}")
    assert not unused, "methods never read: " + ", ".join(unused)


def _caught(handler: ast.ExceptHandler) -> set[str]:
    if handler.type is None:
        return {"BaseException"}
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {t.id if isinstance(t, ast.Name) else getattr(t, "attr", "") for t in types}


def test_cesaro_never_catches_a_budget_error():
    tree = _trees()[PACKAGE / "cesaro.py"]
    broad = {"BudgetExceeded", "SetMeansError", "Exception", "BaseException"}
    catching = [
        f"cesaro.py:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler) and _caught(node) & broad
    ]
    assert not catching, "budget errors caught at " + ", ".join(catching)


def test_only_split_three_walks_witness_collisions():
    callers = set()
    for path, tree in _trees().items():
        for top in tree.body:
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "_seq_collision_indices"
                ):
                    callers.add(f"{path.name}:{getattr(top, 'name', top.lineno)}")
    assert callers == {"cesaro.py:split_three"}
