"""Every module-level function, class and import in `src/setmeans` has a user.

A definition counts as used when its name is referenced (as a name, an
attribute or an imported name) anywhere in `src/` or `tests/` outside its
own definition.  Re-exports from `setmeans/__init__.py` are imports, so they
count too.  A module-level import counts as used when its module reads the
imported name; `__init__.py`, which imports to re-export, is left out.
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
