"""The doubling index search is written once, in `terms.first_index`.

Fails when any other function of `src/setmeans` has a `while` loop whose
body doubles a variable (`x *= 2`): such a loop is a second copy of the
gallop-and-bisect search, which should call `first_index` instead.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "setmeans"


def _doubles(loop: ast.While) -> bool:
    return any(
        isinstance(node, ast.AugAssign)
        and isinstance(node.op, ast.Mult)
        and isinstance(node.value, ast.Constant)
        and node.value.value == 2
        for node in ast.walk(loop)
    )


def _searches():
    """(module, function) for every function holding a doubling while loop."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and any(
                isinstance(n, ast.While) and _doubles(n) for n in ast.walk(fn)
            ):
                yield path.stem, fn.name


def test_one_doubling_search():
    found = sorted(set(_searches()))
    assert found == [("terms", "first_index")], found
