"""A set is read through its canonical leaves.

Fails when a function of `src/setmeans` other than `union`, `map_affine`,
`leaves` and `cantor_map` tests a node with `isinstance(..., Union)` or
`isinstance(..., Affine)`, bare or inside a tuple: such a function reads
the tree instead of `setexpr.leaves(s)`, and can disagree with the
canonical form on a mapped dense filler or a nested union.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "setmeans"
ALLOWED = {
    ("setexpr", "union"),
    ("setexpr", "map_affine"),
    ("setexpr", "leaves"),
    ("setexpr", "cantor_map"),
}
NODES = {"Union", "Affine"}


def _names(node: ast.expr):
    if isinstance(node, ast.Tuple):
        for elt in node.elts:
            yield from _names(elt)
    elif isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr


def _tests_node(call: ast.AST) -> bool:
    return (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == "isinstance"
        and len(call.args) == 2
        and any(name in NODES for name in _names(call.args[1]))
    )


def _dispatchers():
    """(module, function) for every function testing a Union or Affine node."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                _tests_node(n) for n in ast.walk(fn)
            ):
                yield path.stem, fn.name


def test_only_the_canonical_form_dispatches_on_union_and_affine():
    found = sorted(set(_dispatchers()) - ALLOWED)
    assert found == [], found
