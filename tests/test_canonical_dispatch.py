"""A set is read through its canonical leaves, and each leaf kind is read in
one place.

`setexpr.leaves(s)` gives the leaves of the canonical tree, each one of the
six leaf kinds (a Cantor leaf carries its map), so a function of
`src/setmeans` that tests `isinstance(..., Union)` or `isinstance(...,
Affine)` itself reads the tree instead, and can disagree with the canonical
form on a mapped dense filler or a nested union.  These tests fail when:

- a function other than `union`, `map_affine` and `leaves` tests for a
  Union, or one other than `map_affine` tests for an Affine (bare or
  inside a tuple);
- any code builds an `Affine(...)` node: no canonical tree holds one;
- a function other than `setexpr.leaf_points` calls `.is_point()`, so
  re-derives that a one-point interval is a finite point;
- a function other than `map_affine` (an unknown node) and `ideal_limits`
  (an unknown ideal) raises TypeError, so keeps its own unknown-node
  fallback.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "setmeans"
MAY_TEST = {
    "Union": {("setexpr", "union"), ("setexpr", "map_affine"), ("setexpr", "leaves")},
    "Affine": {("setexpr", "map_affine")},
}
MAY_CALL_IS_POINT = {("setexpr", "leaf_points")}
MAY_RAISE_TYPE_ERROR = {("setexpr", "map_affine"), ("topology", "ideal_limits")}


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), filename=str(path))


def _functions():
    """(module, function name, node) for every function in the package."""
    for module, tree in _modules():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield module, fn.name, fn


def _names(node: ast.expr):
    if isinstance(node, ast.Tuple):
        for elt in node.elts:
            yield from _names(elt)
    elif isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr


def _called(node: ast.AST) -> str | None:
    """The name a call calls, bare or as an attribute, else None."""
    if isinstance(node, ast.Call):
        return next(_names(node.func), None)
    return None


def _tested_nodes(fn):
    for node in ast.walk(fn):
        if _called(node) == "isinstance" and len(node.args) == 2:
            yield from _names(node.args[1])


def _raises_type_error(fn) -> bool:
    return any(
        isinstance(node, ast.Raise)
        and node.exc is not None
        and "TypeError" in (_called(node.exc), *_names(node.exc))
        for node in ast.walk(fn)
    )


def test_only_the_canonical_form_dispatches_on_union_and_affine():
    found = sorted(
        (node, module, name)
        for module, name, fn in _functions()
        for node in set(_tested_nodes(fn)) & set(MAY_TEST)
        if (module, name) not in MAY_TEST[node]
    )
    assert found == [], found


def test_no_code_builds_an_affine_node():
    found = sorted(
        (module, node.lineno)
        for module, tree in _modules()
        for node in ast.walk(tree)
        if _called(node) == "Affine"
    )
    assert found == [], found


def test_only_leaf_points_reads_a_one_point_interval():
    found = sorted(
        {
            (module, name)
            for module, name, fn in _functions()
            if any(_called(node) == "is_point" for node in ast.walk(fn))
        }
        - MAY_CALL_IS_POINT
    )
    assert found == [], found


def test_only_map_affine_refuses_an_unknown_node():
    found = sorted(
        {(module, name) for module, name, fn in _functions() if _raises_type_error(fn)}
        - MAY_RAISE_TYPE_ERROR
    )
    assert found == [], found
