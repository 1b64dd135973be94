"""A set is read through its canonical leaves, and each leaf kind is read in
one place.

Every SetExpr is built canonical: a leaf of one of the six leaf kinds (a
Cantor leaf carries its map), or a Union of two or more leaves, which
flattens the unions among its parts.  `setexpr.leaves(s)` reads that tree,
so a function of `src/setmeans` that tests `isinstance(..., Union)` itself
reads the tree a second way.  These tests fail when:

- a function other than `Union.__init__` and `leaves` tests for a Union
  (bare or inside a tuple);
- the name `Affine` appears in `src/setmeans`: an affine image is built by
  `map_affine`, and no tree holds an affine node;
- a function other than `setexpr.leaf_points` calls `.is_point()`, so
  re-derives that a one-point interval is a finite point;
- a function other than `leaves`, `Union.__init__` (an unknown node) and
  `ideal_limits` (an unknown ideal) raises TypeError, so keeps its own
  unknown-node fallback;
- `leaves` or `normalize_affine` calls `map_affine`, so rebuilds a tree
  instead of reading it;
- `Union` keeps a nested union or a lone part.
"""

import ast
from fractions import Fraction as F
from pathlib import Path
from random import Random

import pytest

from setmeans import Cantor, Finite, SemanticError, Union, map_affine, normalize_affine
from setmeans import parse, setexpr, union
from setmeans.setexpr import leaves

from gen import random_bounded, random_countable

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "setmeans"
MAY_TEST_UNION = {("setexpr", "Union.__init__"), ("setexpr", "leaves")}
MAY_CALL_IS_POINT = {("setexpr", "leaf_points")}
MAY_RAISE_TYPE_ERROR = {
    ("setexpr", "leaves"),
    ("setexpr", "Union.__init__"),
    ("topology", "ideal_limits"),
}


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), filename=str(path))


def _defs(node, prefix=""):
    """(qualified name, node) for every function under node: a method is
    `Class.method`, a nested function `outer.inner`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + child.name
            if not isinstance(child, ast.ClassDef):
                yield name, child
            yield from _defs(child, name + ".")
        else:
            yield from _defs(child, prefix)


def _functions():
    """(module, qualified function name, node) for every function in the
    package."""
    for module, tree in _modules():
        for name, fn in _defs(tree):
            yield module, name, fn


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
        (module, name)
        for module, name, fn in _functions()
        if "Union" in set(_tested_nodes(fn)) and (module, name) not in MAY_TEST_UNION
    )
    assert found == [], found


def test_no_code_builds_an_affine_node():
    found = sorted(
        (module, node.lineno)
        for module, tree in _modules()
        for node in ast.walk(tree)
        if "Affine"
        in (
            getattr(node, "id", None),
            getattr(node, "attr", None),
            getattr(node, "name", None),
            getattr(node, "value", None),
        )
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


def test_only_the_leaf_walk_refuses_an_unknown_node():
    found = sorted(
        {(module, name) for module, name, fn in _functions() if _raises_type_error(fn)}
        - MAY_RAISE_TYPE_ERROR
    )
    assert found == [], found


def test_a_canonical_tree_is_read_without_map_affine(monkeypatch):
    readers = {
        name: fn
        for module, name, fn in _functions()
        if module == "setexpr" and name in ("leaves", "normalize_affine")
    }
    assert sorted(readers) == ["leaves", "normalize_affine"]
    for name, fn in readers.items():
        assert all(_called(node) != "map_affine" for node in ast.walk(fn)), name
    rng = Random(2525)
    trees = [random_bounded(rng) for _ in range(300)]
    trees += [random_countable(rng, allow_dense=True) for _ in range(300)]
    calls = []
    real = setexpr.map_affine
    monkeypatch.setattr(
        setexpr, "map_affine", lambda *args: calls.append(args) or real(*args)
    )
    for t in trees:
        assert leaves(t) == (t.parts if isinstance(t, Union) else (t,))
        assert normalize_affine(t) is t
    assert calls == []


def test_a_union_is_flat_when_built():
    c, q, two = Cantor(), parse("{1/n}"), Finite((F(2),))
    assert Union((Union((c, q)), two)).parts == (c, q, two)
    assert Union((two, Union((q, c)))).parts == (two, q, c)
    assert union(Union((c, q)), two) == Union((c, q, two))
    assert union(q) is q
    for parts in ((), (c,)):
        with pytest.raises(SemanticError):
            Union(parts)
    mapped = map_affine(Union((c, q)), F(2), F(1))
    assert leaves(mapped) == (Cantor(F(2), F(1)), parse("{1 + 2/n}"))
    assert mapped == parse("2*C + 1 U {1 + 2/n}")
    assert map_affine(q, F(1), F(0)) == q
