"""The leaf walk: `leaves()` flattens a normalized expression and
`cantor_map()` reads the affine map of a Cantor leaf."""

from fractions import Fraction as F
from random import Random

import pytest

from setmeans import (
    Affine,
    Cantor,
    SemanticError,
    SetMeansError,
    Union,
    bounds,
    closure,
    derived_set,
    enumerate_points,
    has_uncountable_leaf,
    is_infinite,
    map_affine,
    normalize_affine,
    parse,
    render,
    split_at,
    union,
)
from setmeans.setexpr import cantor_map, leaves
from setmeans.topology import is_empty_expr

from gen import random_bounded, random_countable


def _expressions(rng: Random, count: int):
    for i in range(count):
        s = random_bounded(rng) if i % 3 else random_countable(rng, allow_dense=True)
        if i % 5 == 0:  # nested unions and maps over them
            s = Affine(F(-2), F(1, 3), Union((s, random_bounded(rng))))
        yield s


def _check_leaf(leaf):
    assert not isinstance(leaf, Union)
    got = cantor_map(leaf)
    if isinstance(leaf, Cantor):
        assert got == (1, 0)
    elif isinstance(leaf, Affine):
        assert isinstance(leaf.inner, Cantor)
        assert got == (leaf.alpha, leaf.beta)
    else:
        assert got is None


def test_leaves_property():
    rng = Random(2024)
    for s in _expressions(rng, 400):
        ls = leaves(s)
        assert isinstance(ls, tuple) and ls
        for leaf in ls:
            _check_leaf(leaf)
        assert union(*ls) == normalize_affine(s)


def test_leaves_examples():
    assert leaves(parse("C")) == (Cantor(),)
    assert leaves(parse("3*C + 1 U {1/n}"))[0] == Affine(F(3), F(1), Cantor())
    nested = Affine(F(2), F(0), Union((Cantor(), Union((Cantor(), parse("{0}"))))))
    assert [cantor_map(l) for l in leaves(nested)] == [(2, 0), (2, 0), None]


def test_cantor_map_identity_and_mapped():
    assert cantor_map(Cantor()) == (F(1), F(0))
    assert cantor_map(Affine(F(-1, 3), F(2), Cantor())) == (F(-1, 3), F(2))
    assert cantor_map(parse("{1/n}")) is None
    assert cantor_map(parse("[0, 1]")) is None


README_EXAMPLES = [
    "{1/n} U {2 + 1/2^n}",
    "[0,1] U Q(1,2)",
    "3*C + 1",
    "{1/n} U {1 + 1/n + 1/k}",
    "{1/2^n} U {2 + 1/2^n} U {2 + 1/2^n + 1/2^(2^n)}",
    "{0,1} U {1/n} U {1 + 1/2^n}",
    "{1/n} U {1 - 1/n} U {5 + 1/n}",
    "{1/n} U {1 + 1/n}",
    "C",
]


def test_parse_returns_canonical_trees():
    for text in README_EXAMPLES:
        t = parse(text)
        assert normalize_affine(t) is t, text


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SetMeansError as exc:
        return type(exc)


def test_structural_functions_read_the_canonical_leaves():
    structural = (
        bounds,
        is_infinite,
        has_uncountable_leaf,
        is_empty_expr,
        derived_set,
        closure,
        render,
    )
    rng = Random(515)
    for _ in range(400):
        s = random_bounded(rng)  # a quarter are an Affine of the union
        c = normalize_affine(s)
        for fn in structural:
            assert fn(s) == fn(c), (fn.__name__, s)
        lo, hi, _, _ = bounds(c)
        y = (lo + hi) / 2
        assert _outcome(split_at, s, y) == _outcome(split_at, c, y), s
        if not has_uncountable_leaf(c):
            got = _outcome(enumerate_points, s, 60)
            assert got == _outcome(enumerate_points, c, 60), s


def test_map_affine_images():
    s = parse("{1/n} U Q(0,1) U C")
    assert map_affine(s, 2, 1) == parse("{1 + 2/n} U Q(1,3) U 2*C + 1")
    assert map_affine(Affine(F(3), F(0), Cantor()), F(1, 3), F(0)) == Cantor()
    with pytest.raises(SemanticError):
        map_affine(s, 0, 1)
