"""The leaf walk: `leaves()` flattens a normalized expression and
`cantor_map()` reads the affine map of a Cantor leaf."""

from fractions import Fraction as F
from random import Random

from setmeans import Affine, Cantor, Union, normalize_affine, parse, union
from setmeans.setexpr import cantor_map, leaves

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
