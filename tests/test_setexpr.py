"""Set expressions: parsing round-trips, bounds, enumeration, membership."""

from bisect import bisect_right
from fractions import Fraction as F
from random import Random

import pytest

from setmeans import (
    BudgetExceeded,
    Cantor,
    Dense,
    Finite,
    IntervalSet,
    ParseError,
    SemanticError,
    Seq,
    Uncountable,
    Union,
    bounds,
    contains_point,
    enumerate_points,
    map_affine,
    normalize_affine,
    parse,
    render,
    seq,
    term_fun,
    PowTerm,
)

from setmeans.measure import _cantor_pieces

from gen import random_bounded, random_countable


def test_parse_examples():
    s = parse("{1/n} U {2 + 1/2^n}")
    assert isinstance(s, Union) and len(s.parts) == 2
    s = parse("[0,1] U Q(1,2)")
    assert isinstance(s.parts[0], IntervalSet) and isinstance(s.parts[1], Dense)
    s = parse("3*C + 1")
    assert s == Cantor(F(3), F(1))
    assert parse("{}") == Finite(())
    assert parse("{} U [0,1] U {}") == parse("[0,1]")


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse("{1, ")
    assert err.value.position <= 4
    with pytest.raises(SemanticError):
        parse("{3*(3/2)^n}")  # ratio outside (0, 1)
    with pytest.raises(SemanticError):
        parse("{1, 1}")


def test_roundtrip_randomized():
    # parse produces canonical trees (affine maps pushed to the leaves), so
    # the round trip is the identity on the canonical class
    rng = Random(37)
    for _ in range(400):
        s = random_bounded(rng)
        assert parse(render(s)) == s


def test_normalize_affine_examples():
    s = map_affine(map_affine(Finite((F(0),)), F(1), F(3)), F(2), F(0))
    assert s == Finite((F(6),))
    inner = parse("{1/n}")
    refl = map_affine(inner, F(-1), F(2))
    assert isinstance(refl, Seq) and refl.limit == 2
    assert refl.tail.terms[0].c == -1
    assert map_affine(inner, F(1), F(0)) == inner
    assert normalize_affine(refl) is refl


def test_normalize_preserves_points():
    rng = Random(41)
    for _ in range(120):
        s = random_countable(rng, allow_seq2=False)
        n = map_affine(s, F(-2), F(1))
        raw = [-2 * v + 1 for v in enumerate_points(s, 40)]
        got = enumerate_points(n, 200)
        assert set(raw) <= set(got)


def test_bounds_examples():
    assert bounds(parse("{1/n}")) == (0, 1, False, True)
    assert bounds(parse("[0,1]")) == (0, 1, True, True)
    assert bounds(parse("-2*{1/n}")) == (-2, 0, True, False)
    assert bounds(parse("C")) == (0, 1, True, True)
    assert bounds(parse("Q(1,2)")) == (1, 2, False, False)


def test_bounds_affine_equivariance():
    rng = Random(43)
    for _ in range(200):
        s = random_bounded(rng)
        lo, hi, lo_a, hi_a = bounds(s)
        alpha, beta = F(-3, 2), F(1, 3)
        mapped = bounds(map_affine(s, alpha, beta))
        assert mapped == (alpha * hi + beta, alpha * lo + beta, hi_a, lo_a)


def test_enumerate_examples():
    assert enumerate_points(parse("{3, 1, 2}"), 3) == [3, 1, 2]
    assert enumerate_points(parse("{1/n}"), 4) == [1, F(1, 2), F(1, 3), F(1, 4)]
    got = enumerate_points(parse("{1/2} U {1/n}"), 3)
    assert got == [F(1, 2), 1, F(1, 3)]
    # a one-point interval is countable and yields its point
    got = enumerate_points(parse("[1,1] U {1/n}"), 3)
    assert got == [1, F(1, 2), F(1, 3)]


def test_enumerate_injective_and_prefix_stable():
    rng = Random(47)
    for _ in range(80):
        s = random_countable(rng)
        a = enumerate_points(s, 60)
        b = enumerate_points(s, 120)
        assert b[:60] == a
        assert len(set(b)) == len(b)
        for v in a:
            assert contains_point(s, v)


def test_enumerate_uncountable_rejected():
    with pytest.raises(Uncountable):
        enumerate_points(parse("[0,1]"), 5)
    with pytest.raises(Uncountable):
        enumerate_points(parse("C U {1/n}"), 5)
    with pytest.raises(Uncountable):  # refused before the first value
        enumerate_points(parse("{1/n} U 2*C"), 0)


def test_dense_enumeration_is_dyadic():
    got = enumerate_points(parse("Q(0, 3)"), 12)
    assert F(1) in got and F(2) in got
    for v in got:
        d = v.denominator
        assert d & (d - 1) == 0


def test_membership():
    h3 = parse("{1 + 1/n + 1/k}")
    assert contains_point(h3, F(1) + F(1, 3) + F(1, 7))
    assert not contains_point(h3, F(1))
    # 3/2 + 10^-6 decomposes as 1 + 1/2 + 1/10^6: a genuine member
    assert contains_point(h3, F(3, 2) + F(1, 10**6))
    # 7/9 has no two-unit-fraction decomposition
    assert not contains_point(h3, F(1) + F(7, 9))
    assert contains_point(parse("C"), F(1, 4))
    assert not contains_point(parse("C"), F(1, 2))
    assert contains_point(parse("Q(0,1)"), F(3, 8))
    assert not contains_point(parse("Q(0,1)"), F(1, 3))


def test_cantor_membership_at_the_ends_of_removed_thirds():
    """C is closed: the ends of every removed third belong to it.  A point
    k/3^j lies in C exactly when it lies in a closed construction piece of
    level j, and the mapped leaves alpha * C + beta agree at alpha*x + beta."""
    c = parse("C")
    for x in (F(1, 3), F(2, 3), F(2, 9), F(7, 9), F(1, 4), F(3, 4)):
        assert contains_point(c, x), x
    assert contains_point(parse("3*C + 1"), F(2))
    mapped = [parse("3*C + 1"), parse("-1/3*C + 2")]
    for j in range(9):
        pieces = _cantor_pieces(F(1), F(0), j)
        los = [iv.lo for iv in pieces]
        for k in range(3**j + 1):
            x = F(k, 3**j)
            i = bisect_right(los, x) - 1
            want = i >= 0 and x <= pieces[i].hi
            assert contains_point(c, x) == want, x
            for leaf in mapped:
                assert contains_point(leaf, leaf.alpha * x + leaf.beta) == want, (leaf, x)


def test_seq_validation():
    with pytest.raises(SemanticError):
        # value collides with the limit at n = 1
        seq(F(0), term_fun([PowTerm(F(1), 1), GeoTerm_like()]))


def GeoTerm_like():
    from setmeans import GeoTerm

    return GeoTerm(F(-2), F(1, 2))  # 1/n - 2/2^n vanishes at n = 1


def test_stacked_tiny_tails_are_a_budget_error():
    # from n = 6000 on both terms are symbolic tinies, and their sum against
    # a value next to it is left undecided: a domain error, not an
    # ArithmeticError
    with pytest.raises(BudgetExceeded, match="multiple tiny tails"):
        contains_point(parse("{1/2^n + 1/3^n}"), F(1, 2**6000))
