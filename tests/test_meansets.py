"""Set-valued means: worked examples, nesting, equivariance, membership."""

from fractions import Fraction as F
from random import Random

import pytest

from setmeans import (
    Affine,
    Ideal,
    Interval,
    Unsupported,
    axs_condition_holds,
    ideal_limits,
    ms_a,
    ms_as,
    ms_axs,
    ms_ces,
    normalize_affine,
    parse,
    split_at,
)
from setmeans.topology import is_empty_expr
from setmeans.setexpr import is_infinite

from gen import random_countable, random_rat

H1 = parse("{1/n} U {1 + 1/n}")
H3 = parse("{1/n} U {1 + 1/n + 1/k}")
H4 = parse("{1/n} U {1 - 1/n} U {5 + 1/n}")
L = parse("{1/n} U {2 + 1/2^n}")


def _iv(lo, hi, lo_open=False, hi_open=False):
    return Interval(F(lo), F(hi), lo_open, hi_open)


def test_ms_a_examples():
    assert ms_a(H1).parts == (_iv(0, 1),)
    assert ms_a(H3).parts == (_iv(0, 2),)
    assert ms_a(H4).parts == (_iv(0, 5),)
    with pytest.raises(Unsupported):
        ms_a(parse("{1, 2}"))
    with pytest.raises(Unsupported):
        ms_a(parse("[0,1]"))


def test_ms_ces_examples():
    assert ms_ces(H1).parts == (_iv(0, 1),)
    assert ms_ces(parse("{1/n}")).parts == (_iv(0, 0),)
    assert ms_ces(L).parts == (_iv(0, 2),)


def test_ms_as_examples():
    assert ms_as(H1).parts == (_iv(F(1, 2), F(1, 2)),)
    assert ms_as(H3).parts == (_iv(F(1, 2), F(7, 4)),)
    assert ms_as(H4).parts == (_iv(F(1, 2), 3),)
    assert ms_as(parse("{1/n}")).is_empty()
    two_sided = parse("{1/n} U -1*{1/n}")
    assert ms_as(two_sided).parts == (_iv(0, 0),)


def test_ms_axs_examples():
    assert ms_axs(H1).parts == (_iv(F(1, 2), F(1, 2)),)
    assert ms_axs(H4).parts == (
        _iv(F(1, 2), 1, False, True),
        _iv(F(5, 2), 3),
    )
    assert ms_axs(H3).parts == (_iv(F(1, 2), F(7, 4)),)
    assert ms_axs(L).parts == (_iv(1, 1),)
    # the family's limit 1 fails the condition, so its closing block is open there
    assert ms_axs(parse("{1/n} U {1 - 1/n - 1/k}")).parts == (
        _iv(0, 0),
        _iv(F(1, 4), 1, False, True),
    )


def test_axs_parts_nondegenerate_beyond_two_acc_points():
    # with more than two accumulation values every emitted part has length,
    # apart from the listed special cases
    for s in (H3, H4):
        for p in ms_axs(s).parts:
            assert p.lo < p.hi


def test_nesting():
    rng = Random(103)
    done = 0
    while done < 150:
        s = random_countable(rng)
        try:
            inner = ms_axs(s)
            mid = ms_as(s)
            outer = ms_a(s)
        except Unsupported:
            continue
        assert inner.subset_of(mid)
        assert mid.subset_of(outer)
        done += 1


def test_affine_equivariance():
    rng = Random(107)
    done = 0
    while done < 100:
        s = random_countable(rng)
        alpha = F(rng.choice([2, -1, -3, 1]), rng.choice([1, 2]))
        beta = random_rat(rng)
        mapped = normalize_affine(Affine(alpha, beta, s))
        for fn in (ms_a, ms_ces, ms_as, ms_axs):
            try:
                base = fn(s)
            except Unsupported:
                break
            try:
                got = fn(mapped)
            except Unsupported:
                break
            assert got.parts == base.map_affine(alpha, beta).parts
        else:
            done += 1


def _condition_via_split(s, x):
    """Independent route: split at x, take each side's accumulation range."""
    below, above = split_at(s, x)
    sides = []
    for part in (below, above):
        if is_empty_expr(part) or not is_infinite(part):
            return False
        sides.append(ideal_limits(part, Ideal.FINITE_SETS))
    (lo_m, hi_m), (lo_p, hi_p) = sides
    return lo_m + lo_p <= 2 * x <= hi_m + hi_p


def test_axs_membership_oracle():
    rng = Random(109)
    done = 0
    while done < 40:
        s = random_countable(rng, allow_seq2=False)
        try:
            got = ms_axs(s)
        except Unsupported:
            continue
        from setmeans import bounds

        lo, hi, _, _ = bounds(s)
        for _ in range(120):
            x = lo + (hi - lo) * F(rng.randint(0, 64), 64)
            direct = axs_condition_holds(s, x)
            assert direct == got.contains(x)
            via_split = _condition_via_split(s, x)
            assert via_split == got.contains(x)
        done += 1


def test_axs_membership_oracle_reference_sets():
    rng = Random(113)
    # the last set's family starts at its anchor 1, and the gap after it
    # runs from the family's top, 2, to the anchor 5
    H3_5 = parse("{1/n} U {1 + 1/n + 1/k} U {5 + 1/n}")
    for s, expected in ((H4, None), (H3, None), (H1, None), (H3_5, None)):
        got = ms_axs(s)
        from setmeans import bounds

        lo, hi, _, _ = bounds(s)
        for _ in range(250):
            x = lo + (hi - lo) * F(rng.randint(0, 512), 512)
            assert axs_condition_holds(s, x) == got.contains(x)
