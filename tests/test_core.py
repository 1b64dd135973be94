"""Interval-union algebra: normalization, measure, moment, average."""

from fractions import Fraction as F
from itertools import permutations
from random import Random

import pytest

from setmeans import (
    Interval,
    ZeroMeasure,
    avg_iu,
    interval,
    iu_contains_union,
    iu_intersect,
    iu_measure,
    iu_moment,
    iu_normalize,
    iu_scale,
    iu_shift,
    iu_union,
    point,
    rat,
)

from gen import random_union_of_intervals


def test_shift_and_scale_take_exact_numbers():
    u = iu_normalize([interval(0, 1, True, False)])
    assert iu_shift(u, 0.1).parts == (interval(F(0.1), 1 + F(0.1), True, False),)
    assert iu_scale(u, -0.5).parts == (interval(F(-1, 2), 0, False, True),)
    mapped = u.map_affine(0.5, 0.25)
    assert mapped.parts == (interval(F(1, 4), F(3, 4), True, False),)
    assert all(type(x) is F for p in mapped.parts for x in (p.lo, p.hi))


def test_normalize_adjacency_merge():
    u = iu_normalize([interval(0, 1), interval(1, 2)])
    assert len(u) == 1 and u.parts[0] == interval(0, 2)


def test_normalize_chain_merge():
    u = iu_normalize([interval(0, 1), interval(2, 3), interval(F(1, 2), F(5, 2))])
    assert len(u) == 1 and u.parts[0] == interval(0, 3)


def test_normalize_empty():
    assert iu_normalize([]).is_empty()


def test_open_endpoints_do_not_merge():
    u = iu_normalize([interval(0, 1, False, True), interval(1, 2, True, False)])
    assert len(u) == 2
    # a point plugging the hole glues everything together
    u2 = iu_normalize(list(u.parts) + [point(1)])
    assert len(u2) == 1 and u2.parts[0] == interval(0, 2)


def test_normalize_idempotent_and_order_insensitive():
    rng = Random(7)
    for _ in range(300):
        raw = list(random_union_of_intervals(rng, 4).parts) + list(
            random_union_of_intervals(rng, 3).parts
        )
        u1 = iu_normalize(raw)
        rng.shuffle(raw)
        u2 = iu_normalize(raw)
        assert u1 == u2
        assert iu_normalize(u1.parts) == u1


def _exact_sort_normal_form(raw):
    """The normal form from one stable sort by the exact (lo, lo_open)."""
    out = []
    for iv in sorted(raw, key=lambda iv: (iv.lo, iv.lo_open)):
        acc = out[-1] if out else None
        if acc is not None and (
            iv.lo < acc.hi or (iv.lo == acc.hi and not (acc.hi_open and iv.lo_open))
        ):
            hi, hi_open = max((acc.hi, not acc.hi_open), (iv.hi, not iv.hi_open))
            out[-1] = Interval(acc.lo, hi, acc.lo_open, not hi_open)
        else:
            out.append(iv)
    return tuple(out)


def test_normalize_float_ties():
    # ends a float cannot tell apart, open and closed at the same lo: the
    # float presort must leave the order to the exact sort
    tiny = F(1, 10**40)
    assert float(F(1, 3)) == float(F(1, 3) + tiny)
    rng = Random(31)
    for _ in range(300):
        raw = []
        for _ in range(rng.randint(1, 12)):
            lo = rng.choice([F(1, 3), F(-2, 7)]) + rng.randint(-2, 2) * tiny
            width = rng.choice([0, tiny, 2 * tiny, F(1, 10**6), F(1, 5)])
            if width == 0:
                raw.append(Interval(lo, lo))
            else:
                raw.append(Interval(lo, lo + width, rng.random() < 0.5, rng.random() < 0.5))
        want = _exact_sort_normal_form(raw)
        for _ in range(4):
            rng.shuffle(raw)
            assert iu_normalize(raw).parts == want


def test_normalize_beyond_float_range():
    # parse reads literals of any size, and a float key overflows above ~1.8e308
    big = F(10**400)
    raw = [Interval(big + 2, big + 3), Interval(big, big + 2, True), Interval(big, big), interval(0, 1)]
    want = _exact_sort_normal_form(raw)
    assert want == (interval(0, 1), Interval(big, big + 3))
    for order in permutations(raw):
        assert iu_normalize(order).parts == want


def test_measure_examples():
    assert iu_measure(iu_normalize([interval(0, 2), interval(3, 4)])) == 3
    assert iu_measure(iu_normalize([])) == 0
    assert iu_measure(iu_normalize([interval(0, 1), point(1)])) == 1


def test_moment_examples():
    assert iu_moment(iu_normalize([interval(0, 2)])) == 2
    assert iu_moment(iu_normalize([])) == 0


def _quadrature_moment(u, steps=200_000):
    total = 0.0
    for p in u.parts:
        lo, hi = float(p.lo), float(p.hi)
        if hi == lo:
            continue
        h = (hi - lo) / steps
        total += sum((lo + (i + 0.5) * h) * h for i in range(steps))
    return total


def test_moment_quadrature_oracle():
    u = iu_normalize([interval(0, 2), interval(3, 4)])
    exact = iu_moment(u)
    assert exact == F(11, 2)
    assert abs(float(exact) - _quadrature_moment(u)) < 1e-3


def test_avg_examples():
    assert avg_iu(iu_normalize([interval(0, 1)])) == F(1, 2)
    assert avg_iu(iu_normalize([interval(0, 1), interval(2, 3)])) == F(3, 2)
    assert avg_iu(iu_normalize([interval(0, 2), interval(3, 4)])) == F(11, 6)


def test_avg_zero_measure():
    with pytest.raises(ZeroMeasure):
        avg_iu(iu_normalize([point(3)]))


def test_inclusion_exclusion():
    rng = Random(11)
    for _ in range(300):
        a = random_union_of_intervals(rng)
        b = random_union_of_intervals(rng)
        lhs = iu_measure(iu_union(a, b)) + iu_measure(iu_intersect(a, b))
        assert lhs == iu_measure(a) + iu_measure(b)


def test_shift_and_scale_equivariance():
    rng = Random(13)
    for _ in range(200):
        u = random_union_of_intervals(rng)
        if iu_measure(u) == 0:
            continue
        x = rat(rng.randint(-6, 6), rng.randint(1, 5))
        assert avg_iu(iu_shift(u, x)) == avg_iu(u) + x
        a = rat(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))
        assert avg_iu(iu_scale(u, a)) == a * avg_iu(u)


def test_convexity():
    # averaging with extra mass inside an interval containing the average
    # cannot leave that interval
    rng = Random(17)
    done = 0
    while done < 300:
        a = random_union_of_intervals(rng)
        if iu_measure(a) == 0:
            continue
        m = avg_iu(a)
        w = abs(rat(rng.randint(1, 8), rng.randint(1, 4)))
        lo, hi = m - w, m + w
        c_lo = lo + (hi - lo) * rat(rng.randint(0, 4), 5)
        c_hi = c_lo + (hi - c_lo) * rat(rng.randint(0, 5), 5)
        c = iu_normalize([Interval(c_lo, c_hi)])
        merged = iu_union(a, c)
        got = avg_iu(merged)
        assert lo <= got <= hi
        done += 1


def test_strict_strong_internality():
    rng = Random(19)
    done = 0
    while done < 300:
        u = random_union_of_intervals(rng, 4)
        nondeg = [p for p in u.parts if not p.is_point()]
        if len(nondeg) < 2:
            continue
        got = avg_iu(u)
        assert u.parts[0].lo < got < u.parts[-1].hi
        done += 1


def test_containment():
    big = iu_normalize([interval(0, 2), interval(3, 5)])
    small = iu_normalize([interval(F(1, 2), 1), interval(4, 5)])
    assert iu_contains_union(big, small)
    assert not iu_contains_union(small, big)
    open_big = iu_normalize([interval(0, 1, True, True)])
    assert not iu_contains_union(open_big, iu_normalize([point(0)]))
