"""Decaying term functions: certificates, resolution searches, comparisons."""

import math
from fractions import Fraction as F
from functools import reduce
from operator import add
from random import Random

import pytest

from setmeans import (
    BudgetExceeded,
    DoubleGeoTerm,
    GeoTerm,
    PowTerm,
    SemanticError,
    parse,
    term_fun,
    terms,
)
from setmeans.terms import (
    TinyTerm,
    _cmp_scaled_pows,
    _gap_bound_lt,
    _log2_bracket,
    _log2_rat,
    _term_value_float,
    cmp_pow_frac,
    parts_cmp,
    tf_abs_below_index,
    tf_abs_upper,
    tf_chain,
    tf_cmp,
    tf_eventual_sign,
    tf_find_value,
    tf_monotone_index,
    tf_resolution_index,
    tf_tracked_until,
    tf_value,
    tf_value_float,
    tf_value_parts,
)
from setmeans.topology import _harmonic_float, _pow_tail_float

from gen import random_termfun


def test_values():
    harm = term_fun([PowTerm(F(1), 1)])
    assert tf_value(harm, 5) == F(1, 5)
    geo = term_fun([GeoTerm(F(3), F(1, 2))])
    assert tf_value(geo, 4) == F(3, 16)
    dg = term_fun([DoubleGeoTerm(F(1), F(1, 2), 2)])
    assert tf_value(dg, 3) == F(1, 256)


def _left_fold(values):
    return reduce(add, values, 0.0)


def test_float_sums_are_plain_left_folds():
    # sum() over floats is compensated from Python 3.12 on, so these sums
    # are `+=` loops: their bits are the same on every supported interpreter
    tail = term_fun([PowTerm(F(1), 1), PowTerm(F(1), 2), GeoTerm(F(1), F(1, 3))])
    for n in range(1, 40):
        terms = [_term_value_float(t, n) for t in tail.terms]
        assert tf_value_float(tail, n).hex() == _left_fold(terms).hex(), n
    for n in range(1, 32):
        harmonic = _left_fold(1.0 / k for k in range(1, n + 1))
        assert _harmonic_float(n).hex() == harmonic.hex(), n
        for p in (2, 3, 7):
            tail_sum = _left_fold(1.0 / k**p for k in range(n + 1, 33)) + _pow_tail_float(p, 32)
            assert _pow_tail_float(p, n).hex() == tail_sum.hex(), (p, n)
    # values on which Python 3.11's plain and 3.12's compensated sum() differ
    assert _harmonic_float(29).hex() == "0x1.fb1778bd5af57p+1"
    assert _pow_tail_float(2, 1).hex() == "0x1.4a34cc4a5f74fp-1"
    assert tf_value_float(tail, 5).hex() == "0x1.f3f2af0c998eep-3"


def test_same_shape_terms_merge():
    tf = term_fun([PowTerm(F(1), 1), PowTerm(F(2), 1)])
    assert tf_value(tf, 2) == F(3, 2)
    with pytest.raises(SemanticError):
        term_fun([PowTerm(F(1), 1), PowTerm(F(-1), 1)])  # cancels to zero


def test_monotone_certificate_random():
    rng = Random(23)
    for _ in range(200):
        tf = random_termfun(rng)
        m = tf_monotone_index(tf)
        sign = tf_eventual_sign(tf)
        prev = None
        # beyond the certificate: constant sign, strictly shrinking magnitude
        for n in range(m, m + 24):
            assert tf_cmp(tf, n, F(0)) == sign
            cur, tinies = tf_value_parts(tf, n)
            if tinies:
                continue  # value below the symbolic-tail threshold
            if prev is not None:
                assert abs(cur) < abs(prev)
            prev = cur


def test_gap_bound_validity():
    """Wherever the resolution certificate `_gap_bound_lt(tf, n, eps)` holds,
    every gap from n on over a window of 24 indices is below eps, and the
    certificate still holds at n + 1.  The eps tried sit around each gap;
    the window stops where a value would drop a tracked tiny."""
    rng = Random(29)
    held = 0
    for _ in range(120):
        tf = random_termfun(rng)
        m = tf_monotone_index(tf)
        end = m + 12 + 24
        if (deep := tf_tracked_until(tf)) is not None:
            end = min(end, deep - 1)
        gaps = [abs(tf_value(tf, k) - tf_value(tf, k + 1)) for k in range(m, end)]
        for i, gap in enumerate(gaps[:12]):
            if gap == 0:
                continue
            for eps in (gap / 2, gap, gap * F(3, 2), 2 * gap, 4 * gap):
                if _gap_bound_lt(tf, m + i, eps):
                    held += 1
                    assert max(gaps[i : i + 24]) < eps
                    assert _gap_bound_lt(tf, m + i + 1, eps)
    assert held > 500
def test_resolution_index():
    harm = term_fun([PowTerm(F(1), 1)])
    eps = F(1, 10_000)
    r = tf_resolution_index(harm, eps)
    assert abs(tf_value(harm, r) - tf_value(harm, r + 1)) < eps
    geo = term_fun([GeoTerm(F(1), F(1, 2))])
    r = tf_resolution_index(geo, F(1, 2**20))
    assert abs(tf_value(geo, r) - tf_value(geo, r + 1)) < F(1, 2**20)


def test_tf_chain_contract():
    rng = Random(31)
    for _ in range(80):
        tf = random_termfun(rng, allow_dgeo=False)
        eps = F(1, 2 ** rng.randint(2, 14))
        idx, hull = tf_chain(tf, eps)
        r = tf_resolution_index(tf, eps)
        assert idx == range(tf.start, r)
        f_r = tf_value(tf, r)
        assert {hull.lo, hull.hi} == {F(0), f_r}
        assert hull.contains(f_r) and not hull.contains(F(0))
        vals = [tf_value(tf, n) for n in range(r, r + 202)]
        for x, y in zip(vals, vals[1:]):
            assert abs(x - y) < eps
            assert hull.contains(x)


def test_tf_chain_tiny_tail():
    # from n = 2 on these tails cost more exact bits than the terms track,
    # so f(R) keeps only symbolic tinies, or a main part of the wrong sign
    nine, half = F(9, 10), F(1, 2)
    tails = [
        term_fun([DoubleGeoTerm(F(1), nine, 64)]),
        term_fun([DoubleGeoTerm(F(-1), nine, 64)]),
        term_fun([DoubleGeoTerm(F(1), nine, 64), DoubleGeoTerm(F(-1), half, 64)]),
    ]
    for tf in tails:
        idx, hull = tf_chain(tf, F(1, 2**11))
        assert idx == range(1, 2)
        assert not hull.contains(F(0))
        for n in range(2, 6):
            lo, hi = tf_cmp(tf, n, hull.lo), tf_cmp(tf, n, hull.hi)
            assert lo > 0 or (lo == 0 and not hull.lo_open)
            assert hi < 0 or (hi == 0 and not hull.hi_open)


def test_abs_below_index():
    rng = Random(31)
    for _ in range(100):
        tf = random_termfun(rng)
        eps = F(1, rng.choice([10, 100, 1000]))
        r = tf_abs_below_index(tf, eps)
        for n in range(r, r + 8):
            assert abs(tf_value(tf, n)) < eps
        assert tf_abs_upper(tf, r) >= abs(tf_value(tf, r))


def test_find_value():
    harm = term_fun([PowTerm(F(1), 1)])
    assert tf_find_value(harm, F(1, 7)) == 7
    assert tf_find_value(harm, F(2, 13)) is None
    geo = term_fun([GeoTerm(F(1), F(1, 2))])
    assert tf_find_value(geo, F(1, 1024)) == 10
    assert tf_find_value(geo, F(1, 7)) is None
    neg = term_fun([PowTerm(F(-1), 2)])
    assert tf_find_value(neg, F(-1, 49)) == 7


def test_deep_tail_comparisons():
    # 2^-n + 2^-(2^n) against the dyadic 2^-n: the symbolic tail decides
    tf = term_fun([GeoTerm(F(1), F(1, 2)), DoubleGeoTerm(F(1), F(1, 2), 2)])
    for n in (20, 40, 80):
        assert tf_cmp(tf, n, F(1, 2**n)) == 1
        assert tf_cmp(tf, n, F(1, 2 ** (n - 1))) == -1
    main, tinies = tf_value_parts(tf, 40)
    assert main == F(1, 2**40) and len(tinies) == 1


def test_cmp_pow_frac():
    assert cmp_pow_frac(F(1, 2), 10, F(1, 1024)) == 0
    assert cmp_pow_frac(F(1, 2), 10, F(1, 1000)) == -1
    assert cmp_pow_frac(F(1, 2), 10, F(1, 1100)) == 1
    assert cmp_pow_frac(F(1, 2), 2**70, F(1, 10**9)) == -1
    assert cmp_pow_frac(F(9, 10), 10**7, F(1, 10**9)) == -1
    assert cmp_pow_frac(F(1, 2), 3, F(2)) == -1


def test_double_geometric_ratio_next_to_one():
    # r^(2^100) = exp(-2^40 * (1 + ...)) for r = 1 - 2^-60: log2(n) - log2(d)
    # of r rounds to 0.0, log1p keeps it
    r = F(2**60 - 1, 2**60)
    assert _log2_rat(r) == pytest.approx(-(2.0**-60) / math.log(2), rel=1e-12)
    assert _term_value_float(DoubleGeoTerm(F(1), r, 2), 100) == 0.0
    assert _term_value_float(DoubleGeoTerm(F(1), r, 2), 50) == pytest.approx(math.exp(-(2.0**-10)))


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _above_boundaries(k: int):
    """The least x = X/2^64 with x^(2^k) > 2^j, for a few j: the lower
    bracket track rounds each of them down to the boundary or below it, so
    only an upper track that rounds up still covers them."""
    for j in (-5, 1, 3, 2**k - 1, 2**k + 1):
        root = 1 << (64 * 2**k + j)
        for _ in range(k):
            root = math.isqrt(root)  # nested floors give the 2^k-th root
        yield F(root + 1, 2**64)


def test_log2_bracket_holds_exact_powers():
    """2^lo <= x^(2^k) <= 2^hi, with hi - lo <= 2, for k <= 10."""
    rng = Random(37)
    xs = [F(2**60 - 1, 2**60), F(2**60 + 1, 2**60), F(1), F(2), F(1, 3), F(2**200, 3)]
    xs += [F(rng.randint(1, 10**6), rng.randint(1, 10**6)) for _ in range(30)]
    for k in range(11):
        for x in xs + list(_above_boundaries(k)):
            lo, hi = _log2_bracket(x, k)
            assert F(2) ** lo <= x ** (2**k) <= F(2) ** hi, (x, k, lo, hi)
            assert hi - lo <= 2, (x, k, lo, hi)


def test_scaled_power_comparison_matches_exact(monkeypatch):
    """With TRACK_BITS at 64 every comparison below runs on log brackets,
    and its sign equals the exact big-int one, for values equal or apart by
    as little as a factor 1 + 2^-600."""
    monkeypatch.setattr(terms, "TRACK_BITS", 64)
    rng = Random(41)
    ratios = [F(1, 2), F(1, 3), F(2, 3), F(5, 7), F(999, 1000), F(2**60 - 1, 2**60)]
    for i in range(240):
        r1, r2 = rng.choice(ratios), rng.choice(ratios)
        e1, e2 = rng.randint(0, 2000), rng.randint(0, 2000)
        c1 = F(rng.randint(1, 10**6), rng.randint(1, 10**6))
        c2 = c1 * r1**e1 / r2**e2
        if i % 40:
            c2 *= 1 + F(rng.choice([-1, 1]), 2 ** rng.choice([1, 20, 50, 200, 600]))
        want = _sign(c1 * r1**e1 - c2 * r2**e2)
        assert _cmp_scaled_pows(c1, r1, e1, c2, r2, e2) == want, (c1, r1, e1, c2, r2, e2)
        if e1:
            q = c2 * r2**e2 / c1
            assert cmp_pow_frac(r1, e1, q) == _sign(r1**e1 - q)
    # exponents far past any exact evaluation are still decided
    assert _cmp_scaled_pows(F(10**9), F(1, 2), 2**70, F(1), F(1, 3), 2**69) == -1
    assert cmp_pow_frac(F(2**60 - 1, 2**60), 2**100, F(1, 10**9)) == -1


def _certificates(tf, targets):
    out = [tf_monotone_index(tf)] + [tf_find_value(tf, v) for v in targets]
    for k in (3, 12, 40):
        out.append(tf_resolution_index(tf, F(1, 2**k)))
        out.append(tf_abs_below_index(tf, F(1, 2**k)))
    return out


def test_certificates_match_exact_evaluation(monkeypatch):
    """With TRACK_BITS at 64 and BOUND_CAP at 16 the certificates compare
    log brackets and symbolic tinies where the defaults build exact
    integers: every index and every found value stays the same.  Values are
    looked up only in tails with at most one geometric term, as a sum of two
    tinies is compared with a value only when its main part decides."""
    rng = Random(43)
    tfs = [random_termfun(rng) for _ in range(80)]
    # ratios next to 1 push the indices, and the costs of the powers, up
    near = F(999, 1000)
    tfs += [
        term_fun([GeoTerm(F(1), near), GeoTerm(F(-1), F(997, 1000))]),
        term_fun([PowTerm(F(1), 3), GeoTerm(F(5), F(99, 100))]),
        term_fun([GeoTerm(F(2), near), DoubleGeoTerm(F(-1), near, 2)]),
        term_fun([DoubleGeoTerm(F(1), near, 2), DoubleGeoTerm(F(3), F(1, 2), 3)]),
    ]
    targets = []
    for tf in tfs:
        v = tf_value(tf, tf_monotone_index(tf) + rng.randint(0, 30))
        one_geo = sum(not isinstance(t, PowTerm) for t in tf.terms) <= 1
        targets.append((v, v * F(1001, 1000)) if one_geo else ())
    want = [_certificates(tf, t) for tf, t in zip(tfs, targets)]
    assert sum(w[1] is not None for w in want if len(w) > 7) > 20
    tf_monotone_index.cache_clear()
    monkeypatch.setattr(terms, "TRACK_BITS", 64)
    monkeypatch.setattr(terms, "BOUND_CAP", 16)
    try:
        got = [_certificates(tf, t) for tf, t in zip(tfs, targets)]
    finally:
        tf_monotone_index.cache_clear()
    assert got == want


def test_tinies_of_one_sign_have_that_sign():
    e, half, third = 2**20, F(1, 2), F(1, 3)

    def tiny(c, r, exponent):
        return TinyTerm(c, r, exponent, abs(c) * r**16)

    cases = [
        # one sign: no magnitude is compared, however close they sit
        ((tiny(F(1), half, e), tiny(F(1), half, e + 1)), 1),
        ((tiny(F(-1), half, e), tiny(F(-3), third, e), tiny(F(-1), half, e)), -1),
        # mixed signs: the largest tiny outweighs all the others
        ((tiny(F(1), half, e), tiny(F(-1), half, e + 2)), 1),
        ((tiny(F(-3), third, e), tiny(F(1), half, e)), 1),
        ((tiny(F(1), half, e + 2), tiny(F(-1), half, e), tiny(F(1), third, e)), -1),
    ]
    for tinies, sign in cases:
        assert parts_cmp(F(0), tinies, F(0)) == sign, tinies
    # 2^-e - 2^-(e+1) - 2^-(e+1) = 0: no tiny outweighs the others
    zero = (tiny(F(1), half, e), tiny(F(-1), half, e + 1), tiny(F(-1), half, e + 1))
    with pytest.raises(BudgetExceeded):
        parts_cmp(F(0), zero, F(0))


def test_no_certificate_builds_a_deep_power(monkeypatch):
    # the monotone index of this tail is about 7 * 10^5; a certificate that
    # built r^n on the way there took minutes and tens of megabytes
    build = terms._pow_cached

    def shallow(r, e):
        assert e * (r.numerator.bit_length() + r.denominator.bit_length()) <= 2**20, (r, e)
        return build(r, e)

    monkeypatch.setattr(terms, "_pow_cached", shallow)
    with pytest.raises(SemanticError, match="prefix before the monotone tail"):
        parse("{(999999/1000000)^n + (999998/1000000)^n}")
