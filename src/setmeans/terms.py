"""Exactly evaluable null-term functions for parametric sequences.

A TermFun is a finite sum of primitive decaying terms over an integer index
n >= start:

    c / n^p          (p >= 1 integer, c nonzero rational)
    c * r^n          (0 < r < 1 rational)
    c * r^(s^n)      (0 < r < 1 rational, s >= 2 integer)

Every TermFun tends to 0, and beyond a computable index it has constant sign
and strictly decreasing absolute value.  The certificates produced here
(monotone index, gap envelope, resolution indices) are exact: a returned
index is guaranteed valid for every larger index, which is what lets the
set-level algorithms cover infinite tails with finitely many checks.

Deep geometric exponents are never materialized blindly: a term whose exact
value would need more than TRACK_BITS bits is carried as a symbolic "tiny"
with a certified magnitude bound, and comparisons resolve it exactly.

`first_index` is the one index search of the package: every certificate
index here, `tf_find_value` and the tail-threshold searches of `topology`
ask it for the first index from which an upward-closed test holds.
`tf_chain` is the one reading of a tail at a scale eps: the means that
shrink a radius or refine a grid take its resolved indices and its hull.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cmp_to_key, lru_cache

from .core import Interval, Rat, Value, _set
from .errors import BudgetExceeded, SemanticError

# A term is evaluated exactly while its exponent cost stays below this many
# bits; beyond that it is tracked symbolically with a bound of r^BOUND_CAP.
TRACK_BITS = 16384
BOUND_CAP = 4096

_SEARCH_CAP = 1 << 44
_ONE = Fraction(1)


class PowTerm(Value):
    __slots__ = ("c", "p")

    def __init__(self, c: Rat, p: int):
        if c == 0:
            raise SemanticError("zero coefficient in power term")
        if not (1 <= p <= 1000):
            raise SemanticError(f"power exponent out of range: {p}")
        _set(self, "c", c)
        _set(self, "p", p)


class GeoTerm(Value):
    __slots__ = ("c", "r")

    def __init__(self, c: Rat, r: Rat):
        if c == 0:
            raise SemanticError("zero coefficient in geometric term")
        if not (0 < r < 1):
            raise SemanticError(f"geometric ratio must be in (0,1): {r}")
        _set(self, "c", c)
        _set(self, "r", r)


class DoubleGeoTerm(Value):
    __slots__ = ("c", "r", "s")

    def __init__(self, c: Rat, r: Rat, s: int):
        if c == 0:
            raise SemanticError("zero coefficient in double-geometric term")
        if not (0 < r < 1):
            raise SemanticError(f"ratio must be in (0,1): {r}")
        if not (2 <= s <= 64):
            raise SemanticError(f"inner base out of range: {s}")
        _set(self, "c", c)
        _set(self, "r", r)
        _set(self, "s", s)


Term = PowTerm | GeoTerm | DoubleGeoTerm


def _dominance_key(t: Term):
    # Slower-decaying terms sort first.
    if isinstance(t, PowTerm):
        return (0, t.p, Fraction(0))
    if isinstance(t, GeoTerm):
        return (1, 0, -t.r)
    return (2, t.s, -t.r)


def _merge_terms(terms) -> tuple[Term, ...]:
    """Sum the coefficients of same-shape terms (one class, equal fields
    after c) in first-occurrence order, dropping zero sums."""
    sums: dict = {}
    for t in terms:
        key = (type(t), *t._fields(t)[1:])
        sums[key] = sums.get(key, 0) + t.c
    return tuple(cls(c, *shape) for (cls, *shape), c in sums.items() if c != 0)


class TermFun(Value):
    __slots__ = ("terms", "start")

    def __init__(self, terms: tuple[Term, ...], start: int = 1):
        if not terms:
            raise SemanticError("term function must keep at least one term")
        if start < 1:
            raise SemanticError("start index must be >= 1")
        _set(self, "terms", terms)
        _set(self, "start", start)


def term_fun(terms, start: int = 1) -> TermFun:
    """Build a TermFun, merging same-shape terms and dropping cancellations."""
    merged = _merge_terms(terms)
    return TermFun(merged, start)


def tf_scale(tf: TermFun, alpha: Rat) -> TermFun:
    if alpha == 0:
        raise SemanticError("scaling a term function by zero")
    return TermFun(tuple(_scaled(t, alpha) for t in tf.terms), tf.start)


def _scaled(t: Term, alpha: Rat) -> Term:
    return type(t)(t.c * alpha, *t._fields(t)[1:])


def tf_with_start(tf: TermFun, start: int) -> TermFun:
    return TermFun(tf.terms, max(start, 1))


def tf_add(a: TermFun, b: TermFun) -> TermFun:
    return term_fun(a.terms + b.terms, max(a.start, b.start))


# ---------------------------------------------------------------------------
# scaled-power comparison without materialization


def _log2_rat(x: Fraction) -> float:
    n, d = x.numerator, x.denominator
    if n <= 0:
        raise ValueError("log of nonpositive value")
    try:
        lr = math.log2(n) - math.log2(d)
    except OverflowError:  # pragma: no cover - ints beyond float log range
        return (n.bit_length() - d.bit_length()) * 1.0
    if abs(lr) < 2**-18 and abs(n - d) << 20 < d:
        # within 2**-20 of 1 the difference loses its digits (it is 0.0
        # within 2**-53); the float filter keeps the exact test off every
        # other ratio
        return math.log1p((n - d) / d) / math.log(2)
    return lr


def _log2_bracket(x: Fraction, k: int) -> tuple[int, int]:
    """Integers lo <= 2^k * log2(x) <= hi for a rational x > 0.

    The integer part comes from bit lengths.  Each of the k fraction bits
    comes from squaring the mantissa y in [1, 2) in fixed point with guard
    bits, rounded down on the lower track and up on the upper one: the lower
    track keeps x^(2^i) >= 2^b * y and the upper one x^(2^i) <= 2^b * y."""
    n, d = x.numerator, x.denominator
    e = n.bit_length() - d.bit_length()
    if n << max(-e, 0) < d << max(e, 0):
        e -= 1
    g = k + 16
    shift = g - e
    y_lo, rem = divmod(n << shift, d) if shift >= 0 else divmod(n, d << -shift)
    bounds = []
    for y, up in ((y_lo, False), (y_lo + (rem > 0), True)):
        b = e
        for _ in range(k):
            y *= y
            b *= 2
            s = g
            if y >> (2 * g + 1):
                b += 1
                s += 1
            y = -(-y >> s) if up else y >> s
        bounds.append(b + (up and y > 1 << g))
    return bounds[0], bounds[1]


# Fraction bits of the log brackets, tried in turn until the two sides of a
# comparison separate (exact real arithmetic after Boehm, Cartwright, Riggle
# and O'Donnell, 1986).
_BRACKET_BITS = (32, 64, 128, 256, 512, 1024, 2048, 4096)


def _cmp_scaled_pows(c1: Fraction, r1: Fraction, e1: int, c2: Fraction, r2: Fraction, e2: int) -> int:
    """Exact sign of c1*r1^e1 - c2*r2^e2 for rationals c, r > 0 and ints e >= 0.

    Powers of at most TRACK_BITS bits are compared as integers.  Deeper ones
    compare integer brackets of the logarithms, refined until they separate
    or until a finer bracket would cost more than the powers themselves (k
    fraction bits cost about as much as k^2 bits of power).  Sides that stay
    together are built up to 2^24 bits; beyond that BudgetExceeded is raised."""
    if r1 == r2:
        m = min(e1, e2)
        e1, e2 = e1 - m, e2 - m
    cost = e1 * (r1.numerator.bit_length() + r1.denominator.bit_length()) + e2 * (
        r2.numerator.bit_length() + r2.denominator.bit_length()
    )
    if cost > TRACK_BITS:
        c = c1 / c2
        for k in _BRACKET_BITS:
            if k * k > cost:
                break  # a bracket this fine costs more than the exact integers
            (c_lo, c_hi), (lo1, hi1), (lo2, hi2) = (_log2_bracket(x, k) for x in (c, r1, r2))
            if c_lo + e1 * lo1 - e2 * hi2 > 0:
                return 1
            if c_hi + e1 * hi1 - e2 * lo2 < 0:
                return -1
        if cost > 1 << 24:
            raise BudgetExceeded(
                f"comparing powers of {r1} and {r2} with exponents of {e1.bit_length()} "
                f"and {e2.bit_length()} bits exceeds the exact budget"
            )
    lhs = c1.numerator * c2.denominator * r1.numerator**e1 * r2.denominator**e2
    rhs = c2.numerator * c1.denominator * r2.numerator**e2 * r1.denominator**e1
    return (lhs > rhs) - (lhs < rhs)


def cmp_pow_frac(r: Fraction, e: int, q: Fraction) -> int:
    """Sign of r**e - q for 0 < r < 1, e >= 1, without building r**e blindly."""
    if q <= 0:
        return 1
    if q >= 1:
        return -1  # 0 < r**e < 1 <= q
    return _cmp_scaled_pows(_ONE, r, e, q, _ONE, 0)


@lru_cache(maxsize=None)
def _pow_cached(r: Fraction, e: int) -> Fraction:
    return r**e


def _term_exponent(t: Term, n: int) -> int:
    if isinstance(t, GeoTerm):
        return n
    assert isinstance(t, DoubleGeoTerm)
    return t.s**n


def _term_cost_bits(t: Term, n: int) -> int:
    if isinstance(t, PowTerm):
        return t.p * max(n.bit_length(), 1)
    base_bits = t.r.numerator.bit_length() + t.r.denominator.bit_length()
    if isinstance(t, GeoTerm):
        return n * base_bits
    # s**n itself may be huge; bound its size before building it
    if (t.s.bit_length() - 1) * n + 1 > 64:
        return 1 << 62
    return (t.s**n) * base_bits


def _term_value(t: Term, n: int) -> Fraction:
    if isinstance(t, PowTerm):
        return t.c / Fraction(n**t.p)
    if isinstance(t, GeoTerm):
        return t.c * _pow_cached(t.r, n)
    return t.c * _pow_cached(t.r, t.s**n)


def _term_value_float(t: Term, n: int) -> float:
    if isinstance(t, PowTerm):
        return float(t.c) / float(n) ** t.p
    lr = _log2_rat(t.r)
    if isinstance(t, GeoTerm):
        mag = n * lr
    else:
        try:
            mag = float(t.s) ** n * lr
        except OverflowError:
            # s^n is past float range: log2 of the magnitude s^n·|log2 r|
            # decides the cut, and below it the magnitude is a float again
            log_mag = n * math.log2(t.s) + math.log2(-lr) if lr else -math.inf
            if log_mag > math.log2(1060):
                return 0.0
            mag = -(2.0**log_mag)
    if mag < -1060:
        return 0.0
    return float(t.c) * 2.0**mag


class TinyTerm(Value):
    """A term too deep to materialize, with a certified magnitude bound:
    |value| <= bound, and value != 0 with sign(value) = sign(c)."""

    __slots__ = ("c", "r", "exponent", "bound")

    def __init__(self, c: Rat, r: Rat, exponent: int, bound: Rat):
        _set(self, "c", c)
        _set(self, "r", r)
        _set(self, "exponent", exponent)
        _set(self, "bound", bound)


def tf_value_parts(tf: TermFun, n: int) -> tuple[Fraction, tuple[TinyTerm, ...]]:
    """Exact main part plus symbolic tinies for untractable exponents."""
    main = Fraction(0)
    tinies = []
    for t in tf.terms:
        if isinstance(t, PowTerm) or _term_cost_bits(t, n) <= TRACK_BITS:
            main += _term_value(t, n)
        else:
            e = _term_exponent(t, n)
            bound = abs(t.c) * _pow_cached(t.r, BOUND_CAP)
            tinies.append(TinyTerm(t.c, t.r, e, bound))
    return main, tuple(tinies)


def tf_value(tf: TermFun, n: int) -> Fraction:
    """The value at n; exact unless a tracked tiny was dropped (see parts)."""
    return tf_value_parts(tf, n)[0]


def tf_tracked_until(tf: TermFun) -> int | None:
    """First index at which tf_value_parts carries some term as a tiny, or
    None when every term is a power and every value is exact.  A non-power
    term's exponent cost only grows with n, so no term is tracked again."""
    deep = [
        first_index(lambda n, t=t: _term_cost_bits(t, n) > TRACK_BITS, 1)
        for t in tf.terms
        if not isinstance(t, PowTerm)
    ]
    return min(deep) if deep else None


def tf_value_float(tf: TermFun, n: int) -> float:
    # a plain left fold: sum() is compensated from Python 3.12 on
    total = 0.0
    for t in tf.terms:
        total += _term_value_float(t, n)
    return total


def parts_cmp(main: Fraction, tinies, q: Fraction) -> int:
    """Exact sign of (main + sum of tinies) - q."""
    diff = main - q
    if not tinies:
        return (diff > 0) - (diff < 0)
    total_bound = sum((t.bound for t in tinies), Fraction(0))
    if diff > total_bound:
        return 1
    if diff < -total_bound:
        return -1
    if diff == 0:
        return _tinies_sign(tinies)
    # |diff| <= bound but nonzero: compare the tiny sum against -diff exactly.
    if len(tinies) == 1:
        t = tinies[0]
        target = -diff / t.c
        if target <= 0:
            return 1 if t.c > 0 else -1
        return cmp_pow_frac(t.r, t.exponent, target) * (1 if t.c > 0 else -1)
    raise BudgetExceeded("ambiguous comparison with multiple tiny tails")


def tiny_signature(tinies) -> tuple:
    """Hashable exact identity of a symbolic tail sum."""
    return tuple(sorted((t.c, t.r, t.exponent) for t in tinies))


def tf_cmp(tf: TermFun, n: int, q: Fraction) -> int:
    """Exact sign of f(n) - q, resolving symbolic tinies when needed."""
    main, tinies = tf_value_parts(tf, n)
    return parts_cmp(main, tinies, q)


def _tinies_sign(tinies) -> int:
    signs = {1 if t.c > 0 else -1 for t in tinies}
    if len(signs) == 1:
        return signs.pop()
    # mixed signs: the largest tiny decides once it outweighs all the others
    def cmp(a, b, k=1):
        return _cmp_scaled_pows(abs(a.c), a.r, a.exponent, k * abs(b.c), b.r, b.exponent)

    top, second = sorted(tinies, key=cmp_to_key(cmp), reverse=True)[:2]
    if cmp(top, second, len(tinies) - 1) > 0:
        return 1 if top.c > 0 else -1
    raise BudgetExceeded("ambiguous sign of stacked tiny tails")


# ---------------------------------------------------------------------------
# dominance certificates


def _dominant(tf: TermFun) -> Term:
    return min(tf.terms, key=_dominance_key)


def tf_eventual_sign(tf: TermFun) -> int:
    return 1 if _dominant(tf).c > 0 else -1


def first_index(pred, lo: int, cap: int = _SEARCH_CAP) -> int | None:
    """Least n >= lo with pred(n), for a pred that stays true once true.

    Probes max(lo, 1) and its doublings until pred holds, then bisects the
    last doubling; None once a probe passes cap.
    """
    n = max(lo, 1)
    while not pred(n):
        n *= 2
        if n > cap:
            return None
    a, b = max(n // 2, lo), n
    while a < b:
        mid = (a + b) // 2
        if pred(mid):
            b = mid
        else:
            a = mid + 1
    return a


def _certified(n: int | None) -> int:
    if n is None:
        raise SemanticError("certificate search exceeded depth budget")
    return n


def _ratio_persistent_index(dom: Term, oth: Term) -> int:
    """Index from which |oth(n)|/|dom(n)| and the matching difference-envelope
    ratio are both non-increasing in n.  Case analysis over term shapes; each
    condition below is upward-closed in n."""
    if isinstance(dom, PowTerm):
        if isinstance(oth, PowTerm):
            return 1  # ratio is k * n^(p1-p2), p2 > p1: monotone everywhere
        r = oth.r
        p1 = dom.p + 1
        if isinstance(oth, GeoTerm):
            # need r * ((n+1)/n)^(p1+1) <= 1 from some n on
            def ok(n):
                return r * Fraction(n + 1, n) ** (p1 + 1) <= 1

            return _certified(first_index(ok, 1))

        def ok(n):
            gap = oth.s**n * (oth.s - 1)
            return cmp_pow_frac(r, gap, Fraction(n, n + 1) ** (p1 + 1)) <= 0

        return _certified(first_index(ok, 1))
    if isinstance(dom, GeoTerm):
        if isinstance(oth, GeoTerm):
            return 1  # exact geometric ratio
        assert isinstance(oth, DoubleGeoTerm)

        def ok(n):
            gap = oth.s**n * (oth.s - 1)
            return cmp_pow_frac(oth.r, gap, dom.r) <= 0

        return _certified(first_index(ok, 1))
    assert isinstance(dom, DoubleGeoTerm)
    assert isinstance(oth, DoubleGeoTerm)
    if oth.s == dom.s:
        return 1  # ratio r2^(s^n)/r1^(s^n) with r2 < r1: decreasing

    def ok(n):
        # oth's decay per step must outrun dom's from n on; as oth.s > dom.s,
        # r2^(s2^n (s2-1)) <= r1^(s1^n (s1-1)) stays true for larger n
        gap_o, gap_d = oth.s**n * (oth.s - 1), dom.s**n * (dom.s - 1)
        return _cmp_scaled_pows(_ONE, oth.r, gap_o, _ONE, dom.r, gap_d) <= 0

    return _certified(first_index(ok, 1))


def _controls(dom: Term, oth: Term, n: int, q: Fraction) -> bool:
    """|oth(n)| <= q * |dom(n)|, and oth's upper bound on |oth(n) - oth(n+1)|
    is at most q times dom's lower bound on |dom(n) - dom(n+1)|: exactly, and
    without building a deep power.  A geometric term's value and gap bounds
    are c * r^e(n) and c' * r^e(n), so the larger coefficient decides both."""
    cd, co = abs(dom.c), abs(oth.c)
    if isinstance(oth, PowTerm):
        # a power term is never small beside a geometric one
        return isinstance(dom, PowTerm) and (
            co * n**dom.p <= q * cd * n**oth.p
            and co * oth.p * (n + 1) ** (dom.p + 1) <= q * cd * dom.p * n ** (oth.p + 1)
        )
    gap_o = co if isinstance(oth, DoubleGeoTerm) else co * (1 - oth.r)
    eo = _term_exponent(oth, n)
    if isinstance(dom, PowTerm):
        target = min(q * cd / (co * n**dom.p), q * cd * dom.p / (gap_o * (n + 1) ** (dom.p + 1)))
        return cmp_pow_frac(oth.r, eo, target) <= 0
    # dom's gap is at least c (1 - r) r^n, or c (1 - r^(s-1)) r^(s^n)
    gap_d = cd * (1 - (dom.r if isinstance(dom, GeoTerm) else dom.r ** (dom.s - 1)))
    c = max(Fraction(co, cd), gap_o / gap_d)
    return _cmp_scaled_pows(c, oth.r, eo, q, dom.r, _term_exponent(dom, n)) <= 0


@lru_cache(maxsize=None)
def tf_monotone_index(tf: TermFun) -> int:
    """Index M >= start from which f has constant sign, strictly decreasing
    absolute value, and the dominant term controls values and gaps."""
    dom = _dominant(tf)
    others = [t for t in tf.terms if t is not dom]
    if not others:
        return tf.start
    base = max([tf.start] + [_ratio_persistent_index(dom, o) for o in others])
    k = len(others)
    q = Fraction(1, 2 * k)

    def ok(n):
        return all(_controls(dom, o, n, q) for o in others)

    return _certified(first_index(ok, base))


def tf_abs_upper(tf: TermFun, n: int) -> Fraction:
    """Monotone upper bound on |f(m)| for all m >= n >= M."""
    dom = _dominant(tf)
    if isinstance(dom, PowTerm):
        mag = abs(dom.c) / Fraction(n**dom.p)
    else:
        mag = abs(dom.c) * _pow_cached(dom.r, min(_term_exponent(dom, n), BOUND_CAP))
    return Fraction(3, 2) * mag


def _gap_bound_lt(tf: TermFun, n: int, eps: Fraction) -> bool:
    dom = _dominant(tf)
    target = Fraction(2, 3) * eps
    if isinstance(dom, PowTerm):
        return abs(dom.c) * dom.p < target * Fraction(n ** (dom.p + 1))
    scale = abs(dom.c) if isinstance(dom, DoubleGeoTerm) else abs(dom.c) * (1 - dom.r)
    if scale < target:
        return True
    return cmp_pow_frac(dom.r, _term_exponent(dom, n), target / scale) < 0


def _abs_upper_lt(tf: TermFun, n: int, eps: Fraction) -> bool:
    dom = _dominant(tf)
    target = Fraction(2, 3) * eps
    if isinstance(dom, PowTerm):
        return abs(dom.c) < target * Fraction(n**dom.p)
    if abs(dom.c) < target:
        return True
    return cmp_pow_frac(dom.r, _term_exponent(dom, n), target / abs(dom.c)) < 0


def tf_resolution_index(tf: TermFun, eps: Fraction) -> int:
    """Smallest-found R >= M with |f(n) - f(n+1)| < eps for every n >= R."""
    if eps <= 0:
        raise ValueError("resolution threshold must be positive")
    m = tf_monotone_index(tf)
    return _certified(first_index(lambda n: _gap_bound_lt(tf, n, eps), m))


def tf_chain(tf: TermFun, eps: Fraction) -> tuple[range, Interval]:
    """f read at scale eps: the indices [start, R) whose values stand apart,
    and the hull of the rest, with R = tf_resolution_index(tf, eps).

    From R on consecutive values differ by less than eps, so they chain into
    the hull (0, f(R)], or [f(R), 0) for a negative tail: closed at f(R) and
    open at the limit 0, which no value reaches.  When the tinies dropped
    from f(R) carry its sign, the certified bound on |f(R)| is the far end.
    """
    r = tf_resolution_index(tf, eps)
    sign = tf_eventual_sign(tf)
    v = tf_value(tf, r)
    if sign * v <= 0:
        v = sign * tf_abs_upper(tf, r)
    if sign > 0:
        return range(tf.start, r), Interval(Fraction(0), v, True, False)
    return range(tf.start, r), Interval(v, Fraction(0), False, True)


def tf_abs_below_index(tf: TermFun, eps: Fraction) -> int:
    """Smallest-found R >= M with |f(n)| < eps for every n >= R."""
    if eps <= 0:
        raise ValueError("threshold must be positive")
    m = tf_monotone_index(tf)
    return _certified(first_index(lambda n: _abs_upper_lt(tf, n, eps), m))


def tf_find_value(tf: TermFun, v: Fraction, n_lo: int | None = None) -> int | None:
    """Index n in the monotone tail with f(n) == v, or None.

    Only searches n >= max(n_lo, monotone index); callers check any earlier
    prefix directly.
    """
    m = tf_monotone_index(tf)
    lo = max(m, n_lo if n_lo is not None else m)
    sign = tf_eventual_sign(tf)
    if v == 0 or (v > 0) != (sign > 0):
        return None
    # |f| decreases from lo: v can only sit at the first n with |f(n)| <= |v|
    n = first_index(lambda n: sign * tf_cmp(tf, n, v) <= 0, lo)
    return n if n is not None and tf_cmp(tf, n, v) == 0 else None


def tf_single_pow(tf: TermFun) -> PowTerm | None:
    if len(tf.terms) == 1 and isinstance(tf.terms[0], PowTerm):
        return tf.terms[0]
    return None
