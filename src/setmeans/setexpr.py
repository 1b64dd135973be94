"""Symbolic bounded subsets of the reals.

The representable class is fixed: finite sets, one- and two-parameter
decaying sequences, intervals, a countable dense filler (realized as the
dyadic rationals of an open interval), affine images of the middle-thirds
Cantor set, and affine images and finite unions of these.  This class
contains the worked examples the library needs to reproduce and is closed
under union, affine maps, and the derived-set operation.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .core import Interval, Rat, Value, _set, rat
from .errors import BudgetExceeded, SemanticError, Uncountable
from .terms import (
    DoubleGeoTerm,
    GeoTerm,
    PowTerm,
    TermFun,
    tf_abs_below_index,
    tf_abs_upper,
    tf_eventual_sign,
    tf_find_value,
    tf_monotone_index,
    tf_scale,
    tf_value,
    tf_value_parts,
)

_PREFIX_CAP = 200_000


class SetExpr(Value):
    """Base class for set expression nodes; all nodes are immutable."""

    __slots__ = ()


class Finite(SetExpr):
    __slots__ = ("points",)

    def __init__(self, points: tuple[Rat, ...]):
        if len(set(points)) != len(points):
            raise SemanticError("finite set literal has repeated points")
        _set(self, "points", points)


class Seq(SetExpr):
    """The point set {limit + tail(n) : n >= tail.start}."""

    __slots__ = ("limit", "tail")

    def __init__(self, limit: Rat, tail: TermFun):
        _set(self, "limit", limit)
        _set(self, "tail", tail)


class Seq2(SetExpr):
    """The point set {limit + outer(n) + inner(k) : n, k}.

    Both parts must approach zero from the same side, which keeps point
    membership decidable; collisions between index pairs are allowed and
    collapse in the set semantics.
    """

    __slots__ = ("limit", "outer", "inner")

    def __init__(self, limit: Rat, outer: TermFun, inner: TermFun):
        _set(self, "limit", limit)
        _set(self, "outer", outer)
        _set(self, "inner", inner)


class IntervalSet(SetExpr):
    __slots__ = ("iv",)

    def __init__(self, iv: Interval):
        _set(self, "iv", iv)


class Dense(SetExpr):
    """A fixed countable dense subset of (lo, hi) with measure zero.

    Canonical realization: the dyadic rationals strictly inside (lo, hi).
    Every implemented mean depends only on its closure and measure, so the
    realization is observable only through membership and enumeration.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Rat, hi: Rat):
        if lo >= hi:
            raise SemanticError("dense filler needs a nondegenerate interval")
        _set(self, "lo", lo)
        _set(self, "hi", hi)


class Cantor(SetExpr):
    """The image alpha * C + beta of the middle-thirds Cantor set C in
    [0, 1]; Cantor() is C itself."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: Rat = Fraction(1), beta: Rat = Fraction(0)):
        alpha = rat(alpha)
        if alpha == 0:
            raise SemanticError("affine map must be invertible (alpha != 0)")
        _set(self, "alpha", alpha)
        _set(self, "beta", rat(beta))


_LEAF_KINDS = (Finite, Seq, Seq2, IntervalSet, Dense, Cantor)


class Union(SetExpr):
    """A union of two or more leaves.  A union among the given parts is
    flattened into them, so a Union never holds a Union."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[SetExpr, ...]):
        flat: list[SetExpr] = []
        for p in parts:
            if isinstance(p, Union):
                flat.extend(p.parts)
            elif isinstance(p, _LEAF_KINDS):
                flat.append(p)
            else:
                raise TypeError(f"unknown node {p!r}")
        if len(flat) < 2:
            raise SemanticError("union needs at least two parts")
        _set(self, "parts", tuple(flat))


def finite(*points) -> Finite:
    return Finite(tuple(rat(p) for p in points))


def _tf_prefix_values(tf: TermFun) -> list[tuple[int, Fraction]]:
    m = tf_monotone_index(tf)
    if m - tf.start > _PREFIX_CAP:
        raise SemanticError("sequence prefix before the monotone tail is too long")
    return [(n, tf_value(tf, n)) for n in range(tf.start, m + 1)]


def _validate_tail(tf: TermFun) -> None:
    """Sequence points must be pairwise distinct and never hit the limit."""
    prefix = _tf_prefix_values(tf)
    seen: dict[Fraction, int] = {}
    for n, v in prefix:
        if v == 0:
            raise SemanticError(f"sequence value at n={n} equals its limit")
        if v in seen:
            raise SemanticError(f"sequence values collide at n={seen[v]} and n={n}")
        seen[v] = n
    m = tf_monotone_index(tf)
    sign = tf_eventual_sign(tf)
    tail_top = tf_abs_upper(tf, m + 1)
    for n, v in prefix[:-1]:
        if (v > 0) == (sign > 0) and abs(v) <= tail_top:
            hit = tf_find_value(tf, v, m + 1)
            if hit is not None and hit != n:
                raise SemanticError(
                    f"sequence values collide at n={n} and n={hit}"
                )


def seq(limit, tail: TermFun) -> Seq:
    """Validated sequence-set constructor."""
    _validate_tail(tail)
    return Seq(rat(limit), tail)


def _sign_pure(tf: TermFun) -> bool:
    sign = tf_eventual_sign(tf)
    return all((v > 0) == (sign > 0) and v != 0 for _, v in _tf_prefix_values(tf))


def seq2(limit, outer: TermFun, inner: TermFun) -> Seq2:
    """Validated double-sequence constructor."""
    _validate_tail(outer)
    _validate_tail(inner)
    if not (_sign_pure(outer) and _sign_pure(inner)):
        raise SemanticError("double sequence parts must keep a constant sign")
    if tf_eventual_sign(outer) != tf_eventual_sign(inner):
        raise SemanticError("double sequence parts must approach from one side")
    return Seq2(rat(limit), outer, inner)


def union(*parts: SetExpr) -> SetExpr:
    """The union of parts: a lone part as it stands, else a flat Union."""
    return parts[0] if len(parts) == 1 else Union(parts)


# ---------------------------------------------------------------------------
# affine maps and the leaf walk


def normalize_affine(s: SetExpr) -> SetExpr:
    """s itself, once leaves(s) has accepted it: every SetExpr is built
    canonical (see Union and map_affine)."""
    leaves(s)
    return s


def _map_leaf(s: SetExpr, a: Rat, b: Rat) -> SetExpr:
    """The leaf {a * x + b : x in s} of a leaf s, for a != 0."""
    if isinstance(s, Finite):
        return Finite(tuple(a * x + b for x in s.points))
    if isinstance(s, Seq):
        return Seq(a * s.limit + b, tf_scale(s.tail, a))
    if isinstance(s, Seq2):
        return Seq2(a * s.limit + b, tf_scale(s.outer, a), tf_scale(s.inner, a))
    if isinstance(s, IntervalSet):
        iv = s.iv.scale(a).shift(b) if a != 1 else s.iv.shift(b)
        return IntervalSet(iv)
    if isinstance(s, Dense):
        lo, hi = a * s.lo + b, a * s.hi + b
        if lo > hi:
            lo, hi = hi, lo
        return Dense(lo, hi)
    return Cantor(a * s.alpha, a * s.beta + b)


def map_affine(s: SetExpr, a: Rat, b: Rat) -> SetExpr:
    """The canonical tree of {a * x + b : x in s}: each leaf mapped, and a
    Cantor leaf carries its map.  A mapped dense filler is re-anchored to
    the dyadics of its image interval (same closure and measure, different
    points)."""
    if a == 0:
        raise SemanticError("affine map must be invertible (alpha != 0)")
    return union(*(_map_leaf(leaf, a, b) for leaf in leaves(s)))


def leaves(s: SetExpr) -> tuple[SetExpr, ...]:
    """The flat leaf tuple of s: each leaf is a Finite, Seq, Seq2,
    IntervalSet, Dense or Cantor.  Any other node raises TypeError, here
    and so in every reader of leaves()."""
    if isinstance(s, Union):
        return s.parts
    if isinstance(s, _LEAF_KINDS):
        return (s,)
    raise TypeError(f"unknown node {s!r}")


def leaf_points(leaf: SetExpr) -> tuple[Rat, ...] | None:
    """The points of a finite leaf, a Finite or a one-point interval, or
    None for an infinite leaf."""
    if isinstance(leaf, Finite):
        return leaf.points
    if isinstance(leaf, IntervalSet) and leaf.iv.is_point():
        return (leaf.iv.lo,)
    return None


# ---------------------------------------------------------------------------
# bounds


def tf_value_bounds(tf: TermFun) -> tuple[Rat, Rat, bool, bool]:
    """inf/sup with attainment flags for the value set {tail(n) : n}."""
    prefix = _tf_prefix_values(tf)
    vals = [v for _, v in prefix]
    lo, hi = min(vals), max(vals)
    lo_att = hi_att = True
    if lo > 0:
        lo, lo_att = Fraction(0), False
    if hi < 0:
        hi, hi_att = Fraction(0), False
    return lo, hi, lo_att, hi_att


def bounds(s: SetExpr) -> tuple[Rat, Rat, bool, bool]:
    """Exact infimum and supremum of the point set with attainment flags."""
    parts = []
    for leaf in leaves(s):
        if isinstance(leaf, Finite):
            if not leaf.points:
                raise SemanticError("bounds of an empty set")
            parts.append((min(leaf.points), max(leaf.points), True, True))
        elif isinstance(leaf, Seq):
            lo, hi, lo_att, hi_att = tf_value_bounds(leaf.tail)
            parts.append((leaf.limit + lo, leaf.limit + hi, lo_att, hi_att))
        elif isinstance(leaf, Seq2):
            olo, ohi, olo_a, ohi_a = tf_value_bounds(leaf.outer)
            ilo, ihi, ilo_a, ihi_a = tf_value_bounds(leaf.inner)
            lo, hi = leaf.limit + olo + ilo, leaf.limit + ohi + ihi
            parts.append((lo, hi, olo_a and ilo_a, ohi_a and ihi_a))
        elif isinstance(leaf, IntervalSet):
            iv = leaf.iv
            parts.append((iv.lo, iv.hi, not iv.lo_open, not iv.hi_open))
        elif isinstance(leaf, Dense):
            parts.append((leaf.lo, leaf.hi, False, False))
        else:  # a Cantor leaf
            ends = (leaf.beta, leaf.alpha + leaf.beta)
            parts.append((min(ends), max(ends), True, True))
    lo = min(p[0] for p in parts)
    hi = max(p[1] for p in parts)
    lo_a = any(p[2] for p in parts if p[0] == lo)
    hi_a = any(p[3] for p in parts if p[1] == hi)
    return lo, hi, lo_a, hi_a


# ---------------------------------------------------------------------------
# cardinality structure


def has_uncountable_leaf(s: SetExpr) -> bool:
    return any(
        isinstance(leaf, (IntervalSet, Cantor)) and leaf_points(leaf) is None
        for leaf in leaves(s)
    )


def is_infinite(s: SetExpr) -> bool:
    return any(leaf_points(leaf) is None for leaf in leaves(s))


def is_countably_infinite(s: SetExpr) -> bool:
    return is_infinite(s) and not has_uncountable_leaf(s)


# ---------------------------------------------------------------------------
# membership


def _dyadic_in(lo: Rat, hi: Rat, x: Rat) -> bool:
    if not (lo < x < hi):
        return False
    d = x.denominator
    return d & (d - 1) == 0


def _cantor_max_le(t: Rat) -> Rat | None:
    """max of (Cantor set) intersect [0, t], exact."""
    if t < 0:
        return None
    if t >= 1:
        return Fraction(1)
    # iterate the ternary orbit accumulating the affine answer map x -> (x+b)/3^k
    shift = Fraction(0)
    scale = Fraction(1)
    seen: dict[Rat, tuple[Rat, Rat]] = {}
    while True:
        if Fraction(1, 3) <= t < Fraction(2, 3):
            return shift + scale * Fraction(1, 3)
        if t in seen:
            s0, c0 = seen[t]
            # answer = s0 + c0 * answer_local and answer_local repeats:
            # solve a = shift_rel + scale_rel * a relative to first visit
            rel_scale = scale / c0
            rel_shift = (shift - s0) / c0
            a_local = rel_shift / (1 - rel_scale)
            return s0 + c0 * a_local
        seen[t] = (shift, scale)
        if t < Fraction(1, 3):
            t = 3 * t
            scale = scale / 3
        else:
            t = 3 * t - 2
            shift = shift + scale * Fraction(2, 3)
            scale = scale / 3
        if len(seen) > 100_000:
            raise BudgetExceeded("cantor orbit too long")


def _seq_value_index(limit: Rat, tf: TermFun, x: Rat) -> int | None:
    t = x - limit
    if t == 0:
        return None
    for n, v in _tf_prefix_values(tf):
        if v == t:
            return n
    m = tf_monotone_index(tf)
    return tf_find_value(tf, t, m + 1)


def contains_point(s: SetExpr, x: Rat) -> bool:
    """Exact membership of a rational point."""
    for leaf in leaves(s):
        if isinstance(leaf, Finite):
            hit = x in leaf.points
        elif isinstance(leaf, Seq):
            hit = _seq_value_index(leaf.limit, leaf.tail, x) is not None
        elif isinstance(leaf, Seq2):
            hit = _seq2_contains(leaf, x)
        elif isinstance(leaf, IntervalSet):
            hit = leaf.iv.contains(x)
        elif isinstance(leaf, Dense):
            hit = _dyadic_in(leaf.lo, leaf.hi, x)
        else:  # a Cantor leaf
            u = (x - leaf.beta) / leaf.alpha
            hit = _cantor_max_le(u) == u
        if hit:
            return True
    return False


def _seq2_contains(s: Seq2, x: Rat) -> bool:
    """x = limit + outer(n) + inner(k)?  In any solution one of the two
    parts is at least half the offset, and values above that threshold are
    few, so both half-scans stay short."""
    t = x - s.limit
    sign = tf_eventual_sign(s.outer)
    if t == 0 or (t > 0) != (sign > 0):
        return False
    if sign < 0:
        t = -t
        outer, inner = tf_scale(s.outer, -1), tf_scale(s.inner, -1)
    else:
        outer, inner = s.outer, s.inner
    half = t / 2
    for big, small in ((outer, inner), (inner, outer)):
        cutoff = tf_abs_below_index(big, half)
        if cutoff - big.start > 200_000:
            raise BudgetExceeded("double-sequence membership scan too long")
        for n in range(big.start, cutoff):
            v = tf_value(big, n)
            if v < half:
                continue
            rem = t - v
            if rem <= 0:
                continue
            if _seq_value_index(Fraction(0), small, rem) is not None:
                return True
    return False


# ---------------------------------------------------------------------------
# enumeration


def _gen_seq(s: Seq):
    n = s.tail.start
    while True:
        main, tinies = tf_value_parts(s.tail, n)
        if tinies:
            raise BudgetExceeded(
                "enumeration reached values too deep to materialize exactly"
            )
        yield s.limit + main
        n += 1


def _gen_seq2(s: Seq2):
    for d in itertools.count(0):
        for i in range(d + 1):
            n = s.outer.start + d - i
            k = s.inner.start + i
            yield s.limit + tf_value(s.outer, n) + tf_value(s.inner, k)


def _gen_dense(s: Dense):
    # level 0: integers; level j >= 1: odd numerators over 2^j (no repeats)
    for j in itertools.count(0):
        den = 1 << j
        m = (s.lo * den).__floor__() + 1
        while Fraction(m, den) < s.hi:
            if j == 0 or m % 2 == 1:
                yield Fraction(m, den)
            m += 1


def _gen_union(parts):
    gens = [iter(g) for g in parts]
    while gens:
        nxt = []
        for g in gens:
            try:
                yield next(g)
                nxt.append(g)
            except StopIteration:
                pass
        gens = nxt


def point_generator(s: SetExpr):
    """Raw canonical generator, round-robin over the leaves of s.

    A mapped dense filler yields the dyadics of its image interval, and a
    one-point interval its point.  Values may repeat across leaves.
    """
    gens = []
    for leaf in leaves(s):
        if (points := leaf_points(leaf)) is not None:
            gens.append(iter(points))
        elif isinstance(leaf, Seq):
            gens.append(_gen_seq(leaf))
        elif isinstance(leaf, Seq2):
            gens.append(_gen_seq2(leaf))
        elif isinstance(leaf, Dense):
            gens.append(_gen_dense(leaf))
        else:
            raise Uncountable("cannot enumerate a set with an uncountable leaf")
    return gens[0] if len(gens) == 1 else _gen_union(gens)


def enumerate_points(s: SetExpr, budget: int) -> list[Rat]:
    """First `budget` elements of the canonical injective enumeration.

    Deterministic, stable under budget extension; duplicates arising across
    union parts or double-sequence collisions are emitted once.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    out: list[Rat] = []
    seen: set[Rat] = set()
    for v in point_generator(s):
        if len(out) >= budget:
            break
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


# ---------------------------------------------------------------------------
# rendering (inverse of the parser)


def _fmt_rat(x: Rat) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _fmt_term_mag(t, var: str) -> str:
    """Magnitude part of one term in the expression grammar."""
    mag = abs(t.c)
    coeff = _fmt_rat(mag)
    if isinstance(t, PowTerm):
        base = var if t.p == 1 else f"{var}^{t.p}"
        return f"{coeff}/{base}"
    if isinstance(t, GeoTerm):
        if t.r.numerator == 1:
            return f"{coeff}/{t.r.denominator}^{var}"
        return f"{coeff}*({_fmt_rat(t.r)})^{var}"
    assert isinstance(t, DoubleGeoTerm)
    if t.r.numerator == 1:
        return f"{coeff}/{t.r.denominator}^({t.s}^{var})"
    return f"{coeff}*({_fmt_rat(t.r)})^({t.s}^{var})"


def _fmt_termfun(limit: Rat, tfs: list[tuple[TermFun, str]]) -> str:
    signed: list[tuple[int, str]] = []
    for tf, var in tfs:
        for t in tf.terms:
            signed.append((1 if t.c > 0 else -1, _fmt_term_mag(t, var)))
    if limit != 0 or not signed:
        body = _fmt_rat(limit)
    else:
        sign, text = signed[0]
        body = ("-" if sign < 0 else "") + text
        signed = signed[1:]
    for sign, text in signed:
        body += (" - " if sign < 0 else " + ") + text
    return "{" + body + "}"


def render(s: SetExpr) -> str:
    """Emit the expression grammar for s.

    Each leaf of leaves(s) renders as one union term, so
    parse(render(s)) == s unless a union has an empty part, which parse
    drops; the empty set renders as {}.
    """
    terms = []
    for leaf in leaves(s):
        if isinstance(leaf, Finite):
            text = "{" + ", ".join(_fmt_rat(p) for p in leaf.points) + "}"
        elif isinstance(leaf, Seq):
            start = leaf.tail.start
            text = _fmt_termfun(leaf.limit, [(leaf.tail, "n")])
            if start != 1:
                text += f"[n>={start}]"
        elif isinstance(leaf, Seq2):
            text = _fmt_termfun(leaf.limit, [(leaf.outer, "n"), (leaf.inner, "k")])
            if leaf.outer.start != 1:
                text += f"[n>={leaf.outer.start}]"
            if leaf.inner.start != 1:
                text += f"[k>={leaf.inner.start}]"
        elif isinstance(leaf, IntervalSet):
            iv = leaf.iv
            lb = "(" if iv.lo_open else "["
            rb = ")" if iv.hi_open else "]"
            text = f"{lb}{_fmt_rat(iv.lo)}, {_fmt_rat(iv.hi)}{rb}"
        elif isinstance(leaf, Dense):
            text = f"Q({_fmt_rat(leaf.lo)}, {_fmt_rat(leaf.hi)})"
        else:  # a Cantor leaf
            alpha, beta = leaf.alpha, leaf.beta
            text = "C" if alpha == 1 and beta == 0 else f"{_fmt_rat(alpha)}*C"
            if beta > 0:
                text += f" + {_fmt_rat(beta)}"
            elif beta < 0:
                text += f" - {_fmt_rat(-beta)}"
        terms.append(text)
    return " U ".join(terms)
