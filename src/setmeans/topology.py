"""Derived-set calculus and related point-set topology on set expressions.

All operations are structural: the derived set of each node shape is known
in closed form, so accumulation points, closures, ideal-relative limits,
splits, and isolated-point extraction are computed exactly.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .core import Interval, Rat, iu_normalize, point, rat
from .errors import (
    BudgetExceeded,
    InIdeal,
    NotIsolatedDense,
    SemanticError,
    Unsupported,
)
from .measure import _positive_intervals, neighborhood
from .setexpr import (
    Affine,
    Cantor,
    Dense,
    Finite,
    IntervalSet,
    Seq,
    Seq2,
    SetExpr,
    _seq_value_index,
    bounds,
    cantor_map,
    contains_point,
    has_uncountable_leaf,
    is_infinite,
    leaves,
    map_affine,
    normalize_affine,
    tf_value_bounds,
    union,
)
from .terms import (
    DoubleGeoTerm,
    GeoTerm,
    PowTerm,
    TermFun,
    _term_value_float,
    first_index,
    parts_cmp,
    tf_abs_below_index,
    tf_cmp,
    tf_eventual_sign,
    tf_find_value,
    tf_monotone_index,
    tf_scale,
    tf_value,
    tf_value_float,
    tf_value_parts,
    tf_with_start,
    tiny_signature,
)

EMPTY = Finite(())

# Tail-threshold searches give up past this index.
_INDEX_CAP = 1 << 50


def _tail_index(pred, lo: int) -> int:
    """first_index under _INDEX_CAP; a search past it exhausts the budget."""
    n = first_index(pred, lo, _INDEX_CAP)
    if n is None:
        raise BudgetExceeded("tail threshold search exceeded budget")
    return n


def is_empty_expr(s: SetExpr) -> bool:
    return all(isinstance(leaf, Finite) and not leaf.points for leaf in leaves(s))


def _drop_empty(parts) -> SetExpr:
    kept = [p for p in parts if not is_empty_expr(p)]
    if not kept:
        return EMPTY
    return union(*kept)


# ---------------------------------------------------------------------------
# derived sets and closures


def derived_set(s: SetExpr) -> SetExpr:
    """The set of accumulation points, within the same algebra.

    The result is flat and canonical.
    """
    parts: list[SetExpr] = []
    for leaf in leaves(s):
        if isinstance(leaf, Finite):
            continue
        if isinstance(leaf, Seq):
            parts.append(Finite((leaf.limit,)))
        elif isinstance(leaf, Seq2):
            parts.append(Seq(leaf.limit, leaf.outer))
            if leaf.inner != leaf.outer:
                parts.append(Seq(leaf.limit, leaf.inner))
            parts.append(Finite((leaf.limit,)))
        elif isinstance(leaf, IntervalSet):
            if not leaf.iv.is_point():
                parts.append(IntervalSet(Interval(leaf.iv.lo, leaf.iv.hi)))
        elif isinstance(leaf, Dense):
            parts.append(IntervalSet(Interval(leaf.lo, leaf.hi)))
        elif cantor_map(leaf) is not None:
            parts.append(leaf)
        else:
            raise TypeError(f"unknown node {leaf!r}")
    return union(*parts) if parts else EMPTY


def closure(s: SetExpr) -> SetExpr:
    """A set expression whose point set is the closure of s.

    The result is flat and canonical: each leaf of s contributes its own
    closure's leaves.
    """
    parts: list[SetExpr] = []
    for leaf in leaves(s):
        if isinstance(leaf, Seq):
            parts += [Finite((leaf.limit,)), leaf]
        elif isinstance(leaf, Seq2):
            parts += [leaf, derived_set(leaf)]
        elif isinstance(leaf, IntervalSet):
            parts.append(IntervalSet(Interval(leaf.iv.lo, leaf.iv.hi)))
        elif isinstance(leaf, Dense):
            parts.append(IntervalSet(Interval(leaf.lo, leaf.hi)))
        elif isinstance(leaf, Finite) or cantor_map(leaf) is not None:
            parts.append(leaf)
        else:
            raise TypeError(f"unknown node {leaf!r}")
    return union(*parts)


def acc_chain(s: SetExpr, max_depth: int = 16) -> tuple[list[SetExpr], bool]:
    """Successive derived sets until empty (terminated) or a fixpoint/cap."""
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    chain: list[SetExpr] = []
    cur = derived_set(s)  # derived sets come out flat and canonical
    prev: SetExpr | None = normalize_affine(s)
    for _ in range(max_depth):
        chain.append(cur)
        if is_empty_expr(cur):
            return chain, True
        if cur == prev:
            return chain, False  # nonempty fixpoint can never empty out
        prev = cur
        cur = derived_set(cur)
    return chain, False


# ---------------------------------------------------------------------------
# ideal-relative limits


class Ideal(enum.Enum):
    EMPTY_ONLY = "empty"
    FINITE_SETS = "finite"
    COUNTABLE_SETS = "countable"
    NULL_SETS = "null"


_IDEAL_ORDER = {
    Ideal.EMPTY_ONLY: 0,
    Ideal.FINITE_SETS: 1,
    Ideal.COUNTABLE_SETS: 2,
    Ideal.NULL_SETS: 3,
}


def _uncountable_leaf_bounds(ls) -> list[tuple[Rat, Rat]]:
    out = [(iv.lo, iv.hi) for iv in _positive_intervals(ls)]
    for leaf in ls:
        if cantor_map(leaf) is not None:
            lo, hi, _, _ = bounds(leaf)
            out.append((lo, hi))
    return out


def ideal_limits(s: SetExpr, ideal: Ideal) -> tuple[Rat, Rat]:
    """Ideal-relative lower and upper limits of a bounded nonempty set.

    The upper limit is the infimum of x such that the part of the set above
    x belongs to the ideal; on this class it reduces to exact leaf extremes.
    """
    if is_empty_expr(s):
        raise InIdeal("set is empty")
    if ideal is Ideal.EMPTY_ONLY:
        lo, hi, _, _ = bounds(s)
        return lo, hi
    if ideal is Ideal.FINITE_SETS:
        if not is_infinite(s):
            raise InIdeal("finite set")
        d = derived_set(s)
        lo, hi, _, _ = bounds(d)
        return lo, hi
    if ideal is Ideal.COUNTABLE_SETS:
        pieces = _uncountable_leaf_bounds(leaves(s))
        if not pieces:
            raise InIdeal("countable set")
        return min(p[0] for p in pieces), max(p[1] for p in pieces)
    if ideal is Ideal.NULL_SETS:
        ivs = _positive_intervals(leaves(s))
        if not ivs:
            raise InIdeal("set of measure zero")
        return min(iv.lo for iv in ivs), max(iv.hi for iv in ivs)
    raise TypeError(f"unknown ideal {ideal!r}")


# ---------------------------------------------------------------------------
# splitting at a point


def split_at(s: SetExpr, y: Rat) -> tuple[SetExpr, SetExpr]:
    """(H intersect (-inf, y], H intersect [y, +inf)) in the same algebra."""
    y = rat(y)
    below, above = zip(*(_split(leaf, y) for leaf in leaves(s)))
    return _drop_empty(below), _drop_empty(above)


def _split(s: SetExpr, y: Rat) -> tuple[SetExpr, SetExpr]:
    """split_at for one canonical leaf."""
    if isinstance(s, Finite):
        return (
            Finite(tuple(p for p in s.points if p <= y)),
            Finite(tuple(p for p in s.points if p >= y)),
        )
    if isinstance(s, IntervalSet):
        iv = s.iv
        if y < iv.lo or (y == iv.lo and iv.lo_open):
            return EMPTY, s
        if y > iv.hi or (y == iv.hi and iv.hi_open):
            return s, EMPTY
        below = IntervalSet(Interval(iv.lo, y, iv.lo_open, False))
        above = IntervalSet(Interval(y, iv.hi, False, iv.hi_open))
        return below, above
    if isinstance(s, Dense):
        if y <= s.lo:
            return EMPTY, s
        if y >= s.hi:
            return s, EMPTY
        at = [Finite((y,))] if contains_point(s, y) else []
        below = _drop_empty([Dense(s.lo, y)] + at)
        above = _drop_empty([Dense(y, s.hi)] + at)
        return below, above
    if isinstance(s, Seq):
        return _split_seq(s, y)
    if isinstance(s, Seq2):
        if tf_eventual_sign(s.outer) < 0:
            b, a = _split(map_affine(s, -1, 0), -y)
            return map_affine(a, -1, 0), map_affine(b, -1, 0)
        return _split_seq2(s, y)
    if (cm := cantor_map(s)) is not None:
        alpha, beta = cm
        b, a = _split_cantor((y - beta) / alpha)
        b, a = map_affine(b, alpha, beta), map_affine(a, alpha, beta)
        return (b, a) if alpha > 0 else (a, b)
    raise TypeError(f"unknown node {s!r}")


def _split_cantor(y: Rat, depth: int = 0) -> tuple[SetExpr, SetExpr]:
    c = Cantor()
    if y <= 0:
        below = Finite((Fraction(0),)) if y == 0 else EMPTY
        return below, c
    if y >= 1:
        above = Finite((Fraction(1),)) if y == 1 else EMPTY
        return c, above
    if depth > 256:
        raise Unsupported("cut point requires infinitely many cantor pieces")
    third = Fraction(1, 3)
    if Fraction(1, 3) <= y < Fraction(2, 3):
        left = Affine(third, Fraction(0), c)
        right = Affine(third, Fraction(2, 3), c)
        at = [Finite((y,))] if y == third else []
        return _drop_empty([left] + at), _drop_empty([right] + at)
    if y < third:
        b, a = _split_cantor(3 * y, depth + 1)
        b, a = map_affine(b, third, 0), map_affine(a, third, 0)
        return b, _drop_empty([a, Affine(third, Fraction(2, 3), c)])
    b, a = _split_cantor(3 * y - 2, depth + 1)
    b, a = map_affine(b, third, Fraction(2, 3)), map_affine(a, third, Fraction(2, 3))
    return _drop_empty([Affine(third, Fraction(0), c), b]), a


_SPLIT_CAP = 100_000


def _split_seq(s: Seq, y: Rat) -> tuple[SetExpr, SetExpr]:
    tf = s.tail
    m = tf_monotone_index(tf)
    t = y - s.limit
    below_pts = []
    above_pts = []
    for n in range(tf.start, m + 1):
        v = tf_value(tf, n)
        if v <= t:
            below_pts.append(s.limit + v)
        if v >= t:
            above_pts.append(s.limit + v)
    sign = tf_eventual_sign(tf)
    tail = Seq(s.limit, tf_with_start(tf, m + 1))
    if sign > 0:
        if t <= 0:
            return (
                Finite(tuple(below_pts)),
                _drop_empty([Finite(tuple(above_pts)), tail]),
            )
        # tail values descend to 0: find first index with value <= t
        n_star = _tail_index(lambda n: tf_cmp(tf, n, t) <= 0, m + 1)
        if n_star - (m + 1) > _SPLIT_CAP:
            raise BudgetExceeded("split produces too many explicit points")
        for n in range(m + 1, n_star):
            v = tf_value(tf, n)
            if v >= t:  # v > t except possible boundary equality
                above_pts.append(s.limit + v)
        lower_tail = Seq(s.limit, tf_with_start(tf, n_star))
        if tf_cmp(tf, n_star, t) == 0:
            above_pts.append(s.limit + tf_value(tf, n_star))
        return (
            _drop_empty([Finite(tuple(below_pts)), lower_tail]),
            Finite(tuple(above_pts)),
        )
    # negative tail: mirror through reflection
    b, a = _split_seq(map_affine(s, -1, 0), -y)
    return map_affine(a, -1, 0), map_affine(b, -1, 0)


def _split_seq2(s: Seq2, y: Rat) -> tuple[SetExpr, SetExpr]:
    """Split a double sequence with positive parts; finitely many straddlers."""
    f, g = s.outer, s.inner
    _, g_top, _, _ = tf_value_bounds(g)
    t = y - s.limit
    if t <= 0:
        return EMPTY, s
    mf = tf_monotone_index(f)
    lo_all, hi_all, _, _ = bounds(s)
    if y > hi_all:
        return s, EMPTY
    if t <= g_top:
        raise Unsupported("cut point lies in the accumulation band of clusters")
    # clusters with outer value <= t - g_top sit entirely at or below y
    n_c = _tail_index(lambda n: tf_cmp(f, n, t - g_top) <= 0, mf + 1)
    if n_c - f.start > 10_000:
        raise BudgetExceeded("split produces too many explicit clusters")
    below_parts: list[SetExpr] = [Seq2(s.limit, tf_with_start(f, n_c), g)]
    above_parts: list[SetExpr] = []
    if tf_cmp(f, n_c, t - g_top) == 0:
        above_parts.append(Finite((y,)))  # that cluster's top lands on y
    for n in range(f.start, n_c):
        cluster = Seq(s.limit + tf_value(f, n), g)
        b, a = _split_seq(cluster, y)
        below_parts.append(b)
        above_parts.append(a)
    return _drop_empty(below_parts), _drop_empty(above_parts)


# ---------------------------------------------------------------------------
# accumulation structure with sidedness


@dataclass(frozen=True)
class AccPoint:
    value: Rat
    left_sided: bool
    right_sided: bool

    def __post_init__(self):
        if not (self.left_sided or self.right_sided):
            raise SemanticError("accumulation point needs a side")


@dataclass
class AccFamily:
    """A monotone tail {limit + tf(n) : n >= start} of accumulation points."""

    limit: Rat
    tf: TermFun
    start: int
    left_sided: bool  # sidedness of the family's points as acc points of H
    right_sided: bool

    def value(self, n: int) -> Rat:
        return self.limit + tf_value(self.tf, n)

    def span(self) -> tuple[Rat, Rat]:
        v = self.value(self.start)
        return (min(self.limit, v), max(self.limit, v))


@dataclass
class AccStructure:
    anchors: list[AccPoint]  # sorted by value, distinct values
    families: list[AccFamily]  # disjoint open ranges, limits are anchors

    def min_value(self) -> Rat:
        cands = [a.value for a in self.anchors]
        for fam in self.families:
            if tf_eventual_sign(fam.tf) < 0:
                cands.append(fam.value(fam.start))
        return min(cands)

    def max_value(self) -> Rat:
        cands = [a.value for a in self.anchors]
        for fam in self.families:
            if tf_eventual_sign(fam.tf) > 0:
                cands.append(fam.value(fam.start))
        return max(cands)

    def count_if_finite(self) -> int:
        return len(self.anchors) if not self.families else -1


def _point_leaves(s: SetExpr) -> list[SetExpr]:
    """leaves(s), with each one-point interval read as the finite point it is."""
    return [
        Finite((leaf.iv.lo,)) if isinstance(leaf, IntervalSet) and leaf.iv.is_point() else leaf
        for leaf in leaves(s)
    ]


def _merge_flag(table: dict, value: Rat, left: bool, right: bool):
    l0, r0 = table.get(value, (False, False))
    table[value] = (l0 or left, r0 or right)


def acc_structure(s: SetExpr) -> AccStructure:
    """Anchors and monotone families of H' with approach sidedness.

    Requires a countable set built from finite/sequence leaves.
    """
    if has_uncountable_leaf(s):
        raise Unsupported("accumulation structure needs a countable set")
    anchor_flags: dict[Rat, tuple[bool, bool]] = {}
    families: list[AccFamily] = []
    for leaf in _point_leaves(s):
        if isinstance(leaf, Finite):
            continue
        if isinstance(leaf, Dense):
            raise Unsupported("dense filler has a continuum of accumulation points")
        if isinstance(leaf, Seq):
            sign = tf_eventual_sign(leaf.tail)
            _merge_flag(anchor_flags, leaf.limit, sign < 0, sign > 0)
            continue
        if isinstance(leaf, Seq2):
            sign = tf_eventual_sign(leaf.outer)
            _merge_flag(anchor_flags, leaf.limit, sign < 0, sign > 0)
            fams = [leaf.outer]
            if leaf.inner != leaf.outer:
                fams.append(leaf.inner)
            for tf in fams:
                families.append(
                    AccFamily(
                        limit=leaf.limit,
                        tf=tf,
                        start=tf_monotone_index(tf),
                        left_sided=sign < 0,
                        right_sided=sign > 0,
                    )
                )
            continue
        raise Unsupported(f"unsupported leaf for accumulation structure: {leaf!r}")

    # family prefix points (before the monotone tail) become plain anchors
    for fam in families:
        for n in range(fam.tf.start, fam.start):
            _merge_flag(
                anchor_flags, fam.limit + tf_value(fam.tf, n), fam.left_sided, fam.right_sided
            )

    _separate_families(anchor_flags, families)
    anchors = [
        AccPoint(v, l, r) for v, (l, r) in sorted(anchor_flags.items())
    ]
    return AccStructure(anchors, families)


def _separate_families(anchor_flags: dict, families: list[AccFamily]):
    """Trim family starts until ranges are disjoint and anchor-free."""
    for _ in range(64):
        changed = False
        for i, fam in enumerate(families):
            lo, hi = fam.span()
            conflicts = [
                v for v in anchor_flags if lo < v <= hi and v != fam.limit
            ] if tf_eventual_sign(fam.tf) > 0 else [
                v for v in anchor_flags if lo <= v < hi and v != fam.limit
            ]
            for j, other in enumerate(families):
                if i == j:
                    continue
                olo, ohi = other.span()
                if lo < ohi and olo < hi:
                    if fam.limit == other.limit and fam.tf == other.tf:
                        continue
                    if fam.limit == other.limit:
                        raise Unsupported(
                            "interleaved accumulation families share a limit"
                        )
                    conflicts.append(other.limit)  # force a trim toward own limit
            if conflicts:
                target = min(
                    (abs(v - fam.limit) for v in conflicts if v != fam.limit),
                    default=None,
                )
                if target is None or target == 0:
                    raise Unsupported("cannot separate accumulation families")
                new_start = max(
                    fam.start + 1, tf_abs_below_index(fam.tf, target)
                )
                if new_start - fam.tf.start > 100_000:
                    raise BudgetExceeded("family separation trimmed too far")
                for n in range(fam.start, new_start):
                    _merge_flag(
                        anchor_flags,
                        fam.limit + tf_value(fam.tf, n),
                        fam.left_sided,
                        fam.right_sided,
                    )
                fam.start = new_start
                changed = True
        if not changed:
            return
    raise Unsupported("family separation did not stabilize")


# ---------------------------------------------------------------------------
# one-sided accumulation queries (exact)


def acc_membership(st: AccStructure, x: Rat) -> tuple[bool, bool, bool]:
    """(is x in H', left_sided, right_sided)."""
    for a in st.anchors:
        if a.value == x:
            return True, a.left_sided, a.right_sided
    for fam in st.families:
        lo, hi = fam.span()
        if lo <= x <= hi and x != fam.limit:
            idx = tf_find_value(fam.tf, x - fam.limit, fam.start)
            if idx is not None and idx >= fam.start:
                return True, fam.left_sided, fam.right_sided
    return False, False, False


def acc_sup_below(st: AccStructure, x: Rat) -> Rat | None:
    """sup of accumulation values strictly below x (None if none)."""
    best: Rat | None = None
    for a in st.anchors:
        if a.value < x:
            best = a.value if best is None or a.value > best else best
    for fam in st.families:
        v = _fam_extreme_below(fam, x)
        if v is not None:
            best = v if best is None or v > best else best
    return best


def acc_inf_above(st: AccStructure, x: Rat) -> Rat | None:
    best: Rat | None = None
    for a in st.anchors:
        if a.value > x:
            best = a.value if best is None or a.value < best else best
    for fam in st.families:
        v = _fam_extreme_above(fam, x)
        if v is not None:
            best = v if best is None or v < best else best
    return best


def _fam_extreme_below(fam: AccFamily, x: Rat) -> Rat | None:
    """Supremum of family values strictly below x (None if there are none).

    May return an unattained supremum (the family limit) when the values
    accumulate at x from below; one-sided limit computations want exactly
    that value.
    """
    sign = tf_eventual_sign(fam.tf)
    t = x - fam.limit
    if sign > 0:
        # values in (limit, top], decreasing in n toward the limit
        if t <= 0:
            return None
        top = fam.value(fam.start)
        if x > top:
            return top
        n = _tail_index(lambda n: tf_cmp(fam.tf, n, t) < 0, fam.start)
        return fam.value(n)
    # negative family: values in [bottom, limit), increasing with n
    bottom = fam.value(fam.start)
    if x <= bottom:
        return None
    if x >= fam.limit:
        return fam.limit  # values accumulate just under the limit
    # the last value below x sits just before the first one at or above it
    n = _tail_index(lambda n: tf_cmp(fam.tf, n, t) >= 0, fam.start) - 1
    return fam.value(n)


def _fam_extreme_above(fam: AccFamily, x: Rat) -> Rat | None:
    """Infimum of family values strictly above x (None if there are none)."""
    sign = tf_eventual_sign(fam.tf)
    t = x - fam.limit
    if sign > 0:
        top = fam.value(fam.start)
        if x >= top:
            return None
        if t <= 0:
            return fam.limit  # values accumulate just above the limit
        n = _tail_index(lambda n: tf_cmp(fam.tf, n, t) <= 0, fam.start)
        # values decrease with n; the smallest one above t is at index n-1
        return fam.value(n - 1) if n - 1 >= fam.start else None
    # negative family: values in [bottom, limit), increasing with n
    bottom = fam.value(fam.start)
    if x < bottom:
        return bottom
    if x >= fam.limit:
        return None
    n = first_index(lambda n: tf_cmp(fam.tf, n, t) > 0, fam.start, _INDEX_CAP)
    return fam.value(n) if n is not None else None


# ---------------------------------------------------------------------------
# isolated points


def _check_isolated_dense(ls):
    for leaf in ls:
        if not isinstance(leaf, (Finite, Seq, Seq2)):
            raise NotIsolatedDense(
                "set is not the closure of its isolated points"
            )


def _leaf_candidates_exact(leaf, delta: Rat, budget: int):
    """Yield (main, tinies, float value) for points that could survive."""
    if isinstance(leaf, Finite):
        for p in leaf.points:
            yield p, (), float(p)
        return
    if isinstance(leaf, Seq):
        tf = leaf.tail
        cutoff = tf_abs_below_index(tf, delta)
        if cutoff - tf.start > budget:
            raise BudgetExceeded("isolated point budget exhausted")
        for n in range(tf.start, cutoff):
            main, tinies = tf_value_parts(tf, n)
            total = leaf.limit + main
            yield total, tinies, float(total)
        return
    if isinstance(leaf, Seq2):
        n_cut = tf_abs_below_index(leaf.outer, delta)
        k_cut = tf_abs_below_index(leaf.inner, delta)
        if (n_cut - leaf.outer.start) * max(k_cut - leaf.inner.start, 1) > budget:
            raise BudgetExceeded("isolated point budget exhausted")
        inner = [tf_value_parts(leaf.inner, k) for k in range(leaf.inner.start, k_cut)]
        inner = [(gm, gt) for gm, gt in inner if abs(gm) >= delta]
        for n in range(leaf.outer.start, n_cut):
            fm, ft = tf_value_parts(leaf.outer, n)
            if abs(fm) < delta:
                continue
            base = leaf.limit + fm
            for gm, gt in inner:
                total = base + gm
                yield total, ft + gt, float(total)
        return
    raise NotIsolatedDense("set is not the closure of its isolated points")


def _iter_unique_candidates(ls, delta: Rat, budget: int):
    """All candidates across leaves, each distinct value exactly once."""
    seen: set = set()
    for leaf in ls:
        for main, tinies, xf in _leaf_candidates_exact(leaf, delta, budget):
            key = (main, tiny_signature(tinies))
            if key in seen:
                continue
            seen.add(key)
            yield main, tinies, xf


def _survivors(s: SetExpr, ls, delta: Rat, budget: int):
    """(main, tinies, float value) of each distinct candidate point of H
    outside the open zone neighborhood(derived_set(s), delta), in candidate
    order.

    The zone is the union of the open delta-balls around H': read at scale
    2*delta, a family's chained tail and its limit give one open interval.
    Its parts are open and disjoint, so a candidate x lies in the zone iff
    the last part with lo < x has x < hi; a float bisect finds that part and
    exact comparisons settle it.  The zone may cost `budget` parts.
    """
    zone = neighborhood(derived_set(s), delta, budget).parts
    los = [float(p.lo) for p in zone]
    for main, tinies, xf in _iter_unique_candidates(ls, delta, budget):
        # float() is monotone, so the part sits next to the bisect point;
        # the loops only move when a float tie or a tiny tail hides it
        i = bisect_right(los, xf)
        while i < len(zone) and parts_cmp(main, tinies, zone[i].lo) > 0:
            i += 1
        while i > 0 and parts_cmp(main, tinies, zone[i - 1].lo) <= 0:
            i -= 1
        if i == 0 or parts_cmp(main, tinies, zone[i - 1].hi) >= 0:
            yield main, tinies, xf


def isolated_outside(s: SetExpr, delta: Rat, budget: int = 1_000_000) -> list[Rat]:
    """The finite set of points of H outside neighborhood(derived_set(s),
    delta), the open delta-neighbourhood of the accumulation set H': a point
    at distance exactly delta from H' stays."""
    delta = rat(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    ls = _point_leaves(s)
    _check_isolated_dense(ls)
    out: list[Rat] = []
    for main, tinies, _xf in _survivors(s, ls, delta, budget):
        if tinies:
            raise BudgetExceeded(
                "exact isolated points would need untractable precision"
            )
        out.append(main)
        if len(out) > budget:
            raise BudgetExceeded("isolated point budget exhausted")
    return sorted(out)


def isolated_stats(
    s: SetExpr, delta: Rat, budget: int = 10_000_000, *, collisions: dict | None = None
) -> tuple[int, float]:
    """(count, uncompensated float sum) of H minus the open delta-ball zone
    neighborhood(derived_set(s), delta); a point at distance exactly delta
    from H' counts.

    Without a double-sequence leaf H' is finite and each leaf is summed in
    closed form; otherwise every candidate is tested against the zone.
    `collisions` keeps the answers to the delta-independent questions of
    the dedup (`_build_skips`), so calls that share it ask each one once.
    """
    ls = _point_leaves(s)
    _check_isolated_dense(ls)
    if any(isinstance(l, Seq2) for l in ls):
        count = 0
        total = 0.0
        for _main, _tinies, xf in _survivors(s, ls, delta, min(budget, 400_000)):
            count += 1
            total += xf
        return count, total
    points = [p for leaf in leaves(derived_set(s)) for p in leaf.points]
    skips = _build_skips(ls, delta, {} if collisions is None else collisions)
    count = 0
    total = 0.0
    for leaf, skip in zip(ls, skips):
        c, t = _fast_leaf_scan(leaf, skip, points, delta, budget - count)
        count += c
        total += t
    return count, total


def _fast_leaf_scan(leaf, skip: set, points: list[Rat], delta: Rat, budget: int):
    """Survivor count and float sum for one finite or sequence leaf.

    The exclusion zone around each accumulation point cuts a contiguous index
    range out of the monotone tail, so survivors form finitely many index
    ranges whose sums have closed forms; no per-candidate scanning.
    """
    def exact_excluded(x: Rat) -> bool:
        return any(abs(x - p) < delta for p in points)

    count = 0
    total = 0.0
    if isinstance(leaf, Finite):
        for p in leaf.points:
            if ("f", p) in skip or exact_excluded(p):
                continue
            count += 1
            total += float(p)
        return count, total
    tf0 = leaf.tail
    if tf_eventual_sign(tf0) > 0:
        tf, lim, flip = tf0, leaf.limit, 1
    else:
        tf, lim, flip = tf_scale(tf0, -1), -leaf.limit, -1
    m = tf_monotone_index(tf)
    # prefix before the monotone tail: explicit exact checks
    for n in range(tf.start, m):
        if ("s", n) in skip:
            continue
        x = leaf.limit + tf_value(tf0, n)
        if not exact_excluded(x):
            count += 1
            total += float(x)
    # each accumulation point excludes one contiguous tail range
    excluded: list[tuple[int, int]] = []  # [lo, hi) index ranges
    tail_end = None
    for p in points:
        t = flip * (p - leaf.limit)
        lo_val, hi_val = t - delta, t + delta
        if hi_val <= 0:
            continue  # the open exclusion band misses the positive tail
        n1 = _tail_index(lambda n: tf_cmp(tf, n, hi_val) < 0, m)
        if lo_val <= 0:
            n2 = None  # band reaches below the tail: excluded forever
        else:
            # first f(n) <= t - delta; f(n2) == t - delta survives (open ball)
            n2 = _tail_index(lambda n: tf_cmp(tf, n, lo_val) <= 0, m)
        if n2 is None:
            tail_end = n1 if tail_end is None else min(tail_end, n1)
        elif n2 > n1:
            excluded.append((n1, n2))
    if tail_end is None:
        raise BudgetExceeded("sequence survives near its own limit")
    if tail_end - m > 100_000_000:
        raise BudgetExceeded("isolated point budget exhausted")
    excluded = [r for r in ((max(lo, m), min(hi, tail_end)) for lo, hi in excluded) if r[0] < r[1]]
    excluded.sort()
    merged: list[list[int]] = []
    for lo, hi in excluded:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    survivors: list[tuple[int, int]] = []
    cursor = m
    for lo, hi in merged:
        if lo > cursor:
            survivors.append((cursor, lo))
        cursor = max(cursor, hi)
    if cursor < tail_end:
        survivors.append((cursor, tail_end))
    lf = float(leaf.limit)
    for lo, hi in survivors:
        if hi - lo > budget:
            raise BudgetExceeded("isolated point budget exhausted")
        count += hi - lo
        total += (hi - lo) * lf + flip * _tf_range_sum_float(tf, lo, hi)
    # in index order: a float sum must not follow the set's hash order
    for n in sorted(n for kind, n in skip if kind == "s"):
        if any(lo <= n < hi for lo, hi in survivors):
            count -= 1
            total -= lf + flip * tf_value_float(tf, n)
    return count, total


_EULER_GAMMA = 0.5772156649015328606


def _harmonic_float(n: int) -> float:
    if n <= 0:
        return 0.0
    if n < 32:
        return sum(1.0 / k for k in range(1, n + 1))
    inv = 1.0 / n
    inv2 = inv * inv
    return (
        math.log(n)
        + _EULER_GAMMA
        + inv / 2
        - inv2 / 12
        + inv2 * inv2 / 120
        - inv2 * inv2 * inv2 / 252
    )


def _pow_tail_float(p: int, n: int) -> float:
    """sum over k > n of k^-p, p >= 2."""
    if n < 32:
        return sum(1.0 / k**p for k in range(n + 1, 33)) + _pow_tail_float(p, 32)
    x = float(n)
    ivp = x ** (1 - p) / (p - 1)
    return (
        ivp
        - 0.5 * x**-p
        + (p / 12.0) * x ** (-p - 1)
        - (p * (p + 1) * (p + 2) / 720.0) * x ** (-p - 3)
    )


def _pow_range_sum_float(p: int, a: int, b: int) -> float:
    """sum over n in [a, b) of n^-p."""
    if b <= a:
        return 0.0
    if p == 1:
        return _harmonic_float(b - 1) - _harmonic_float(a - 1)
    return _pow_tail_float(p, a - 1) - _pow_tail_float(p, b - 1)


def _tf_range_sum_float(tf: TermFun, a: int, b: int) -> float:
    """sum over n in [a, b) of tf(n), in floats, via per-term closed forms."""
    if b <= a:
        return 0.0
    total = 0.0
    for t in tf.terms:
        if isinstance(t, PowTerm):
            total += float(t.c) * _pow_range_sum_float(t.p, a, b)
        elif isinstance(t, GeoTerm):
            rf = float(t.r)
            ra = math.exp(a * math.log(rf)) if a * math.log(rf) > -700 else 0.0
            rb = math.exp(b * math.log(rf)) if b * math.log(rf) > -700 else 0.0
            total += float(t.c) * (ra - rb) / (1 - rf)
        else:
            assert isinstance(t, DoubleGeoTerm)
            for n in range(a, min(b, a + 64)):
                total += _term_value_float(t, n)
    return total


def _build_skips(leaves, delta: Rat, memo: dict) -> list[set]:
    """Candidate ids to skip per leaf, so shared values count exactly once.

    Collisions are resolved structurally: repeated finite points, sequence
    indices hitting a finite point, and equal values between two sequence
    leaves (solved through the monotone tails, never by scanning floats).
    Which index of a tail takes a value, and a tail's value parts at an
    index, do not depend on delta: `memo` keeps them across calls.
    """

    def asked(key, question):
        """question, answering each argument once for all users of memo."""
        known = memo.setdefault(key, {})

        def ask(arg):
            if arg not in known:
                known[arg] = question(arg)
            return known[arg]

        return ask

    def index_in(leaf: Seq):
        limit, tf = leaf.limit, leaf.tail
        return asked(("index", limit, tf), lambda x: _seq_value_index(limit, tf, x))

    def parts_of(tf: TermFun):
        return asked(("parts", tf), lambda n: tf_value_parts(tf, n))

    skips: list[set] = [set() for _ in leaves]
    finite_vals: dict[Rat, int] = {}
    for i, leaf in enumerate(leaves):
        if isinstance(leaf, Finite):
            for p in leaf.points:
                if p in finite_vals:
                    skips[i].add(("f", p))
                else:
                    finite_vals[p] = i
    seq_ids = [i for i, l in enumerate(leaves) if isinstance(l, Seq)]
    for j in seq_ids:
        index = index_in(leaves[j])
        for p in finite_vals:
            idx = index(p)
            if idx is not None:
                skips[j].add(("s", idx))
    # pairwise sequence overlap: keep the copy of the leaf whose tail drops
    # below delta sooner (the earlier leaf on a tie)
    spans = {i: bounds(leaves[i])[:2] for i in seq_ids}
    tiny_keys: dict = {}
    for pos_a in range(len(seq_ids)):
        for pos_b in range(pos_a + 1, len(seq_ids)):
            i, j = seq_ids[pos_a], seq_ids[pos_b]
            (alo, ahi), (blo, bhi) = spans[i], spans[j]
            if ahi < blo or bhi < alo:
                continue
            A, B = leaves[i], leaves[j]
            cut_a = tf_abs_below_index(A.tail, delta) - A.tail.start
            cut_b = tf_abs_below_index(B.tail, delta) - B.tail.start
            if min(cut_a, cut_b) > 20_000:
                raise BudgetExceeded("sequence-overlap dedup too large")
            if cut_a <= cut_b:
                src, dst, dst_idx = A, B, j
            else:
                src, dst, dst_idx = B, A, i
            src_parts, dst_index = parts_of(src.tail), index_in(dst)
            for n in range(src.tail.start, src.tail.start + min(cut_a, cut_b)):
                main, tinies = src_parts(n)
                if tinies:
                    continue  # symbolic tails handled by signature below
                hit = dst_index(src.limit + main)
                if hit is not None:
                    skips[dst_idx].add(("s", hit))
    # symbolic-tail candidates are few; dedup them by exact signature
    for j in seq_ids:
        leaf = leaves[j]
        cutoff = tf_abs_below_index(leaf.tail, delta)
        lo = leaf.tail.start
        parts = parts_of(leaf.tail)
        if cutoff - lo > 200:
            # a symbolic tail, once it appears, stays: exponents grow with n
            has_tiny = lambda n: bool(parts(n)[1])
            lo = _tail_index(has_tiny, lo) if has_tiny(cutoff - 1) else cutoff
        for n in range(lo, cutoff):
            main, tinies = parts(n)
            if not tinies:
                continue
            key = (leaf.limit + main, tiny_signature(tinies))
            if key in tiny_keys:
                skips[j].add(("s", n))
            else:
                tiny_keys[key] = (j, n)
    return skips


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


def _cantor_min_ge(t: Rat) -> Rat | None:
    m = _cantor_max_le(1 - t)
    return None if m is None else 1 - m


def _dist_point_cantor(x: Rat) -> Rat:
    below = _cantor_max_le(x)
    above = _cantor_min_ge(x)
    cands = []
    if below is not None:
        cands.append(x - below)
    if above is not None:
        cands.append(above - x)
    return min(cands)


def _closure_profile(s: SetExpr):
    """("iu", union) for a closure made of points and intervals, a point
    being a degenerate part, or ("cantor", alpha, beta) for a mapped C."""
    ls = leaves(closure(s))
    if all(isinstance(l, (Finite, IntervalSet)) for l in ls):
        parts = [Interval(l.iv.lo, l.iv.hi) for l in ls if isinstance(l, IntervalSet)]
        parts += [point(p) for l in ls if isinstance(l, Finite) for p in l.points]
        if not parts:
            raise Unsupported("hausdorff distance of an empty set is not defined")
        return ("iu", iu_normalize(parts))
    cmap = cantor_map(ls[0]) if len(ls) == 1 else None
    if cmap is not None:
        return ("cantor", *cmap)
    raise Unsupported("hausdorff distance not implemented for this shape pair")


def _dist_point_finite(x: Rat, pts: list[Rat]) -> Rat:
    return min(abs(x - p) for p in pts)


def _dist_point_iu(x: Rat, u) -> Rat:
    return min(max(p.lo - x, x - p.hi, Fraction(0)) for p in u.parts)


def _directed_iu_to_any(u, dist_fn, breakpoints) -> Rat:
    """sup over the union of a piecewise-linear distance; candidates are part
    endpoints plus interior breakpoints of the distance function."""
    cands = []
    for p in u.parts:
        cands.append(p.lo)
        if p.hi != p.lo:
            cands.append(p.hi)
            cands.extend(b for b in breakpoints if p.lo < b < p.hi)
    return max(dist_fn(c) for c in cands)


def hausdorff_distance(a: SetExpr, b: SetExpr) -> Rat:
    """Exact Hausdorff distance between the closures of a and b.

    Supported pairs: unions of points and intervals, and a cantor set
    against finitely many points.
    """
    pa = _closure_profile(a)
    pb = _closure_profile(b)
    if pa[0] == pb[0] == "iu":
        ua, ub = pa[1], pb[1]
        d1 = _directed_iu_to_any(ua, lambda x: _dist_point_iu(x, ub), _gap_midpoints(ub))
        d2 = _directed_iu_to_any(ub, lambda x: _dist_point_iu(x, ua), _gap_midpoints(ua))
        return max(d1, d2)
    profs = {pa[0]: pa, pb[0]: pb}
    if set(profs) == {"cantor", "iu"} and all(p.lo == p.hi for p in profs["iu"][1].parts):
        alpha, beta = profs["cantor"][1], profs["cantor"][2]
        # map the points into base cantor coordinates
        base_pts = sorted((p.lo - beta) / alpha for p in profs["iu"][1].parts)
        scale = abs(alpha)
        d1 = scale * max(_dist_point_cantor(p) for p in base_pts)
        # directed cantor -> finite: candidates are cantor extremes around the
        # tent peaks (midpoints) plus the cantor endpoints 0 and 1
        cands = [Fraction(0), Fraction(1)]
        for p, q in zip(base_pts, base_pts[1:]):
            m = (p + q) / 2
            lo = _cantor_max_le(m)
            hi = _cantor_min_ge(m)
            if lo is not None:
                cands.append(lo)
            if hi is not None:
                cands.append(hi)
        d2 = scale * max(_dist_point_finite(c, base_pts) for c in cands)
        return max(d1, d2)
    raise Unsupported("hausdorff distance not implemented for this shape pair")


def _gap_midpoints(u) -> list[Rat]:
    return [(p.hi + q.lo) / 2 for p, q in zip(u.parts, u.parts[1:])]
