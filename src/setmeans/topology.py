"""Derived-set calculus and related point-set topology on set expressions.

All operations are structural: the derived set of each node shape is known
in closed form, so accumulation points, closures, ideal-relative limits,
splits, and isolated-point extraction are computed exactly.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from fractions import Fraction

from .core import Interval, Rat, Value, _merge_ranges, _set, iu_normalize, rat
from .errors import (
    BudgetExceeded,
    InIdeal,
    NotIsolatedDense,
    SemanticError,
    Unsupported,
)
from .measure import _positive_intervals, neighborhood
from .setexpr import (
    Cantor,
    Dense,
    Finite,
    IntervalSet,
    Seq,
    Seq2,
    SetExpr,
    _cantor_max_le,
    _seq_value_index,
    bounds,
    contains_point,
    has_uncountable_leaf,
    is_infinite,
    leaf_points,
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
    return all(leaf_points(leaf) == () for leaf in leaves(s))


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
        if leaf_points(leaf) is not None:
            continue
        if isinstance(leaf, Seq):
            parts.append(Finite((leaf.limit,)))
        elif isinstance(leaf, Seq2):
            parts.append(Seq(leaf.limit, leaf.outer))
            if leaf.inner != leaf.outer:
                parts.append(Seq(leaf.limit, leaf.inner))
            parts.append(Finite((leaf.limit,)))
        elif isinstance(leaf, IntervalSet):
            parts.append(IntervalSet(Interval(leaf.iv.lo, leaf.iv.hi)))
        elif isinstance(leaf, Dense):
            parts.append(IntervalSet(Interval(leaf.lo, leaf.hi)))
        else:  # a Cantor leaf is perfect
            parts.append(leaf)
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
        else:  # a Finite or Cantor leaf is closed
            parts.append(leaf)
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
    """The ideals in their definition order, each inside the next."""

    EMPTY_ONLY = "empty"
    FINITE_SETS = "finite"
    COUNTABLE_SETS = "countable"
    NULL_SETS = "null"


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
        pieces = [
            bounds(leaf)[:2]
            for leaf in leaves(s)
            if isinstance(leaf, (IntervalSet, Cantor)) and leaf_points(leaf) is None
        ]
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
    if isinstance(s, (Seq, Seq2)):
        if tf_eventual_sign(s.tail if isinstance(s, Seq) else s.outer) < 0:
            # a negative tail: split the reflection, which has a positive one
            b, a = _split(map_affine(s, -1, 0), -y)
            return map_affine(a, -1, 0), map_affine(b, -1, 0)
        return _split_seq(s, y) if isinstance(s, Seq) else _split_seq2(s, y)
    # a Cantor leaf alpha * C + beta
    alpha, beta = s.alpha, s.beta
    b, a = _split_cantor((y - beta) / alpha)
    b, a = map_affine(b, alpha, beta), map_affine(a, alpha, beta)
    return (b, a) if alpha > 0 else (a, b)


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
    left, right = Cantor(third, Fraction(0)), Cantor(third, Fraction(2, 3))
    if third <= y < Fraction(2, 3):
        at = [Finite((y,))] if y == third else []
        return _drop_empty([left] + at), _drop_empty([right] + at)
    if y < third:
        b, a = _split_cantor(3 * y, depth + 1)
        b, a = map_affine(b, third, 0), map_affine(a, third, 0)
        return b, _drop_empty([a, right])
    b, a = _split_cantor(3 * y - 2, depth + 1)
    b, a = map_affine(b, third, Fraction(2, 3)), map_affine(a, third, Fraction(2, 3))
    return _drop_empty([left, b]), a


_SPLIT_CAP = 100_000


def _split_seq(s: Seq, y: Rat) -> tuple[SetExpr, SetExpr]:
    """Split a sequence with a positive tail."""
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
    if t <= 0:
        tail = Seq(s.limit, tf_with_start(tf, m + 1))
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


class AccPoint(Value):
    __slots__ = ("value", "left_sided", "right_sided")

    def __init__(self, value: Rat, left_sided: bool, right_sided: bool):
        if not (left_sided or right_sided):
            raise SemanticError("accumulation point needs a side")
        _set(self, "value", value)
        _set(self, "left_sided", left_sided)
        _set(self, "right_sided", right_sided)


class AccFamily:
    """A monotone tail {limit + tf(n) : n >= start} of accumulation points;
    the sides are those of the family's points as accumulation points of H."""

    __slots__ = ("limit", "tf", "start", "left_sided", "right_sided")

    def __init__(self, limit: Rat, tf: TermFun, start: int, left_sided: bool, right_sided: bool):
        self.limit = limit
        self.tf = tf
        self.start = start
        self.left_sided = left_sided
        self.right_sided = right_sided

    def value(self, n: int) -> Rat:
        return self.limit + tf_value(self.tf, n)

    def span(self) -> tuple[Rat, Rat]:
        v = self.value(self.start)
        return (min(self.limit, v), max(self.limit, v))


class AccStructure:
    __slots__ = ("anchors", "families")

    def __init__(self, anchors: list[AccPoint], families: list[AccFamily]):
        self.anchors = anchors  # sorted by value, distinct values
        self.families = families  # disjoint open ranges, limits are anchors

    # a family's limit is an anchor, so of its values only the first, at
    # its far end, can be an extreme of H'
    def min_value(self) -> Rat:
        return min([a.value for a in self.anchors] + [f.value(f.start) for f in self.families])

    def max_value(self) -> Rat:
        return max([a.value for a in self.anchors] + [f.value(f.start) for f in self.families])

    def count_if_finite(self) -> int:
        return len(self.anchors) if not self.families else -1


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
    for leaf in leaves(s):
        if leaf_points(leaf) is not None:
            continue
        if isinstance(leaf, Dense):
            raise Unsupported("dense filler has a continuum of accumulation points")
        if isinstance(leaf, Seq):
            sign, fams = tf_eventual_sign(leaf.tail), ()
        else:  # a double sequence, the last kind a countable set has
            sign = tf_eventual_sign(leaf.outer)
            fams = (leaf.outer,) if leaf.inner == leaf.outer else (leaf.outer, leaf.inner)
        _merge_flag(anchor_flags, leaf.limit, sign < 0, sign > 0)
        families += [
            AccFamily(leaf.limit, tf, tf_monotone_index(tf), sign < 0, sign > 0)
            for tf in fams
        ]

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
            conflicts = [v for v in anchor_flags if lo <= v <= hi and v != fam.limit]
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
    below = [a.value for a in st.anchors if a.value < x]
    below += [v for fam in st.families if (v := _fam_extreme_below(fam, x)) is not None]
    return max(below, default=None)


def acc_inf_above(st: AccStructure, x: Rat) -> Rat | None:
    """inf of accumulation values strictly above x (None if none).  A
    family's infimum above x is minus the supremum below -x of the family
    reflected through 0: limit and tail negated, sides swapped."""
    above = [a.value for a in st.anchors if a.value > x]
    mirrors = (
        AccFamily(-f.limit, tf_scale(f.tf, -1), f.start, f.right_sided, f.left_sided)
        for f in st.families
    )
    above += [-v for m in mirrors if (v := _fam_extreme_below(m, -x)) is not None]
    return min(above, default=None)


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


# ---------------------------------------------------------------------------
# isolated points


def _check_isolated_dense(ls):
    for leaf in ls:
        if leaf_points(leaf) is None and not isinstance(leaf, (Seq, Seq2)):
            raise NotIsolatedDense(
                "set is not the closure of its isolated points"
            )


def _leaf_candidates_exact(leaf, delta: Rat, budget: int):
    """Yield (main, tinies, float value) for points that could survive."""
    if (points := leaf_points(leaf)) is not None:
        for p in points:
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
    # a double sequence, the last kind _check_isolated_dense lets through
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
    ls = leaves(s)
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
    ls = leaves(s)
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
    if (finite := leaf_points(leaf)) is not None:
        for p in finite:
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
    # the survivors are the [lo, hi) gaps between the excluded ranges, taken
    # inclusive and merged with the indices m - 1 and tail_end as bounds
    cut = [(max(lo, m), min(hi, tail_end) - 1) for lo, hi in excluded]
    cut = _merge_ranges([(m - 1, m - 1), *(r for r in cut if r[0] <= r[1]), (tail_end, tail_end)])
    survivors = [(a + 1, b) for (_, a), (b, _) in zip(cut, cut[1:])]
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
        # a plain left fold: sum() is compensated from Python 3.12 on
        total = 0.0
        for k in range(1, n + 1):
            total += 1.0 / k
        return total
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
        total = 0.0  # a plain left fold, as in _harmonic_float
        for k in range(n + 1, 33):
            total += 1.0 / k**p
        return total + _pow_tail_float(p, 32)
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
        for p in leaf_points(leaf) or ():
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


def _nearest(ls, x: Rat) -> tuple[Rat, ...]:
    """The points of a closed set nearest to x at or below it and at or
    above it, those that exist.  The set is given by its leaves: points,
    closed intervals and Cantor leaves."""
    near = []
    for leaf in ls:
        if isinstance(leaf, Cantor):
            # C's largest point <= u and, as C = 1 - C, its smallest >= u;
            # the map puts them on either side of x, swapped when alpha < 0
            u = (x - leaf.beta) / leaf.alpha
            lo, hi = _cantor_max_le(u), _cantor_max_le(1 - u)
            ends = (lo, None if hi is None else 1 - hi)
            near += [leaf.alpha * v + leaf.beta for v in ends if v is not None]
        else:
            near += [min(max(x, lo), hi) for lo, hi in _spans(leaf)]
    below = max((p for p in near if p <= x), default=None)
    above = min((p for p in near if p >= x), default=None)
    return tuple(p for p in (below, above) if p is not None)


def _spans(leaf) -> list[tuple[Rat, Rat]]:
    """The (lo, hi) spans of a closed point or interval leaf."""
    if (points := leaf_points(leaf)) is not None:
        return [(p, p) for p in points]
    return [(leaf.iv.lo, leaf.iv.hi)]


def _closed_leaves(s: SetExpr):
    """The leaves of the closure of s, refused unless they are points,
    closed intervals and Cantor leaves, and not all empty."""
    ls = leaves(closure(s))
    if any(isinstance(l, (Seq, Seq2)) for l in ls):
        raise Unsupported("hausdorff distance not implemented for this shape pair")
    if all(leaf_points(l) == () for l in ls):
        raise Unsupported("hausdorff distance of an empty set is not defined")
    return ls


def _directed(a, b) -> Rat:
    """sup over x in a of dist(x, b), for closed sets given by their leaves.

    A finite a is its own list of candidates.  Otherwise b must have
    finitely many gaps, so no Cantor leaf: between two neighbouring parts of
    b the distance rises to the gap's midpoint and falls after it, so the
    sup is attained at an extreme of a or at a point of a nearest to the
    midpoint of a gap of b.
    """
    if all(leaf_points(leaf) is not None for leaf in a):
        cands = [p for leaf in a for p in leaf_points(leaf)]
    elif any(isinstance(leaf, Cantor) for leaf in b):
        raise Unsupported("hausdorff distance not implemented for this shape pair")
    else:
        parts = iu_normalize([Interval(lo, hi) for leaf in b for lo, hi in _spans(leaf)]).parts
        ends = [bounds(leaf)[:2] for leaf in a]
        cands = [min(lo for lo, _ in ends), max(hi for _, hi in ends)]
        for p, q in zip(parts, parts[1:]):
            cands += _nearest(a, (p.hi + q.lo) / 2)
    return max(min(abs(x - p) for p in _nearest(b, x)) for x in cands)


def hausdorff_distance(a: SetExpr, b: SetExpr) -> Rat:
    """Exact Hausdorff distance between the closures of a and b.

    Each closure may hold points, closed intervals and Cantor leaves.  The
    distance is refused (`Unsupported`) for an empty set, for a closure with
    a sequence leaf, and where a closure with an interval or a Cantor leaf
    meets a closure with a Cantor leaf.
    """
    la, lb = _closed_leaves(a), _closed_leaves(b)
    return max(_directed(la, lb), _directed(lb, la))
