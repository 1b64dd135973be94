"""Exact epsilon-neighbourhoods, the measure-based average, and the
half-measure median set."""

from __future__ import annotations

from fractions import Fraction

from .core import (
    Interval,
    IntervalUnion,
    MeanSet,
    Rat,
    arithmetic_mean,
    avg_iu,
    iu_measure,
    iu_normalize,
)
from .errors import BudgetExceeded, Unsupported, UndefinedMean, ZeroMeasure
from .setexpr import (
    Dense,
    Finite,
    IntervalSet,
    Seq,
    Seq2,
    SetExpr,
    cantor_map,
    leaves,
)
from .terms import tf_resolution_index, tf_value

_DEFAULT_PART_BUDGET = 200_000


def _ball(x: Rat, delta: Rat) -> Interval:
    return Interval(x - delta, x + delta, True, True)


def _seq_parts(limit: Rat, tf, delta: Rat, budget: int) -> list[Interval]:
    """Open neighbourhood of {limit + tf(n)}: resolved points plus one
    interval covering the chained tail."""
    r = tf_resolution_index(tf, 2 * delta)
    if r - tf.start > budget:
        raise BudgetExceeded("neighbourhood needs too many resolved points")
    parts = [_ball(limit + tf_value(tf, n), delta) for n in range(tf.start, r)]
    x_r = limit + tf_value(tf, r)
    lo = min(limit, x_r) - delta
    hi = max(limit, x_r) + delta
    parts.append(Interval(lo, hi, True, True))
    return parts


def _seq2_parts(s: Seq2, delta: Rat, budget: int) -> list[Interval]:
    inner_parts = iu_normalize(_seq_parts(Fraction(0), s.inner, delta, budget))
    r = tf_resolution_index(s.outer, 2 * delta)
    if (r - s.outer.start + 1) * len(inner_parts) > budget:
        raise BudgetExceeded("neighbourhood needs too many resolved clusters")
    parts: list[Interval] = []
    for n in range(s.outer.start, r):
        x_n = s.limit + tf_value(s.outer, n)
        parts.extend(p.shift(x_n) for p in inner_parts)
    # beyond the resolution index consecutive cluster shifts differ by less
    # than 2*delta, which is at most the width of every inner part, so the
    # shifted copies chain into one smeared copy of the inner union
    x_r = s.limit + tf_value(s.outer, r)
    lo_shift, hi_shift = min(s.limit, x_r), max(s.limit, x_r)
    for p in inner_parts:
        parts.append(Interval(lo_shift + p.lo, hi_shift + p.hi, True, True))
    return parts


def _cantor_gaps(max_level: int):
    """Yield (lo, hi) of removed middle thirds up to the given level."""
    stack = [(Fraction(0), Fraction(1), 1)]
    while stack:
        lo, hi, level = stack.pop()
        if level > max_level:
            continue
        third = (hi - lo) / 3
        yield lo + third, hi - third
        stack.append((lo, lo + third, level + 1))
        stack.append((hi - third, hi, level + 1))


def _cantor_level(delta: Rat) -> int:
    level = 0
    width = Fraction(1)
    while width >= 2 * delta:
        width /= 3
        level += 1
    return level  # gaps at levels < level survive deflation by delta


def _cantor_parts(alpha: Rat, beta: Rat, delta: Rat, budget: int) -> list[Interval]:
    scale = abs(alpha)
    d0 = delta / scale
    lstar = _cantor_level(d0) - 1  # deepest level whose gaps are >= 2*d0
    if lstar >= 1 and 2**lstar > budget:
        raise BudgetExceeded("neighbourhood needs too many cantor pieces")
    # a construction gap (u, v) with v - u >= 2*d0 leaves the closed hole
    # [u + d0, v - d0] outside the neighbourhood (degenerate when equal)
    holes = sorted(
        (u + d0, v - d0) for u, v in _cantor_gaps(lstar) if v - u >= 2 * d0
    )
    parts = []
    cursor = -d0
    for u, v in holes:
        parts.append(Interval(cursor, u, True, True))
        cursor = v
    parts.append(Interval(cursor, 1 + d0, True, True))
    out = []
    for p in parts:
        q = p.scale(alpha).shift(beta) if alpha != 1 else p.shift(beta)
        out.append(q)
    return out


def neighborhood(s: SetExpr, delta: Rat, budget: int = _DEFAULT_PART_BUDGET) -> IntervalUnion:
    """The open delta-neighbourhood of the set, as an exact interval union."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    parts: list[Interval] = []
    for leaf in leaves(s):
        cmap = cantor_map(leaf)
        if cmap is not None:
            parts.extend(_cantor_parts(*cmap, delta, budget))
        elif isinstance(leaf, Finite):
            parts.extend(_ball(p, delta) for p in leaf.points)
        elif isinstance(leaf, Seq):
            parts.extend(_seq_parts(leaf.limit, leaf.tail, delta, budget))
        elif isinstance(leaf, Seq2):
            parts.extend(_seq2_parts(leaf, delta, budget))
        elif isinstance(leaf, IntervalSet):
            parts.append(Interval(leaf.iv.lo - delta, leaf.iv.hi + delta, True, True))
        elif isinstance(leaf, Dense):
            parts.append(Interval(leaf.lo - delta, leaf.hi + delta, True, True))
        else:
            raise TypeError(f"unknown leaf {leaf!r}")
        if len(parts) > budget:
            raise BudgetExceeded("neighbourhood part budget exhausted")
    return iu_normalize(parts)


def cantor_neighborhood_stats(alpha: Rat, beta: Rat, delta: Rat) -> tuple[Rat, Rat]:
    """(measure, first moment) of the neighbourhood of an affine cantor set,
    in closed form; the set is symmetric so the average is alpha/2 + beta."""
    scale = abs(alpha)
    d0 = delta / scale
    lstar = _cantor_level(d0) - 1
    measure0 = 1 + 2 * d0
    for level in range(1, lstar + 1):
        gap = Fraction(1, 3**level)
        if gap - 2 * d0 > 0:
            measure0 -= 2 ** (level - 1) * (gap - 2 * d0)
    measure = scale * measure0
    center = alpha * Fraction(1, 2) + beta
    return measure, measure * center


# ---------------------------------------------------------------------------
# measure-based average


def _positive_intervals(ls) -> list[Interval]:
    """Closures of the positive-length interval leaves."""
    return [
        Interval(l.iv.lo, l.iv.hi)
        for l in ls
        if isinstance(l, IntervalSet) and not l.iv.is_point()
    ]


def avg_set(s: SetExpr) -> Rat:
    """Average by the natural measure of the dominant-rank part of the set.

    Positive-length interval leaves dominate; otherwise affine cantor leaves
    (all carrying the same map); otherwise a plain finite set.
    """
    ls = leaves(s)
    interval_parts = _positive_intervals(ls)
    if interval_parts:
        return avg_iu(iu_normalize(interval_parts))
    cantor_maps = {cantor_map(l) for l in ls} - {None}
    if cantor_maps:
        if len(cantor_maps) > 1:
            raise Unsupported(
                "union of differently mapped cantor sets has no assigned average"
            )
        alpha, beta = next(iter(cantor_maps))
        return alpha / 2 + beta
    points = set()
    for l in ls:
        if isinstance(l, Finite):
            points.update(l.points)
        elif isinstance(l, IntervalSet) and l.iv.is_point():
            points.add(l.iv.lo)
        else:
            raise UndefinedMean(
                "no natural measure for a countably infinite null set"
            )
    if not points:
        raise UndefinedMean("empty set has no average")
    return arithmetic_mean(sorted(points))


# ---------------------------------------------------------------------------
# half-measure median set


def ms_hf(s: SetExpr) -> MeanSet:
    """The set of points splitting the Lebesgue measure of the interval
    leaves in half; always a nonempty closed interval."""
    u = iu_normalize(_positive_intervals(leaves(s)))
    total = iu_measure(u)
    if total == 0:
        raise ZeroMeasure("half-measure set needs positive measure")
    half = total / 2
    x_lo = x_hi = None
    cum = Fraction(0)
    for p in u.parts:
        if x_lo is None and cum + p.length >= half:
            x_lo = p.lo + (half - cum)
        if cum + p.length > half:
            x_hi = p.lo + (half - cum)
            break
        cum += p.length
    assert x_lo is not None and x_hi is not None
    return MeanSet((Interval(x_lo, x_hi),))
