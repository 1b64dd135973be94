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
from .terms import tf_chain, tf_value

_DEFAULT_PART_BUDGET = 200_000


def _ball(x: Rat, delta: Rat) -> Interval:
    return Interval(x - delta, x + delta, True, True)


def _widen(iv: Interval, delta: Rat) -> Interval:
    return Interval(iv.lo - delta, iv.hi + delta, True, True)


def _seq_parts(limit: Rat, tf, delta: Rat, budget: int) -> list[Interval]:
    """Open neighbourhood of {limit + tf(n)}: balls around the resolved
    points plus the widened hull of the chained tail."""
    idx, hull = tf_chain(tf, 2 * delta)
    if len(idx) > budget:
        raise BudgetExceeded("neighbourhood needs too many resolved points")
    parts = [_ball(limit + tf_value(tf, n), delta) for n in idx]
    parts.append(_widen(hull.shift(limit), delta))
    return parts


def _seq2_parts(s: Seq2, delta: Rat, budget: int) -> list[Interval]:
    inner_parts = iu_normalize(_seq_parts(Fraction(0), s.inner, delta, budget))
    idx, hull = tf_chain(s.outer, 2 * delta)
    if (len(idx) + 1) * len(inner_parts) > budget:
        raise BudgetExceeded("neighbourhood needs too many resolved clusters")
    parts: list[Interval] = []
    for n in idx:
        x_n = s.limit + tf_value(s.outer, n)
        parts.extend(p.shift(x_n) for p in inner_parts)
    # beyond the resolved indices consecutive cluster shifts differ by less
    # than 2*delta, which is at most the width of every inner part, so the
    # shifted copies chain into the inner union smeared across the hull
    hull = hull.shift(s.limit)
    parts.extend(p + hull for p in inner_parts)
    return parts


def _cantor_level(delta: Rat) -> int:
    level = 0
    width = Fraction(1)
    while width >= 2 * delta:
        width /= 3
        level += 1
    return level  # gaps at levels < level survive deflation by delta


def _cantor_pieces(alpha: Rat, beta: Rat, level: int, budget: int):
    """The 2**level closed construction pieces of alpha*C + beta, ascending.

    The ternary digits of a piece's left end in C are the binary digits of
    its index, doubled; alpha < 0 maps C as |alpha|*(1 - C) + alpha + beta,
    and 1 - C is C again.
    """
    if 2**level > budget:
        raise BudgetExceeded("too many cantor pieces")
    scale, shift = (alpha, beta) if alpha > 0 else (-alpha, alpha + beta)
    step = scale / 3**level

    def piece(i: int) -> Interval:
        lo = shift + 2 * int(f"{i:b}", 3) * step
        return Interval(lo, lo + step)

    return map(piece, range(2**level))


def _cantor_parts(alpha: Rat, beta: Rat, delta: Rat, budget: int) -> list[Interval]:
    """The pieces of the deepest level whose gaps are at least 2*delta
    wide, each widened by delta: every deeper gap is narrower, so covered."""
    level = max(_cantor_level(delta / abs(alpha)) - 1, 0)
    return [_widen(p, delta) for p in _cantor_pieces(alpha, beta, level, budget)]


def neighborhood(s: SetExpr, delta: Rat, budget: int = _DEFAULT_PART_BUDGET) -> IntervalUnion:
    """The open delta-neighbourhood of the set, as an exact interval union.

    Each leaf is read at scale 2*delta as points plus hull intervals (the
    chained tail of a sequence, the construction pieces of a cantor set,
    an interval), and each of those is widened by delta.
    """
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
            parts.append(_widen(leaf.iv, delta))
        elif isinstance(leaf, Dense):
            parts.append(_widen(Interval(leaf.lo, leaf.hi, True, True), delta))
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
