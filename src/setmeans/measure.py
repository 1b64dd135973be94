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
    iu_union_shifted,
    rat,
)
from .errors import BudgetExceeded, Unsupported, UndefinedMean, ZeroMeasure
from .setexpr import (
    Cantor,
    Finite,
    IntervalSet,
    Seq,
    Seq2,
    SetExpr,
    leaf_points,
    leaves,
)
from .terms import tf_chain, tf_value

_DEFAULT_PART_BUDGET = 200_000


def _widen(iv: Interval, delta: Rat) -> Interval:
    return Interval(iv.lo - delta, iv.hi + delta, True, True)


def _cantor_depth(alpha: Rat, eps: Rat) -> int:
    """The deepest construction level of alpha*C whose pieces are at least
    eps wide, or 0 when the whole set is narrower."""
    level = 0
    while abs(alpha) >= eps * 3 ** (level + 1):
        level += 1
    return level


def _cantor_pieces(alpha: Rat, beta: Rat, level: int):
    """The 2**level closed construction pieces of alpha*C + beta, ascending.

    The ternary digits of a piece's left end in C are the binary digits of
    its index, doubled; alpha < 0 maps C as |alpha|*(1 - C) + alpha + beta,
    and 1 - C is C again.
    """
    scale, shift = (alpha, beta) if alpha > 0 else (-alpha, alpha + beta)
    step = scale / 3**level
    los = (shift + 2 * int(f"{i:b}", 3) * step for i in range(2**level))
    return [Interval(lo, lo + step) for lo in los]


def read_at_scale(leaf: SetExpr, eps: Rat, budget: int):
    """A leaf of `leaves(s)`, one of the six leaf kinds, read at scale eps:
    (bases, tf, idx, run_hull, hulls).

    Each base b carries one run: the points b + tf(n) for n in idx, which
    stand apart, and b + run_hull, into which the later points chain.  The
    other points lie in `hulls`, intervals whose gaps in the set are all
    narrower than eps: an interval or dense filler, a finite point, each
    resolved inner offset of a double sequence smeared across the chained
    outer tail and the sum of both chained tails, or a construction piece of
    a Cantor leaf alpha * C + beta at the deepest level at least eps wide.

    The reading costs len(bases) * (len(idx) + 1) + len(hulls) parts, and
    raises BudgetExceeded before it builds them when that exceeds budget.
    """
    if isinstance(leaf, Cantor):
        level = _cantor_depth(leaf.alpha, eps)
        _charge(0, 0, 2**level, budget)
        return (), None, range(0), None, _cantor_pieces(leaf.alpha, leaf.beta, level)
    if isinstance(leaf, Seq):
        idx, hull = tf_chain(leaf.tail, eps)
        _charge(1, len(idx), 0, budget)
        return (leaf.limit,), leaf.tail, idx, hull, []
    if isinstance(leaf, Seq2):
        f, g = leaf.outer, leaf.inner
        idx_f, hull_f = tf_chain(f, eps)
        idx, hull_g = tf_chain(g, eps)
        _charge(len(idx_f), len(idx), len(idx) + 1, budget)
        bases = [leaf.limit + tf_value(f, n) for n in idx_f]
        hull_f = hull_f.shift(leaf.limit)
        hulls = [hull_f.shift(tf_value(g, k)) for k in idx]
        hulls.append(hull_f + hull_g)
        return bases, g, idx, hull_g, hulls
    if isinstance(leaf, Finite):
        hulls = [Interval(p, p) for p in leaf.points]
    elif isinstance(leaf, IntervalSet):
        hulls = [leaf.iv]
    else:  # a dense filler
        hulls = [Interval(leaf.lo, leaf.hi, True, True)]
    _charge(0, 0, len(hulls), budget)
    return (), None, range(0), None, hulls


def _charge(n_bases: int, n_idx: int, n_hulls: int, budget: int) -> int:
    """The parts a reading costs; BudgetExceeded when they exceed budget."""
    cost = n_bases * (n_idx + 1) + n_hulls
    if cost > budget:
        raise BudgetExceeded("too many parts at this scale")
    return cost


def neighborhood(s: SetExpr, delta: Rat, budget: int = _DEFAULT_PART_BUDGET) -> IntervalUnion:
    """The open delta-neighbourhood of the set, as an exact interval union.

    Each leaf is read at scale 2*delta (`read_at_scale`): the balls of a
    run's points and its widened hull are merged once, and the union takes
    them shifted to each base (`iu_union_shifted` builds a shifted end only
    where it decides something, and folds its pending parts into their
    normal form as it goes, so memory is O(result + chunk + run),
    not O(bases * run)); every other hull is widened by delta.  A leaf costs
    len(bases) * (len(idx) + 1) + len(hulls) parts, and BudgetExceeded is
    raised when the leaves together cost more than `budget`.
    """
    delta = rat(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    parts: list[Interval] = []
    runs = []
    spent = 0
    for leaf in leaves(s):
        bases, tf, idx, run_hull, hulls = read_at_scale(leaf, 2 * delta, budget - spent)
        spent += _charge(len(bases), len(idx), len(hulls), budget - spent)
        if bases:
            points = (tf_value(tf, n) for n in idx)
            run = [Interval(v - delta, v + delta, True, True) for v in points]
            runs.append((bases, iu_normalize(run + [_widen(run_hull, delta)]).parts))
        parts.extend(_widen(h, delta) for h in hulls)
    return iu_union_shifted(parts, runs)


def cantor_neighborhood_stats(alpha: Rat, beta: Rat, delta: Rat) -> tuple[Rat, Rat]:
    """(measure, first moment) of the neighbourhood of an affine cantor set,
    in closed form; the set is symmetric so the average is alpha/2 + beta."""
    alpha, beta, delta = rat(alpha), rat(beta), rat(delta)
    scale = abs(alpha)
    d0 = delta / scale
    measure0 = 1 + 2 * d0
    for level in range(1, _cantor_depth(alpha, 2 * delta) + 1):
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
        if isinstance(l, IntervalSet) and leaf_points(l) is None
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
    cantor_maps = {(l.alpha, l.beta) for l in ls if isinstance(l, Cantor)}
    if cantor_maps:
        if len(cantor_maps) > 1:
            raise Unsupported(
                "union of differently mapped cantor sets has no assigned average"
            )
        alpha, beta = next(iter(cantor_maps))
        return alpha / 2 + beta
    points = set()
    for l in ls:
        if (finite := leaf_points(l)) is None:
            raise UndefinedMean(
                "no natural measure for a countably infinite null set"
            )
        points.update(finite)
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
