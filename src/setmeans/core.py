"""Exact rational scalars and normalized finite unions of intervals.

Everything downstream measures sets and takes first moments through this
module, so all arithmetic here is exact: endpoints are `fractions.Fraction`
values and open/closed endpoint flags are carried explicitly.  The flags do
not affect measure or moment (a point has measure zero); they matter when an
interval union is used to report a mean-set, so `MeanSet` is the same type.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter, itemgetter
from typing import Iterable, Sequence, Union

from .errors import ZeroMeasure

Rat = Fraction

RatLike = Union[Fraction, int, str]


def rat(value: RatLike, den: int | None = None) -> Rat:
    """Build an exact rational from an int, a Fraction, or a literal string.

    Decimal literals convert exactly: rat("0.5") == Fraction(1, 2).  A zero
    denominator raises ValueError.
    """
    if den is None and isinstance(value, Fraction):
        return value
    try:
        return Fraction(value) if den is None else Fraction(value, den)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


_set = object.__setattr__  # how a Value's __init__ stores its fields


class Value:
    """Base of the immutable value classes.  A subclass lists its fields
    once, in `__slots__`, and stores them in `__init__` with `_set`.  Its
    instances are equal only within one class, hash as their field tuple
    (as a frozen dataclass does), and refuse assignment and deletion."""

    __slots__ = ()

    def __init_subclass__(cls):
        names = tuple(n for n in vars(cls).get("__slots__", ()) if n != "__dict__")
        if names:
            get = attrgetter(*names)
            cls._names = names
            cls._fields = staticmethod(get if len(names) > 1 else lambda x: (get(x),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            fields = self._fields
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        args = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._names)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class Interval(Value):
    """A bounded interval with open/closed endpoint flags.

    lo <= hi always; a degenerate interval (lo == hi) must be closed on both
    sides, so it denotes a single point.
    """

    __slots__ = ("lo", "hi", "lo_open", "hi_open")

    def __init__(self, lo: Rat, hi: Rat, lo_open: bool = False, hi_open: bool = False):
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: {lo} > {hi}")
        if lo == hi and (lo_open or hi_open):
            raise ValueError("degenerate interval must be closed on both sides")
        _set(self, "lo", lo)
        _set(self, "hi", hi)
        _set(self, "lo_open", lo_open)
        _set(self, "hi_open", hi_open)

    @property
    def length(self) -> Rat:
        return self.hi - self.lo

    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: Rat) -> bool:
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and self.lo_open:
            return False
        if x == self.hi and self.hi_open:
            return False
        return True

    def shift(self, dx: Rat) -> "Interval":
        return Interval(self.lo + dx, self.hi + dx, self.lo_open, self.hi_open)

    def scale(self, a: Rat) -> "Interval":
        if a == 0:
            raise ValueError("scale factor must be nonzero")
        if a > 0:
            return Interval(self.lo * a, self.hi * a, self.lo_open, self.hi_open)
        return Interval(self.hi * a, self.lo * a, self.hi_open, self.lo_open)

    def __add__(self, other: "Interval") -> "Interval":
        """The Minkowski sum {x + y}: an end is open when either one is."""
        return Interval(
            self.lo + other.lo,
            self.hi + other.hi,
            self.lo_open or other.lo_open,
            self.hi_open or other.hi_open,
        )

    def __repr__(self):
        lb = "(" if self.lo_open else "["
        rb = ")" if self.hi_open else "]"
        return f"{lb}{self.lo}, {self.hi}{rb}"


def interval(lo: RatLike, hi: RatLike, lo_open: bool = False, hi_open: bool = False) -> Interval:
    return Interval(rat(lo), rat(hi), lo_open, hi_open)


def point(x: RatLike) -> Interval:
    x = rat(x)
    return Interval(x, x)


def _hi_key(iv: Interval):
    # Later-reaching upper endpoint wins; at a tie the closed one covers more.
    return (iv.hi, not iv.hi_open)


class IntervalUnion(Value):
    """Normalized finite union of disjoint, non-mergeable intervals.

    Normal form is unique for a given point set: parts sorted by lo, pairwise
    disjoint, and no two parts touch in a way that would let them merge.
    Construct through iu_normalize().  Set-valued means are returned as this
    type (alias `MeanSet`); a singleton is a degenerate closed part.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[Interval, ...]):
        _set(self, "parts", parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def is_empty(self) -> bool:
        return not self.parts

    def contains(self, x: Rat) -> bool:
        return any(p.contains(x) for p in self.parts)

    def span(self) -> tuple[Rat, Rat]:
        if not self.parts:
            raise ValueError("empty union has no span")
        return self.parts[0].lo, self.parts[-1].hi

    def subset_of(self, other: "IntervalUnion") -> bool:
        return iu_contains_union(other, self)

    def map_affine(self, alpha: Rat, beta: Rat) -> "IntervalUnion":
        return iu_shift(iu_scale(self, alpha), beta)

    def __repr__(self):
        if not self.parts:
            return "<empty>"
        return " u ".join(repr(p) for p in self.parts)


EMPTY_UNION = IntervalUnion(())
MeanSet = IntervalUnion


def iu_normalize(raw: Iterable[Interval]) -> IntervalUnion:
    """Normalize any collection of intervals to the unique normal form.

    Idempotent and insensitive to input order; the point set is unchanged.
    """
    return iu_union_shifted(raw)


# A float key of an exact endpoint comes from at most three roundings:
# float(x), float(b) of a shift, and their sum; each is off by at most
# 2**-53 of its result's magnitude, so |key - exact| <= 2**-52 *
# (|float(x)| + |float(b)|), plus 2**-1074 per rounding in the subnormal
# range.  The bounds below take twice that and so also absorb the
# roundings of key -/+ error.
_REL = 2.0**-50
_SUB = 2.0**-1060
_HUGE = 2.0**1020  # keys below this in magnitude sum to a finite float

_CHUNK = 4096  # values computed, shifted, merged or folded at a time


def _float_mag(x: Rat) -> tuple[float, float]:
    """float(x) and the magnitude its error scales with; past float range
    the magnitude is infinite, so every bound built from it is too."""
    try:
        f = float(x)
    except OverflowError:
        return 0.0, math.inf
    return f, abs(f)


def iu_union_shifted(
    parts: Iterable[Interval], shifted: Iterable[tuple[Sequence[Rat], Sequence[Interval]]] = ()
) -> IntervalUnion:
    """The normal form of the union of `parts` and of every part of `run`
    shifted by b, for each (bases, run) in `shifted` and b in bases; a base
    None stands for no shift.

    Each endpoint enters as a float key with a certified error bound, and
    a shifted endpoint as the lazy exact sum p.lo + b: the sweep decides
    order, joins and reach by the bounds, and builds or compares the exact
    Fractions only where two bounds overlap, or where an endpoint ends an
    output part (Shewchuk's filtered predicates).

    Before a base's run is added, pending items past a cap of _CHUNK plus
    twice the last fold's size are folded: swept into their normal form,
    whose parts go on as unshifted items that keep the bounds of the items
    that gave their ends.  The normal form is unique for a point set, and
    the fold keeps the point set, so the result is the same parts; memory
    stays O(result + chunk + run) rather than O(bases * run), and each
    fold sweeps fewer than twice the items added since the last one, so
    the folds' total work stays linear.  A single unshifted run
    (`iu_normalize`) never folds.
    """
    items = []
    cap = _CHUNK
    for bases, run in [((None,), parts), *shifted]:
        keys = []
        reach = 0.0
        for p in run:
            lo, lo_mag = _float_mag(p.lo)
            hi, hi_mag = _float_mag(p.hi)
            keys.append((lo, lo_mag * _REL, hi, hi_mag * _REL, p))
            reach = max(reach, lo_mag, hi_mag)
        for b in bases:
            if len(items) > cap:
                items = _sweep(items)
                cap = _CHUNK + 2 * len(items)
            bf, b_mag = (0.0, 0.0) if b is None else _float_mag(b)
            if reach + b_mag >= _HUGE:
                items.extend((-math.inf, math.inf, -math.inf, math.inf, k[4], b) for k in keys)
                continue
            e_b = b_mag * _REL + _SUB
            items.extend(
                [
                    (lo + bf - e_lo - e_b, lo + bf + e_lo + e_b,
                     hi + bf - e_hi - e_b, hi + bf + e_hi + e_b, p, b)
                    for lo, e_lo, hi, e_hi, p in keys
                ]
            )
    return IntervalUnion(tuple(item[4] for item in _sweep(items)))


def _lo(item) -> Rat:
    p, b = item[4], item[5]
    return p.lo if b is None else p.lo + b


def _hi(item) -> Rat:
    p, b = item[4], item[5]
    return p.hi if b is None else p.hi + b


def _sweep(items: list) -> list:
    """Merge (lo_low, lo_high, hi_low, hi_high, part, base) items, whose
    exact ends lie within their bounds, into the parts of the normal form,
    ascending, as unshifted items that keep the bounds of the items that
    gave their ends.

    The items go in order of lo_low.  An item whose lo lies surely below
    the current run's hi joins it, in any order.  Any other item may start
    a run, so it and every item whose lo bounds overlap its own are put in
    the exact order (lo, lo_open) first; items past them start strictly
    later.  The run's hi is kept as the candidates that may reach furthest,
    with the bounds [top_low, top_high] of the furthest reach, and is
    settled exactly only when a join test or the output needs it.
    """
    items.sort(key=itemgetter(0))
    out: list = []
    start = None
    cands: list = []
    top_low = top_high = 0.0

    def reach_to(y):
        """Let y, which joins the run, compete for the run's hi."""
        nonlocal cands, top_low, top_high
        if y[2] > top_high:
            cands = [y]
            top_low, top_high = y[2], y[3]
            return
        cands.append(y)
        if y[2] > top_low:
            top_low = y[2]
            cands = [c for c in cands if c[3] >= top_low]
        if y[3] > top_high:
            top_high = y[3]

    def settle():
        """The run's exact (hi, hi_open) and the item that reaches it."""
        nonlocal cands, top_low, top_high
        best = max(cands, key=lambda c: (_hi(c), not c[4].hi_open)) if len(cands) > 1 else cands[0]
        cands = [best]
        top_low, top_high = best[2], best[3]
        return _hi(best), best[4].hi_open, best

    def joins(lo, y) -> bool:
        """Does y, starting at lo (exact, or None when not built), join the
        run: it starts before hi, or at hi unless both sides miss it."""
        if y[1] < top_low:
            return True
        if y[0] > top_high:
            return False
        hi, hi_open, _ = settle()
        lo = _lo(y) if lo is None else lo
        return lo < hi or (lo == hi and not (hi_open and y[4].lo_open))

    def emit():
        hi, hi_open, best = settle()
        if best is start and start[5] is None:
            out.append(start)
        else:
            p = Interval(_lo(start), hi, start[4].lo_open, hi_open)
            out.append((start[0], start[1], best[2], best[3], p, None))

    n = len(items)
    i = 0
    while i < n:
        x = items[i]
        if start is not None and x[1] < top_low:
            i += 1
            if x[3] >= top_low:
                reach_to(x)
            continue
        # x may start a run: order it and its near-ties exactly
        j = i + 1
        reach = x[1]
        while j < n and items[j][0] <= reach:
            reach = max(reach, items[j][1])
            j += 1
        if j == i + 1:
            cluster = [(None, x)]
        else:
            keyed = sorted(((_lo(y), y[4].lo_open, k), y) for k, y in enumerate(items[i:j]))
            cluster = [(key[0], y) for key, y in keyed]
        i = j
        for lo, y in cluster:
            if start is not None and joins(lo, y):
                if y[3] >= top_low:
                    reach_to(y)
                continue
            if start is not None:
                emit()
            start = y
            cands = [y]
            top_low, top_high = y[2], y[3]
    if start is not None:
        emit()
    return out


mean_set = iu_normalize


def iu_measure(u: IntervalUnion) -> Rat:
    """Total length; endpoint flags are irrelevant to Lebesgue measure."""
    return sum((p.length for p in u.parts), Fraction(0))


def iu_moment(u: IntervalUnion) -> Rat:
    """First moment: sum over parts of (hi^2 - lo^2) / 2."""
    return sum(((p.hi * p.hi - p.lo * p.lo) / 2 for p in u.parts), Fraction(0))


def avg_iu(u: IntervalUnion) -> Rat:
    """Normalized first moment of the union; requires positive measure."""
    m = iu_measure(u)
    if m == 0:
        raise ZeroMeasure("cannot average a union of measure zero")
    return iu_moment(u) / m


def iu_shift(u: IntervalUnion, dx: RatLike) -> IntervalUnion:
    dx = rat(dx)
    return IntervalUnion(tuple(p.shift(dx) for p in u.parts))


def iu_scale(u: IntervalUnion, a: RatLike) -> IntervalUnion:
    a = rat(a)
    if a == 0:
        raise ValueError("scale factor must be nonzero")
    parts = [p.scale(a) for p in u.parts]
    if a < 0:
        parts.reverse()
    return IntervalUnion(tuple(parts))


def iu_union(a: IntervalUnion, b: IntervalUnion) -> IntervalUnion:
    return iu_normalize(list(a.parts) + list(b.parts))


def _intersect_parts(a: Interval, b: Interval) -> Interval | None:
    lo, lo_open = max((a.lo, a.lo_open), (b.lo, b.lo_open))
    hi, hi_open = min((a.hi, not a.hi_open), (b.hi, not b.hi_open))
    hi_open = not hi_open
    if lo > hi:
        return None
    if lo == hi and (lo_open or hi_open):
        return None
    return Interval(lo, hi, lo_open, hi_open)


def iu_intersect(a: IntervalUnion, b: IntervalUnion) -> IntervalUnion:
    """Exact intersection, including shared endpoints as degenerate parts."""
    out = []
    i = j = 0
    pa, pb = a.parts, b.parts
    while i < len(pa) and j < len(pb):
        got = _intersect_parts(pa[i], pb[j])
        if got is not None:
            out.append(got)
        if _hi_key(pa[i]) <= _hi_key(pb[j]):
            i += 1
        else:
            j += 1
    return iu_normalize(out)


def _part_covers(big: Interval, small: Interval) -> bool:
    if big.lo > small.lo or (big.lo == small.lo and big.lo_open and not small.lo_open):
        return False
    if big.hi < small.hi or (big.hi == small.hi and big.hi_open and not small.hi_open):
        return False
    return True


def iu_contains_union(big: IntervalUnion, small: IntervalUnion) -> bool:
    """Is small a subset of big?  Both must be normalized."""
    # In normal form a part of small fits inside at most one part of big:
    # the part whose closure reaches small's lower endpoint.
    def ends_before(part: Interval, s: Interval) -> bool:
        return part.hi < s.lo or (part.hi == s.lo and part.hi_open)

    i = 0
    for s in small.parts:
        while i < len(big.parts) and ends_before(big.parts[i], s):
            i += 1
        if i >= len(big.parts) or not _part_covers(big.parts[i], s):
            return False
    return True


def _merge_ranges(ranges: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The inclusive integer ranges merged where they overlap or touch,
    sorted."""
    ranges = sorted(ranges)
    if not ranges:
        return ()
    out: list[tuple[int, int]] = []
    lo, hi = ranges[0]
    for a, b in ranges:
        if a <= hi + 1:
            if b > hi:
                hi = b
        else:
            out.append((lo, hi))
            lo, hi = a, b
    out.append((lo, hi))
    return tuple(out)


def singleton(x: Rat) -> MeanSet:
    return IntervalUnion((point(x),))


def arithmetic_mean(values: Sequence[Rat]) -> Rat:
    if not values:
        raise ValueError("mean of an empty collection")
    return sum(values, Fraction(0)) / len(values)
