"""Exact rational scalars and normalized finite unions of intervals.

Everything downstream measures sets and takes first moments through this
module, so all arithmetic here is exact: endpoints are `fractions.Fraction`
values and open/closed endpoint flags are carried explicitly.  The flags do
not affect measure or moment (a point has measure zero); they matter when an
interval union is used to report a mean-set, so `MeanSet` is the same type.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
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


@dataclass(frozen=True)
class Interval:
    """A bounded interval with open/closed endpoint flags.

    lo <= hi always; a degenerate interval (lo == hi) must be closed on both
    sides, so it denotes a single point.
    """

    lo: Rat
    hi: Rat
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self.lo} > {self.hi}")
        if self.lo == self.hi and (self.lo_open or self.hi_open):
            raise ValueError("degenerate interval must be closed on both sides")

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


@dataclass(frozen=True)
class IntervalUnion:
    """Normalized finite union of disjoint, non-mergeable intervals.

    Normal form is unique for a given point set: parts sorted by lo, pairwise
    disjoint, and no two parts touch in a way that would let them merge.
    Construct through iu_normalize().  Set-valued means are returned as this
    type (alias `MeanSet`); a singleton is a degenerate closed part.
    """

    parts: tuple[Interval, ...]

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


def _float_key(iv: Interval):
    return float(iv.lo), iv.lo_open


def iu_normalize(raw: Iterable[Interval]) -> IntervalUnion:
    """Normalize any collection of intervals to the unique normal form.

    Idempotent and insensitive to input order; the point set is unchanged.
    """
    items = list(raw)
    try:
        # float() is monotone, so after a stable presort by (float(lo),
        # lo_open) the stable sort by the exact lo gives the order of one
        # sort by (lo, lo_open), in about n exact comparisons
        items.sort(key=_float_key)
        items.sort(key=attrgetter("lo"))
    except OverflowError:  # an endpoint beyond the float range
        items.sort(key=lambda iv: (iv.lo, iv.lo_open))
    out: list[Interval] = []
    run = None  # the first part of the current run, which reaches hi
    for iv in items:
        # iv joins the run unless it starts past hi, or at hi when the
        # point hi is missing on both sides
        if run is not None and (iv.lo < hi or (iv.lo == hi and not (hi_open and iv.lo_open))):
            # a later upper end reaches further; at a tie the closed one does
            if iv.hi > hi or (iv.hi == hi and hi_open and not iv.hi_open):
                hi, hi_open = iv.hi, iv.hi_open
            continue
        if run is not None:
            out.append(_reaching(run, hi, hi_open))
        run, hi, hi_open = iv, iv.hi, iv.hi_open
    if run is not None:
        out.append(_reaching(run, hi, hi_open))
    return IntervalUnion(tuple(out))


def _reaching(iv: Interval, hi: Rat, hi_open: bool) -> Interval:
    """iv with its upper end moved to hi."""
    if hi is iv.hi and hi_open == iv.hi_open:
        return iv
    return Interval(iv.lo, hi, iv.lo_open, hi_open)


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


def iu_shift(u: IntervalUnion, dx: Rat) -> IntervalUnion:
    return IntervalUnion(tuple(p.shift(dx) for p in u.parts))


def iu_scale(u: IntervalUnion, a: Rat) -> IntervalUnion:
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


def singleton(x: Rat) -> MeanSet:
    return IntervalUnion((point(x),))


def arithmetic_mean(values: Sequence[Rat]) -> Rat:
    if not values:
        raise ValueError("mean of an empty collection")
    return sum(values, Fraction(0)) / len(values)
