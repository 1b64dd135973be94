"""Single-valued means with a shared limit-detection engine.

Every limit-based mean evaluates a quantity along a dyadic schedule
(shrinking neighbourhood radii or doubling sample grids) and feeds the trace
to a common detector: a limit is declared when a trailing window of values
agrees within the tolerance, divergence when the trailing band stays an
order of magnitude wider.  The quantity is exact for `mean_eds`; `lavg`
switches to a float sweep where the exact neighbourhood would take more
than `_EXACT_NBR_BUDGET` parts, and `mean_iso` sums floats.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import deque
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain, compress, islice, repeat
from operator import add, ne, sub

from .core import _CHUNK, Interval, Rat, Value, _merge_ranges, _set, arithmetic_mean, avg_iu, rat
from .errors import (
    BudgetExceeded,
    InIdeal,
    NonTerminating,
    OutOfBase,
    SemanticError,
    UndefinedMean,
)
from .measure import (
    _charge,
    cantor_neighborhood_stats,
    neighborhood,
    read_at_scale,
)
from .setexpr import (
    Cantor,
    Seq2,
    SetExpr,
    bounds,
    is_infinite,
    leaf_points,
    leaves,
)
from .terms import (
    TermFun,
    tf_cmp,
    tf_single_pow,
    tf_value_float,
    tf_value_parts,
)
from .topology import (
    Ideal,
    acc_chain,
    ideal_limits,
    is_empty_expr,
    isolated_stats,
)

# ---------------------------------------------------------------------------
# outcomes and schedules


class MeanOutcome(Value):
    __slots__ = ("status", "value", "exact", "err_est", "band", "reason", "trace")

    def __init__(
        self,
        status: str,  # 'exact' | 'converged' | 'divergent' | 'undefined'
        value: float | None = None,
        exact: Rat | None = None,
        err_est: float | None = None,
        band: tuple[float, float] | None = None,
        reason: str | None = None,
        trace: tuple[tuple[float, float], ...] = (),
    ):
        _set(self, "status", status)
        _set(self, "value", value)
        _set(self, "exact", exact)
        _set(self, "err_est", err_est)
        _set(self, "band", band)
        _set(self, "reason", reason)
        _set(self, "trace", trace)

    def ok(self) -> bool:
        return self.status in ("exact", "converged")


def exact_outcome(value: Rat) -> MeanOutcome:
    return MeanOutcome("exact", value=float(value), exact=Fraction(value))


class Schedule(Value):
    """Dyadic evaluation schedule: parameters 2^-k (delta) or 2^k (grid)."""

    __slots__ = ("kind", "start_exp", "end_exp", "tol", "stability_window", "early_stop")

    def __init__(
        self,
        kind: str,  # 'delta' | 'grid'
        start_exp: int,
        end_exp: int,
        tol: float = 1e-4,
        stability_window: int = 3,
        early_stop: bool = True,
    ):
        if kind not in ("delta", "grid"):
            raise ValueError(f"unknown schedule kind {kind!r}")
        if end_exp - start_exp + 1 < stability_window:
            raise ValueError("schedule shorter than its stability window")
        if tol <= 0:
            raise ValueError("tolerance must be positive")
        if stability_window < 2:
            raise ValueError("stability window must be >= 2")
        _set(self, "kind", kind)
        _set(self, "start_exp", start_exp)
        _set(self, "end_exp", end_exp)
        _set(self, "tol", tol)
        _set(self, "stability_window", stability_window)
        _set(self, "early_stop", early_stop)

    def exponents(self):
        return range(self.start_exp, self.end_exp + 1)

    def param(self, k: int) -> Fraction:
        if self.kind == "delta":
            return Fraction(1, 2**k)
        return Fraction(2**k)


def delta_schedule(start_exp=4, end_exp=40, tol=1e-4, window=3, early_stop=True) -> Schedule:
    return Schedule("delta", start_exp, end_exp, tol, window, early_stop)


def grid_schedule(start_exp=10, end_exp=40, tol=1e-4, window=3, early_stop=True) -> Schedule:
    return Schedule("grid", start_exp, end_exp, tol, window, early_stop)


def _schedule(sched: Schedule | None, kind: str) -> Schedule:
    """sched, or the default one of `kind`; ValueError for the other kind."""
    if sched is None:
        return delta_schedule() if kind == "delta" else grid_schedule()
    if sched.kind != kind:
        raise ValueError(f"this mean takes a {kind} schedule, not a {sched.kind} one")
    return sched


def _band(values) -> float:
    return max(values) - min(values)


def _oscillates(values) -> bool:
    nondec = all(a <= b for a, b in zip(values, values[1:]))
    noninc = all(a >= b for a, b in zip(values, values[1:]))
    return not (nondec or noninc)


def run_schedule(evaluate, sched: Schedule) -> MeanOutcome:
    """Drive `evaluate(param) -> (float, exact | None) | None` over the
    schedule and classify the trace."""
    trace: list[tuple[float, float]] = []
    floats: list[float] = []
    exacts: list[Rat | None] = []
    stop = None  # the parameter whose evaluation ran over the budget
    for k in sched.exponents():
        param = sched.param(k)
        try:
            got = evaluate(param)
        except BudgetExceeded:
            stop = param
            break
        if got is None:
            continue
        val, exact = got
        trace.append((float(param), val))
        floats.append(val)
        exacts.append(exact)
        w = sched.stability_window
        if sched.early_stop and len(floats) >= w:
            window = floats[-w:]
            if _band(window) < sched.tol:
                return _converged(trace, floats, exacts, sched)
            if len(floats) >= 2 * w:
                prev = floats[-2 * w : -w]
                now_band = _band(window)
                if (
                    now_band > 10 * sched.tol
                    and _band(prev) > 10 * sched.tol
                    and now_band > 0.5 * _band(prev)
                    and _oscillates(floats[-2 * w :])
                ):
                    return _divergent(trace, floats, sched)
    if not floats:
        reason = (
            "no evaluable schedule points" if stop is None
            else f"budget exhausted at parameter {stop}"
        )
        return MeanOutcome("undefined", reason=reason, trace=tuple(trace))
    w = min(sched.stability_window, len(floats))
    band = _band(floats[-w:])
    if band <= 10 * sched.tol:
        return _converged(trace, floats, exacts, sched)
    if _oscillates(floats[-min(2 * sched.stability_window, len(floats)) :]):
        return _divergent(trace, floats, sched)
    end = (
        "at the end of the schedule" if stop is None
        else f"when the budget ran out at parameter {stop}"
    )
    return MeanOutcome("undefined", reason=f"still drifting {end}", trace=tuple(trace))


def _converged(trace, floats, exacts, sched) -> MeanOutcome:
    w = min(sched.stability_window, len(floats))
    band = _band(floats[-w:])
    exact = None
    tail = exacts[-w:]
    if all(e is not None for e in tail) and len({*tail}) == 1:
        exact = tail[0]
    return MeanOutcome(
        "converged",
        value=floats[-1],
        exact=exact,
        err_est=band,
        trace=tuple(trace),
    )


def _divergent(trace, floats, sched) -> MeanOutcome:
    w = min(2 * sched.stability_window, len(floats))
    window = floats[-w:]
    return MeanOutcome(
        "divergent",
        band=(min(window), max(window)),
        trace=tuple(trace),
    )


# ---------------------------------------------------------------------------
# exact means


def _finite_points(s: SetExpr) -> list[Rat]:
    pts: set[Rat] = set()
    for leaf in leaves(s):
        if (finite := leaf_points(leaf)) is None:
            raise SemanticError("set is not finite")
        pts.update(finite)
    return sorted(pts)


def mean_lis(s: SetExpr) -> MeanOutcome:
    """Midpoint of the accumulation range; arithmetic mean on finite sets."""
    return mean_ideal_chain(s, (Ideal.FINITE_SETS,))


def mean_ideal(s: SetExpr, ideal: Ideal) -> MeanOutcome:
    lo, hi = ideal_limits(s, ideal)
    return exact_outcome((lo + hi) / 2)


DEFAULT_CHAIN = (Ideal.FINITE_SETS, Ideal.COUNTABLE_SETS)


def mean_ideal_chain(s: SetExpr, chain=DEFAULT_CHAIN) -> MeanOutcome:
    """Mean at the last chain level whose ideal still excludes the set.

    The ideals are nested, so climbing down from the largest, the first
    level whose `ideal_limits` does not raise `InIdeal` is that level.
    """
    chain = tuple(chain)
    if not chain:
        raise ValueError("ideal chain must not be empty")
    for ideal in chain:
        if not isinstance(ideal, Ideal):
            raise ValueError(f"ideal chain member {ideal!r} is not an Ideal")
    order = list(Ideal)
    if any(order.index(a) >= order.index(b) for a, b in zip(chain, chain[1:])):
        raise ValueError("ideal chain must be strictly increasing")
    if is_empty_expr(s):
        raise UndefinedMean("empty set")
    if not is_infinite(s):
        return exact_outcome(arithmetic_mean(_finite_points(s)))
    for ideal in reversed(chain):
        try:
            lo, hi = ideal_limits(s, ideal)
        except InIdeal:
            continue
        return exact_outcome((lo + hi) / 2)
    raise InIdeal("infinite set inside the first chain ideal")


def mean_acc(s: SetExpr, max_depth: int = 32) -> MeanOutcome:
    """Arithmetic mean of the last nonempty derived set."""
    if is_empty_expr(s):
        raise UndefinedMean("empty set")
    chain, terminated = acc_chain(s, max_depth)
    if not terminated:
        raise NonTerminating("derived-set chain never empties")
    last = chain[-2] if len(chain) >= 2 else s
    return exact_outcome(arithmetic_mean(_finite_points(last)))


# ---------------------------------------------------------------------------
# isolated-point mean


def mean_iso(s: SetExpr, sched: Schedule | None = None, budget: int = 10_000_000) -> MeanOutcome:
    sched = _schedule(sched, "delta")
    if not is_infinite(s):
        pts = _finite_points(s)
        if not pts:
            raise UndefinedMean("empty set")
        return exact_outcome(arithmetic_mean(pts))

    # the first step runs eagerly, so its domain error or BudgetExceeded
    # surfaces here; the schedule then takes its result.  Every step shares
    # one memo of the delta-independent collision answers.
    collisions: dict = {}
    first = sched.param(sched.start_exp)
    eager = {first: isolated_stats(s, first, budget, collisions=collisions)}

    def evaluate(delta):
        count, total = eager.pop(delta, None) or isolated_stats(
            s, delta, budget, collisions=collisions
        )
        if count == 0:
            return None
        return total / count, None

    return run_schedule(evaluate, sched)


# ---------------------------------------------------------------------------
# ascending runs in chunks, for the float lavg sweep and the eds cover


def _slices(values):
    """The list or range `values` in consecutive slices of _CHUNK."""
    return (values[i : i + _CHUNK] for i in range(0, len(values), _CHUNK))


def _merge_chunks(runs):
    """The values of the ascending chunk iterators `runs`, in ascending
    chunks.  Each round takes every run's values up to the least last value
    among the current chunks and sorts them, a C merge of sorted runs.  The
    runs whose chunk ends at that value move on to their next chunk, which
    starts no lower, and the others keep their values above it, so each
    round's values are at least the last round's."""
    heads = [(chunk, 0, run) for run in map(iter, runs) for chunk in islice(run, 1)]
    while heads:
        cut = min(chunk[-1] for chunk, _, _ in heads)
        out: list = []
        live = []
        for chunk, i, run in heads:
            j = bisect_right(chunk, cut, i)
            out += chunk[i:j]
            if j < len(chunk):
                live.append((chunk, j, run))
            else:
                live.extend((nxt, 0, run) for nxt in islice(run, 1))
        heads = live
        out.sort()
        yield out


# ---------------------------------------------------------------------------
# neighbourhood-average mean


_EXACT_NBR_BUDGET = 3000


def _power_centres(lf, c, p, idx):
    """Ascending chunks of the centres lf + c/n**p, n in idx.  Rounding is
    monotone, in the conversion of n**p to a float too, so they fall as n
    grows when c > 0 and rise when c < 0."""
    for ns in _slices(idx[::-1] if c > 0 else idx):
        yield [lf + c / n**p for n in ns]


def _fork(chunks):
    """Two iterators over `chunks`, each chunk kept only until both sides
    have taken it (`itertools.tee` keeps its items in blocks of 57)."""
    chunks = iter(chunks)

    def side(mine, theirs):
        while True:
            if mine:
                yield mine.popleft()
                continue
            chunk = next(chunks, None)
            if chunk is None:
                return
            theirs.append(chunk)
            yield chunk

    ahead: tuple[deque, deque] = (deque(), deque())  # taken by one side only
    return side(*ahead), side(*ahead[::-1])


def _ends(centres, shift, d, others):
    """The ends shift(c, d) of the balls around the ascending chunks of
    `centres`, merged with the sorted `others` into one ascending iterator."""
    shifted = (list(map(shift, chunk, repeat(d))) for chunk in centres)
    return chain.from_iterable(_merge_chunks([shifted, _slices(others)]))


def _lavg_eval_float(ls, delta) -> float:
    """The float neighbourhood average of the leaves `ls` at radius delta.

    Each leaf is read at scale 2*delta by `read_at_scale`, as `neighborhood`
    reads it, under a budget that never fires.  A run's resolved point keeps
    the centre c of its ball of radius d; a hull, a finite point among them,
    keeps the ends float(lo) - d and float(hi) + d, and a run's chained tail
    the ends of its float cover (the exact run hull rounds differently).
    Double sequences and cantor leaves give the float ends of their exact
    neighbourhood parts: a double sequence's shifted runs are folded into
    their normal form as `iu_union_shifted` adds them, so this fallback
    holds O(parts + chunk) parts, not one per base and run point.
    Every single-power tail limit + c/n^p streams its centres lf + c/n**p
    as they are needed: rounding is monotone, in the conversion of n**p to
    a float past 2^53 too, so they come out sorted when n runs down for
    c > 0 and up for c < 0.  The other centres are sorted in one list.
    `_merge_chunks` merges these ascending runs, one per such tail and the
    list, into ascending chunks of centres, and `_fork` hands each chunk to
    both sides.  Rounding is monotone again, so c - d and c + d over the sorted
    centres come out sorted, and `_ends` merges them with the other parts'
    sorted ends into the ascending low ends, `los`, and the ascending high
    ends, `his`.  A merged run ends after j exactly when los[j+1] > his[j],
    and it spans los[start] to his[j].  Take the parts in (lo, hi) order:
    every part after the (j+1)-th has hi >= lo >= los[j+1].  So the j+1
    first parts all end below los[j+1] exactly when the j+1 smallest his
    do, and then those are the his of the j+1 first parts, whose largest
    is his[j].  These are the runs of a sweep over the sorted (lo, hi)
    pairs in which touching ends merge (lo <= the run's hi).  The ends are
    the floats a ball's (c - d, c + d) would hold, and the merged streams
    differ from sorted lists only in the order of equal values, which
    never mattered, as a signed zero only changes terms that are zero.  So
    the sweep adds the same terms in the same order, with plain `+=`:
    `sum()` is compensated from Python 3.12 on.
    """
    centres: list[float] = []
    runs: list = []
    los: list[float] = []
    his: list[float] = []
    d = float(delta)
    for leaf in ls:
        if isinstance(leaf, (Seq2, Cantor)):
            # double sequences and cantor leaves fall back to exact parts
            parts = neighborhood(leaf, delta, budget=200_000).parts
            los.extend([float(p.lo) for p in parts])
            his.extend([float(p.hi) for p in parts])
            continue
        bases, tf, idx, _, hulls = read_at_scale(leaf, 2 * delta, math.inf)
        los.extend([float(h.lo) - d for h in hulls])
        his.extend([float(h.hi) + d for h in hulls])
        pw = tf_single_pow(tf) if bases else None
        for x in bases:
            lf = float(x)
            x_r = lf + tf_value_float(tf, idx.stop)
            los.append(min(lf, x_r) - d)
            his.append(max(lf, x_r) + d)
            if pw is None:
                centres.extend([lf + tf_value_float(tf, n) for n in idx])
            else:
                runs.append(_power_centres(lf, float(pw.c), pw.p, idx))
    centres.sort()
    los.sort()
    his.sort()
    low, high = _fork(_merge_chunks([_slices(centres), *runs]))
    los = _ends(low, sub, d, los)
    his = _ends(high, add, d, his)
    measure = 0.0
    moment = 0.0
    lo = next(los)
    for nxt, hi in zip(los, his):  # zip pulls los first: his keeps its last
        if nxt > hi:
            measure += hi - lo
            moment += (hi * hi - lo * lo) / 2
            lo = nxt
    hi = next(his)
    measure += hi - lo
    moment += (hi * hi - lo * lo) / 2
    return moment / measure


def lavg(s: SetExpr, sched: Schedule | None = None) -> MeanOutcome:
    """Limit of the neighbourhood average as the radius shrinks to zero."""
    sched = _schedule(sched, "delta")
    if is_empty_expr(s):
        raise UndefinedMean("empty set")
    ls = leaves(s)
    cantor = ls[0] if len(ls) == 1 and isinstance(ls[0], Cantor) else None

    def evaluate(delta):
        if cantor is not None:
            measure, moment = cantor_neighborhood_stats(cantor.alpha, cantor.beta, delta)
            val = moment / measure
            return float(val), val
        try:
            u = neighborhood(s, delta, budget=_EXACT_NBR_BUDGET)
            val = avg_iu(u)
            return float(val), val
        except BudgetExceeded:
            return _lavg_eval_float(ls, delta), None

    return run_schedule(evaluate, sched)


# ---------------------------------------------------------------------------
# evenly-distributed-sample mean


class CellCover(Value):
    """Occupied cells of a uniform left-closed grid over [a, b): merged
    inclusive spans of cells, plus the single cells of resolved points
    outside every span.  The single cells are not stored: each of `runs`
    gives one ascending run of point cells in chunks (the first, the
    distinct point cells `eds_cells` stored, sorted), and each pass merges
    the runs and drops repeated cells and the cells a span holds.  Two
    covers are equal when their n, base, spans and single cells are."""

    __slots__ = ("n", "base", "spans", "runs", "__dict__")  # __dict__ holds the cached properties

    def __init__(self, n: int, base: tuple[Rat, Rat], spans: tuple, runs: tuple):
        _set(self, "n", n)
        _set(self, "base", base)
        _set(self, "spans", spans)  # inclusive index ranges, merged
        _set(self, "runs", runs)  # callables, each returning one run's ascending chunks

    def _key(self):
        return self.n, self.base, self.spans, self.cells

    def __eq__(self, other):
        if not isinstance(other, CellCover):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _singles(self):
        """Ascending chunks of the distinct point cells outside every span.
        Neighbours at a run's end can share a cell, and so can two runs."""
        spans, k, last = self.spans, 0, None
        for chunk in _merge_chunks([run() for run in self.runs]):
            uniq = [*compress(chunk, map(ne, chunk, islice(chunk, 1, None))), chunk[-1]]
            i = int(uniq[0] == last)  # the last chunk's last cell again
            last = uniq[-1]
            out = []
            while k < len(spans) and spans[k][0] <= last:
                lo, hi = spans[k]
                j = bisect_left(uniq, lo, i)
                out += uniq[i:j]
                i = bisect_right(uniq, hi, j)
                if hi > last:
                    break  # the span goes on into the next chunk
                k += 1
            out += uniq[i:]
            if out:
                yield out

    @cached_property
    def cells(self) -> tuple[int, ...]:
        """The single cells, ascending, each outside every span."""
        return tuple(chain.from_iterable(self._singles()))

    @cached_property
    def _tally(self) -> tuple[int, int]:
        """The number and the index sum of the single cells, in one pass."""
        count = total = 0
        for chunk in self._singles():
            count += len(chunk)
            total += sum(chunk)
        return count, total

    @cached_property
    def ranges(self) -> tuple[tuple[int, int], ...]:
        """Every occupied cell as merged inclusive index ranges, sorted: the
        spans merged with the runs of consecutive single cells."""
        cells = [*chain.from_iterable(self._singles())]
        gaps = [*map(ne, islice(cells, 1, None), map(add, cells, repeat(1)))]
        firsts = compress(cells, [True, *gaps])
        lasts = compress(cells, [*gaps, True])
        return _merge_ranges([*self.spans, *zip(firsts, lasts)])

    def count(self) -> int:
        return self._tally[0] + sum(hi - lo + 1 for lo, hi in self.spans)

    def index_sum(self) -> int:
        spans = sum((hi * (hi + 1) - (lo - 1) * lo) // 2 for lo, hi in self.spans)
        return self._tally[1] + spans

    def left_endpoint_mean(self) -> Rat:
        cnt = self.count()
        if cnt == 0:
            raise UndefinedMean("no occupied cells")
        a, b = self.base
        w = (b - a) / self.n
        return a + w * Fraction(self.index_sum(), cnt)

    def indices(self):
        for lo, hi in self.ranges:
            yield from range(lo, hi + 1)


def _iv_cells(iv: Interval, a: Rat, b: Rat, n: int) -> tuple[int, int]:
    """The cells from cell(lo) to cell(hi) that the interval meets; an open
    upper end on a cell boundary leaves that cell out."""
    q = (iv.hi - a) * n / (b - a)
    i1 = q.__floor__()
    if iv.hi_open and q == i1:
        i1 -= 1
    return ((iv.lo - a) * n / (b - a)).__floor__(), i1


def _cell_of_seq_point(tf: TermFun, idx: int, limit: Rat, a: Rat, b: Rat, n: int) -> int:
    """Exact cell of limit + tf(idx), resolving capped tiny tails."""
    main, tinies = tf_value_parts(tf, idx)
    w = (b - a) / n
    q = (limit + main - a) / w
    i = q.__floor__()
    if not tinies:
        return i
    bw = sum((t.bound for t in tinies), Fraction(0)) / w
    frac = q - i
    if bw < frac and frac + bw < 1:
        return i  # safely interior to its cell
    # the symbolic tail could cross a boundary: compare against it exactly
    if frac + bw >= 1:
        t_up = a + (i + 1) * w - limit
        if tf_cmp(tf, idx, t_up) >= 0:
            return i + 1
    if frac <= bw:
        t_dn = a + i * w - limit
        if tf_cmp(tf, idx, t_dn) < 0:
            return i - 1
    return i


def _power_cells(base: Rat, pw, idx: range, a: Rat, b: Rat, n: int):
    """Ascending chunks of the exact cells of base + c/i^p, i in idx.

    floor(((base + c/i^p) - a) * n / (b - a)) is (A*q + B) // (C*q) with
    q = i^p, over the numerators and denominators.  C > 0 and B has the
    sign of c, so the cells fall as i grows when c > 0 and rise when c < 0.
    """
    off, c, w = base - a, pw.c, b - a
    A = off.numerator * c.denominator * n * w.denominator
    B = c.numerator * off.denominator * n * w.denominator
    C = off.denominator * c.denominator * w.numerator
    for js in _slices(idx[::-1] if c > 0 else idx):
        qs = js if pw.p == 1 else [i**pw.p for i in js]
        yield [(A * q + B) // (C * q) for q in qs]


def _cover(
    n: int, base: tuple[Rat, Rat], cells: set[int], runs: list, spans: list[tuple[int, int]]
) -> CellCover:
    """The cover of the distinct stored point cells, the streamed runs of
    point cells and the hull spans: the spans merged, and the stored cells
    sorted into one more run."""
    return CellCover(n, base, _merge_ranges(spans), (partial(_slices, sorted(cells)), *runs))


def eds_cells(s: SetExpr, n: int, base: tuple[Rat, Rat], budget: int = 2_000_000) -> CellCover:
    """Exact occupied cells of the n-cell grid over [a, b).

    Each leaf is read at the cell width (`read_at_scale`): a run's points
    fall in their exact cells, and its chained hull and every other hull
    occupy the span of cells they meet.  A run of a single-power tail gets
    its cells from `_power_cells` and is stored when it fits in one chunk; a
    longer one is not, and the cover computes its cells again in ascending
    chunks on each pass.  Any other run is read point by point.  Stored
    cells go into one set, so a double sequence's bases x run points keep
    each cell they share once.  Each reading is charged as `neighborhood`
    charges it, len(bases) * (len(idx) + 1) + len(hulls) cells and spans,
    stored, repeated or streamed, and BudgetExceeded is raised when the
    leaves together cost more than `budget`.
    """
    if n < 1:
        raise ValueError("grid resolution must be >= 1")
    a, b = rat(base[0]), rat(base[1])
    if a >= b:
        raise ValueError("base interval must be nondegenerate")
    lo, hi, lo_att, hi_att = bounds(s)
    if lo < a or hi > b or (hi == b and hi_att):
        raise OutOfBase("point set must lie inside [a, b)")
    cells: set[int] = set()
    runs: list = []  # the cell chunks of each streamed run, on demand
    spans: list[tuple[int, int]] = []
    spent = 0
    for leaf in leaves(s):
        bases, tf, idx, run_hull, hulls = read_at_scale(leaf, (b - a) / n, budget - spent)
        spent += _charge(len(bases), len(idx), len(hulls), budget - spent)
        pw = tf_single_pow(tf) if bases else None
        for x in bases:
            if pw is None:
                cells.update([_cell_of_seq_point(tf, i, x, a, b, n) for i in idx])
            elif len(idx) > _CHUNK:
                runs.append(partial(_power_cells, x, pw, idx, a, b, n))
            else:
                cells.update(chain.from_iterable(_power_cells(x, pw, idx, a, b, n)))
            spans.append(_iv_cells(run_hull.shift(x), a, b, n))
        spans.extend(_iv_cells(h, a, b, n) for h in hulls)
    return _cover(n, (a, b), cells, runs, spans)


def default_base(s: SetExpr) -> tuple[Rat, Rat]:
    lo, hi, _, _ = bounds(s)
    return lo - 1, hi + 1


def mean_eds(
    s: SetExpr,
    sched: Schedule | None = None,
    base: tuple[Rat, Rat] | None = None,
    budget: int = 2_000_000,
) -> MeanOutcome:
    """Limit of averages of occupied-cell left endpoints on doubling grids."""
    sched = _schedule(sched, "grid")
    if is_empty_expr(s):
        raise UndefinedMean("empty set")
    base = default_base(s) if base is None else base

    def evaluate(param):
        n = int(param)
        cover = eds_cells(s, n, base, budget)
        val = cover.left_endpoint_mean()
        return float(val), val

    return run_schedule(evaluate, sched)


# ---------------------------------------------------------------------------
# oscillating counterexample for the isolated-point mean


class OscillatingIsoSet:
    """Two-cluster construction whose isolated-point averages oscillate.

    Stage j >= 1 places points in a shell at distances (2^-(j+2), 2^-(j+1))
    from its accumulator: odd stages cluster near 0 and drag the running
    average below `low_target`, even stages cluster above 1 and push it over
    `high_target`.  Points at distance >= delta from {0, 1} are exactly the
    stages with shell distance at least delta, so the schedule snapshots the
    running average at alternating extremes and no limit exists.
    """

    __slots__ = ("low_target", "high_target", "_counts", "_sums")

    def __init__(self, low_target=Fraction(1, 4), high_target=Fraction(3, 4)):
        self.low_target = low_target
        self.high_target = high_target
        self._counts: list[int] = []
        self._sums: list[Fraction] = []

    def _stage_shell(self, j: int) -> tuple[Fraction, Fraction]:
        lo = Fraction(1, 2 ** (j + 2))
        hi = Fraction(1, 2 ** (j + 1))
        if j % 2 == 1:
            return lo, hi  # near 0
        return 1 + lo, 1 + hi  # above 1

    def _stage_points(self, j: int, m: int) -> tuple[Fraction, Fraction]:
        """(count, exact sum) of m evenly placed points inside the shell."""
        lo, hi = self._stage_shell(j)
        return m, m * (lo + hi) / 2  # the points pair up around the midpoint

    def stage_points_explicit(self, j: int) -> list[Fraction]:
        self.ensure_stages(j)
        m = self._counts[j - 1] - (self._counts[j - 2] if j >= 2 else 0)
        lo, hi = self._stage_shell(j)
        width = hi - lo
        return [lo + width * Fraction(i, m + 1) for i in range(1, m + 1)]

    def ensure_stages(self, upto: int, budget: int = 30_000_000):
        while len(self._counts) < upto:
            j = len(self._counts) + 1
            n_prev = self._counts[-1] if self._counts else 0
            s_prev = self._sums[-1] if self._sums else Fraction(0)
            lo, hi = self._stage_shell(j)
            # odd stages take the average below low_target with points < hi,
            # even stages over high_target with points > lo
            if j % 2 == 1:
                target, edge, side = self.low_target, hi, -1
            else:
                target, edge, side = self.high_target, lo, 1
            m = 1
            while True:
                cnt, ssum = self._stage_points(j, m)
                if side * (s_prev + ssum - target * (n_prev + cnt)) > 0:
                    break
                need = (target * n_prev - s_prev) / (edge - target)
                m = max(m * 2, int(need) + 1)
                if n_prev + m > budget:
                    raise BudgetExceeded("oscillating construction too deep")
            self._counts.append(n_prev + cnt)
            self._sums.append(s_prev + ssum)

    def running_mean_after(self, stage: int) -> Fraction:
        self.ensure_stages(stage)
        return self._sums[stage - 1] / self._counts[stage - 1]

    def isolated_mean(self, delta: Fraction) -> Fraction | None:
        """Average of points at distance >= delta from {0, 1}."""
        k = 0
        while Fraction(1, 2 ** (k + 1)) >= delta:
            k += 1
        # stages j with shell lower edge 2^-(j+2) >= delta survive fully
        stage = k - 2
        if stage < 1:
            return None
        return self.running_mean_after(stage)


def mean_iso_oscillating(sched: Schedule | None = None) -> MeanOutcome:
    """Isolated-point mean of the shipped oscillating construction."""
    sched = _schedule(sched, "delta")
    osc = OscillatingIsoSet()

    def evaluate(delta):
        got = osc.isolated_mean(delta)
        if got is None:
            return None
        return float(got), got

    return run_schedule(evaluate, sched)
