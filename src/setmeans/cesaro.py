"""Constructive rearrangements realizing prescribed running averages.

The machinery follows the constructive merge arguments: a single value can
be inserted into a sequence with a known running average without leaving an
epsilon-window past a computable index; a bounded sequence can be absorbed
insert-by-insert along a halving epsilon schedule; and two convergent
sequences can be interleaved with prescribed asymptotic frequencies by
drawing one stream at the first index of every length-gamma block.  All
witness indices are computed from explicit envelope certificates, so the
constructions are deterministic and verifiable.

A `ValueStream` is an iterator of (float, exact) rows, and every merge is a
generator over its input streams whose certificate reads the generator's
own counters while it is suspended.  The per-row loops call a bound `pull`
(a Python-to-Python call, cheaper per row than iterating a stream from C).
An absorbed stream is pulled long before its element is inserted, so a
witness's membership test claims the values it will emit, not only those it
has emitted.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterator

from .core import Rat, Value, _set
from .errors import Degenerate, NoWitness, OutOfRange, BudgetExceeded
from .setexpr import (
    Dense,
    Finite,
    Seq,
    Seq2,
    SetExpr,
    _gen_union,
    _seq_value_index,
    is_countably_infinite,
    leaves,
    point_generator,
    union,
)
from .terms import (
    TermFun,
    tf_abs_below_index,
    tf_abs_upper,
    tf_add,
    tf_monotone_index,
    tf_single_pow,
    tf_tracked_until,
    tf_value,
    tf_value_float,
)
from .topology import Ideal, ideal_limits

_EXACT_BITS = 4096


class ValueStream:
    """Single-consumer injective iterator of (float, exact) rows.

    Emits floats; the exact value is kept alongside while its size stays
    tractable.  A sequence leaf's element is built from one reduced integer
    pair, and goes float-only from the first index at which a term of its
    tail is too deep to evaluate exactly (see `_seq_iter`).  The stream
    keeps a count and a plain floating-point running sum of what it has
    emitted, and no exact sum.
    """

    def __init__(
        self,
        iterator: Iterator[tuple[float, Rat | None]],
        mean: Rat | None = None,
        elem_rate: Callable[[Fraction], int] | None = None,
        mean_cert: Callable[[Fraction], int] | None = None,
        dev_bound: Rat | None = None,
        contains: Callable[[Rat], bool] | None = None,
    ):
        self._it = iterator
        self.mean = mean
        self._elem_rate = elem_rate
        self._mean_cert = mean_cert
        self.dev_bound = dev_bound
        self._contains = contains
        self.emitted_count = 0
        self.partial_sum_float = 0.0

    def elem_rate(self, eps: Fraction) -> int:
        if self._elem_rate is None:
            raise NoWitness("stream has no element rate")
        return self._elem_rate(eps)

    def mean_cert(self, eps: Fraction) -> int:
        if self._mean_cert is None:
            raise NoWitness("stream has no mean certificate")
        return self._mean_cert(eps)

    def contains(self, v: Rat) -> bool:
        if self._contains is None:
            return False
        return self._contains(v)

    def __iter__(self):
        return self

    def pull(self) -> tuple[float, Rat | None]:
        f, e = next(self._it)
        self.emitted_count += 1
        self.partial_sum_float += f
        return f, e

    def __next__(self):
        # every layer advances through `pull`, so a wrapper of `pull` (such
        # as bench/spans.py installs) counts the inner layers' pulls too
        return self.pull()

    def running_mean(self) -> float:
        return self.partial_sum_float / self.emitted_count

    def take(self, count: int) -> list[tuple[int, float, float]]:
        """(index, value, partial mean) rows for the first `count` pulls."""
        rows = []
        for _ in range(count):
            try:
                f, _ = self.pull()
            except StopIteration:
                break
            rows.append((self.emitted_count, f, self.running_mean()))
        return rows


def _exact_if_small(x: Fraction) -> Fraction | None:
    if x.denominator.bit_length() + x.numerator.bit_length() <= _EXACT_BITS:
        return x
    return None


# ---------------------------------------------------------------------------
# element streams from leaves


def _seq_iter(limit: Rat, tf: TermFun, skip_indices: frozenset[int]):
    """(float, exact) rows of limit + tf(n) for n >= tf.start outside
    skip_indices.

    A single-power tail limit + c/n^p is one integer pair per element,
    (ln·cd·n^p + cn·ld) / (ld·cd·n^p): the Fraction built from it is the
    reduced exact value, and the reduced pair's true division is its float,
    bit for bit float(Fraction).  Any other tail is exact while every term is
    tracked, and float-only from tf_tracked_until on.
    """
    n = tf.start
    pw = tf_single_pow(tf)
    if pw is not None:
        exact_bits = _EXACT_BITS
        ln, ld = limit.numerator, limit.denominator
        cn, cd, p = pw.c.numerator, pw.c.denominator, pw.p
        top, add, bottom = ln * cd, cn * ld, ld * cd
        while True:
            if n not in skip_indices:
                np_ = n**p
                v = Fraction(top * np_ + add, bottom * np_)
                num, den = v.numerator, v.denominator
                yield num / den, v if num.bit_length() + den.bit_length() <= exact_bits else None
            n += 1
    until = tf_tracked_until(tf)
    while until is None or n < until:
        if n not in skip_indices:
            v = limit + tf_value(tf, n)
            yield float(v), _exact_if_small(v)
        n += 1
    limit_f = float(limit)
    while True:
        if n not in skip_indices:
            yield tf_value_float(tf, n) + limit_f, None
        n += 1


def _window_cert(rate: Callable[[Fraction], int], dev: Rat) -> Callable[[Fraction], int]:
    """The mean certificate of a stream whose elements lie within eps of its
    mean from index rate(eps) on and within dev of it before: past the
    returned index the running mean stays within eps."""

    def cert(eps: Fraction) -> int:
        m_e = rate(eps / 2)
        need = Fraction(2) * m_e * max(dev, eps) / eps
        return max(m_e, math.ceil(need)) + 1

    return cert


def stream_from_seq(leaf: Seq, skip_indices=frozenset()) -> ValueStream:
    tf = leaf.tail
    m = tf_monotone_index(tf)
    dev = max(
        [abs(tf_value(tf, n)) for n in range(tf.start, m + 1)] or [Fraction(0)]
    )

    def rate(eps: Fraction) -> int:
        return tf_abs_below_index(tf, eps) - tf.start + 1

    def contains(v: Rat) -> bool:
        idx = _seq_value_index(leaf.limit, tf, v)
        return idx is not None and idx not in skip_indices

    return ValueStream(
        _seq_iter(leaf.limit, tf, frozenset(skip_indices)),
        mean=leaf.limit,
        elem_rate=rate,
        mean_cert=_window_cert(rate, dev),
        dev_bound=dev,
        contains=contains,
    )


def _dense_edge_values(d: Dense, ascending_to_top: bool):
    # level j's multiple of 2^-j nearest the edge is level j-1's value
    # exactly when m is even, so only j == 1 or an odd m is new
    j = 1
    while True:
        den = 1 << j
        if ascending_to_top:
            m = (d.hi * den).__ceil__() - 1
            v = Fraction(m, den)
            ok = d.lo < v < d.hi
        else:
            m = (d.lo * den).__floor__() + 1
            v = Fraction(m, den)
            ok = d.lo < v < d.hi
        if ok and (j == 1 or m & 1):
            yield float(v), v
        j += 1
        if j > 4000:
            raise BudgetExceeded("dense edge stream exhausted its depth")


def stream_from_dense_edge(d: Dense, target_hi: bool) -> ValueStream:
    target = d.hi if target_hi else d.lo
    width = d.hi - d.lo

    def rate(eps: Fraction) -> int:
        k = 1
        while Fraction(1, 1 << k) >= eps:
            k += 1
        return k + 1

    def contains(v: Rat) -> bool:
        # level j >= 1 emits the multiple of 2^-j nearest the edge inside
        # (lo, hi), so v = m/2^j0 (reduced) is emitted iff one step of level
        # max(j0, 1) from v reaches the edge; deeper levels only come closer
        den = v.denominator
        if den & (den - 1) or not d.lo < v < d.hi:
            return False
        step = Fraction(1, max(den, 2))
        return v + step >= d.hi if target_hi else v - step <= d.lo

    return ValueStream(
        _dense_edge_values(d, target_hi),
        mean=target,
        elem_rate=rate,
        mean_cert=_window_cert(rate, width),
        dev_bound=width,
        contains=contains,
    )


def stream_from_finite(points) -> ValueStream:
    return ValueStream((float(p), p) for p in points)


def canonical_stream(s: SetExpr, owned: tuple[Callable[[Rat], bool], ...]) -> ValueStream:
    """Canonical enumeration of s, skipping every value a test in `owned`
    claims for another stream.

    The expression must be the structural remainder (witness leaves removed),
    so every element is examined once and exhaustion is a real StopIteration.
    """

    def it():
        seen: set[Rat] = set()
        for v in point_generator(s):
            if v in seen:
                continue
            seen.add(v)
            if len(seen) > 4_000_000:
                raise BudgetExceeded("canonical stream dedup set exhausted")
            if any(claims(v) for claims in owned):
                continue
            yield float(v), _exact_if_small(v)

    return ValueStream(it())


# ---------------------------------------------------------------------------
# the merge lemmas


class MergeParams(Value):
    """Asymptotic draw frequencies for the two-stream block merge."""

    __slots__ = ("alpha",)

    def __init__(self, alpha: Rat):
        if not (0 <= alpha <= 1):
            raise ValueError("alpha must lie in [0, 1]")
        _set(self, "alpha", alpha)

    @property
    def beta(self) -> Rat:
        return 1 - self.alpha

    @property
    def gamma(self) -> Rat:
        small = min(self.alpha, self.beta)
        if small == 0:
            raise ValueError("degenerate weights have no block length")
        return 1 / small


def merge_element_index(
    b_mean: Rat, c: Rat, eps: Fraction, cert_index: int
) -> int:
    """Insertion position k: past it, running means stay within eps of the
    sequence mean after inserting c.  The three bounds mirror the epsilon/3
    decomposition of the insertion argument."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    k1 = cert_index
    k2 = math.ceil(3 * abs(c) / eps)
    k3 = math.ceil(3 * abs(b_mean - eps / 3) / eps)
    return max(k1, k2, k3) + 1


def merge_element(b: ValueStream, c: Rat, eps: Fraction, cert_index: int | None = None):
    """Insert the single value c into stream b at a certified position.

    Returns (k, merged stream); the merged stream emits b's values with c at
    position k, and for every n > k the running mean stays within eps of b's
    mean.
    """
    if b.mean is None:
        raise NoWitness("insertion needs the base stream's mean")
    if cert_index is None:
        cert_index = b.mean_cert(eps / 3)
    k = merge_element_index(b.mean, c, eps, cert_index)

    def it():
        pull = b.pull
        for _ in range(k - 1):
            yield pull()
        yield float(c), _exact_if_small(Fraction(c))
        while True:
            yield pull()

    merged = ValueStream(
        it(),
        mean=b.mean,
        mean_cert=_inserted_cert(b, c, k, eps),
        dev_bound=b.dev_bound,
    )
    return k, merged


def _inserted_cert(b: ValueStream, c: Rat, k: int, eps: Fraction):
    def cert(eps2: Fraction) -> int:
        base = b.mean_cert(eps2 / 2)
        spread = math.ceil(2 * abs(c - b.mean) / eps2)
        return max(k, base + 1, spread) + 1

    return cert


def merge_absorb(b: ValueStream, c: ValueStream) -> ValueStream:
    """Merge every element of bounded c into b without moving the mean.

    Inserts c's j-th element with the halving tolerance 2^-j at an index
    where all three insertion bounds hold for the current merged stream.
    c is pulled on the first pull and right after each insertion.
    """
    if b.mean is None:
        raise NoWitness("absorbing needs the base stream's mean")
    b_mean = b.mean
    j = k_last = 0  # insertions so far, and the index of the last one
    cdev = c.dev_bound or Fraction(0)

    def cert(eps: Fraction) -> int:
        # after j insertions the deviation splits into the inserted values'
        # contribution and the base stream's own certified window
        dc = cdev + abs(b_mean) + 1
        base = b.mean_cert(eps / 2)
        need = math.ceil(2 * j * dc / eps)
        return max(k_last, base + j, need) + 1

    def it():
        nonlocal j, k_last, cdev
        pull = b.pull
        for f, e in c:
            v = Fraction(f) if e is None else e
            cdev = max(cdev, abs(v - b_mean))
            eps = Fraction(1, 2 ** (j + 1))
            k = max(merge_element_index(b_mean, v, eps, cert(eps / 3)), k_last + 1)
            for _ in range(k - 1 - k_last):
                yield pull()
            # count the insertion before yielding it: an outer merge reads
            # cert while this generator is suspended at the yield
            j, k_last = j + 1, k
            yield float(v), _exact_if_small(v)
        while True:
            yield pull()

    return ValueStream(it(), mean=b_mean, mean_cert=cert)


def merge_weighted(a: ValueStream, b: ValueStream, params: MergeParams) -> ValueStream:
    """Block merge with asymptotic draw frequency alpha from a, beta from b;
    the running mean converges to alpha*a.mean + beta*b.mean."""
    alpha = Fraction(params.alpha)
    if alpha == 0:
        return merge_absorb(b, a)
    if alpha == 1:
        return merge_absorb(a, b)
    if a.mean is None or b.mean is None:
        raise NoWitness("weighted merging needs both stream means")
    first, rest = (a, b) if alpha <= Fraction(1, 2) else (b, a)
    gamma = Fraction(params.gamma)
    target = alpha * a.mean + (1 - alpha) * b.mean
    gn, gd = gamma.numerator, gamma.denominator

    def it():
        m = 2  # the next block whose first index is pending
        next_first = 1  # block 1 always starts at index 1
        i = 1
        while True:
            if i == next_first:
                yield first.pull()
                # block m starts at ceil((m - 1) * gamma), by floor division
                next_first = max(-((1 - m) * gn // gd), i + 1)
                m += 1
            else:
                yield rest.pull()
            i += 1

    def cert(eps: Fraction) -> int:
        n_e = max(a.elem_rate(eps / 4), b.elem_rate(eps / 4))
        da = a.dev_bound if a.dev_bound is not None else Fraction(0)
        db = b.dev_bound if b.dev_bound is not None else Fraction(0)
        gap = abs(a.mean - b.mean)
        spread = math.ceil(4 * (n_e * (da + db) + gap) / (3 * eps))
        m_k = math.ceil(gamma * (n_e + 1)) + math.ceil(
            gamma / (gamma - 1) * (n_e + 1)
        ) + 4
        return max(m_k, spread) + 1

    return ValueStream(
        it(),
        mean=target,
        mean_cert=cert,
        dev_bound=max(
            [d for d in (a.dev_bound, b.dev_bound) if d is not None]
            + [abs(a.mean - b.mean)]
        ),
    )


# ---------------------------------------------------------------------------
# witnesses and whole-set rearrangements


def _witness_backing(ls, target: Rat):
    """(backing, leaf index, consumes-whole-leaf) for a subsequence of one
    leaf converging to the target extreme.  The backing is ('seq', Seq) for
    sequence-shaped witnesses or ('dense', Dense, target_hi)."""
    for i, leaf in enumerate(ls):
        if isinstance(leaf, Seq) and leaf.limit == target:
            return ("seq", leaf), i, True
        if isinstance(leaf, Seq2):
            if leaf.limit == target:
                combined = tf_add(leaf.outer, leaf.inner)
                return ("seq", Seq(leaf.limit, combined)), i, False
            got = _extreme_cluster(leaf, target)
            if got is not None:
                return ("seq", got), i, False
        if isinstance(leaf, Dense) and (leaf.lo == target or leaf.hi == target):
            return ("dense", leaf, leaf.hi == target), i, False
    return None


def _extreme_cluster(leaf: Seq2, target: Rat) -> Seq | None:
    """A single cluster of a double sequence attaining an extreme limit."""
    for n in range(leaf.outer.start, tf_monotone_index(leaf.outer) + 2):
        base = leaf.limit + tf_value(leaf.outer, n)
        if base == target:
            return Seq(base, leaf.inner)
    for k in range(leaf.inner.start, tf_monotone_index(leaf.inner) + 2):
        base = leaf.limit + tf_value(leaf.inner, k)
        if base == target:
            return Seq(base, leaf.outer)
    return None


def _stream_from_backing(backing, skip_indices=frozenset()) -> ValueStream:
    if backing[0] == "seq":
        return stream_from_seq(backing[1], skip_indices)
    return stream_from_dense_edge(backing[1], backing[2])


_COLLISION_CAP = 20_000


def _seq_collision_indices(dst: Seq, src: Seq) -> set[int]:
    """Indices n with dst.limit + dst.tail(n) inside src's value set.

    Both value sets accumulate only at their limits, so when the limits
    differ the collision set is finite and reachable by bounded walks."""
    out: set[int] = set()
    m_src = tf_monotone_index(src.tail)
    for n in range(src.tail.start, m_src + 1):
        v = src.limit + tf_value(src.tail, n)
        idx = _seq_value_index(dst.limit, dst.tail, v)
        if idx is not None:
            out.add(idx)
    src_top = tf_abs_upper(src.tail, m_src + 1)
    gap = abs(dst.limit - src.limit) - src_top
    if gap > 0:
        cutoff = tf_abs_below_index(dst.tail, gap)
    else:
        cutoff = dst.tail.start + _COLLISION_CAP + 1
    if cutoff - dst.tail.start > _COLLISION_CAP:
        raise BudgetExceeded("witness collision walk too long")
    for n in range(dst.tail.start, cutoff):
        v = dst.limit + tf_value(dst.tail, n)
        if _seq_value_index(src.limit, src.tail, v) is not None:
            out.add(n)
    return out


def _limits(s: SetExpr) -> tuple[Rat, Rat]:
    """The lower and upper limits of a set that can be rearranged."""
    if not is_countably_infinite(s):
        raise NoWitness("rearrangements need a countably infinite set")
    return ideal_limits(s, Ideal.FINITE_SETS)


def _lower_witness(ls, lo: Rat):
    """The backing and stream of a witness converging to the lower limit,
    and the set of leaves it consumes whole."""
    got = _witness_backing(ls, lo)
    if got is None:
        raise NoWitness("no representable subsequence converges to the lower limit")
    back, leaf, full = got
    return back, _stream_from_backing(back), {leaf} if full else set()


def _remainder(ls, consumed: set[int], witnesses) -> ValueStream:
    """The canonical stream of the leaves no witness consumes whole.  A
    witness may own values of those leaves too (a partial witness shares its
    leaf, and leaves may overlap): those stay with it."""
    return canonical_stream(union(*_emptied(ls, consumed)), tuple(w.contains for w in witnesses))


def split_three(s: SetExpr):
    """Three disjoint streams covering s exactly: one converging to the
    lower limit, one to the upper limit, and the remainder.  Also returns
    the two limits, which must be distinct: equal limits raise Degenerate."""
    lo, hi = _limits(s)
    if lo == hi:
        raise Degenerate("equal lower and upper limits admit no oscillation")
    ls = leaves(s)
    a_back, a, consumed = _lower_witness(ls, lo)
    got = _witness_backing(_emptied(ls, consumed), hi)
    if got is None:
        raise NoWitness("no representable subsequence converges to the upper limit")
    b_back, b_leaf, b_full = got
    # values shared by both witnesses stay with the lower one
    if a_back[0] == "seq" and b_back[0] == "seq":
        b_skip = _seq_collision_indices(b_back[1], a_back[1])
        b = _stream_from_backing(b_back, frozenset(b_skip))
    else:
        b = _filter_stream(_stream_from_backing(b_back), a.contains)
    if b_full:
        consumed.add(b_leaf)
    return a, b, _remainder(ls, consumed, (a, b)), lo, hi


def _emptied(ls, consumed: set[int]) -> list[SetExpr]:
    """The leaves, with each leaf that a witness consumes whole made empty."""
    return [Finite(()) if i in consumed else l for i, l in enumerate(ls)]


def _filter_stream(src: ValueStream, banned) -> ValueStream:
    return ValueStream(
        ((f, e) for f, e in src if e is None or not banned(e)),
        mean=src.mean,
        elem_rate=src._elem_rate,
        mean_cert=src._mean_cert,
        dev_bound=src.dev_bound,
        contains=src._contains,
    )


def enumerate_with_mean(s: SetExpr, target: Rat) -> ValueStream:
    """Injective exhaustive enumeration of s whose running averages converge
    to the prescribed value between the lower and upper limits.

    With equal limits that limit is the set's only accumulation point, so
    every injective enumeration converges to it: the witness converging to
    it absorbs the rest of the set, with no second witness."""
    target = Fraction(target)
    lo, hi = _limits(s)
    if not (lo <= target <= hi):
        raise OutOfRange(f"target {target} outside [{lo}, {hi}]")
    if lo == hi:
        ls = leaves(s)
        _, a, consumed = _lower_witness(ls, lo)
        return merge_absorb(a, _remainder(ls, consumed, (a,)))
    a, b, c, lo, hi = split_three(s)
    if target == lo:
        return merge_absorb(a, ValueStream(_gen_union([b, c])))
    if target == hi:
        return merge_absorb(b, ValueStream(_gen_union([a, c])))
    alpha = (hi - target) / (hi - lo)
    return merge_absorb(merge_weighted(a, b, MergeParams(alpha)), c)


def enumerate_divergent(
    s: SetExpr, p: Rat | None = None, q: Rat | None = None, burst_cap: int = 10_000_000
) -> ValueStream:
    """Injective exhaustive enumeration whose running average drops below p
    and rises above q infinitely often."""
    a, b, c, lo, hi = split_three(s)
    span = hi - lo
    p = lo + span / 3 if p is None else Fraction(p)
    q = hi - span / 3 if q is None else Fraction(q)
    if not (lo < p < q < hi):
        raise OutOfRange("thresholds must satisfy lower < p < q < upper")
    pf, qf = float(p), float(q)

    def it():
        # the bursts read the running mean of the stream they feed, which
        # has added every value yielded before the generator resumes
        low_stage = True
        while True:
            try:
                yield c.pull()
            except StopIteration:
                pass
            pulls = 0
            if low_stage:
                while out.emitted_count == 0 or out.running_mean() >= pf or pulls == 0:
                    yield a.pull()
                    pulls += 1
                    if pulls > burst_cap:
                        raise BudgetExceeded("low burst exceeded its cap")
            else:
                while out.emitted_count == 0 or out.running_mean() <= qf or pulls == 0:
                    yield b.pull()
                    pulls += 1
                    if pulls > burst_cap:
                        raise BudgetExceeded("high burst exceeded its cap")
            low_stage = not low_stage

    out = ValueStream(it())
    return out
