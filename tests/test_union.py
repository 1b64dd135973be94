"""The float-filtered interval union against an exact sort and merge.

`iu_union_shifted` orders and merges parts by float keys with certified
error bounds and compares exact Fractions only where two bounds overlap.
The oracle here is the exact sweep it replaced: sort by (lo, lo_open),
then merge with exact comparisons.  The generators force the near-ties
that the filter hands to exact code: equal ends reached by different sums,
ends one float ulp apart or between two adjacent floats, touching ends with
every open/closed pairing, degenerate points, and ends past float range.
"""

import math
from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from setmeans import Interval, Union, core, iu_normalize, neighborhood
from setmeans.core import iu_union_shifted
from setmeans.measure import _charge, read_at_scale
from setmeans.setexpr import leaves
from setmeans.terms import tf_value

from gen import random_bounded, random_countable, random_seq2


def _exact_normalize(raw):
    """The normal form by an exact sort by (lo, lo_open) and an exact merge."""
    items = sorted(raw, key=lambda iv: (iv.lo, iv.lo_open))
    out = []
    for iv in items:
        if out:
            last = out[-1]
            hi, hi_open = last.hi, last.hi_open
            if iv.lo < hi or (iv.lo == hi and not (hi_open and iv.lo_open)):
                if iv.hi > hi or (iv.hi == hi and hi_open and not iv.hi_open):
                    out[-1] = Interval(last.lo, iv.hi, last.lo_open, iv.hi_open)
                continue
        out.append(iv)
    return tuple(out)


_HUGE = F(10) ** 400


# nudges, in ulps of a float, that land near it, on either side of the
# midpoint to its neighbour (where rounding flips), or on the midpoint
_NUDGES = [F(k, 3) for k in (-2, -1, 1, 2)] + [F(1, 2) + e for e in (-F(1, 2**20), 0, F(1, 2**20))]


@st.composite
def _ends(draw):
    """An exact end: a small rational, one far below float resolution next to
    a larger one, a float nudged by part of its ulp, its neighbour float, or
    a value past float range."""
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return F(draw(st.integers(-12, 12)), draw(st.sampled_from([1, 2, 3, 4, 6, 8])))
    if kind == 5:
        return F(draw(st.integers(-3, 3)), 2**70)
    f = draw(st.floats(-4, 4, allow_nan=False, allow_infinity=False))
    if kind == 1:
        nudge = draw(st.sampled_from(_NUDGES)) * draw(st.sampled_from([1, -1]))
        return F(f) + nudge * F(math.ulp(f))
    if kind == 2:
        return F(math.nextafter(f, draw(st.sampled_from([-math.inf, math.inf]))))
    if kind == 3:
        return F(f)
    return draw(st.sampled_from([_HUGE, -_HUGE])) + F(draw(st.integers(-2, 2)), 3)


@st.composite
def _intervals(draw, ends=_ends()):
    a, b = sorted((draw(ends), draw(ends)))
    if a == b:
        return Interval(a, a)
    return Interval(a, b, draw(st.booleans()), draw(st.booleans()))


@st.composite
def _touching(draw):
    """Parts that share ends, with every open/closed pairing."""
    cuts = sorted(set(draw(st.lists(_ends(), min_size=2, max_size=5))))
    parts = []
    for a, b in zip(cuts, cuts[1:]):
        parts.append(Interval(a, b, draw(st.booleans()), draw(st.booleans())))
        if draw(st.booleans()):
            parts.append(Interval(b, b))
    return parts


_LISTS = st.one_of(
    st.lists(_intervals(), max_size=12),
    _touching(),
    st.builds(lambda a, b: a + b, _touching(), st.lists(_intervals(), max_size=6)),
)


@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(_LISTS)
def test_normalize_matches_exact_sweep(raw):
    assert iu_normalize(raw).parts == _exact_normalize(raw)


@st.composite
def _shifted(draw):
    """(parts, [(bases, run)]) where different (part, base) pairs reach equal
    ends: a run end is a target minus a base, for targets shared by bases."""
    targets = draw(st.lists(_ends(), min_size=1, max_size=3))
    groups = []
    for _ in range(draw(st.integers(1, 3))):
        bases = draw(st.lists(_ends(), min_size=1, max_size=4))
        run = draw(st.lists(_intervals(), max_size=4))
        b = bases[0]
        for t in targets:
            u = draw(st.sampled_from(targets))
            lo, hi = sorted((t - b, u - b))
            opens = (draw(st.booleans()), draw(st.booleans())) if lo < hi else (False, False)
            run.append(Interval(lo, hi, *opens))
        groups.append((bases, run))
    parts = draw(st.one_of(st.lists(_intervals(), max_size=6), _touching()))
    return parts, groups


@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(_shifted())
def test_shifted_union_matches_exact_sweep(case):
    # at a chunk of 3 the pending items are folded into their normal form
    # before most bases are added, at the default chunk never
    parts, groups = case
    flat = list(parts) + [p.shift(b) for bases, run in groups for b in bases for p in run]
    want = _exact_normalize(flat)
    for chunk in (3, core._CHUNK):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(core, "_CHUNK", chunk)
            assert iu_union_shifted(parts, groups).parts == want, chunk


@pytest.mark.parametrize("f", [1 / 3, 0.1, -2.75, 3.0, 1e-300])
def test_shifted_keys_that_round_across_a_float(f):
    # a = m + eps - 2*eps and b = m - eps/2 straddle the midpoint m after
    # f: a < b, but float(m + eps) is the upper float and the tiny part
    # does not move it back, while float(b) is f itself
    ulp = F(math.ulp(f))
    m, eps = F(f) + ulp / 2, ulp / 2**20
    a_base, a_part = m + eps, Interval(-2 * eps, -2 * eps)
    b_base, b_part = m - eps / 2, Interval(F(0), F(0))
    assert float(a_part.lo) + float(a_base) > float(b_base) and a_base + a_part.lo < b_base
    groups = [([a_base], [a_part]), ([b_base], [b_part, Interval(F(0), eps / 4, False, True)])]
    flat = [p.shift(b) for bases, run in groups for b in bases for p in run]
    assert iu_union_shifted([], groups).parts == _exact_normalize(flat)


def test_ends_past_float_range_tie_exactly():
    big = [_HUGE, _HUGE + F(1, 3), -_HUGE, -_HUGE - 1]
    raw = [Interval(-_HUGE - 1, -_HUGE, True, False), Interval(_HUGE, _HUGE + F(1, 3))]
    raw += [Interval(x, x) for x in big] + [Interval(F(-1), F(1), True, True)]
    assert iu_normalize(raw).parts == _exact_normalize(raw)
    run = [Interval(F(0), F(1), True, False), Interval(F(1), F(2), True, True)]
    groups = [([_HUGE, F(1, 2)], run)]
    flat = [p.shift(b) for bases, run in groups for b in bases for p in run] + raw
    assert iu_union_shifted(raw, groups).parts == _exact_normalize(flat)


def test_folds_keep_ends_past_float_range(monkeypatch):
    # a folded part past float range keeps its unbounded keys, so the
    # shifted parts added after it are ordered against it exactly
    sweeps = []
    sweep = core._sweep
    monkeypatch.setattr(core, "_sweep", lambda items: sweeps.append(len(items)) or sweep(items))
    monkeypatch.setattr(core, "_CHUNK", 1)
    raw = [Interval(_HUGE, _HUGE + 1, True, False), Interval(F(0), F(1, 3), False, True)]
    run = [Interval(F(-1, 3), F(0), True, False), Interval(F(1, 2), F(1), False, True)]
    bases = [F(1, 3), _HUGE + F(2, 3), F(-1, 2), _HUGE + F(1, 3), F(2, 3), -_HUGE]
    flat = raw + [p.shift(b) for b in bases for p in run]
    assert iu_union_shifted(raw, [(bases, run)]).parts == _exact_normalize(flat)
    assert len(sweeps) > 2  # folds happened between the bases


def _widen(iv, delta):
    return Interval(iv.lo - delta, iv.hi + delta, True, True)


def _shifting_neighborhood(s, delta, budget=200_000):
    """neighborhood as one exact shift per (base, run part) and one exact
    sweep over all parts."""
    parts = []
    spent = 0
    for leaf in leaves(s):
        bases, tf, idx, run_hull, hulls = read_at_scale(leaf, 2 * delta, budget - spent)
        spent += _charge(len(bases), len(idx), len(hulls), budget - spent)
        if bases:
            points = (tf_value(tf, n) for n in idx)
            run = [Interval(v - delta, v + delta, True, True) for v in points]
            run = _exact_normalize(run + [_widen(run_hull, delta)])
            for b in bases:
                parts.extend(p.shift(b) for p in run)
        parts.extend(_widen(h, delta) for h in hulls)
    return _exact_normalize(parts)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the same error must come from both sides
        return type(exc), str(exc)


_DELTAS = [F(1, 3), F(1, 8), F(1, 20), F(1, 64), F(1, 2**9), F(3, 2**12), F(1, 2**14)]


def test_neighborhood_matches_shifting_sweep():
    rng = Random(1301)
    sets = [random_bounded(rng) for _ in range(300)]
    sets += [random_countable(rng, allow_seq2=True, allow_dense=True) for _ in range(260)]
    sets += [Union((random_seq2(rng), random_seq2(rng))) for _ in range(60)]
    seq2_sets = sum(any(type(l).__name__ == "Seq2" for l in leaves(s)) for s in sets)
    assert len(sets) >= 600 and seq2_sets >= 150
    mismatches = []
    for s in sets:
        for delta in _DELTAS:
            got = _outcome(neighborhood, s, delta)
            want = _outcome(_shifting_neighborhood, s, delta)
            if not isinstance(got, tuple):
                got = got.parts
            if got != want:
                mismatches.append((s, delta))
    assert not mismatches, mismatches[:3]
