"""Neighbourhoods, the measure average, and the half-measure median set."""

import heapq
import tracemalloc
from bisect import bisect_left
from fractions import Fraction as F
from itertools import accumulate
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from setmeans import (
    BudgetExceeded,
    CellCover,
    Cantor,
    Dense,
    Interval,
    Unsupported,
    UndefinedMean,
    ZeroMeasure,
    avg_iu,
    avg_set,
    cantor_neighborhood_stats,
    default_base,
    eds_cells,
    enumerate_points,
    interval,
    iu_contains_union,
    iu_measure,
    iu_moment,
    iu_normalize,
    iu_scale,
    iu_shift,
    map_affine,
    ms_hf,
    isolated_outside,
    neighborhood,
    parse,
    split_at,
    Union,
    PowTerm,
    seq,
    term_fun,
)
from setmeans import core, means
from setmeans.means import _cell_of_seq_point, _iv_cells, _lavg_eval_float
from setmeans.measure import read_at_scale
from setmeans.setexpr import Finite, IntervalSet, Seq, bounds, leaves
from setmeans.terms import (
    tf_chain,
    tf_resolution_index,
    tf_single_pow,
    tf_value,
    tf_value_float,
)

from gen import (
    random_countable,
    random_finite,
    random_interval,
    random_rat,
    random_seq,
    random_seq2,
)

L_TEXT = "{1/n} U {2 + 1/2^n}"
L = parse(L_TEXT)
H3_TEXT = "{1/n} U {1 + 1/n + 1/k}"
H3 = parse(H3_TEXT)


def _ball(x, delta):
    return Interval(x - delta, x + delta, True, True)


@pytest.mark.parametrize(
    "call, plain, exact",
    [
        (lambda v: eds_cells(parse("{1/n}"), 8, v).left_endpoint_mean(), (0, 2), (F(0), F(2))),
        (lambda v: split_at(parse("{1/n} U [0,1]"), v), 0.5, F(1, 2)),
        (lambda v: neighborhood(parse("{1/n}"), v), 0.125, F(1, 8)),
        (lambda v: isolated_outside(parse("{0} U {1/2^n} U {3}"), v), 0.125, F(1, 8)),
        (lambda v: iu_shift(iu_normalize([interval(0, 1)]), v), 0.125, F(1, 8)),
        (lambda v: iu_scale(iu_normalize([interval(0, 1)]), v), -0.5, F(-1, 2)),
        (lambda v: iu_normalize([interval(0, 1)]).map_affine(*v), (0.5, 0.25), (F(1, 2), F(1, 4))),
        (lambda v: cantor_neighborhood_stats(*v), (3, 1, 2**-5), (F(3), F(1), F(1, 32))),
    ],
    ids=[
        "eds_cells-base",
        "split_at-y",
        "neighborhood-delta",
        "isolated_outside-delta",
        "iu_shift-dx",
        "iu_scale-a",
        "map_affine-alpha-beta",
        "cantor_neighborhood_stats-all",
    ],
)
def test_numeric_arguments_enter_as_fractions(call, plain, exact):
    # an int or float argument gives the same exact result as its Fraction;
    # repr tells 0.4375 from Fraction(7, 16), which compare equal
    assert repr(call(plain)) == repr(call(exact))


def test_neighborhood_finite():
    u = neighborhood(parse("{0, 1}"), F(1, 4))
    assert u == iu_normalize(
        [interval(F(-1, 4), F(1, 4), True, True), interval(F(3, 4), F(5, 4), True, True)]
    )


def test_neighborhood_cantor():
    assert neighborhood(parse("C"), F(1, 2)) == iu_normalize(
        [interval(F(-1, 2), F(3, 2), True, True)]
    )
    u = neighborhood(parse("C"), F(1, 100))
    ms, mo = cantor_neighborhood_stats(F(1), F(0), F(1, 100))
    assert iu_measure(u) == ms and iu_moment(u) == mo
    assert avg_iu(u) == F(1, 2)


def _brute_neighborhood(s, delta):
    """Prefix balls plus the per-leaf tail cover (independent assembly)."""
    from setmeans import Seq, Union, Finite

    leaves = list(s.parts) if isinstance(s, Union) else [s]
    parts = []
    for leaf in leaves:
        if isinstance(leaf, Finite):
            parts.extend(
                Interval(p - delta, p + delta, True, True) for p in leaf.points
            )
            continue
        assert isinstance(leaf, Seq)
        tf = leaf.tail
        r = tf_resolution_index(tf, 2 * delta)
        # resolved prefix plus five hundred extra points that must fall
        # inside the tail cover
        for n in range(tf.start, r + 500):
            x = leaf.limit + tf_value(tf, n)
            parts.append(Interval(x - delta, x + delta, True, True))
        x_r = leaf.limit + tf_value(tf, r)
        lo = min(leaf.limit, x_r) - delta
        hi = max(leaf.limit, x_r) + delta
        parts.append(Interval(lo, hi, True, True))
        # chaining beyond the resolution index: consecutive balls overlap
        for n in range(r, r + 100):
            a = leaf.limit + tf_value(tf, n)
            b = leaf.limit + tf_value(tf, n + 1)
            assert abs(a - b) < 2 * delta
    return iu_normalize(parts)


def test_neighborhood_exactness_oracle():
    rng = Random(79)
    done = 0
    while done < 60:
        s = random_countable(rng, allow_seq2=False)
        delta = F(1, 2 ** rng.randint(2, 9))
        impl = neighborhood(s, delta)
        brute = _brute_neighborhood(s, delta)
        assert impl == brute
        done += 1


def test_neighborhood_double_sequence_oracle():
    # prefix balls are inside the exact union, and a grid scan of the plane
    # between prefix and structure confirms no spurious coverage
    from setmeans import enumerate_points

    s = parse("{1 + 1/n + 1/k}")
    for k in (3, 5, 7):
        delta = F(1, 2**k)
        impl = neighborhood(s, delta)
        pts = enumerate_points(s, 6000)
        balls = iu_normalize(
            [Interval(p - delta, p + delta, True, True) for p in pts]
        )
        assert iu_contains_union(impl, balls)
        # sampled points far from every enumerated point and far from the
        # accumulation structure must not be covered
        import random as _r

        rng = _r.Random(k)
        acc = [F(1)] + [1 + F(1, n) for n in range(1, 200)]
        for _ in range(200):
            x = F(rng.randint(0, 4096), 1024)
            if impl.contains(x):
                continue
            # not covered: must be at distance >= delta from every point
            assert all(abs(x - p) >= delta for p in pts[:2000])
        for _ in range(100):
            x = F(rng.randint(0, 4096), 1024)
            near_pt = min(abs(x - p) for p in pts[:3000])
            if near_pt < delta:
                assert impl.contains(x)


def test_eds_cells_double_sequence_oracle():
    from setmeans import eds_cells, enumerate_points

    s = parse("{1 + 1/n + 1/k}")
    base = (F(0), F(4))
    for k in (4, 6):
        n = 2**k
        cover = eds_cells(s, n, base)
        impl = set(cover.indices())
        w = F(4, n)
        pts = enumerate_points(s, 40_000)
        brute = {((p - F(0)) / w).__floor__() for p in pts}
        assert brute == impl


def test_negative_double_sequence_oracle():
    s = parse("{1 - 1/n - 1/k}")
    pts = enumerate_points(s, 40_000)
    base = (F(-2), F(2))
    for k in (3, 4, 6):
        w = F(4, 2**k)
        impl = set(eds_cells(s, 2**k, base).indices())
        assert impl == {((p - base[0]) / w).__floor__() for p in pts}
    near = sorted(pts[:3000])
    for k in (3, 5, 7):
        delta = F(1, 2**k)
        impl = neighborhood(s, delta)
        # the points run from -1 up to their supremum 1, which no point reaches
        assert impl.span() == (-1 - delta, 1 + delta)
        balls = iu_normalize([_ball(p, delta) for p in near])
        assert iu_contains_union(impl, balls)
        for j in range(-600, 600):
            x = F(j, 256)
            if not impl.contains(x):
                i = bisect_left(near, x)
                assert all(abs(x - p) >= delta for p in near[max(i - 1, 0) : i + 1])


def test_tiny_tail_oracle():
    # from n = 2 on, (9/10)^(64^n) costs more exact bits than the terms
    # track, so the value at the resolution index R = 2 is all symbolic
    f1, f2 = F(9, 10) ** 64, F(9, 10) ** 4096
    delta, n = F(1, 2**12), 2**12
    for text, limit, sign in (
        ("{(9/10)^(64^n)}", F(0), 1),
        ("{1/2 - 1*(9/10)^(64^n)}", F(1, 2), -1),
    ):
        s = parse(text)
        # the values from f2 on run toward the limit, which none reaches
        near = sorted((limit, limit + sign * f2))
        exact = iu_normalize(
            [
                _ball(limit + sign * f1, delta),
                Interval(near[0] - delta, near[1] + delta, True, True),
            ]
        )
        impl = neighborhood(s, delta)
        assert iu_contains_union(impl, exact)
        assert iu_measure(impl) - iu_measure(exact) <= f2
        assert _lavg_eval_float(leaves(s), delta) == pytest.approx(float(avg_iu(exact)))
        # 1/2 is a cell boundary of the grid over (0, 1); the tail of the
        # second set lies just below it
        cells = {((limit + sign * x) * n).__floor__() for x in (f1, f2)}
        assert set(eds_cells(s, n, (F(0), F(1))).indices()) == cells


def _cantor_endpoints(alpha, beta, level):
    """Images of the ends of the level-`level` construction pieces of C."""
    los, width = [F(0)], F(1)
    for _ in range(level):
        width /= 3
        los = [x for lo in los for x in (lo, lo + 2 * width)]
    return [alpha * x + beta for lo in los for x in (lo, lo + width)]


CANTOR_MAPS = [(F(1), F(0)), (F(3), F(1)), (F(-2), F(1)), (F(-1, 3), F(-1, 2)), (F(5, 7), F(0))]


def test_neighborhood_mapped_cantor_oracle():
    # balls around both ends of a piece narrower than 2*delta cover the whole
    # piece, so such pieces' ends give the exact neighbourhood
    for alpha, beta in CANTOR_MAPS:
        s = map_affine(Cantor(), alpha, beta)
        for k in range(1, 9):
            delta = F(1, 2**k)
            level = 0
            while abs(alpha) / 3**level >= 2 * delta:
                level += 1
            ends = _cantor_endpoints(alpha, beta, level + 1)
            assert neighborhood(s, delta) == iu_normalize([_ball(p, delta) for p in ends])


def test_eds_cells_mapped_cantor_oracle():
    # a piece no wider than a cell meets only the cells of its two ends,
    # which belong to the set, so such pieces' ends give the occupied cells
    for alpha, beta in CANTOR_MAPS:
        s = map_affine(Cantor(), alpha, beta)
        a, b = default_base(s)
        for k in range(1, 11):
            w = (b - a) / 2**k
            level = 0
            while abs(alpha) / 3**level > w:
                level += 1
            ends = _cantor_endpoints(alpha, beta, level + 1)
            impl = set(eds_cells(s, 2**k, (a, b)).indices())
            assert impl == {((p - a) / w).__floor__() for p in ends}


def _raises_budget(fn) -> bool:
    try:
        fn()
    except BudgetExceeded:
        return True
    return False


def test_scale_budget_parity():
    # one leaf read at scale eps costs len(bases) * (len(idx) + 1) +
    # len(hulls) parts, and the neighbourhood at eps/2 and the cells of width
    # eps refuse exactly the budgets below that cost
    rng = Random(97)
    ls = [random_finite(rng), random_interval(rng), Dense(F(-1), F(2))]
    ls += [random_seq(rng, allow_dgeo=True) for _ in range(4)]
    ls += [random_seq2(rng) for _ in range(4)]
    ls += [map_affine(Cantor(), alpha, beta) for alpha, beta in CANTOR_MAPS]
    for s in ls:
        lo, hi, _, _ = bounds(s)
        a = F(lo.__floor__() - 1)
        for eps in (F(1, 8), F(1, 32), F(1, 128)):
            n = ((hi - a) / eps).__floor__() + 1
            bases, _, idx, _, hulls = read_at_scale(leaves(s)[0], eps, 10**9)
            cost = len(bases) * (len(idx) + 1) + len(hulls)
            for budget in (cost - 2, cost - 1, cost, cost + 1):
                nbr = _raises_budget(lambda: neighborhood(s, eps / 2, budget))
                eds = _raises_budget(lambda: eds_cells(s, n, (a, a + n * eps), budget))
                assert nbr == eds == (budget < cost), (s, eps, budget, cost)


def test_eds_cells_cantor_within_budget():
    # pieces at least a cell wide have inner gaps narrower than a cell, so the
    # cells take 2**5 pieces on this grid, where the first level narrower
    # than a cell has 2**6
    alpha, beta = F(-2), F(1)
    s = map_affine(Cantor(), alpha, beta)
    a, b = default_base(s)
    w = (b - a) / 2**10
    level = 0
    while abs(alpha) / 3**level > w:
        level += 1
    assert 2 ** (level - 1) <= 40 < 2**level
    ends = _cantor_endpoints(alpha, beta, level + 1)
    impl = set(eds_cells(s, 2**10, (a, b), budget=40).indices())
    assert impl == {((p - a) / w).__floor__() for p in ends}


def test_cell_of_a_point_with_a_tiny_tail_on_a_cell_boundary():
    # at n = 16, 1/2^(2^n) is carried as a symbolic tiny, and 1/16 is a
    # cell boundary of each grid below; the tiny decides the side exactly
    below, above = parse("{1/n - 1/2^(2^n)}"), parse("{1/n + 1/2^(2^n)}")
    shifted = seq(-F(1, 2**70000), above.tail)  # tiny limit below the tiny tail
    for s, base, cell in (
        (below, (F(0), F(1)), 63),
        (above, (F(0), F(2)), 32),
        (shifted, (F(-2), F(2)), 528),
    ):
        a, b = base
        assert _cell_of_seq_point(s.tail, 16, s.limit, a, b, 2**10) == cell
        assert cell in set(eds_cells(s, 2**10, base).indices())
    assert 64 not in set(eds_cells(below, 2**10, (F(0), F(1))).indices())


def _cells_one_range_per_point(s, n, base):
    """The occupied cells built one range per point and per hull, merged."""
    a, b = base
    ranges = []
    for leaf in leaves(s):
        bases, tf, idx, run_hull, hulls = read_at_scale(leaf, (b - a) / n, 10**9)
        for x in bases:
            for i in idx:
                j = _cell_of_seq_point(tf, i, x, a, b, n)
                ranges.append((j, j))
            ranges.append(_iv_cells(run_hull.shift(x), a, b, n))
        ranges.extend(_iv_cells(h, a, b, n) for h in hulls)
    ranges.sort()
    out = []
    for lo, hi in ranges:
        if out and lo <= out[-1][1] + 1:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return tuple((lo, hi) for lo, hi in out)


def test_eds_cells_spans_and_cells_oracle():
    # point cells a hull span holds, cells two runs share, and power tails
    # long enough for the integer fast path (more than 64 points)
    rng = Random(113)
    cases = [(random_countable(rng), (3, 7, 10)) for _ in range(30)]
    for text in ("{1/n} U [0, 1/8]", "{1/n} U {1/n^2}", "{-1/n} U {1 - 1/n - 1/k}", L_TEXT):
        cases.append((parse(text), (4, 9, 14, 17)))
    for s, exps in cases:
        base = default_base(s)
        for k in exps:
            cover = eds_cells(s, 2**k, base)
            cells = list(cover.indices())
            assert cover.count() == len(set(cells)) == len(cells)
            assert cover.index_sum() == sum(cells)
            r = cover.ranges
            assert all(lo <= hi for lo, hi in r)
            assert all(hi + 1 < lo for (_, hi), (lo, _) in zip(r, r[1:]))
            assert r == _cells_one_range_per_point(s, 2**k, base), (s, k)


def _lavg_float_by_heap_merge(ls, delta):
    """The float neighbourhood average swept over a heapq.merge of each
    leaf's sorted parts."""
    d = float(delta)
    lists = []
    for leaf in ls:
        if isinstance(leaf, Finite):
            lists.append(sorted((float(p) - d, float(p) + d) for p in leaf.points))
        elif isinstance(leaf, Seq):
            tf, lf = leaf.tail, float(leaf.limit)
            idx = tf_chain(tf, 2 * delta)[0]
            x_r = lf + tf_value_float(tf, idx.stop)
            pieces = [(min(lf, x_r) - d, max(lf, x_r) + d)]
            pw = tf_single_pow(tf)
            if pw is not None:
                c, p = float(pw.c), pw.p
                pieces.extend((lf + c / n**p - d, lf + c / n**p + d) for n in idx)
            else:
                pieces.extend(
                    (lf + tf_value_float(tf, n) - d, lf + tf_value_float(tf, n) + d) for n in idx
                )
            lists.append(sorted(pieces))
        elif isinstance(leaf, IntervalSet):
            lists.append([(float(leaf.iv.lo) - d, float(leaf.iv.hi) + d)])
        elif isinstance(leaf, Dense):
            lists.append([(float(leaf.lo) - d, float(leaf.hi) + d)])
        else:
            u = neighborhood(leaf, delta, budget=200_000)
            lists.append([(float(p.lo), float(p.hi)) for p in u.parts])
    measure = moment = 0.0
    cur_lo = cur_hi = None
    for lo, hi in heapq.merge(*lists):
        if cur_hi is None:
            cur_lo, cur_hi = lo, hi
        elif lo <= cur_hi:
            cur_hi = max(cur_hi, hi)
        else:
            measure += cur_hi - cur_lo
            moment += (cur_hi * cur_hi - cur_lo * cur_lo) / 2
            cur_lo, cur_hi = lo, hi
    measure += cur_hi - cur_lo
    moment += (cur_hi * cur_hi - cur_lo * cur_lo) / 2
    return moment / measure


def test_lavg_float_sweep_bits():
    # the sweep over the separately sorted part ends adds the runs of a
    # merge of the per-leaf sorted parts in its order, so the float average
    # keeps its bits
    rng = Random(127)
    cases = [(random_countable(rng, allow_seq2=False, allow_dense=True), 20) for _ in range(30)]
    cases += [
        (parse("{1/n} U {0, 1/1000, 1/3, 500001/1000000} U [-1, -1/2]"), 20),
        (parse("{-1/n^2} U {2 - 1/2^n} U {-1/100, 2}"), 20),
        (parse("{-1/n} U {1 - 1/n - 1/k} U {1}"), 12),
    ]
    for s, last in cases:
        ls = leaves(s)
        for k in range(4, last + 1):
            delta = F(1, 2**k)
            got = _lavg_eval_float(ls, delta)
            assert got.hex() == _lavg_float_by_heap_merge(ls, delta).hex(), (s, k)


def test_neighborhood_monotone_and_equivariant():
    rng = Random(83)
    for _ in range(50):
        s = random_countable(rng)
        d1 = F(1, 2 ** rng.randint(4, 8))
        d2 = d1 * 2
        small = neighborhood(s, d1)
        big = neighborhood(s, d2)
        assert iu_contains_union(big, small)
        x = random_rat(rng)
        assert neighborhood(map_affine(s, F(1), x), d1) == iu_shift(
            small, x
        )
        a = F(rng.choice([2, -3]), rng.choice([1, 2]))
        assert neighborhood(
            map_affine(s, a, F(0)), d1 * abs(a)
        ) == iu_scale(small, a)


def test_compact_null_measure_vanishes():
    # closed null sets: neighbourhood measure must shrink to zero
    for text in ["{0} U {1/n}", "C", "{1, 2, 3}", "3*C + 1"]:
        s = parse(text)
        prev = None
        for k in range(3, 27):
            m = iu_measure(neighborhood(s, F(1, 2**k), budget=400_000))
            if prev is not None:
                assert m <= prev
            prev = m
        assert prev < F(1, 50)


def test_avg_set_examples():
    assert avg_set(parse("[0,1] U Q(1,2)")) == F(1, 2)
    assert avg_set(parse("C")) == F(1, 2)
    assert avg_set(parse("{1, 2, 6}")) == 3
    assert avg_set(parse("3*C + 1")) == F(5, 2)
    assert avg_set(parse("C U {7, 9}")) == F(1, 2)  # null parts are ignored
    with pytest.raises(Unsupported):
        avg_set(parse("C U 1*C + 4"))
    with pytest.raises(UndefinedMean):
        avg_set(parse("{1/n}"))


def test_ms_hf_examples():
    assert ms_hf(parse("[0,1]")).parts == (Interval(F(1, 2), F(1, 2)),)
    assert ms_hf(parse("[0,1] U [3,4]")).parts == (Interval(F(1), F(3)),)
    assert ms_hf(parse("[0,2] U [3,4]")).parts == (Interval(F(3, 2), F(3, 2)),)
    with pytest.raises(ZeroMeasure):
        ms_hf(parse("{1/n}"))


def test_ms_hf_grid_oracle():
    rng = Random(89)
    from gen import random_interval

    for _ in range(60):
        parts = [random_interval(rng) for _ in range(rng.randint(1, 3))]
        s = parse(" U ".join(f"[{p.iv.lo}, {p.iv.hi}]" for p in parts))
        got = ms_hf(s)
        u = iu_normalize([Interval(p.iv.lo, p.iv.hi) for p in parts])
        total = iu_measure(u)
        # cumulative measure on a fine grid brackets the median set
        span_lo, span_hi = u.span()
        step = (span_hi - span_lo) / 4096
        inside = []
        for i in range(4097):
            x = span_lo + i * step
            cum = sum(
                max(F(0), min(x, p.hi) - p.lo) for p in u.parts
            )
            if cum * 2 == total:
                inside.append(x)
        for x in inside:
            assert got.contains(x)


def test_ms_hf_reflection():
    rng = Random(97)
    from gen import random_interval

    for _ in range(40):
        parts = [random_interval(rng) for _ in range(rng.randint(1, 3))]
        s = parse(" U ".join(f"[{p.iv.lo}, {p.iv.hi}]" for p in parts))
        center = random_rat(rng)
        reflected = map_affine(s, F(-1), 2 * center)
        lhs = ms_hf(reflected)
        rhs = ms_hf(s).map_affine(F(-1), 2 * center)
        assert lhs.parts == rhs.parts


@st.composite
def _grid_leaves(draw):
    """Finite and interval leaves whose ends sit on one delta-grid: around
    the bases 0, 1 and -3, so their parts touch, nest, share a lo and end at
    zero from both sides.  A delta of 1/3 or 1/10 of a power of two makes
    the float ends round, so a run split at a touching end moves the bits
    of the sums."""
    scale = draw(st.sampled_from([F(1), F(1, 3), F(1, 10)]))
    delta = scale / 2 ** draw(st.integers(0, 40))
    ls = []
    for _ in range(draw(st.integers(1, 5))):
        base = F(draw(st.sampled_from([0, 1, -3])))
        ms = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=4, unique=True))
        if draw(st.booleans()):
            ls.append(Finite(tuple(base + m * delta for m in ms)))
            continue
        lo, hi = min(ms), max(ms)
        opens = (False, False) if lo == hi else (draw(st.booleans()), draw(st.booleans()))
        ls.append(IntervalSet(Interval(base + lo * delta, base + hi * delta, *opens)))
    return ls, delta


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(_grid_leaves())
def test_lavg_float_sweep_matches_the_tuple_sweep(case):
    ls, delta = case
    assert _lavg_eval_float(ls, delta).hex() == _lavg_float_by_heap_merge(ls, delta).hex()


@st.composite
def _chunked_centres(draw):
    """More than one chunk of ball centres on a delta-grid, 1, 2 or 3 grid
    steps apart (so neighbouring balls overlap, touch or part), starting
    at the base, which may be 0.  Interval leaves, one-point ones among
    them, have their ends on or half a step off the centres around a
    chunk's last centre, so their part ends equal shifted centres there or
    fall between them."""
    scale = draw(st.sampled_from([F(1), F(1, 3), F(1, 10)]))
    delta = scale / 2 ** draw(st.integers(0, 40))
    base = F(draw(st.sampled_from([0, 1, -3])))
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(means._CHUNK + 1, 3 * means._CHUNK + 2))
    ms = accumulate((rng.choice((1, 2, 2, 3)) for _ in range(size - 1)), initial=0)
    centres = [base + m * delta for m in ms]
    ls = [Finite(tuple(centres))]
    for _ in range(draw(st.integers(1, 6))):
        cut = draw(st.integers(1, (size - 1) // means._CHUNK)) * means._CHUNK - 1
        i = min(cut + draw(st.integers(-2, 2)), size - 1)
        j = min(i + draw(st.integers(0, 3)), size - 1)
        lo, hi = sorted(centres[k] + draw(st.sampled_from([0, 0, 1, -1])) * delta / 2 for k in (i, j))
        opens = (False, False) if lo == hi else (draw(st.booleans()), draw(st.booleans()))
        ls.append(IntervalSet(Interval(lo, hi, *opens)))
    rng.shuffle(ls)
    return ls, delta


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(_chunked_centres())
def test_lavg_float_sweep_merges_across_chunks(case):
    ls, delta = case
    assert _lavg_eval_float(ls, delta).hex() == _lavg_float_by_heap_merge(ls, delta).hex()


@st.composite
def _fallback_leaves(draw):
    """Countable sets with double sequences, mapped Cantor sets, increasing
    and decreasing tails and a point at 0: the exact-fallback parts, tail
    covers and intervals mix with the ball centres."""
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    parts = [random_countable(rng, allow_seq2=True, allow_dense=True)]
    parts.append(random_seq(rng, sign=draw(st.sampled_from([1, -1]))))
    if draw(st.booleans()):
        parts.append(random_seq2(rng))
    if draw(st.booleans()):
        alpha = draw(st.sampled_from([F(1), F(2), F(-1), F(1, 3)]))
        parts.append(Cantor(alpha, random_rat(rng)))
    if draw(st.booleans()):
        parts.append(Finite((F(0),)))
    if draw(st.booleans()):
        parts.append(random_interval(rng))
    return leaves(Union(tuple(parts))), F(1, 2 ** draw(st.integers(4, 11)))


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(_fallback_leaves())
def test_lavg_float_sweep_with_fallback_parts(case):
    ls, delta = case
    assert _lavg_eval_float(ls, delta).hex() == _lavg_float_by_heap_merge(ls, delta).hex()


@st.composite
def _interleaved_tails(draw):
    """2 to 4 single-power tails limit + c/n^p of both signs, p in {1, 2, 3}
    and c mostly non-unit, around limits close enough that their resolved
    points interleave, with Finite points and intervals between them."""
    delta = F(1, 2 ** draw(st.integers(6, 16)))
    ls = []
    for _ in range(draw(st.integers(2, 4))):
        limit = F(draw(st.integers(-3, 3)), draw(st.sampled_from([16, 64, 100])))
        c = F(draw(st.sampled_from([1, 2, 3, 5, 7])), draw(st.sampled_from([1, 3, 8])))
        c *= draw(st.sampled_from([1, -1]))
        ls.append(seq(limit, term_fun([PowTerm(c, draw(st.sampled_from([1, 2, 3])))])))
    spot = st.builds(F, st.integers(-60, 60), st.sampled_from([64, 96, 1000]))
    for _ in range(draw(st.integers(0, 3))):
        ls.append(Finite(tuple(draw(st.lists(spot, min_size=1, max_size=4, unique=True)))))
    for _ in range(draw(st.integers(0, 2))):
        lo, hi = sorted(draw(st.lists(spot, min_size=2, max_size=2, unique=True)))
        ls.append(IntervalSet(Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))))
    return leaves(Union(tuple(ls))), delta


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(_interleaved_tails())
def test_lavg_float_sweep_merges_streamed_tails(case):
    # every single-power tail is streamed: with a few centres to a chunk its
    # chunks interleave with the other tails' and the sorted list of the
    # other centres, and at the default chunk each tail is one chunk
    ls, delta = case
    want = _lavg_float_by_heap_merge(ls, delta).hex()
    for chunk in (3, 5, 4096):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(means, "_CHUNK", chunk)
            assert _lavg_eval_float(ls, delta).hex() == want, chunk


def _cover_by_dict(cells, runs, spans):
    """The cover of the stored cells and the streamed runs, every cell
    materialized and its repeats dropped by a dict; the spans, ranges and
    index counts come from the set of every occupied cell."""
    cells = dict.fromkeys([*cells, *(j for run in runs for chunk in run() for j in chunk)])
    in_spans = {j for lo, hi in spans for j in range(lo, hi + 1)}
    occupied = sorted(in_spans.union(cells))

    def ranges(js):
        out = []
        for j in js:
            if out and j == out[-1][1] + 1:
                out[-1][1] = j
            else:
                out.append([j, j])
        return tuple(map(tuple, out))

    kept = tuple(sorted(j for j in cells if j not in in_spans))
    return ranges(sorted(in_spans)), kept, ranges(occupied), occupied


@pytest.mark.parametrize(
    "text, exps",
    [
        (L_TEXT, range(8, 21)),  # neighbours at a run's end share a cell
        ("{1/n} U {1/n^2} U {2/n}", range(4, 17, 3)),  # runs share cells
        ("{1/n} U [1/3, 1/2]", range(4, 17, 3)),  # point cells inside a span
        ("{1/n} U {-1/n}", range(4, 17, 3)),  # runs falling and rising around a span
        (H3_TEXT, range(8, 15, 2)),  # a double sequence's bases share cells
    ],
)
def test_eds_cover_matches_a_dict_dedup(monkeypatch, text, exps):
    # `means._cover` gets the stored cells, the streamed runs and the spans;
    # with a few cells to a chunk most runs stream, their chunks share
    # cells across their edges and spans cut them mid-chunk
    s = parse(text)
    base = default_base(s)
    wants = []
    cover = means._cover

    def spy(n, base, cells, runs, spans):
        wants.append(_cover_by_dict(cells, runs, spans))
        return cover(n, base, cells, runs, spans)

    monkeypatch.setattr(means, "_cover", spy)
    for chunk in (3, 5, means._CHUNK):
        monkeypatch.setattr(means, "_CHUNK", chunk)
        for k in exps:
            got = eds_cells(s, 2**k, base)
            spans, cells, ranges, occupied = wants.pop()
            assert (got.spans, got.cells) == (spans, cells), (text, chunk, k)
            assert (got.count(), got.index_sum()) == (len(occupied), sum(occupied))
            assert (got.ranges, list(got.indices())) == (ranges, occupied)


@pytest.mark.parametrize("text, k", [(L_TEXT, 20), ("{1/n} U {1 + 1/n + 1/k}", 12)])
def test_eds_budget_counts_streamed_runs(monkeypatch, text, k):
    # a streamed run costs its points as a stored one does
    monkeypatch.setattr(means, "_CHUNK", 16)
    s, n = parse(text), 2**k
    a, b = base = default_base(s)
    cost = 0
    for leaf in leaves(s):
        bases, _, idx, _, hulls = read_at_scale(leaf, (b - a) / n, 10**9)
        cost += len(bases) * (len(idx) + 1) + len(hulls)
    assert len(eds_cells(s, n, base, cost).runs) > 1  # the stored cells and streamed runs
    with pytest.raises(BudgetExceeded):
        eds_cells(s, n, base, cost - 1)


def test_eds_budget_counts_repeated_cells():
    # the double sequence's 35 bases of 35 stored points share cells (282
    # distinct at 2^12); read before the other leaf, it is charged all 1225
    s, n = parse("{1 + 1/n + 1/k} U {1/n}"), 2**12
    a, b = base = default_base(s)
    cost = 0
    for leaf in leaves(s):
        bases, _, idx, _, hulls = read_at_scale(leaf, (b - a) / n, 10**9)
        cost += len(bases) * (len(idx) + 1) + len(hulls)
    eds_cells(s, n, base, cost)
    with pytest.raises(BudgetExceeded):
        eds_cells(s, n, base, cost - 1)


@pytest.mark.parametrize("text, k", [("{1/n}", 8), (L_TEXT, 20)])
def test_cell_cover_compares_by_value(monkeypatch, text, k):
    # covers compare and hash by n, base, spans and single cells, whether
    # their runs are stored (the default chunk) or streamed (a chunk of 3)
    s = parse(text)
    base = (0, 2) if text == "{1/n}" else default_base(s)
    covers = [eds_cells(s, 2**k, base) for _ in range(2)]
    monkeypatch.setattr(means, "_CHUNK", 3)
    covers += [eds_cells(s, 2**k, base) for _ in range(2)]
    assert len(covers[0].runs) == 1 < len(covers[2].runs)
    for one in covers:
        for two in covers:
            assert one == two and hash(one) == hash(two)
        free = max(one.cells[-1], one.spans[-1][1]) + 2  # in no span, no cell
        extra = CellCover(one.n, one.base, one.spans, (*one.runs, lambda: iter([[free]])))
        assert len(extra.cells) == len(one.cells) + 1 and extra != one
        assert CellCover(one.n + 1, one.base, one.spans, one.runs) != one


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_limit_means_peak_in_chunk_bounded_memory():
    # the float lavg sweep and the eds cover stream the resolved points of a
    # power tail chunk by chunk, so their peak does not grow with the
    # point count: L resolves 454k points for the sweep and 303k for the
    # cells at 2^-38, 16 times as many as at 2^-30
    ls, base = leaves(L), default_base(L)

    def peaks(k):
        lavg = _peak_bytes(lambda: _lavg_eval_float(ls, F(1, 2**k)))
        eds = _peak_bytes(lambda: eds_cells(L, 2**k, base).left_endpoint_mean())
        return lavg, eds

    for coarse, fine in zip(peaks(30), peaks(38)):
        assert fine < 2 * 2**20 and fine <= 1.25 * coarse, (coarse, fine)
    # H3 reads as hundreds of bases times hundreds of run points: the
    # shifted union folds its runs into their normal form as it adds them,
    # and the eds cover stores each distinct cell once
    lavg = _peak_bytes(lambda: _lavg_eval_float(leaves(H3), F(1, 2**16)))
    eds = _peak_bytes(lambda: eds_cells(H3, 2**20, default_base(H3)).left_endpoint_mean())
    assert lavg < 5 * 2**20 and eds < 5 * 2**20, (lavg, eds)


def test_lavg_float_sweep_of_a_double_sequence_keeps_its_bits_when_folded():
    # the exact fallback's shifted union folds after every run or two at a
    # chunk of 3, and at the default chunk only from 2^-13 on
    ls = leaves(H3)
    want = [_lavg_eval_float(ls, F(1, 2**k)).hex() for k in range(8, 15)]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(core, "_CHUNK", 3)
        assert [_lavg_eval_float(ls, F(1, 2**k)).hex() for k in range(8, 15)] == want
