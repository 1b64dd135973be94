"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria are pinned at their stated tolerances; schedules are chosen deep
enough to reach them and every exact claim is asserted with rational
equality, never floating point.
"""

import math
import time
from fractions import Fraction as F
from random import Random


from setmeans import (
    Finite,
    Ideal,
    InIdeal,
    Interval,
    MergeParams,
    Union,
    arithmetic_mean,
    avg_set,
    bounds,
    closure,
    delta_schedule,
    enumerate_divergent,
    enumerate_points,
    enumerate_with_mean,
    eds_cells,
    grid_schedule,
    hausdorff_distance,
    ideal_limits,
    iu_measure,
    lavg,
    map_affine,
    mean_acc,
    mean_eds,
    mean_ideal,
    mean_ideal_chain,
    mean_iso,
    mean_iso_oscillating,
    mean_lis,
    merge_weighted,
    ms_a,
    ms_as,
    ms_axs,
    neighborhood,
    parse,
    stream_from_seq,
    Unsupported,
    UndefinedMean,
    NonTerminating,
)
from setmeans.meansets import axs_condition_holds_structure
from setmeans.topology import acc_structure
from setmeans.setexpr import Seq
from setmeans.terms import PowTerm, term_fun, tf_resolution_index, tf_value

from gen import (
    random_countable,
    random_finite,
    random_rat,
    random_bounded,
)

H1 = parse("{1/n} U {1 + 1/n}")
H2 = parse("{1/n} U {1 + 1/2^n}")
H3 = parse("{1/n} U {1 + 1/n + 1/k}")
H4 = parse("{1/n} U {1 - 1/n} U {5 + 1/n}")
L = parse("{1/n} U {2 + 1/2^n}")
H_EDS = parse("{1/2^n} U {2 + 1/2^n} U {2 + 1/2^n + 1/2^(2^n)}")


def _report(num, text):
    print(f"ACCEPTANCE PASS [{num}] {text}")


def test_criterion_1_worked_examples_exact():
    t0 = time.time()
    assert mean_acc(H1).exact == F(1, 2)
    assert mean_acc(H2).exact == F(1, 2)
    assert ms_a(H1).parts == (Interval(F(0), F(1)),)
    assert ms_a(H3).parts == (Interval(F(0), F(2)),)
    assert ms_a(H4).parts == (Interval(F(0), F(5)),)
    assert ms_as(H1).parts == (Interval(F(1, 2), F(1, 2)),)
    assert ms_as(H3).parts == (Interval(F(1, 2), F(7, 4)),)
    assert ms_as(H4).parts == (Interval(F(1, 2), F(3)),)
    assert ms_axs(H1).parts == (Interval(F(1, 2), F(1, 2)),)
    assert ms_axs(H3).parts == (Interval(F(1, 2), F(7, 4)),)
    assert ms_axs(H4).parts == (
        Interval(F(1, 2), F(1), False, True),  # the half-open [1/2, 1)
        Interval(F(5, 2), F(3)),
    )
    assert avg_set(parse("[0,1] U Q(1,2)")) == F(1, 2)
    assert avg_set(parse("C")) == F(1, 2)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(1, f"worked-example battery exact in {elapsed:.2f}s")


def test_criterion_2_lavg_battery():
    t0 = time.time()
    out = lavg(L)  # default schedule descends to 2^-40
    assert out.status == "converged" and abs(out.value) < 0.01
    out = lavg(parse("[0,1] U Q(1,2)"))
    assert out.status == "converged" and abs(out.value - 1.0) < 1e-6
    out = lavg(parse("C"))
    assert out.status == "converged" and abs(out.value - 0.5) < 1e-6
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report(2, f"neighbourhood-average battery in {elapsed:.1f}s")


def test_criterion_3_eds_battery():
    t0 = time.time()
    out = mean_eds(parse("[0,3]"), grid_schedule(tol=1e-8))
    assert out.ok() and abs(out.value - 1.5) < 1e-6

    out = mean_eds(parse("[0,1] U Q(1,2)"), grid_schedule(tol=1e-5))
    assert out.ok() and abs(out.value - 1.0) < 1e-3

    out = mean_eds(L, grid_schedule(early_stop=False))
    trace = {round(math.log2(p)): v for p, v in out.trace}
    assert abs(trace[40]) < 1e-2

    # the doubly geometric pair: the limit is checked as a trend, and the
    # value at the deepest grid must sit within 0.12 of 1
    out = mean_eds(H_EDS, grid_schedule(early_stop=False), base=(F(0), F(4)))
    trace = {round(math.log2(p)): v for p, v in out.trace}
    errs = {k: abs(trace[k] - 1.0) for k in range(20, 41)}
    assert errs[40] < 0.12
    for k in range(25, 41):
        assert errs[k] < errs[k - 5]

    out = mean_iso(H_EDS, delta_schedule(start_exp=4, end_exp=30, early_stop=False))
    tr = {round(-math.log2(p)): v for p, v in out.trace}
    assert abs(tr[30] - 4 / 3) < 0.05
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(3, f"sampling-grid battery in {elapsed:.1f}s")


def test_criterion_4_iso_battery():
    out = mean_iso(parse("{0,1} U {1/n} U {1 + 1/2^n}"))
    assert out.status == "converged" and abs(out.value) < 1e-3
    out = mean_iso_oscillating()
    assert out.status == "divergent"
    lo, hi = out.band
    assert hi - lo > 0.3
    _report(4, "isolated-point battery: convergent example and divergent construction")


def test_criterion_5_rearrangement_battery():
    t0 = time.time()
    st = enumerate_with_mean(H1, F(7, 10))
    mean_1e5 = None
    for _ in range(10**6):
        st.pull()
        if st.emitted_count == 10**5:
            mean_1e5 = st.running_mean()
    assert abs(mean_1e5 - 0.7) < 0.02
    assert abs(st.running_mean() - 0.7) < 0.005

    st = enumerate_divergent(L)
    lo_x = hi_x = 0
    below = False
    for _ in range(10**6):
        st.pull()
        m = st.running_mean()
        if not below and m < 2 / 3:
            lo_x += 1
            below = True
        elif below and m > 4 / 3:
            hi_x += 1
            below = False
    assert lo_x >= 5 and hi_x >= 5

    a = stream_from_seq(Seq(F(0), term_fun([PowTerm(F(1), 1)])))
    b = stream_from_seq(Seq(F(1), term_fun([PowTerm(F(1), 1)])))
    d = merge_weighted(a, b, MergeParams(F(3, 10)))
    for _ in range(10**6):
        d.pull()
    assert abs(d.running_mean() - 0.7) < 0.01

    canon = set(enumerate_points(H1, 1000))
    st = enumerate_with_mean(H1, F(7, 10))
    emitted = set()
    for _ in range(10**5):
        _, e = st.pull()
        if e is not None:
            emitted.add(e)
    assert canon <= emitted
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report(5, f"rearrangement battery in {elapsed:.1f}s")


def test_criterion_6_hausdorff_discontinuity():
    ref = Finite((F(0), F(1)))
    for n in range(10, 10_001):
        cn = Finite((F(1, n), 1 + F(1, n), 1 + F(1, 2 * n)))
        assert hausdorff_distance(cn, ref) <= F(1, n)
        mean = arithmetic_mean(sorted(cn.points))
        assert abs(mean - F(1, 2)) > F(15, 100)
    _report(6, "hausdorff-limit discontinuity: distances shrink, averages stay apart")


# ---------------------------------------------------------------------------
# criterion 7: randomized property suite, >= 500 cases per property


def _exact_means_for(s):
    """The exact-status means applicable to s, as (name, value) pairs."""
    out = []
    try:
        out.append(("lis", mean_lis(s).exact))
    except (UndefinedMean, InIdeal):
        pass
    for ideal in (Ideal.EMPTY_ONLY, Ideal.FINITE_SETS):
        try:
            out.append((f"ideal:{ideal.value}", mean_ideal(s, ideal).exact))
        except InIdeal:
            pass
    try:
        out.append(("chain", mean_ideal_chain(s).exact))
    except InIdeal:
        pass
    try:
        out.append(("acc", mean_acc(s).exact))
    except (NonTerminating, UndefinedMean):
        pass
    try:
        out.append(("avg", avg_set(s)))
    except (Unsupported, UndefinedMean):
        pass
    return out


def test_criterion_7_property_suite():
    rng = Random(211)

    # extension of the arithmetic mean on finite sets (exact); the plain
    # ideal mean is excluded: it is a midrange by definition, with no
    # finite-set clause
    for _ in range(500):
        s = random_finite(rng)
        expect = arithmetic_mean(sorted(set(s.points)))
        for name, val in _exact_means_for(s):
            if name.startswith("ideal:"):
                continue
            assert val == expect, name

    # shift invariance and homogeneity (exact statuses)
    done = 0
    while done < 500:
        s = random_countable(rng) if rng.random() < 0.7 else random_bounded(rng)
        alpha = F(rng.choice([2, -1, 3, -2, 1]), rng.choice([1, 2]))
        beta = random_rat(rng)
        base = _exact_means_for(s)
        if not base:
            continue
        mapped = map_affine(s, alpha, beta)
        mapped_means = dict(_exact_means_for(mapped))
        for name, val in base:
            if name in mapped_means:
                assert mapped_means[name] == alpha * val + beta, name
        done += 1

    # symmetry: X u (2s - X) has mean s
    done = 0
    while done < 500:
        x = random_countable(rng, max_parts=2)
        center = random_rat(rng)
        sym = Union((x, map_affine(x, F(-1), 2 * center)))
        for name, val in _exact_means_for(sym):
            assert val == center, name
        done += 1

    # strong internality for exact means on infinite sets
    done = 0
    while done < 500:
        s = random_countable(rng) if rng.random() < 0.6 else random_bounded(rng)
        try:
            lo, hi = ideal_limits(s, Ideal.FINITE_SETS)
        except InIdeal:
            continue
        for name, val in _exact_means_for(s):
            if name in ("lis", "chain", "acc", "avg"):
                assert lo <= val <= hi, name
        done += 1

    # strong internality for converged schedule-based means; isolated mass
    # outside the accumulation hull decays only like 1/log(delta), so this
    # battery uses sets whose stray weight vanishes at a polynomial rate
    sched = delta_schedule(end_exp=22, tol=1e-3)
    done = 0
    while done < 120:
        s = _poly_rate_set(rng)
        try:
            lo, hi = ideal_limits(s, Ideal.FINITE_SETS)
        except InIdeal:
            continue
        out = lavg(s, sched)
        if not out.ok():
            continue
        slack = 3 * (out.err_est or 0) + 5e-3
        assert float(lo) - slack <= out.value <= float(hi) + slack
        done += 1

    # nesting of the set-valued means
    done = 0
    while done < 500:
        s = random_countable(rng)
        try:
            inner, mid, outer = ms_axs(s), ms_as(s), ms_a(s)
        except Unsupported:
            continue
        assert inner.subset_of(mid) and mid.subset_of(outer)
        done += 1

    # ideal monotonicity along the inclusion chain
    chain = [Ideal.EMPTY_ONLY, Ideal.FINITE_SETS, Ideal.COUNTABLE_SETS, Ideal.NULL_SETS]
    done = 0
    while done < 500:
        s = random_bounded(rng)
        lims = []
        for ideal in chain:
            try:
                lims.append(ideal_limits(s, ideal))
            except InIdeal:
                break
        if len(lims) < 2:
            continue
        for (lo1, hi1), (lo2, hi2) in zip(lims, lims[1:]):
            assert lo1 <= lo2 <= hi2 <= hi1
        done += 1

    # neighbourhood-average closedness on fast-converging sets
    sched = delta_schedule(end_exp=20, tol=1e-3)
    done = 0
    while done < 500:
        s = _fast_lavg_set(rng)
        a = lavg(s, sched)
        b = lavg(closure(s), sched)
        if not (a.ok() and b.ok()):
            continue
        assert abs(a.value - b.value) <= 2 * (a.err_est + b.err_est) + 2e-3
        done += 1

    # vanishing neighbourhood measure for compact null sets
    done = 0
    while done < 500:
        s = _compact_null_set(rng)
        prev = None
        for k in (4, 8, 12, 16):
            m = iu_measure(neighborhood(s, F(1, 2**k), budget=400_000))
            if prev is not None:
                assert m <= prev
            prev = m
        assert prev < F(1, 8)
        done += 1

    # grid-sample base invariance: on interval-dominant sets the limit is
    # the measure average of the interval part (null parts occupy o(n)
    # cells), so both bases must land on that same value
    done = 0
    while done < 500:
        s, limit_value = _eds_invariance_set(rng)
        lo, hi, _, _ = bounds(s)
        n = 2**20
        va = float(eds_cells(s, n, (lo - 1, hi + 1)).left_endpoint_mean())
        vb = float(eds_cells(s, n, (lo - 3, hi + 2)).left_endpoint_mean())
        assert abs(va - float(limit_value)) <= 5e-3
        assert abs(vb - float(limit_value)) <= 5e-3
        done += 1

    _report(7, "property suite: 9 properties x >= 500 randomized cases")


def _fast_lavg_set(rng):
    """Sets whose neighbourhood averages settle quickly: geometric tails,
    finite parts, intervals."""
    from setmeans import GeoTerm, seq

    parts = []
    for _ in range(rng.randint(1, 2)):
        k = rng.random()
        if k < 0.5:
            r = rng.choice([F(1, 2), F(1, 3), F(1, 4)])
            c = F(rng.choice([1, -1, 2]))
            try:
                parts.append(seq(random_rat(rng), term_fun([GeoTerm(c, r)])))
            except Exception:
                parts.append(parse("{1/2^n}"))
        elif k < 0.75:
            parts.append(random_finite(rng, 3))
        else:
            a = random_rat(rng)
            b = a + abs(random_rat(rng)) + 1
            parts.append(parse(f"[{a}, {b}]"))
    return Union(tuple(parts)) if len(parts) > 1 else parts[0]


def _eds_invariance_set(rng):
    """(set, analytic sampling-mean limit): intervals plus null extras."""
    from setmeans import GeoTerm, Interval as Iv, avg_iu, iu_normalize, seq

    ivs = []
    for _ in range(rng.randint(1, 2)):
        a = random_rat(rng)
        b = a + abs(random_rat(rng)) + 1
        ivs.append(Iv(a, b))
    parts = [parse(f"[{iv.lo}, {iv.hi}]") for iv in ivs]
    if rng.random() < 0.6:
        parts.append(random_finite(rng, 3))
    if rng.random() < 0.6:
        r = rng.choice([F(1, 2), F(1, 3)])
        try:
            parts.append(seq(random_rat(rng), term_fun([GeoTerm(F(1), r)])))
        except Exception:
            pass
    s = Union(tuple(parts)) if len(parts) > 1 else parts[0]
    return s, avg_iu(iu_normalize(ivs))


def _poly_rate_set(rng):
    """Sets whose neighbourhood-average error decays polynomially: harmonic
    tails carry sqrt-scale measure, intervals carry constant measure."""
    from setmeans import PowTerm as PT, seq

    parts = []
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.6:
            c = F(rng.choice([1, -1, 2]))
            try:
                parts.append(seq(random_rat(rng), term_fun([PT(c, 1)])))
            except Exception:
                parts.append(parse("{1/n}"))
        else:
            a = random_rat(rng)
            b = a + abs(random_rat(rng)) + 1
            parts.append(parse(f"[{a}, {b}]"))
    if rng.random() < 0.4:
        parts.append(random_finite(rng, 2))
    return Union(tuple(parts)) if len(parts) > 1 else parts[0]


def _compact_null_set(rng):
    from setmeans import Cantor, GeoTerm, seq

    k = rng.random()
    if k < 0.4:
        return random_finite(rng)
    if k < 0.8:
        r = rng.choice([F(1, 2), F(1, 3)])
        lim = random_rat(rng)
        try:
            s = seq(lim, term_fun([GeoTerm(F(rng.choice([1, -1])), r)]))
        except Exception:
            s = parse("{1/2^n}")
        return Union((s, Finite((s.limit,))))
    alpha = rng.choice([F(1), F(2), F(-1)])
    return Cantor(alpha, random_rat(rng))


# ---------------------------------------------------------------------------
# criterion 8: oracle equivalences on small instances


def _brute_neighborhood(s, delta):
    from setmeans import Union as U, Seq as SeqNode, Finite as Fin, iu_normalize

    leaves = list(s.parts) if isinstance(s, U) else [s]
    parts = []
    for leaf in leaves:
        if isinstance(leaf, Fin):
            parts.extend(Interval(p - delta, p + delta, True, True) for p in leaf.points)
            continue
        assert isinstance(leaf, SeqNode)
        tf = leaf.tail
        r = tf_resolution_index(tf, 2 * delta)
        for n in range(tf.start, r + 400):
            x = leaf.limit + tf_value(tf, n)
            parts.append(Interval(x - delta, x + delta, True, True))
        x_r = leaf.limit + tf_value(tf, r)
        parts.append(
            Interval(
                min(leaf.limit, x_r) - delta, max(leaf.limit, x_r) + delta, True, True
            )
        )
    return iu_normalize(parts)


def _brute_cells(s, n, base):
    """Occupied cells from a prefix deep enough to fill every tail block."""
    from setmeans import Union as U, Seq as SeqNode, Finite as Fin
    from setmeans.terms import tf_abs_below_index, tf_eventual_sign

    a, b = base
    w = (b - a) / n
    cells = set()
    leaves = list(s.parts) if isinstance(s, U) else [s]
    for leaf in leaves:
        if isinstance(leaf, Fin):
            for p in leaf.points:
                cells.add(((p - a) / w).__floor__())
            continue
        assert isinstance(leaf, SeqNode)
        tf = leaf.tail
        # deep enough that the remaining tail stays inside one known cell
        cut = tf_abs_below_index(tf, w / 1000)
        for idx in range(tf.start, cut + 1):
            x = leaf.limit + tf_value(tf, idx)
            cells.add(((x - a) / w).__floor__())
        # the limit-side cell, reached in the limit
        sign = tf_eventual_sign(tf)
        q = (leaf.limit - a) / w
        i = q.__floor__()
        if sign < 0 and q == i:
            i -= 1
        cells.add(i)
    return cells


def test_criterion_8_oracle_equivalences():
    rng = Random(223)
    from setmeans import iu_moment

    done = 0
    while done < 100:
        s = random_countable(rng, allow_seq2=False, max_parts=2)
        delta = F(1, 2 ** rng.randint(2, 8))
        impl = neighborhood(s, delta)
        brute = _brute_neighborhood(s, delta)
        assert impl == brute
        assert iu_measure(impl) == iu_measure(brute)
        assert iu_moment(impl) == iu_moment(brute)

        lo, hi, _, _ = bounds(s)
        base = (lo - 1, hi + 1)
        n = 2 ** rng.randint(3, 8)
        cover = eds_cells(s, n, base)
        assert set(cover.indices()) == _brute_cells(s, n, base)
        done += 1

    # symmetric mean-set membership against the defining inequality
    done = 0
    while done < 100:
        s = random_countable(rng)
        try:
            got = ms_axs(s)
            st = acc_structure(s)
        except Unsupported:
            continue
        lo, hi, _, _ = bounds(s)
        for _ in range(1000):
            x = lo + (hi - lo) * F(rng.randint(0, 2048), 2048)
            assert axs_condition_holds_structure(st, x) == got.contains(x)
        done += 1
    _report(8, "oracle equivalences: neighbourhoods, grids, membership")
