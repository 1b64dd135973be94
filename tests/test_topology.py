"""Derived sets, ideal limits, splits, isolated points, Hausdorff distance."""

import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies

from setmeans import (
    BudgetExceeded,
    Finite,
    Ideal,
    InIdeal,
    Interval,
    IntervalSet,
    NotIsolatedDense,
    Seq2,
    SetMeansError,
    Unsupported,
    acc_chain,
    acc_structure,
    bounds,
    closure,
    contains_point,
    derived_set,
    enumerate_points,
    hausdorff_distance,
    ideal_limits,
    delta_schedule,
    isolated_outside,
    map_affine,
    mean_iso,
    ms_as,
    ms_axs,
    normalize_affine,
    parse,
    render,
    split_at,
    union,
)
from setmeans import means, topology
from setmeans.setexpr import leaves
from setmeans.topology import acc_inf_above, acc_sup_below, is_empty_expr, isolated_stats

from gen import random_bounded, random_countable, random_finite, random_rat, random_seq2

H1 = parse("{1/n} U {1 + 1/n}")
H3 = parse("{1/n} U {1 + 1/n + 1/k}")
H4 = parse("{1/n} U {1 - 1/n} U {5 + 1/n}")


def _point_set(s, budget=300):
    return set(enumerate_points(s, budget))


def test_closure_examples():
    got = closure(parse("{1/n}"))
    assert _point_set(got, 50) >= {F(0), F(1), F(1, 2)}
    assert render(closure(parse("Q(1,2)"))) == "[1, 2]"
    assert closure(parse("C")) == parse("C")


def test_derived_examples():
    assert _point_set(derived_set(H1), 10) == {F(0), F(1)}
    d3 = derived_set(H3)
    pts = _point_set(d3, 60)
    assert F(0) in pts and F(1) in pts and F(2) in pts and F(1) + F(1, 5) in pts
    assert is_empty_expr(derived_set(parse("{0, 1}")))
    assert derived_set(parse("C")) == parse("C")


def _brute_acc_points(s, n_pts=4000, eps=1e-3):
    """Epsilon-cluster detection on a truncation (independent oracle)."""
    pts = sorted(float(v) for v in enumerate_points(s, n_pts))
    acc = []
    for i, x in enumerate(pts):
        near = 0
        j = i - 1
        while j >= 0 and x - pts[j] < eps:
            near += 1
            j -= 1
        j = i + 1
        while j < len(pts) and pts[j] - x < eps:
            near += 1
            j += 1
        if near >= 25:
            acc.append(x)
    return acc


def test_derived_brute_force_cluster_oracle():
    d3 = derived_set(H3)
    clustered = _brute_acc_points(H3)
    assert clustered, "truncation must show clusters"
    dpts = [float(v) for v in enumerate_points(d3, 300)]
    for x in clustered:
        # a point with 25 epsilon-neighbours sits within a few epsilon of a
        # true accumulation point (harmonic crowding scale)
        assert min(abs(x - v) for v in dpts) <= 1e-2


def test_acc_chain_examples():
    chain, terminated = acc_chain(H1)
    assert terminated and len(chain) == 2
    assert _point_set(chain[0], 5) == {F(0), F(1)}
    chain, terminated = acc_chain(parse("[0,1]"))
    assert not terminated
    chain, terminated = acc_chain(parse("{5}"))
    assert terminated and is_empty_expr(chain[0])
    _, terminated = acc_chain(parse("C"))
    assert not terminated


def test_derived_commutes_with_affine():
    rng = Random(53)
    for _ in range(150):
        s = random_countable(rng)
        alpha, beta = F(rng.choice([2, -1, 3, -2]), rng.randint(1, 3)), random_rat(rng)
        lhs = derived_set(map_affine(s, alpha, beta))
        rhs = map_affine(derived_set(s), alpha, beta)
        assert lhs == rhs


def test_derived_set_is_canonical():
    # acc_chain and the CLI render derived sets without normalizing them again
    rng = Random(79)
    for i in range(400):
        s = random_bounded(rng) if i % 2 else random_countable(rng)
        d = derived_set(s)
        assert normalize_affine(d) == d, render(s)


def test_ideal_limits():
    assert ideal_limits(parse("{1/n}"), Ideal.FINITE_SETS) == (0, 0)
    assert ideal_limits(parse("{1/n}"), Ideal.EMPTY_ONLY) == (0, 1)
    H = parse("[0,1] U Q(1,2)")
    assert ideal_limits(H, Ideal.NULL_SETS) == (0, 1)
    # the countable part above 1 is ideal-small, so the upper limit is 1
    assert ideal_limits(H, Ideal.COUNTABLE_SETS) == (0, 1)
    with pytest.raises(InIdeal):
        ideal_limits(parse("{1, 2}"), Ideal.FINITE_SETS)
    with pytest.raises(InIdeal):
        ideal_limits(parse("{1/n}"), Ideal.COUNTABLE_SETS)


def test_ideal_monotonicity():
    rng = Random(59)
    chain = [Ideal.EMPTY_ONLY, Ideal.FINITE_SETS, Ideal.COUNTABLE_SETS, Ideal.NULL_SETS]
    from gen import random_bounded

    done = 0
    while done < 200:
        s = random_bounded(rng)
        lims = []
        for ideal in chain:
            try:
                lims.append(ideal_limits(s, ideal))
            except InIdeal:
                break
        for (lo1, hi1), (lo2, hi2) in zip(lims, lims[1:]):
            assert lo1 <= lo2 <= hi2 <= hi1
        if len(lims) >= 2:
            done += 1


def test_split_examples():
    below, above = split_at(parse("{1/n}"), F(1, 2))
    assert _point_set(below, 20) <= {F(1, n) for n in range(2, 40)}
    assert _point_set(above, 10) == {F(1), F(1, 2)}
    below, above = split_at(parse("[0,2]"), F(1))
    assert render(below) == "[0, 1]" and render(above) == "[1, 2]"


def test_split_reassembles():
    rng = Random(61)
    done = 0
    while done < 60:
        s = random_countable(rng, allow_seq2=False)
        lo, hi, _, _ = bounds(s)
        y = lo + (hi - lo) * F(rng.randint(0, 8), 8)
        below, above = split_at(s, y)
        orig = _point_set(s, 150)
        got = set()
        for part in (below, above):
            if not is_empty_expr(part):
                got |= _point_set(part, 400)
        assert {v for v in orig if v <= y} <= {v for v in got if v <= y}
        assert {v for v in orig if v >= y} <= {v for v in got if v >= y}
        for v in got:
            assert contains_point(s, v)
        done += 1


def test_split_parts_round_trip():
    # cut points below, inside and above the set, so some parts are empty
    rng = Random(67)
    done = empty = 0
    while done < 300:
        s = random_bounded(rng)
        lo, hi, _, _ = bounds(s)
        y = lo + (hi - lo) * F(rng.randint(-2, 10), 8)
        try:
            parts = split_at(s, y)
        except SetMeansError:
            continue
        for part in parts:
            assert parse(render(part)) == part
            empty += is_empty_expr(part)
        done += 1
    assert empty > 0


def test_split_seq2():
    below, above = split_at(H3, F(5, 2))
    for v in enumerate_points(below, 200):
        assert v <= F(5, 2) and contains_point(H3, v)
    for v in enumerate_points(above, 200):
        assert v >= F(5, 2) and contains_point(H3, v)
    assert F(5, 2) in enumerate_points(above, 50)  # 1 + 1 + 1/2 lands on it
    with pytest.raises(Unsupported):
        split_at(parse("{1 + 1/n + 1/k}"), F(3, 2))  # inside the cluster band


def test_split_cantor():
    below, above = split_at(parse("C"), F(1, 2))
    assert contains_point(below, F(1, 3)) and not contains_point(below, F(2, 3))
    assert contains_point(above, F(2, 3))
    with pytest.raises(Unsupported):
        split_at(parse("C"), F(1, 4))  # interior cut with no finite resolution
    # affine image: the cut maps into base coordinates
    below, above = split_at(parse("3*C + 1"), F(5, 2))
    assert contains_point(below, F(2)) and not contains_point(below, F(3))
    assert contains_point(above, F(3)) and contains_point(above, F(4))


def test_isolated_examples():
    # boundary points at exactly delta survive: the removed ball is open
    assert isolated_outside(parse("{1/n}"), F(1, 4)) == [
        F(1, 4),
        F(1, 3),
        F(1, 2),
        F(1),
    ]
    got = isolated_outside(parse("{0,1} U {1/n} U {1 + 1/2^n}"), F(3, 10))
    assert got == [F(1, 3), F(1, 2), F(3, 2)]
    assert isolated_outside(parse("{0, 5}"), F(1)) == [F(0), F(5)]
    # 7/4 = 1 + 1/2 + 1/4 is exactly 1/4 from both 3/2 and 2 in H'
    got = isolated_outside(parse("{1 + 1/n + 1/k}"), F(1, 4))
    assert got == [F(7, 4), F(9, 4), F(7, 3), F(5, 2), F(3)]
    with pytest.raises(NotIsolatedDense):
        isolated_outside(parse("[0,1]"), F(1, 4))


def test_isolated_monotone_in_delta():
    rng = Random(67)
    for _ in range(60):
        s = random_countable(rng, allow_seq2=False)
        big = F(1, rng.randint(2, 6))
        small = big / rng.randint(2, 5)
        assert set(isolated_outside(s, big)) <= set(isolated_outside(s, small))


def test_isolated_brute_oracle():
    rng = Random(71)
    for _ in range(40):
        s = random_countable(rng, allow_seq2=False)
        delta = F(1, rng.randint(3, 12))
        got = set(isolated_outside(s, delta))
        pts = enumerate_points(s, 3000)
        accs = enumerate_points(derived_set(s), 400)
        brute = {
            x for x in pts if all(abs(x - a) >= delta for a in accs)
        }
        # the truncation may misclassify points near unlisted accumulation
        # values, so compare only where the prefix is decisive
        assert got <= brute
        for x in brute - got:
            assert min(abs(x - a) for a in accs) < delta * F(11, 10)


def _seq2_sets(rng, n):
    """Countable sets with at least one double-sequence leaf."""
    for i in range(n):
        s = random_countable(rng, allow_seq2=True)
        if not any(isinstance(leaf, Seq2) for leaf in leaves(s)):
            s = union(s, random_seq2(rng))
        yield s


def test_isolated_family_monotone_in_delta():
    rng = Random(79)
    for s in _seq2_sets(rng, 40):
        big = F(1, rng.randint(2, 6))
        small = big / rng.randint(2, 4)
        assert set(isolated_outside(s, big)) <= set(isolated_outside(s, small))


def test_isolated_family_brute_oracle():
    rng = Random(83)
    for s in _seq2_sets(rng, 30):
        delta = F(1, rng.randint(3, 10))
        got = set(isolated_outside(s, delta))
        pts = enumerate_points(s, 6000)
        accs = enumerate_points(derived_set(s), 600)
        brute = {x for x in pts if all(abs(x - a) >= delta for a in accs)}
        assert got <= set(pts), "an isolated point beyond the enumerated prefix"
        assert got <= brute
        for x in brute - got:
            assert min(abs(x - a) for a in accs) < delta * F(11, 10)


def test_isolated_stats_matches_outside():
    # the double-sequence sets test each candidate against the zone; in the
    # last two, each leaf's survivors are summed in closed form around the
    # index ranges that accumulation points cut out of its tail
    rng = Random(89)
    cases = [(s, F(1, rng.randint(2, 16))) for s in _seq2_sets(rng, 40)]
    cases += [
        (parse("{1/n} U {1/2 + 1/n^2}"), F(1, 50)),
        (parse("{1/n} U {1/4 + 1/n^3} U {1/7 - 1/2^n}"), F(1, 300)),
    ]
    for s, delta in cases:
        pts = isolated_outside(s, delta)
        count, total = isolated_stats(s, delta)
        assert count == len(pts)
        assert abs(total - math.fsum(map(float, pts))) <= 1e-9 * sum(abs(float(x)) for x in pts)


@pytest.mark.parametrize(
    "text, sched",
    [
        (
            "{1/2^n} U {2 + 1/2^n} U {2 + 1/2^n + 1/2^(2^n)}",
            delta_schedule(start_exp=4, end_exp=30, early_stop=False),
        ),
        ("{0,1} U {1/n} U {1 + 1/2^n}", delta_schedule()),
    ],
    ids=["H_EDS", "readme"],
)
def test_mean_iso_asks_each_collision_question_once(monkeypatch, text, sched):
    s = parse(text)
    asked = Counter()
    steps = []
    seq_value_index, stats = topology._seq_value_index, means.isolated_stats

    def counting(limit, tf, x):
        asked[limit, tf, x] += 1
        return seq_value_index(limit, tf, x)

    def recording(s, delta, *args, **kwargs):
        got = stats(s, delta, *args, **kwargs)
        steps.append((delta, got))
        return got

    monkeypatch.setattr(topology, "_seq_value_index", counting)
    monkeypatch.setattr(means, "isolated_stats", recording)
    mean_iso(s, sched)
    monkeypatch.undo()
    assert len(steps) > 3 and asked
    assert max(asked.values()) == 1, [q for q, k in asked.items() if k > 1][:3]
    # every step gives the bits of a call that shares nothing
    for delta, (count, total) in steps:
        alone_count, alone_total = isolated_stats(s, delta)
        assert count == alone_count and total.hex() == alone_total.hex()


def test_isolated_stats_does_not_depend_on_the_hash_seed():
    # {5 + 1/2^n} loses two indices to the other leaves at 5 (5 itself and
    # 5 + 1/4^n); subtracting them from a float sum in set order gave a
    # last bit that moved with PYTHONHASHSEED
    code = (
        "from fractions import Fraction\n"
        "from setmeans import parse\n"
        "from setmeans.topology import isolated_stats\n"
        "s = parse('{1/n} U {2/n} U {5} U {5 + 1/2^n} U {5 + 1/4^n}')\n"
        "count, total = isolated_stats(s, Fraction(1, 2**10))\n"
        "print(count, total.hex())\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    outs = {
        subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=120, check=True,
        ).stdout
        for seed in ("0", "3", "4")
    }
    assert len(outs) == 1, outs


def _result(fn, *args):
    try:
        return fn(*args)
    except SetMeansError as exc:
        return type(exc).__name__, str(exc)


def _iso_result(s):
    out = _result(mean_iso, s, delta_schedule(end_exp=12))
    if isinstance(out, tuple):
        return out
    return out.status, None if out.value is None else out.value.hex(), out.trace


def _split_points(leaf):
    """A finite leaf as one leaf per point; any other leaf as itself."""
    return [Finite((p,)) for p in leaf.points] if isinstance(leaf, Finite) else [leaf]


def test_one_point_interval_reads_as_its_point():
    assert mean_iso(parse("[1,1] U {1/n}")) == mean_iso(parse("{1} U {1/n}"))
    assert isolated_outside(parse("[1,1] U {1/n}"), F(1, 8)) == [F(1, n) for n in range(8, 0, -1)]
    rng = Random(73)
    for _ in range(25):
        ls = [*leaves(random_countable(rng, max_parts=2)), random_finite(rng)]
        rng.shuffle(ls)
        # one leaf per point, so both sets add their points in one order
        parts = [p for leaf in ls for p in _split_points(leaf)]
        twin = [
            IntervalSet(Interval(p.points[0], p.points[0])) if isinstance(p, Finite) else p
            for p in parts
        ]
        s, twin = union(*parts), union(*twin)
        assert _iso_result(twin) == _iso_result(s)
        assert _result(isolated_outside, twin, F(1, 8)) == _result(isolated_outside, s, F(1, 8))
        assert _result(ms_as, twin) == _result(ms_as, s)
        assert _result(ms_axs, twin) == _result(ms_axs, s)


def test_hausdorff_examples():
    c10 = parse("{1/10, 1 + 1/10, 1 + 1/20}")
    assert hausdorff_distance(c10, parse("{0, 1}")) == F(1, 10)
    a = parse("[0,1] U [2,3]")
    assert hausdorff_distance(a, a) == 0
    assert hausdorff_distance(parse("[0,1]"), parse("{0,1}")) == F(1, 2)
    assert hausdorff_distance(parse("C"), parse("{0,1}")) == F(1, 3)
    assert hausdorff_distance(parse("C"), parse("{1/2}")) == F(1, 2)
    assert hausdorff_distance(parse("Q(0,1)"), parse("[0,1]")) == 0
    with pytest.raises(Unsupported):
        hausdorff_distance(parse("{1/n}"), parse("{0,1}"))
    # a union with a Cantor leaf against a finite set
    assert hausdorff_distance(parse("C U {2}"), parse("{0, 1, 2}")) == F(1, 3)
    assert hausdorff_distance(parse("3*C + 5"), parse("{5, 8}")) == 1
    assert hausdorff_distance(parse("-1/3*C + 2"), parse("{5/3, 2}")) == F(1, 9)
    assert hausdorff_distance(parse("C U [2, 3]"), parse("{0, 1, 5/2}")) == F(1, 2)
    assert hausdorff_distance(parse("{0, 1}"), parse("[0, 1] U 3*C + 2")) == 4
    # 1/2 lies between 0 and the reversed leaf on [5/3, 2]; 0 is nearer
    assert hausdorff_distance(parse("-1/3*C + 2 U {0}"), parse("{1/2, 2}")) == F(1, 2)


@pytest.mark.parametrize(
    "a, b",
    [
        ("{1/n} U {5, 6, 7}", "{0}"),  # a sequence leaf, however few parts
        ("[0,1]", "C"),
        ("C", "C"),
        ("C U {2}", "[0, 1]"),
        ("{}", "{1}"),
        ("{}", "{}"),
    ],
)
def test_hausdorff_refusals(a, b):
    for x, y in ((a, b), (b, a)):
        with pytest.raises(Unsupported):
            hausdorff_distance(parse(x), parse(y))


def test_hausdorff_iu_pairs():
    rng = Random(73)
    from gen import random_interval

    for _ in range(60):
        a = random_interval(rng)
        b = random_interval(rng)
        d = hausdorff_distance(a, b)
        # brute force on a fine grid of both closures
        ga = [a.iv.lo + (a.iv.hi - a.iv.lo) * F(i, 64) for i in range(65)]
        gb = [b.iv.lo + (b.iv.hi - b.iv.lo) * F(i, 64) for i in range(65)]
        brute = max(
            max(min(abs(x - y) for y in gb) for x in ga),
            max(min(abs(x - y) for y in ga) for x in gb),
        )
        assert abs(float(d) - float(brute)) < 0.05
        assert d >= brute - max(a.iv.length, b.iv.length) / 32


_END = strategies.integers(-4, 4)
_SHAPE = strategies.tuples(
    strategies.lists(_END, max_size=4, unique=True),  # points
    strategies.lists(  # intervals (lo, hi, lo_open, hi_open)
        strategies.tuples(_END, _END, strategies.booleans(), strategies.booleans()).filter(
            lambda t: t[0] < t[1]
        ),
        max_size=2,
    ),
).filter(lambda shape: shape[0] or shape[1])


def _shape_text(points, intervals):
    parts = ["{" + ", ".join(map(str, points)) + "}"] if points else []
    for lo, hi, lo_open, hi_open in intervals:
        parts.append(("(" if lo_open else "[") + f"{lo}, {hi}" + (")" if hi_open else "]"))
    return " U ".join(parts)


def _shape_grid(points, intervals):
    """The points and every quarter of each closed interval.  The endpoints
    are integers, so the grid holds every gap midpoint, and the brute-force
    max-min over two grids is the exact Hausdorff distance."""
    grid = [F(p) for p in points]
    for lo, hi, _, _ in intervals:
        grid += [lo + F(i, 4) for i in range(4 * (hi - lo) + 1)]
    return grid


@settings(derandomize=True, deadline=None, max_examples=120, database=None)
@given(_SHAPE, _SHAPE)
def test_hausdorff_oracle_on_points_and_intervals(a, b):
    ga, gb = _shape_grid(*a), _shape_grid(*b)
    brute = max(
        max(min(abs(x - y) for y in gb) for x in ga),
        max(min(abs(x - y) for y in ga) for x in gb),
    )
    assert hausdorff_distance(parse(_shape_text(*a)), parse(_shape_text(*b))) == brute


def _cantor_ends(level: int) -> list[F]:
    """The ends of the 2**level construction pieces of C."""
    ends = [F(0), F(1)]
    for _ in range(level):
        ends = [e / 3 for e in ends] + [(2 + e) / 3 for e in ends]
    return ends


_CANTOR_ENDS = _cantor_ends(9)
_CANTOR = strategies.sampled_from(["C", "3*C + 5", "-1/3*C + 2", "C U {p}"])
_CANTOR_POINT = strategies.sampled_from([F(k, 3) for k in range(-6, 12)])


@settings(derandomize=True, deadline=None, max_examples=120, database=None)
@given(_CANTOR, _CANTOR_POINT, strategies.none() | _SHAPE, _SHAPE)
def test_hausdorff_oracle_with_cantor_leaves(cantor, p, extra, other):
    """A union holding a Cantor leaf gets the brute-force distance to a
    finite set, and is refused against a set with an interval.  The brute
    force runs over the ends of the level-9 Cantor pieces, and over interval
    grids that hold the finite set's points and gap midpoints.  Each Cantor
    leaf's grid lies within its |alpha| / 3**9 of every point of the leaf,
    so the brute force is that close to the exact distance."""
    text = cantor.replace("{p}", "{" + str(p) + "}")
    if extra is not None:
        text += " U " + _shape_text(*extra)
    a, b = parse(text), parse(_shape_text(*other))
    if other[1]:  # an interval with interior against a Cantor leaf
        for x, y in ((a, b), (b, a)):
            with pytest.raises(Unsupported):
                hausdorff_distance(x, y)
        return
    gb = sorted({F(q) for q in other[0]})
    ga, tol = [], F(0)
    for leaf in leaves(closure(a)):
        if isinstance(leaf, Finite):
            ga += leaf.points
        elif isinstance(leaf, IntervalSet):
            lo, hi = leaf.iv.lo, leaf.iv.hi
            marks = gb + [(x + y) / 2 for x, y in zip(gb, gb[1:])]
            ga += [lo, hi] + [m for m in marks if lo < m < hi]
        else:
            ga += [leaf.alpha * e + leaf.beta for e in _CANTOR_ENDS]
            tol = max(tol, abs(leaf.alpha) / 3**9)
    brute = max(
        max(min(abs(x - y) for y in gb) for x in ga),
        max(min(abs(x - y) for y in ga) for x in gb),
    )
    d = hausdorff_distance(a, b)
    assert d == hausdorff_distance(b, a)
    assert brute - tol <= d <= brute + tol


def test_acc_structure_sidedness():
    st = acc_structure(H4)
    flags = {a.value: (a.left_sided, a.right_sided) for a in st.anchors}
    assert flags[F(0)] == (False, True)
    assert flags[F(1)] == (True, False)
    assert flags[F(5)] == (False, True)
    st3 = acc_structure(H3)
    assert len(st3.families) == 1 and st3.families[0].limit == 1
    assert {a.value for a in st3.anchors} == {F(0), F(1)}


def _acc_brute(st, depth=40):
    """The anchors and each family's first `depth` values, and for each
    family the open range (lo, hi) that holds the values left out."""
    values = {a.value for a in st.anchors}
    gaps = []
    for fam in st.families:
        values.update(fam.value(n) for n in range(fam.start, fam.start + depth))
        gaps.append((fam, *sorted((fam.limit, fam.value(fam.start + depth - 1)))))
    return sorted(values), gaps


def test_acc_queries_match_a_brute_force_over_family_values():
    # sup below x and inf above x of H' against the nearest of the listed
    # values.  A family's left-out values lie in the open range between its
    # limit and its last listed value, so a query is checked only where they
    # cannot change its answer; at a family's limit, on the side its values
    # come from, the answer is the limit itself, which they approach.
    rng = Random(131)
    checked = {"below": 0, "above": 0, "at_limit": 0}
    structures = 0
    while structures < 60:
        s = union(random_countable(rng, max_parts=2, allow_seq2=False), random_seq2(rng))
        for t in (s, map_affine(s, -1, 0)):
            try:
                st = acc_structure(t)
            except (Unsupported, BudgetExceeded):
                continue
            structures += 1
            values, gaps = _acc_brute(st)
            assert st.min_value() == values[0]
            assert st.max_value() == values[-1]
            xs = set(values) | {values[0] - 1, values[-1] + 1}
            xs.update((a + b) / 2 for a, b in zip(values, values[1:]))
            for fam, _, _ in gaps:
                xs.update(fam.limit + e for e in (F(-1, 10**6), F(0), F(1, 10**6)))
            for x in sorted(xs):
                if all(x <= lo or x > hi or x == hi == fam.limit for fam, lo, hi in gaps):
                    below = [v for v in values if v < x]
                    if any(hi == fam.limit == x for fam, lo, hi in gaps):
                        below.append(x)
                        checked["at_limit"] += 1
                    assert acc_sup_below(st, x) == max(below, default=None), (t, x)
                    checked["below"] += 1
                if all(x >= hi or x < lo or x == lo == fam.limit for fam, lo, hi in gaps):
                    above = [v for v in values if v > x]
                    if any(lo == fam.limit == x for fam, lo, hi in gaps):
                        above.append(x)
                        checked["at_limit"] += 1
                    assert acc_inf_above(st, x) == min(above, default=None), (t, x)
                    checked["above"] += 1
    assert checked["below"] > 2000 and checked["above"] > 2000, checked
    assert checked["at_limit"] >= structures, checked
