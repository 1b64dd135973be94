"""Single-valued means and the limit-detection engine."""

from fractions import Fraction as F
from random import Random

import pytest

from setmeans import (
    BudgetExceeded,
    Ideal,
    InIdeal,
    NonTerminating,
    default_base,
    delta_schedule,
    eds_cells,
    grid_schedule,
    lavg,
    mean_acc,
    mean_eds,
    mean_ideal,
    mean_ideal_chain,
    mean_iso,
    mean_iso_oscillating,
    mean_lis,
    parse,
    run_schedule,
    Schedule,
    bounds,
)
from setmeans.means import OscillatingIsoSet

from gen import random_countable

H1 = parse("{1/n} U {1 + 1/n}")
H2 = parse("{1/n} U {1 + 1/2^n}")
L = parse("{1/n} U {2 + 1/2^n}")


def test_mean_lis():
    assert mean_lis(parse("{1, 3}")).exact == 2
    assert mean_lis(parse("{1/n} U {1 + 1/n}")).exact == F(1, 2)
    assert mean_lis(parse("C")).exact == F(1, 2)


def test_mean_ideal():
    assert mean_ideal(parse("{1/n}"), Ideal.EMPTY_ONLY).exact == F(1, 2)
    assert mean_ideal(parse("{1/n}"), Ideal.FINITE_SETS).exact == 0
    assert mean_ideal(parse("[0,1] U Q(1,2)"), Ideal.NULL_SETS).exact == F(1, 2)


def test_mean_ideal_chain():
    assert mean_ideal_chain(parse("{0, 1, 2}")).exact == 1
    assert mean_ideal_chain(parse("{1/n}")).exact == 0
    assert mean_ideal_chain(parse("[0,1] U Q(1,2)")).exact == F(1, 2)
    with pytest.raises(InIdeal):
        mean_ideal_chain(parse("{1/n}"), (Ideal.COUNTABLE_SETS, Ideal.NULL_SETS))
    with pytest.raises(ValueError):
        mean_ideal_chain(parse("{1/n}"), (Ideal.COUNTABLE_SETS, Ideal.FINITE_SETS))
    # an empty or malformed chain is refused before the set is read, on a
    # finite, an infinite and an empty set alike
    for text in ("{0, 1}", "{1/n}", "{}"):
        with pytest.raises(ValueError, match="must not be empty"):
            mean_ideal_chain(parse(text), ())
        with pytest.raises(ValueError, match="'x' is not an Ideal"):
            mean_ideal_chain(parse(text), (Ideal.FINITE_SETS, "x"))
        with pytest.raises(ValueError, match="is not an Ideal"):
            mean_ideal_chain(parse(text), ("finite",))


def test_mean_acc():
    assert mean_acc(H1).exact == F(1, 2)
    assert mean_acc(H2).exact == F(1, 2)
    assert mean_acc(parse("{5, 7}")).exact == 6
    with pytest.raises(NonTerminating):
        mean_acc(parse("C"))
    with pytest.raises(NonTerminating):
        mean_acc(parse("Q(0,1)"))


def test_mean_iso():
    out = mean_iso(parse("{0,1} U {1/n} U {1 + 1/2^n}"))
    assert out.status == "converged" and abs(out.value) < 1e-3
    assert mean_iso(parse("{2, 4}")).exact == 3


def test_mean_iso_oscillating():
    out = mean_iso_oscillating()
    assert out.status == "divergent"
    lo, hi = out.band
    assert hi - lo > 0.3
    assert lo < 0.3 and hi > 0.7


def test_oscillating_stage_sums_are_the_explicit_sums():
    """A stage's sum in closed form equals the sum of its explicit points."""
    osc = OscillatingIsoSet()
    osc.ensure_stages(8)
    sums = [F(0)] + osc._sums
    for j in range(1, 9):
        assert sums[j] - sums[j - 1] == sum(osc.stage_points_explicit(j))


def test_oscillating_builder_stages():
    osc = OscillatingIsoSet()
    osc.ensure_stages(8)
    for j in range(1, 9):
        m = osc.running_mean_after(j)
        if j % 2 == 1:
            assert m < F(1, 4)
        else:
            assert m > F(3, 4)
    # explicit points stay inside their shells and away from the wrong side
    pts = osc.stage_points_explicit(3)
    lo, hi = osc._stage_shell(3)
    assert all(lo < p < hi for p in pts)
    assert len(set(pts)) == len(pts)
    # a budget of a stage's running count builds it, one less stops there:
    # at an odd stage and at an even one
    for j in (5, 6):
        OscillatingIsoSet().ensure_stages(j, budget=osc._counts[j - 1])
        with pytest.raises(BudgetExceeded):
            OscillatingIsoSet().ensure_stages(j, budget=osc._counts[j - 1] - 1)


def test_lavg_examples():
    out = lavg(L)
    assert out.status == "converged" and abs(out.value) < 0.01
    out = lavg(parse("[0,1] U Q(1,2)"))
    assert out.status == "converged" and out.exact == 1
    out = lavg(parse("C"))
    assert out.status == "converged" and out.exact == F(1, 2)
    out = lavg(parse("3*C + 1"))
    assert out.status == "converged" and out.exact == F(5, 2)


def test_lavg_closedness_spot():
    from setmeans import closure

    for s in (L, parse("{1/n} U Q(2,3)")):
        sched = delta_schedule(end_exp=32, tol=1e-3)
        a = lavg(s, sched)
        b = lavg(closure(s), sched)
        assert a.ok() and b.ok()
        assert abs(a.value - b.value) <= 2 * (a.err_est + b.err_est) + 1e-3


def test_eds_cells_examples():
    cover = eds_cells(parse("{0, 1/2}"), 2, (F(0), F(1)))
    assert list(cover.indices()) == [0, 1]
    cover = eds_cells(parse("[0,1]"), 4, (F(0), F(2)))
    assert list(cover.indices()) == [0, 1, 2]
    cover = eds_cells(parse("Q(0,1)"), 4, (F(0), F(2)))
    assert list(cover.indices()) == [0, 1]


def test_eds_cells_open_upper_end_on_boundary():
    # cell i is [a + i*w, a + (i+1)*w); it meets an interval from lo to hi
    # when it starts below hi (or at hi, when hi belongs to the set) and
    # ends above lo.  Even grids over (0, 2) put 1 on a cell boundary.
    base = (F(0), F(2))
    for text in ("[0,1)", "Q(0,1)", "(0,1]", "[0,1]", "(1/3,1)", "Q(1/3,1)"):
        s = parse(text)
        lo, hi, _, hi_att = bounds(s)
        for n in range(1, 40):
            w = F(2, n)
            brute = {
                i
                for i in range(n)
                if (i * w < hi or (hi_att and i * w == hi)) and (i + 1) * w > lo
            }
            assert set(eds_cells(s, n, base).indices()) == brute, (text, n)


def test_eds_cells_harmonic_tail_block():
    # points with gaps above the cell width sit alone; the rest fill a
    # contiguous block reaching the limit-side cell
    cover = eds_cells(parse("{1/n}"), 100, (F(0), F(2)))
    cells = list(cover.indices())
    assert cells[0] == 0  # the limit side: cells hold values just above 0
    w = F(2, 100)
    block_end = cells[0]
    for i, j in zip(cells, cells[1:]):
        if j == i + 1:
            block_end = j
        else:
            break
    # every point with gap > w lands in its own cell beyond the block
    singles = [i for i in cells if i > block_end]
    for i in singles:
        lo = i * w
        hi = lo + w
        members = [n for n in range(1, 200) if lo <= F(1, n) < hi]
        assert len(members) == 1


def test_eds_cells_brute_oracle():
    rng = Random(101)
    from setmeans import enumerate_points

    done = 0
    while done < 60:
        s = random_countable(rng, allow_seq2=False, max_parts=2)
        base = default_base(s)
        n = 2 ** rng.randint(3, 9)
        cover = eds_cells(s, n, base)
        impl = set(cover.indices())
        a, b = base
        w = (b - a) / n
        pts = enumerate_points(s, 1500)
        brute = {((p - a) / w).__floor__() for p in pts}
        # prefix occupancy is a subset; anything extra sits in a tail block
        assert brute <= impl
        extras = impl - brute
        from setmeans import Seq, Union, normalize_affine

        norm = normalize_affine(s)
        leaves = list(norm.parts) if isinstance(norm, Union) else [norm]
        limit_cells = set()
        for leaf in leaves:
            if isinstance(leaf, Seq):
                q = (leaf.limit - a) / w
                i = q.__floor__()
                limit_cells.update({i - 1, i, i + 1})
        for i in extras:
            assert any(abs(i - j) <= 1 for j in limit_cells)
        done += 1


def test_mean_eds_examples():
    out = mean_eds(parse("[0,3]"), grid_schedule(tol=1e-8))
    assert out.status == "converged" and abs(out.value - 1.5) < 1e-6
    out = mean_eds(parse("[0,1] U Q(1,2)"), grid_schedule(tol=1e-5))
    assert out.ok() and abs(out.value - 1.0) < 1e-3
    out = mean_eds(L)
    assert out.ok() and abs(out.value) < 1e-2


def test_mean_eds_base_invariance_spot():
    s = parse("{1/n} U [2, 3]")
    sched = grid_schedule(end_exp=30, tol=1e-3)
    a = mean_eds(s, sched)
    b = mean_eds(s, sched, base=(F(-2), F(5)))
    assert a.ok() and b.ok()
    assert abs(a.value - b.value) <= 10 * (a.err_est + b.err_est) + 1e-3


def test_mean_eds_int_base_matches_fraction_base():
    # the base is coerced to exact rationals, so an int base reads the same
    # grids as the Fraction base (this set's plateau outcome is left as is)
    s = parse("{1/2^(2^n)}")
    assert mean_eds(s, base=(0, 1)) == mean_eds(s, base=(F(0), F(1)))


def test_finite_independence_spot():
    # adjoining a finite set must not move these means
    from setmeans import Union, Finite

    extra = Finite((F(7), F(-3), F(9, 2)))
    for s in (H1, H2):
        assert mean_acc(s).exact == mean_acc(Union((s, extra))).exact
    sched = delta_schedule(end_exp=28, tol=1e-3)
    a = lavg(L, sched)
    b = lavg(Union((L, extra)), sched)
    assert a.ok() and b.ok()
    assert abs(a.value - b.value) <= 2 * (a.err_est + b.err_est) + 2e-3
    gsched = grid_schedule(end_exp=28, tol=1e-3, early_stop=False)
    a = mean_eds(parse("[0,1]"), gsched)
    b = mean_eds(parse("[0,1] U {7, -3}"), gsched)
    assert abs(a.trace[-1][1] - b.trace[-1][1]) < 1e-3


def test_engine_divergence_and_convergence():
    seq = [0.1, 0.9, 0.1, 0.9, 0.1, 0.9, 0.1, 0.9]

    def osc(param):
        k = osc.calls
        osc.calls += 1
        return seq[k % len(seq)], None

    osc.calls = 0
    out = run_schedule(osc, Schedule("delta", 4, 20, 1e-4, 3))
    assert out.status == "divergent"

    def conv(param):
        return 1.0 + float(param), None

    out = run_schedule(conv, Schedule("delta", 4, 40, 1e-6, 3))
    assert out.status == "converged" and abs(out.value - 1.0) < 1e-4


@pytest.mark.parametrize(
    "call",
    [
        lambda: Schedule("Delta", 4, 10),
        lambda: lavg(parse("{1/n}"), grid_schedule()),
        lambda: mean_iso(parse("{1/n}"), grid_schedule()),
        lambda: mean_iso_oscillating(grid_schedule()),
        lambda: mean_eds(parse("{1/n}"), delta_schedule()),
    ],
    ids=["unknown-kind", "lavg-grid", "iso-grid", "iso-oscillating-grid", "eds-delta"],
)
def test_schedule_of_the_wrong_kind_is_rejected(call):
    # a delta mean on grid parameters 2^k reads radii 1024, 2048, ...: lavg
    # of {1/n} would converge to 1/2, not 0
    with pytest.raises(ValueError, match="schedule"):
        call()
