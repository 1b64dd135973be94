"""Constructive rearrangements: merge lemmas, prescribed means, divergence."""

import math
from fractions import Fraction as F

import pytest

from setmeans import (
    Affine,
    Degenerate,
    MergeParams,
    OutOfRange,
    enumerate_divergent,
    enumerate_points,
    enumerate_with_mean,
    merge_absorb,
    merge_element,
    merge_weighted,
    parse,
    split_three,
    stream_from_seq,
    term_fun,
    PowTerm,
    GeoTerm,
)
from setmeans import cesaro, terms
from setmeans.setexpr import Dense, Seq, contains_point, union
from setmeans.terms import DoubleGeoTerm, tf_value_float, tf_value_parts

H1 = parse("{1/n} U {1 + 1/n}")
L = parse("{1/n} U {2 + 1/2^n}")


def _harmonic_stream(limit=0):
    return stream_from_seq(Seq(F(limit), term_fun([PowTerm(F(1), 1)])))


def test_merge_element_window():
    b = _harmonic_stream()  # mean 0
    eps = F(1, 10)
    k, merged = merge_element(b, F(10), eps)
    means = []
    for _ in range(k + 3000):
        merged.pull()
        means.append(merged.running_mean())
    for m in means[k:]:
        assert -0.1 < m < 0.1


def test_merge_element_trivial_cases():
    b = _harmonic_stream()
    k, merged = merge_element(b, F(0), F(1, 2))  # c already near the mean
    for i in range(k + 500):
        merged.pull()
        if i >= k:
            assert abs(merged.running_mean()) < 0.5


def _alternating_stream():
    """0, 1, 0, 1, ... with running mean 1/2 and |mean - 1/2| <= 1/(2n)."""
    from setmeans.cesaro import ValueStream

    def it():
        bit = 0
        while True:
            yield float(bit), F(bit)
            bit ^= 1

    import math

    return ValueStream(
        it(),
        mean=F(1, 2),
        mean_cert=lambda eps: math.ceil(1 / float(eps)) + 2,
        dev_bound=F(1, 2),
        label="alternating",
    )


def test_merge_element_alternating_window():
    b = _alternating_stream()
    eps = F(1, 10)
    k, merged = merge_element(b, F(10), eps)
    for i in range(k + 100_000):
        merged.pull()
        if i >= k:
            m = merged.running_mean()
            assert 0.4 < m < 0.6


def test_merge_absorb_empty_returns_base():
    from setmeans.cesaro import stream_from_finite

    b = _harmonic_stream()
    ref = _harmonic_stream()
    merged = merge_absorb(b, stream_from_finite([]))
    for _ in range(2000):
        got = merged.pull()
        want = ref.pull()
        assert got == want


def test_merge_absorb_finite():
    from setmeans.cesaro import stream_from_finite

    b = _harmonic_stream()
    c = stream_from_finite([F(5), F(6), F(7)])
    merged = merge_absorb(b, c)
    vals = set()
    for _ in range(30000):
        f, e = merged.pull()
        if e is not None:
            vals.add(e)
    assert {F(5), F(6), F(7)} <= vals
    assert abs(merged.running_mean()) < 0.01


def test_merge_absorb_infinite():
    b = _harmonic_stream()
    c = stream_from_seq(Seq(F(1), term_fun([GeoTerm(F(1), F(1, 2))])))
    merged = merge_absorb(b, c)
    for _ in range(10**6):
        merged.pull()
    assert abs(merged.running_mean()) < 0.01


def test_merge_weighted_ratio_accounting():
    a = _harmonic_stream(0)
    b = _harmonic_stream(1)
    params = MergeParams(F(3, 10))
    assert params.gamma == F(10, 3)
    d = merge_weighted(a, b, params)
    n = 200_000
    for _ in range(n):
        d.pull()
    # drawn counts track the prescribed frequencies within one block
    assert abs(a.emitted_count - 0.3 * n) <= 2
    assert abs(d.running_mean() - 0.7) < 0.01


@pytest.mark.parametrize("alpha", [F(3, 10), F(5, 7), F(1, 3), F(2, 5)])
def test_merge_weighted_block_starts(alpha):
    # first-stream draws sit at ceil((m - 1) * gamma), one per block; values
    # up to 1 come from the stream with mean 0, the rest from the other
    params = MergeParams(alpha)
    d = merge_weighted(_harmonic_stream(0), _harmonic_stream(1), params)
    low_first = alpha <= F(1, 2)
    drawn = [i for i in range(1, 3001) if (d.pull()[0] <= 1) == low_first]
    want = [1]
    for m in range(2, len(drawn) + 1):
        want.append(max(math.ceil((m - 1) * params.gamma), want[-1] + 1))
    assert drawn == want


def _reference_rows(limit, tf, skip, count):
    """The per-element Fraction path: limit + tf(n) exact while no term is
    carried as a tiny, the float sum once one is."""
    rows, n = [], tf.start
    while len(rows) < count:
        if n not in skip:
            main, tinies = tf_value_parts(tf, n)
            if tinies:
                rows.append((tf_value_float(tf, n) + float(limit), None))
            else:
                v = limit + main
                rows.append((float(v), cesaro._exact_if_small(v)))
        n += 1
    return rows


@pytest.mark.parametrize(
    "limit, tf, skip, exact_bits",
    [
        (F(1, 3), term_fun([PowTerm(F(-2, 3), 40)], 3), {5, 9, 40}, 400),
        (2, term_fun([PowTerm(5, 1)]), set(), 12),
        (F(-1, 2), term_fun([PowTerm(F(7, 5), 2)], 7), {8}, 30),
        (F(2), term_fun([GeoTerm(F(1), F(1, 2))]), {3, 150}, 150),
        (F(1, 3), term_fun([DoubleGeoTerm(F(-1), F(2, 3), 2)], 2), set(), 100),
        (1, term_fun([PowTerm(F(1), 1), GeoTerm(F(3), F(1, 3))], 2), {4}, 100),
    ],
)
def test_seq_rows_match_the_fraction_path(monkeypatch, limit, tf, skip, exact_bits):
    # low budgets put the tracked/untracked and exact/None crossovers inside
    # the first few hundred indices
    monkeypatch.setattr(terms, "TRACK_BITS", 300)
    monkeypatch.setattr(cesaro, "_EXACT_BITS", exact_bits)
    it = cesaro._seq_iter(limit, tf, frozenset(skip))
    got = [next(it) for _ in range(400)]
    want = _reference_rows(limit, tf, skip, 400)
    assert [f.hex() for f, _ in got] == [f.hex() for f, _ in want]
    assert [e for _, e in got] == [e for _, e in want]
    assert any(e is None for _, e in want) and any(e is not None for _, e in want)


def test_double_geometric_stream_runs_past_float_range():
    # 3^n leaves float range near n = 647; the terms are 0.0 long before
    st = stream_from_seq(parse("{(9/10)^(3^n)}"))
    rows = [st.pull() for _ in range(2000)]
    assert rows[-1] == (0.0, None)
    assert st.emitted_count == 2000


def test_merge_weighted_endpoint():
    a = _harmonic_stream(0)
    b = _harmonic_stream(1)
    d = merge_weighted(a, b, MergeParams(F(0)))
    for _ in range(200_000):
        d.pull()
    assert abs(d.running_mean() - 1.0) < 0.02


def test_split_three_covers_and_converges():
    a, b, c, lo, hi = split_three(parse("{1/n} U {1 - 1/n} U {5 + 1/n}"))
    assert (lo, hi) == (0, 5)
    seen = set()
    for stream, target in ((a, 0.0), (b, 5.0)):
        vals = []
        for _ in range(3000):
            f, e = stream.pull()
            vals.append(f)
            assert e is None or e not in seen
            if e is not None:
                seen.add(e)
        assert abs(vals[-1] - target) < 0.01
    for _ in range(1000):
        f, e = c.pull()
        if e is not None:
            assert e not in seen
            seen.add(e)
    # everything present once: spot-check the canonical prefix
    canon = enumerate_points(parse("{1/n} U {1 - 1/n} U {5 + 1/n}"), 100)
    missing = [v for v in canon if v not in seen]
    assert not missing


def _prefix(stream, count):
    """The exact values of the first `count` pulls (fewer if it ends)."""
    out = []
    for _ in range(count):
        try:
            _, e = stream.pull()
        except StopIteration:
            break
        assert e is not None
        out.append(e)
    return out


@pytest.mark.parametrize(
    "text",
    [
        "{1/n} U {1 - 1/n} U {1/2, 1/3, 7, 5}",  # finite points of both witnesses
        "{1/n} U {1/2^n} U {5 + 1/n}",  # a sequence inside the lower witness
        "Q(0,1) U {1/n} U {2 + 1/n}",  # a dense-edge lower witness
        "{1/n} U {1 + 1/n + 1/k}",  # a partial double-sequence upper witness
    ],
)
def test_split_three_partitions_the_set(text):
    s = parse(text)
    a, b, c, lo, hi = split_three(s)
    pa, pb, pc = _prefix(a, 300), _prefix(b, 300), _prefix(c, 300)
    for part in (pa, pb, pc):
        assert len(set(part)) == len(part)
        assert all(contains_point(s, v) for v in part)
    assert not set(pa) & set(pb)
    assert not set(pc) & (set(pa) | set(pb))
    # a remainder value is never one a witness would emit later either
    assert not [v for v in pc if a.contains(v) or b.contains(v)]
    # a value the prefixes miss must be one a witness emits later, at the
    # index its membership test found ({1/2^n} reaches {1/n} at n = 2^k)
    pulled = set(pa) | set(pb) | set(pc)
    canon = enumerate_points(s, 100)
    missing = [v for v in canon if v not in pulled and not (a.contains(v) or b.contains(v))]
    assert not missing


@pytest.mark.parametrize("text", ["{1/n} U {3/n}", "{1/n}", "{1/n} U {1/2^n}"])
def test_equal_limits_absorb_the_rest_into_one_witness(text):
    # the common limit is the only accumulation point, so one witness
    # converging to it absorbs the rest of the set: its elements come in
    # order, with no even/odd split of the witness
    s = parse(text)
    st = enumerate_with_mean(s, 0)
    assert st.mean == 0
    got = _prefix(st, 200)
    assert len(set(got)) == len(got) == 200
    assert all(contains_point(s, v) for v in got)
    assert set(enumerate_points(parse("{1/n}"), 150)) <= set(got)
    with pytest.raises(Degenerate):
        split_three(s)


@pytest.mark.parametrize(
    "text, pulls", [("{1/n} U {1/2^n}", 12_000), ("{1/2^n}", 6000), ("{1/2^(2^n)}", 100)]
)
def test_equal_limits_stream_past_exact_values(text, pulls):
    # the witness turns float-only where its terms grow too deep to
    # materialize exactly, and keeps running
    st = enumerate_with_mean(parse(text), 0)
    for _ in range(pulls):
        st.pull()
    assert 0 < st.running_mean() < 0.01


def test_enumerate_with_mean_converges():
    st = enumerate_with_mean(H1, F(7, 10))
    for _ in range(100_000):
        st.pull()
    assert abs(st.running_mean() - 0.7) < 0.02


def test_enumerate_with_mean_range_check():
    with pytest.raises(OutOfRange):
        enumerate_with_mean(H1, F(3))


def test_enumerate_with_mean_exhaustive_bound():
    # first B canonical elements appear within 100*B emissions
    B = 300
    canon = set(enumerate_points(H1, B))
    st = enumerate_with_mean(H1, F(7, 10))
    emitted = set()
    for _ in range(100 * B):
        _, e = st.pull()
        if e is not None:
            emitted.add(e)
    assert canon <= emitted


def test_stream_injective_prefix():
    st = enumerate_with_mean(parse("{1/n} U {1 - 1/n} U {5 + 1/n}"), F(1))
    seen = set()
    for _ in range(20000):
        _, e = st.pull()
        if e is not None:
            assert e not in seen
            seen.add(e)


def test_partial_sum_checkpoint():
    st = enumerate_with_mean(H1, F(7, 10))
    pulled = []
    for _ in range(500):
        f, e = st.pull()
        pulled.append(e)
    assert all(e is not None for e in pulled)
    assert st.emitted_count == 500
    assert abs(st.partial_sum_float - float(sum(pulled, F(0)))) < 1e-9


def test_enumerate_divergent_crossings():
    st = enumerate_divergent(L)
    lo_x = hi_x = 0
    below = False
    for _ in range(300_000):
        st.pull()
        m = st.running_mean()
        if not below and m < 2 / 3:
            lo_x += 1
            below = True
        elif below and m > 4 / 3:
            hi_x += 1
            below = False
    assert lo_x >= 4 and hi_x >= 4
    with pytest.raises(Degenerate):
        enumerate_divergent(parse("{1/n}"))


def test_enumerate_divergent_h1():
    st = enumerate_divergent(H1, F(1, 3), F(2, 3))
    crossings = 0
    below = False
    for _ in range(300_000):
        st.pull()
        m = st.running_mean()
        if not below and m < 1 / 3:
            crossings += 1
            below = True
        elif below and m > 2 / 3:
            crossings += 1
            below = False
    assert crossings >= 8


def test_mapped_dense_filler_stream_stays_in_the_set():
    # the stream reads 3*Q(0,1) as the dyadics of (0, 3); so must membership
    s = union(Affine(3, 0, Dense(0, 1)), parse("{1/n}"))
    stream = enumerate_with_mean(s, F(1, 2))
    exact = [stream.pull()[1] for _ in range(3000)]
    outside = [v for v in exact if v is not None and not contains_point(s, v)]
    assert outside == []
