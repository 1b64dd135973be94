"""The one monotone index search, against a linear scan over random tails.

Thresholds are taken at tail values and between two neighbouring ones, so
the answer always lies inside a short scanned window past the monotone
index; `first_index` still runs its full doubling search from the window's
start.
"""

from fractions import Fraction as F
from random import Random

from setmeans.terms import (
    first_index,
    tf_cmp,
    tf_eventual_sign,
    tf_find_value,
    tf_monotone_index,
    tf_value_parts,
)

from gen import random_termfun

WINDOW = 12


def _scan(pred, lo: int, hi: int):
    """Linear-scan oracle: the least n in [lo, hi) with pred(n), else None."""
    return next((n for n in range(lo, hi) if pred(n)), None)


def _cases(seed: int, count: int):
    """(tail, lo, threshold) triples over tails of both signs."""
    rng = Random(seed)
    for i in range(count):
        tf = random_termfun(rng, sign=1 if i % 2 else -1)
        lo = tf_monotone_index(tf) + rng.randint(0, 3)
        vals = []
        for n in range(lo, lo + WINDOW):
            main, tinies = tf_value_parts(tf, n)
            if tinies:  # the main part alone is not the value
                break
            vals.append(main)
        for k, v in enumerate(vals):
            yield tf, lo, v
            if k + 1 < len(vals):
                yield tf, lo, (v + vals[k + 1]) / 2


def test_first_index_matches_scan_on_tail_thresholds():
    checked = 0
    for tf, lo, t in _cases(5, 300):
        hi = lo + WINDOW + 1
        if tf_eventual_sign(tf) > 0:
            # decreasing positive tail: f(n) <= t and f(n) < t
            preds = [lambda n: tf_cmp(tf, n, t) <= 0, lambda n: tf_cmp(tf, n, t) < 0]
        else:
            # increasing negative tail: f(n) >= t and f(n) > t
            preds = [lambda n: tf_cmp(tf, n, t) >= 0, lambda n: tf_cmp(tf, n, t) > 0]
        for pred in preds:
            want = _scan(pred, lo, hi)
            if want is None:
                continue  # strict test at the window's last value
            assert first_index(pred, lo) == want, (tf, lo, t)
            checked += 1
    assert checked > 2000


def test_tf_find_value_matches_scan():
    checked = 0
    for tf, lo, v in _cases(7, 300):
        want = _scan(lambda n: tf_cmp(tf, n, v) == 0, lo, lo + WINDOW + 1)
        assert tf_find_value(tf, v, lo) == want, (tf, lo, v)
        if want is not None:
            # the value sits before a later start, so the search misses it
            assert tf_find_value(tf, v, want + 1) is None
        checked += 1
    assert checked > 2000


def test_tf_find_value_rejects_zero_and_wrong_sign():
    rng = Random(11)
    for _ in range(50):
        tf = random_termfun(rng)
        sign = tf_eventual_sign(tf)
        assert tf_find_value(tf, F(0)) is None
        assert tf_find_value(tf, F(-sign, 7)) is None


def test_first_index_gives_none_past_cap():
    probes = []

    def pred(n):
        probes.append(n)
        return n >= 5000

    assert first_index(pred, 3, cap=1000) is None
    assert max(probes) <= 1000
    assert first_index(lambda n: False, 1, cap=1 << 20) is None
    # found at a probe inside the cap, then bisected down to the least index
    assert first_index(lambda n: n >= 700, 3, cap=1000) == 700


def test_first_index_matches_scan_on_step_predicates():
    rng = Random(13)
    for _ in range(500):
        lo = rng.randint(1, 200)
        k = rng.randint(1, 5000)
        assert first_index(lambda n: n >= k, lo) == max(lo, k)
