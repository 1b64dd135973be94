"""Seeded random generators for set expressions and interval unions."""

from fractions import Fraction
from random import Random

from setmeans import (
    BudgetExceeded,
    Cantor,
    Dense,
    DoubleGeoTerm,
    Finite,
    GeoTerm,
    Interval,
    IntervalSet,
    PowTerm,
    SemanticError,
    iu_normalize,
    map_affine,
    seq,
    seq2,
    term_fun,
    union,
)

GEO_RATIOS = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 4), Fraction(1, 4)]


def random_rat(rng: Random, span=4, max_den=12) -> Fraction:
    den = rng.randint(1, max_den)
    num = rng.randint(-span * den, span * den)
    return Fraction(num, den)


def random_term(rng: Random, sign=None, allow_dgeo=True):
    c = Fraction(rng.randint(1, 3), rng.randint(1, 3))
    if sign is None:
        sign = rng.choice([1, -1])
    c = c * sign
    kind = rng.random()
    if kind < 0.55 or (kind >= 0.9 and not allow_dgeo):
        return PowTerm(c, rng.randint(1, 3))
    if kind < 0.9:
        return GeoTerm(c, rng.choice(GEO_RATIOS))
    return DoubleGeoTerm(c, rng.choice([Fraction(1, 2), Fraction(1, 3)]), rng.choice([2, 3]))


def random_termfun(rng: Random, sign=None, max_terms=2, allow_dgeo=True):
    for _ in range(50):
        try:
            n_terms = rng.randint(1, max_terms)
            terms = [random_term(rng, sign, allow_dgeo) for _ in range(n_terms)]
            return term_fun(terms, start=rng.choice([1, 1, 1, 2, 3]))
        except (SemanticError, BudgetExceeded):
            continue
    return term_fun([PowTerm(Fraction(1), 1)])


def random_seq(rng: Random, sign=None, allow_dgeo=False):
    # double-geometric tails cannot be enumerated deeply in exact arithmetic,
    # so sets meant for enumeration oracles keep power/geometric shapes
    for _ in range(50):
        try:
            return seq(random_rat(rng), random_termfun(rng, sign, allow_dgeo=allow_dgeo))
        except (SemanticError, BudgetExceeded):
            continue
    return seq(Fraction(0), term_fun([PowTerm(Fraction(1), 1)]))


def random_seq2(rng: Random):
    for _ in range(50):
        try:
            sign = rng.choice([1, -1])
            return seq2(
                random_rat(rng),
                random_termfun(rng, sign, max_terms=1, allow_dgeo=False),
                random_termfun(rng, sign, max_terms=1, allow_dgeo=False),
            )
        except (SemanticError, BudgetExceeded):
            continue
    return seq2(
        Fraction(1),
        term_fun([PowTerm(Fraction(1), 1)]),
        term_fun([PowTerm(Fraction(1), 1)]),
    )


def random_finite(rng: Random, max_pts=5):
    pts = set()
    for _ in range(rng.randint(1, max_pts)):
        pts.add(random_rat(rng))
    return Finite(tuple(sorted(pts)))


def random_countable(rng: Random, max_parts=3, allow_seq2=True, allow_dense=False):
    """A countably infinite set expression."""
    parts = [random_seq(rng)]
    for _ in range(rng.randint(0, max_parts - 1)):
        k = rng.random()
        if k < 0.35:
            parts.append(random_finite(rng))
        elif allow_seq2 and k < 0.5:
            parts.append(random_seq2(rng))
        elif allow_dense and k < 0.6:
            a = random_rat(rng)
            parts.append(Dense(a, a + abs(random_rat(rng)) + 1))
        else:
            parts.append(random_seq(rng))
    rng.shuffle(parts)
    return union(*parts)


def random_interval(rng: Random):
    a = random_rat(rng)
    b = a + abs(random_rat(rng)) + Fraction(1, rng.randint(1, 6))
    return IntervalSet(Interval(a, b, rng.random() < 0.3, rng.random() < 0.3))


def random_bounded(rng: Random, max_parts=3):
    """Any bounded set expression from the full class."""
    parts = []
    for _ in range(rng.randint(1, max_parts)):
        k = rng.random()
        if k < 0.3:
            parts.append(random_seq(rng, allow_dgeo=True))
        elif k < 0.45:
            parts.append(random_finite(rng))
        elif k < 0.63:
            parts.append(random_interval(rng))
        elif k < 0.75:
            a = random_rat(rng)
            parts.append(Dense(a, a + abs(random_rat(rng)) + 1))
        elif k < 0.87:
            alpha = rng.choice([Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 3)])
            parts.append(Cantor(alpha, random_rat(rng)))
        else:
            parts.append(random_seq2(rng))
    s = union(*parts)
    if rng.random() < 0.25:
        alpha = rng.choice([Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(-3, 2)])
        s = map_affine(s, alpha, random_rat(rng))
    return s


def random_union_of_intervals(rng: Random, max_parts=4):
    parts = []
    for _ in range(rng.randint(1, max_parts)):
        a = random_rat(rng)
        b = a + abs(random_rat(rng, span=2))
        if a == b:
            parts.append(Interval(a, b))
        else:
            parts.append(Interval(a, b, rng.random() < 0.4, rng.random() < 0.4))
    return iu_normalize(parts)
