"""Seeded text generator for the `exact` workload.

The shapes follow the random set generators of the test suite (finite
lists, power/geometric/double-geometric sequence tails, double sequences,
intervals, dense fillers, affine Cantor images, unions and an outer affine
map), but this copy is kept here so that edits to the tests do not move the
benchmark.  It builds expression *text* only: the program under test sees
nothing but the strings this module emits.

Every generated set comes paired with its affine image alpha*S + beta, also
as text, so the benchmark can check equivariance of the exact means.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random

GEO_RATIOS = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 4), Fraction(1, 4)]
ONE = Fraction(1)
ZERO = Fraction(0)


def fmt_rat(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def random_rat(rng: Random, span=4, max_den=12) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(-span * den, span * den), den)


# ---------------------------------------------------------------------------
# leaves: a base shape under an affine map x -> alpha*x + beta


@dataclass(frozen=True)
class Leaf:
    base: str  # the term text of the unmapped shape
    alpha: Fraction = ONE
    beta: Fraction = ZERO
    points: tuple[Fraction, ...] | None = None  # set for finite lists

    def mapped(self, alpha: Fraction, beta: Fraction) -> "Leaf":
        return Leaf(self.base, alpha * self.alpha, alpha * self.beta + beta, self.points)

    def text(self) -> str:
        if self.alpha == 1 and self.beta == 0:
            return self.base
        head = f"{fmt_rat(self.alpha)}*{self.base}"
        if self.beta > 0:
            return f"{head} + {fmt_rat(self.beta)}"
        if self.beta < 0:
            return f"{head} - {fmt_rat(-self.beta)}"
        return head

    def image_points(self) -> list[Fraction]:
        return [self.alpha * p + self.beta for p in self.points]


def render_leaves(leaves: list[Leaf]) -> str:
    return " U ".join(leaf.text() for leaf in leaves)


# ---------------------------------------------------------------------------
# sequence tails: pieces c/n^p, c/b^n, c*(p/q)^n, c/b^(s^n)


def _piece(rng: Random, var: str, sign: int, allow_dgeo: bool) -> str:
    c = Fraction(rng.randint(1, 3), rng.randint(1, 3))
    kind = rng.random()
    if kind < 0.55 or (kind >= 0.9 and not allow_dgeo):
        p = rng.randint(1, 3)
        body = f"{fmt_rat(c)}/{var}" + ("" if p == 1 else f"^{p}")
    elif kind < 0.9:
        r = rng.choice(GEO_RATIOS)
        if r.numerator == 1:
            body = f"{fmt_rat(c)}/{r.denominator}^{var}"
        else:
            body = f"{fmt_rat(c)}*({fmt_rat(r)})^{var}"
    else:
        b = rng.choice([2, 3])
        s = rng.choice([2, 3])
        body = f"{fmt_rat(c)}/{b}^({s}^{var})"
    return ("- " if sign < 0 else "+ ") + body


def _tail(rng: Random, var: str, sign, max_terms: int, allow_dgeo: bool) -> list[str]:
    return [
        _piece(rng, var, sign if sign is not None else rng.choice([1, -1]), allow_dgeo)
        for _ in range(rng.randint(1, max_terms))
    ]


def _start(rng: Random, var: str) -> str:
    start = rng.choice([1, 1, 1, 2, 3])
    return "" if start == 1 else f"[{var}>={start}]"


def random_seq(rng: Random, allow_dgeo=False) -> Leaf:
    limit = random_rat(rng)
    pieces = _tail(rng, "n", None, 2, allow_dgeo)
    return Leaf("{" + fmt_rat(limit) + " " + " ".join(pieces) + "}" + _start(rng, "n"))


def random_seq2(rng: Random) -> Leaf:
    # both parts approach the limit from one side
    sign = rng.choice([1, -1])
    limit = random_rat(rng)
    outer = _tail(rng, "n", sign, 1, False)
    inner = _tail(rng, "k", sign, 1, False)
    body = "{" + fmt_rat(limit) + " " + " ".join(outer + inner) + "}"
    return Leaf(body + _start(rng, "n") + _start(rng, "k"))


def random_finite(rng: Random, max_pts=5) -> Leaf:
    pts = sorted({random_rat(rng) for _ in range(rng.randint(1, max_pts))})
    return Leaf("{" + ", ".join(fmt_rat(p) for p in pts) + "}", points=tuple(pts))


def random_interval(rng: Random) -> Leaf:
    a = random_rat(rng)
    b = a + abs(random_rat(rng)) + Fraction(1, rng.randint(1, 6))
    lb = "(" if rng.random() < 0.3 else "["
    rb = ")" if rng.random() < 0.3 else "]"
    return Leaf(f"{lb}{fmt_rat(a)}, {fmt_rat(b)}{rb}")


def random_dense(rng: Random) -> Leaf:
    a = random_rat(rng)
    return Leaf(f"Q({fmt_rat(a)}, {fmt_rat(a + abs(random_rat(rng)) + 1)})")


def random_cantor(rng: Random) -> Leaf:
    alpha = rng.choice([Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 3)])
    return Leaf("C").mapped(alpha, random_rat(rng))


def random_countable(rng: Random, max_parts=3) -> list[Leaf]:
    parts = [random_seq(rng)]
    for _ in range(rng.randint(0, max_parts - 1)):
        k = rng.random()
        if k < 0.35:
            parts.append(random_finite(rng))
        elif k < 0.5:
            parts.append(random_seq2(rng))
        else:
            parts.append(random_seq(rng))
    rng.shuffle(parts)
    return parts


def random_bounded(rng: Random, max_parts=3) -> list[Leaf]:
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
            parts.append(random_dense(rng))
        elif k < 0.87:
            parts.append(random_cantor(rng))
        else:
            parts.append(random_seq2(rng))
    if rng.random() < 0.25:
        alpha = rng.choice([Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(-3, 2)])
        beta = random_rat(rng)
        parts = [p.mapped(alpha, beta) for p in parts]
    return parts


# ---------------------------------------------------------------------------
# corpus


@dataclass(frozen=True)
class Case:
    """One generated set, its affine image and a split point, as text."""

    text: str
    image: str
    alpha: Fraction
    beta: Fraction
    split_y: Fraction
    finite_points: tuple[Fraction, ...] | None  # the point set, when finite


def random_case(rng: Random) -> Case:
    k = rng.random()
    if k < 0.2:
        leaves = [random_finite(rng)]
    elif k < 0.6:
        leaves = random_countable(rng)
    else:
        leaves = random_bounded(rng)
    alpha = Fraction(rng.choice([2, -1, 3, -2, 1]), rng.choice([1, 2]))
    beta = random_rat(rng)
    finite = None
    if all(leaf.points is not None for leaf in leaves):
        finite = tuple(sorted({p for leaf in leaves for p in leaf.image_points()}))
    return Case(
        text=render_leaves(leaves),
        image=render_leaves([leaf.mapped(alpha, beta) for leaf in leaves]),
        alpha=alpha,
        beta=beta,
        split_y=random_rat(rng),
        finite_points=finite,
    )


def generate_pool(seed: int, size: int) -> list[Case]:
    rng = Random(seed)
    return [random_case(rng) for _ in range(size)]


def sample_indices(seed: int, pool_size: int, count: int) -> list[int]:
    """The pool cases one run evaluates, chosen by the workload seed."""
    return sorted(Random(f"exact-sample-{seed}").sample(range(pool_size), count))
