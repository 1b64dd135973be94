"""Set-valued means of countable sets.

The rearrangement mean-set and the plain approximating-sequence mean-set are
the closed interval between the lower and upper limits.  The symmetric
variants are assembled exactly from the accumulation structure: between
consecutive accumulation values the four one-sided limits are constant, so
each gap contributes one rational subinterval, and the infinite gap families
near an accumulation limit are closed out by an envelope certificate once
every remaining gap and breakpoint is provably inside the solution.
"""

from __future__ import annotations

from fractions import Fraction

from .core import EMPTY_UNION, Interval, MeanSet, Rat, mean_set, singleton
from .errors import Unsupported
from .setexpr import SetExpr, is_countably_infinite
from .terms import GeoTerm, PowTerm, first_index, tf_abs_below_index
from .topology import (
    AccStructure,
    Ideal,
    acc_inf_above,
    acc_membership,
    acc_structure,
    acc_sup_below,
    ideal_limits,
)


def _require_countable(s: SetExpr):
    if not is_countably_infinite(s):
        raise Unsupported("mean-sets are defined for countably infinite sets")


def ms_a(s: SetExpr) -> MeanSet:
    """All limits of averages of approximating finite sets: the closed
    interval between the lower and upper limits."""
    _require_countable(s)
    lo, hi = ideal_limits(s, Ideal.FINITE_SETS)
    return MeanSet((Interval(lo, hi),))


# All attainable rearranged running-average limits: the same closed interval,
# every interior value being realizable by a rearrangement.
ms_ces = ms_a


# ---------------------------------------------------------------------------
# symmetric approximating sequences


def ms_as(s: SetExpr) -> MeanSet:
    """Mean-set over symmetric approximating sequences."""
    _require_countable(s)
    st = acc_structure(s)
    if st.count_if_finite() == 1:
        a = st.anchors[0]
        if a.left_sided and a.right_sided:
            return singleton(a.value)
        return EMPTY_UNION
    a1, a4 = st.min_value(), st.max_value()
    a2, a3 = acc_inf_above(st, a1), acc_sup_below(st, a4)
    return MeanSet((Interval((a1 + a2) / 2, (a3 + a4) / 2),))


def ms_axs(s: SetExpr) -> MeanSet:
    """Mean-set over sequences symmetric about their own limit point."""
    _require_countable(s)
    st = acc_structure(s)
    n_acc = st.count_if_finite()
    if n_acc == 1:
        a = st.anchors[0]
        if a.left_sided and a.right_sided:
            return singleton(a.value)
        return EMPTY_UNION
    if n_acc == 2:
        return singleton((st.anchors[0].value + st.anchors[1].value) / 2)
    parts: list[Interval] = []
    mbar, top = st.min_value(), st.max_value()
    walk = _walk_items(st)
    for idx, (x, hi, fam) in enumerate(walk):
        if fam is not None:
            parts.extend(_family_parts(st, fam, mbar, top))
        elif axs_condition_holds_structure(st, x):
            parts.append(Interval(x, x))
        if idx + 1 < len(walk):
            piece = _piece_solution(hi, walk[idx + 1][0], mbar, top)
            if piece is not None:
                parts.append(piece)
    return mean_set(parts)


def _walk_items(st: AccStructure):
    """(lo, hi, family) for each family's span and (x, x, None) for each
    anchor x, ascending by lo; at a tie the anchor precedes the family
    anchored at it."""
    items = [(a.value, a.value, None) for a in st.anchors]
    items += [(*fam.span(), fam) for fam in st.families]
    return sorted(items, key=lambda it: (it[0], it[2] is not None))


def _piece_solution(u: Rat, v: Rat, mbar: Rat, top: Rat) -> Interval | None:
    """Solution inside the open gap (u, v) between adjacent accumulation
    values: the four one-sided limits are the constants (mbar, u, v, top),
    so the condition reads mbar + v <= 2x <= u + top."""
    if u >= v:
        return None
    lo_c = (mbar + v) / 2
    hi_c = (u + top) / 2
    if lo_c > u:
        lo, lo_open = lo_c, False
    else:
        lo, lo_open = u, True
    if hi_c < v:
        hi, hi_open = hi_c, False
    else:
        hi, hi_open = v, True
    if lo > hi or (lo == hi and (lo_open or hi_open)):
        return None
    return Interval(lo, hi, lo_open, hi_open)


def _inf_below(st: AccStructure, x: Rat) -> Rat | None:
    """Minimum of accumulation values strictly below x (attained: the
    accumulation set is closed)."""
    if not st.anchors:  # families have anchored limits, so H' is empty
        return None
    lo = st.min_value()
    return lo if lo < x else None


def _sup_above(st: AccStructure, x: Rat) -> Rat | None:
    if not st.anchors:
        return None
    hi = st.max_value()
    return hi if hi > x else None


def axs_condition_holds_structure(st: AccStructure, x: Rat) -> bool:
    """Exact membership test for one point via the one-sided limit
    inequality (both sides must carry infinitely many set elements)."""
    _, left, right = acc_membership(st, x)
    inf_b = _inf_below(st, x)
    sup_b = acc_sup_below(st, x)
    inf_a = acc_inf_above(st, x)
    sup_a = _sup_above(st, x)
    lim_inf_minus = inf_b if not left else (x if inf_b is None else min(inf_b, x))
    lim_sup_minus = sup_b if not left else (x if sup_b is None else max(sup_b, x))
    lim_inf_plus = inf_a if not right else (x if inf_a is None else min(inf_a, x))
    lim_sup_plus = sup_a if not right else (x if sup_a is None else max(sup_a, x))
    if lim_inf_minus is None or lim_inf_plus is None:
        return False
    return lim_inf_minus + lim_inf_plus <= 2 * x <= lim_sup_minus + lim_sup_plus


def axs_condition_holds(s: SetExpr, x: Rat) -> bool:
    """Membership oracle: direct evaluation of the defining inequality."""
    return axs_condition_holds_structure(acc_structure(s), x)


def _rate_halving_index(fam) -> int:
    """Index from which |f(n)| <= 2 |f(n+1)| holds forever."""
    terms = fam.tf.terms
    if len(terms) == 1 and isinstance(terms[0], PowTerm):
        p = terms[0].p
        n = first_index(lambda n: Fraction(n + 1, n) ** p <= 2, fam.start, 1 << 20)
        if n is None:
            raise Unsupported("halving-rate certificate not found")
        return n
    if len(terms) == 1 and isinstance(terms[0], GeoTerm):
        if terms[0].r >= Fraction(1, 2):
            return fam.start
        raise Unsupported(
            "family decays faster than halving; the mean-set is not a finite union"
        )
    raise Unsupported("halving-rate certificate for mixed terms is out of scope")


def _family_cert_index(fam, mbar: Rat, top: Rat) -> int:
    lam = fam.limit
    margin_lo = lam - mbar
    margin_hi = top - lam
    idx = fam.start
    margins = [m for m in (margin_lo, margin_hi) if m > 0]
    if margin_lo == 0 or margin_hi == 0:
        idx = max(idx, _rate_halving_index(fam) + 1)
    if margins:
        margin = min(margins)
        idx = max(idx, tf_abs_below_index(fam.tf, margin / 3) + 1)
    return idx


def _family_parts(st: AccStructure, fam, mbar: Rat, top: Rat) -> list[Interval]:
    """Solution inside a family's span: explicit gaps up to the certificate
    index, then one closing block covering the certified tail."""
    parts: list[Interval] = []
    cert = _family_cert_index(fam, mbar, top)
    if cert - fam.start > 50_000:
        raise Unsupported("family certificate walk too long")
    for n in range(fam.start, cert + 1):
        q_n = fam.value(n)
        piece = _piece_solution(*sorted((q_n, fam.value(n + 1))), mbar, top)
        if piece is not None:
            parts.append(piece)
        if axs_condition_holds_structure(st, q_n):
            parts.append(Interval(q_n, q_n))
    lo, hi = sorted((fam.limit, fam.value(cert + 1)))
    parts.append(Interval(lo, hi, lo == fam.limit, hi == fam.limit))
    return parts
