"""The leaf walk: `leaves()` reads a set's flat tuple of the six leaf
kinds, a Cantor leaf carries its own map, and a node of any other kind is
refused with TypeError by every reader and by `Union`."""

from dataclasses import dataclass
from fractions import Fraction as F
from random import Random

import pytest

from setmeans import (
    Cantor,
    Dense,
    Finite,
    Ideal,
    IntervalSet,
    SemanticError,
    Seq,
    Seq2,
    SetExpr,
    SetMeansError,
    Union,
    acc_chain,
    acc_structure,
    avg_set,
    axs_condition_holds,
    bounds,
    closure,
    contains_point,
    default_base,
    derived_set,
    eds_cells,
    enumerate_divergent,
    enumerate_points,
    enumerate_with_mean,
    has_uncountable_leaf,
    hausdorff_distance,
    ideal_limits,
    is_countably_infinite,
    is_infinite,
    isolated_outside,
    lavg,
    map_affine,
    mean_acc,
    mean_eds,
    mean_ideal,
    mean_ideal_chain,
    mean_iso,
    mean_lis,
    ms_a,
    ms_as,
    ms_axs,
    ms_ces,
    ms_hf,
    neighborhood,
    normalize_affine,
    parse,
    render,
    split_at,
    split_three,
    union,
)
from setmeans.setexpr import leaves
from setmeans.topology import is_empty_expr

from gen import random_bounded, random_countable

LEAF_KINDS = (Finite, Seq, Seq2, IntervalSet, Dense, Cantor)


def _expressions(rng: Random, count: int):
    for i in range(count):
        s = random_bounded(rng) if i % 3 else random_countable(rng, allow_dense=True)
        if i % 5 == 0:  # nested unions and maps over them
            s = map_affine(Union((s, random_bounded(rng))), F(-2), F(1, 3))
        yield s


def _cantor_map(leaf):
    """(alpha, beta) of a Cantor leaf alpha * C + beta, else None."""
    return (leaf.alpha, leaf.beta) if isinstance(leaf, Cantor) else None


def _check_leaf(leaf):
    assert type(leaf) in LEAF_KINDS, leaf
    assert not isinstance(leaf, Union), leaf
    if isinstance(leaf, Cantor):
        assert type(leaf.alpha) is F and type(leaf.beta) is F
        assert leaf.alpha != 0


def test_leaves_property():
    rng = Random(2024)
    for s in _expressions(rng, 400):
        ls = leaves(s)
        assert isinstance(ls, tuple) and ls
        for leaf in ls:
            _check_leaf(leaf)
        assert union(*ls) == s


def test_leaves_examples():
    assert leaves(parse("C")) == (Cantor(),)
    assert _cantor_map(leaves(parse("3*C + 1 U {1/n}"))[0]) == (F(3), F(1))
    nested = map_affine(Union((Cantor(), Union((Cantor(), parse("{0}"))))), F(2), F(0))
    assert [_cantor_map(l) for l in leaves(nested)] == [(2, 0), (2, 0), None]


def test_cantor_map_identity_and_mapped():
    assert _cantor_map(Cantor()) == (F(1), F(0))
    (mapped,) = leaves(map_affine(Cantor(), F(-1, 3), F(2)))
    assert _cantor_map(mapped) == (F(-1, 3), F(2))
    assert _cantor_map(parse("{1/n}")) is None
    assert _cantor_map(parse("[0, 1]")) is None


def test_cantor_leaf_carries_its_map():
    assert Cantor() == Cantor(1, 0)
    with pytest.raises(SemanticError):
        Cantor(0, 1)
    assert map_affine(Cantor(3, 1), F(1, 3), F(-1, 3)) == Cantor()
    s = parse("-1/3*C + 2")
    assert s == Cantor(F(-1, 3), F(2))
    assert parse(render(s)) == s


README_EXAMPLES = [
    "{1/n} U {2 + 1/2^n}",
    "[0,1] U Q(1,2)",
    "3*C + 1",
    "{1/n} U {1 + 1/n + 1/k}",
    "{1/2^n} U {2 + 1/2^n} U {2 + 1/2^n + 1/2^(2^n)}",
    "{0,1} U {1/n} U {1 + 1/2^n}",
    "{1/n} U {1 - 1/n} U {5 + 1/n}",
    "{1/n} U {1 + 1/n}",
    "C",
]


def test_parse_returns_canonical_trees():
    for text in README_EXAMPLES:
        t = parse(text)
        assert normalize_affine(t) is t, text


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SetMeansError as exc:
        return type(exc)


def test_structural_functions_read_the_canonical_leaves():
    structural = (
        bounds,
        is_infinite,
        has_uncountable_leaf,
        is_empty_expr,
        derived_set,
        closure,
        render,
    )
    rng = Random(515)
    for _ in range(400):
        s = random_bounded(rng)  # a quarter are an affine image of the union
        ls = leaves(s)
        c = ls[-1]  # the same leaves, built as right-nested unions
        for leaf in reversed(ls[:-1]):
            c = Union((leaf, c))
        assert c == s
        for fn in structural:
            assert fn(s) == fn(c), (fn.__name__, s)
        lo, hi, _, _ = bounds(c)
        y = (lo + hi) / 2
        assert _outcome(split_at, s, y) == _outcome(split_at, c, y), s
        if not has_uncountable_leaf(c):
            got = _outcome(enumerate_points, s, 60)
            assert got == _outcome(enumerate_points, c, 60), s


def test_map_affine_images():
    s = parse("{1/n} U Q(0,1) U C")
    assert map_affine(s, 2, 1) == parse("{1 + 2/n} U Q(1,3) U 2*C + 1")
    assert map_affine(map_affine(Cantor(), F(3), F(0)), F(1, 3), F(0)) == Cantor()
    with pytest.raises(SemanticError):
        map_affine(s, 0, 1)


@dataclass(frozen=True)
class Odd(SetExpr):
    """A node outside the six leaf kinds."""


READERS = {
    "bounds": bounds,
    "contains_point": lambda s: contains_point(s, F(1, 2)),
    "enumerate_points": lambda s: enumerate_points(s, 10),
    "is_infinite": is_infinite,
    "is_countably_infinite": is_countably_infinite,
    "has_uncountable_leaf": has_uncountable_leaf,
    "normalize_affine": normalize_affine,
    "map_affine": lambda s: map_affine(s, F(2), F(1)),
    "render": render,
    "is_empty_expr": is_empty_expr,
    "derived_set": derived_set,
    "closure": closure,
    "acc_chain": acc_chain,
    "acc_structure": acc_structure,
    **{f"ideal_limits:{i.value}": (lambda s, i=i: ideal_limits(s, i)) for i in Ideal},
    **{f"mean_ideal:{i.value}": (lambda s, i=i: mean_ideal(s, i)) for i in Ideal},
    "split_at": lambda s: split_at(s, F(1, 2)),
    "isolated_outside": lambda s: isolated_outside(s, F(1, 4)),
    "hausdorff_distance": lambda s: hausdorff_distance(s, parse("{0}")),
    "avg_set": avg_set,
    "ms_hf": ms_hf,
    "neighborhood": lambda s: neighborhood(s, F(1, 4)),
    "mean_lis": mean_lis,
    "mean_ideal_chain": mean_ideal_chain,
    "mean_acc": mean_acc,
    "mean_iso": mean_iso,
    "lavg": lavg,
    "mean_eds": mean_eds,
    "eds_cells": lambda s: eds_cells(s, 8, (F(-1), F(2))),
    "default_base": default_base,
    "ms_a": ms_a,
    "ms_ces": ms_ces,
    "ms_as": ms_as,
    "ms_axs": ms_axs,
    "axs_condition_holds": lambda s: axs_condition_holds(s, F(0)),
    "split_three": split_three,
    "enumerate_with_mean": lambda s: enumerate_with_mean(s, F(1, 2)),
    "enumerate_divergent": enumerate_divergent,
}


@pytest.mark.parametrize("name", sorted(READERS))
def test_an_unknown_node_gets_one_answer(name):
    """Every reader reaches its leaves through leaves(), which is the one
    place that refuses a node outside the six leaf kinds."""
    with pytest.raises(TypeError, match="unknown node"):
        READERS[name](Odd())


def test_a_union_refuses_an_unknown_node_when_built():
    for parts in ((Odd(), parse("{1/n}")), (parse("{1/n}"), Odd())):
        with pytest.raises(TypeError, match="unknown node"):
            union(*parts)
