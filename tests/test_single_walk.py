"""A sequence leaf is read at a scale in one place, `terms.tf_chain`, every
leaf of the scale means in one place, `measure.read_at_scale`, and package
imports sit at the top of each module.

The first guard fails when any other function of `src/setmeans` calls
`tf_resolution_index`: such a function re-derives the split of a tail into
resolved points and a chained hull, which it should take from `tf_chain`.
The next three fail when a scale mean reads a tail or walks cantor pieces
outside `read_at_scale`, or when `neighborhood` or `eds_cells` dispatches
on leaf kind; the float `lavg` sweep reads its leaves through
`read_at_scale` too.  One more fails when an accumulation family is walked
anywhere but in `topology._fam_extreme_below`: the infimum above x is the
supremum below -x of the reflected family, so no mirrored walk is needed.

Two more keep one interval union: `neighborhood` hands its runs and bases
to `core.iu_union_shifted`, which builds a shifted end only where it
decides something, so it calls no `shift`; and `iu_normalize` only hands
its parts to the same helper, whose `_sweep` is the one merge.

Three more keep one rule per topology question.  Only
`topology.ideal_limits` compares a value with an `Ideal` member: the ideal
chain climbs through it instead of keeping its own test of each ideal.  The
Cantor orbit `_cantor_max_le` answers membership in `contains_point` and
the nearest points of a closure in `topology._nearest`, which is the one
distance rule of `hausdorff_distance`; the per-pair helpers it replaced
stay gone.

Three more keep one exact comparison of scaled powers in `terms`: the
float `_log2_rat` serves only the float value `_term_value_float`, the
integer log bracket serves only the comparison `_cmp_scaled_pows`, and no
function raises `ArithmeticError`, so an undecided comparison is a
`BudgetExceeded` that the CLI answers in JSON.

The last fails when a function body imports from the package: `terms`
imports only `core` and `errors`, so no such import breaks a cycle.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "setmeans"


def _functions():
    """(module, function node) for every function of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path.stem, fn


def _calls(fn, name: str) -> bool:
    return any(
        isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id == name)
            or (isinstance(node.func, ast.Attribute) and node.func.attr == name)
        )
        for node in ast.walk(fn)
    )


def _imports_package(fn) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").startswith("setmeans")
        ):
            return True
        if isinstance(node, ast.Import) and any(
            a.name.startswith("setmeans") for a in node.names
        ):
            return True
    return False


def _callers(name: str):
    return sorted({(mod, fn.name) for mod, fn in _functions() if _calls(fn, name)})


def test_one_resolution_walk():
    assert _callers("tf_resolution_index") == [("terms", "tf_chain")]


def test_one_tail_reading():
    assert _callers("tf_chain") == [("measure", "read_at_scale")]
    assert _calls(_function("means", "_lavg_eval_float"), "read_at_scale")


def test_one_family_walk():
    assert _callers("_fam_extreme_below") == [
        ("topology", "acc_inf_above"),
        ("topology", "acc_sup_below"),
    ]
    assert not [fn.name for _, fn in _functions() if fn.name == "_fam_extreme_above"]


def test_one_cantor_pieces_walk():
    assert _callers("_cantor_pieces") == [("measure", "read_at_scale")]


def test_scale_means_do_not_dispatch_on_leaf_kind():
    found = sorted(
        (mod, fn.name)
        for mod, fn in _functions()
        if fn.name in ("neighborhood", "eds_cells") and _calls(fn, "isinstance")
    )
    assert found == [], found


def test_one_isolated_zone():
    zone = [(mod, name) for mod, name in _callers("neighborhood") if mod == "topology"]
    assert len(zone) == 1, zone
    users = [name for mod, name in _callers(zone[0][1]) if mod == "topology"]
    assert users == ["isolated_outside", "isolated_stats"], users


def _function(module: str, name: str):
    (fn,) = [fn for mod, fn in _functions() if mod == module and fn.name == name]
    return fn


def test_neighborhood_shifts_no_part():
    assert not _calls(_function("measure", "neighborhood"), "shift")


def test_one_union_sweep():
    assert _callers("iu_union_shifted") == [("core", "iu_normalize"), ("measure", "neighborhood")]
    assert _callers("_sweep") == [("core", "iu_union_shifted")]
    loops = (ast.For, ast.While, ast.comprehension)
    normalize = _function("core", "iu_normalize")
    assert not any(isinstance(node, loops) for node in ast.walk(normalize))


def _ideal_member(node) -> bool:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_ideal_member(elt) for elt in node.elts)
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "Ideal"
    )


def _compares_with_ideal(fn) -> bool:
    ops = (ast.Is, ast.IsNot, ast.Eq, ast.NotEq, ast.In, ast.NotIn)
    return any(
        isinstance(node, ast.Compare)
        and any(isinstance(op, ops) for op in node.ops)
        and any(_ideal_member(x) for x in [node.left, *node.comparators])
        for node in ast.walk(fn)
    )


def test_one_rule_per_ideal():
    found = sorted({(mod, fn.name) for mod, fn in _functions() if _compares_with_ideal(fn)})
    assert found == [("topology", "ideal_limits")], found


def test_one_nearest_point_rule():
    assert _callers("_cantor_max_le") == [
        ("setexpr", "contains_point"),
        ("topology", "_nearest"),
    ]
    gone = {"_in_ideal", "_closure_profile", "_dist_point_cantor"}
    assert not [fn.name for _, fn in _functions() if fn.name in gone]


def test_one_scaled_power_comparison():
    assert _callers("_log2_rat") == [("terms", "_term_value_float")]
    assert _callers("_log2_bracket") == [("terms", "_cmp_scaled_pows")]


def _raises(fn, name: str) -> bool:
    return any(
        isinstance(node, ast.Raise)
        and any(isinstance(n, ast.Name) and n.id == name for n in ast.walk(node))
        for node in ast.walk(fn)
    )


def test_no_arithmetic_error_raised():
    found = sorted({(mod, fn.name) for mod, fn in _functions() if _raises(fn, "ArithmeticError")})
    assert found == [], found


def test_no_function_local_package_imports():
    found = sorted({(mod, fn.name) for mod, fn in _functions() if _imports_package(fn)})
    assert found == [], found
