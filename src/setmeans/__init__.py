"""Means of infinite bounded subsets of the real line.

Bounded sets are represented symbolically (finite sets, decaying sequences,
intervals, a dense dyadic filler, the Cantor set, affine images, finite
unions) and every mean is computed exactly or along a certified dyadic
schedule: midrange and ideal-relative means, the derived-set mean, the
isolated-point mean, neighbourhood averages, evenly-distributed-sample
means, set-valued means, and constructive rearrangements realizing any
prescribed running average.

The public names below load their submodule on first use (PEP 562), so
`import setmeans` imports no submodule and a command pays only for the
modules it runs.
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_LAZY = {
    **dict.fromkeys(
        (
            "Interval", "IntervalUnion", "MeanSet", "Rat", "arithmetic_mean", "avg_iu",
            "interval", "iu_contains_union", "iu_intersect", "iu_measure", "iu_moment",
            "iu_normalize", "iu_scale", "iu_shift", "iu_union", "mean_set", "point", "rat",
            "singleton",
        ),
        "core",
    ),
    **dict.fromkeys(
        (
            "BudgetExceeded", "Degenerate", "InIdeal", "NonTerminating", "NotIsolatedDense",
            "NoWitness", "OutOfBase", "OutOfRange", "SemanticError", "SetMeansError",
            "Uncountable", "UndefinedMean", "Unsupported", "ZeroMeasure",
        ),
        "errors",
    ),
    **dict.fromkeys(("DoubleGeoTerm", "GeoTerm", "PowTerm", "TermFun", "term_fun"), "terms"),
    **dict.fromkeys(
        (
            "Affine", "Cantor", "Dense", "Finite", "IntervalSet", "Seq", "Seq2", "SetExpr",
            "Union", "bounds", "contains_point", "enumerate_points", "finite",
            "is_countably_infinite", "is_infinite", "has_uncountable_leaf", "map_affine",
            "normalize_affine", "render", "seq", "seq2", "union",
        ),
        "setexpr",
    ),
    **dict.fromkeys(("ParseError", "parse"), "parser"),
    **dict.fromkeys(
        (
            "AccPoint", "AccStructure", "Ideal", "acc_chain", "acc_structure", "closure",
            "derived_set", "hausdorff_distance", "ideal_limits", "isolated_outside", "split_at",
        ),
        "topology",
    ),
    **dict.fromkeys(("avg_set", "cantor_neighborhood_stats", "ms_hf", "neighborhood"), "measure"),
    **dict.fromkeys(
        (
            "CellCover", "MeanOutcome", "OscillatingIsoSet", "Schedule", "default_base",
            "delta_schedule", "eds_cells", "grid_schedule", "lavg", "mean_acc", "mean_eds",
            "mean_ideal", "mean_ideal_chain", "mean_iso", "mean_iso_oscillating", "mean_lis",
            "run_schedule",
        ),
        "means",
    ),
    **dict.fromkeys(("axs_condition_holds", "ms_a", "ms_as", "ms_axs", "ms_ces"), "meansets"),
    **dict.fromkeys(
        (
            "MergeParams", "ValueStream", "enumerate_divergent", "enumerate_with_mean",
            "merge_absorb", "merge_element", "merge_weighted", "split_three", "stream_from_seq",
        ),
        "cesaro",
    ),
}

__all__ = [*_LAZY]


def _load(module: str):
    # the import statement's own machinery, unlike importlib.import_module,
    # shows a module loaded here in `python -X importtime`
    return __import__(f"{__name__}.{module}", fromlist=["_"])


def __getattr__(name: str):
    """Load a public name, or a submodule such as `setmeans.terms`."""
    if name in _LAZY:
        value = getattr(_load(_LAZY[name]), name)
    elif name in _LAZY.values():
        value = _load(name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
