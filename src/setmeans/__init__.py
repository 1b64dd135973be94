"""Means of infinite bounded subsets of the real line.

Bounded sets are represented symbolically (finite sets, decaying sequences,
intervals, a dense dyadic filler, the Cantor set, affine images, finite
unions) and every mean is computed exactly or along a certified dyadic
schedule: midrange and ideal-relative means, the derived-set mean, the
isolated-point mean, neighbourhood averages, evenly-distributed-sample
means, set-valued means, and constructive rearrangements realizing any
prescribed running average.
"""

from .core import (
    Interval,
    IntervalUnion,
    MeanSet,
    Rat,
    arithmetic_mean,
    avg_iu,
    interval,
    iu_contains_union,
    iu_intersect,
    iu_measure,
    iu_moment,
    iu_normalize,
    iu_scale,
    iu_shift,
    iu_union,
    mean_set,
    point,
    rat,
    singleton,
)
from .errors import (
    BudgetExceeded,
    Degenerate,
    InIdeal,
    NonTerminating,
    NotIsolatedDense,
    NoWitness,
    OutOfBase,
    OutOfRange,
    SemanticError,
    SetMeansError,
    Uncountable,
    UndefinedMean,
    Unsupported,
    ZeroMeasure,
)
from .terms import DoubleGeoTerm, GeoTerm, PowTerm, TermFun, term_fun
from .setexpr import (
    Affine,
    Cantor,
    Dense,
    Finite,
    IntervalSet,
    Seq,
    Seq2,
    SetExpr,
    Union,
    bounds,
    contains_point,
    enumerate_points,
    finite,
    is_countably_infinite,
    is_infinite,
    has_uncountable_leaf,
    map_affine,
    normalize_affine,
    render,
    seq,
    seq2,
    union,
)
from .parser import ParseError, parse
from .topology import (
    AccPoint,
    AccStructure,
    Ideal,
    acc_chain,
    acc_structure,
    closure,
    derived_set,
    hausdorff_distance,
    ideal_limits,
    isolated_outside,
    split_at,
)
from .measure import avg_set, cantor_neighborhood_stats, ms_hf, neighborhood
from .means import (
    CellCover,
    MeanOutcome,
    OscillatingIsoSet,
    Schedule,
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
    run_schedule,
)
from .meansets import axs_condition_holds, ms_a, ms_as, ms_axs, ms_ces
from .cesaro import (
    MergeParams,
    ValueStream,
    enumerate_divergent,
    enumerate_with_mean,
    merge_absorb,
    merge_element,
    merge_weighted,
    split_three,
    stream_from_seq,
)

__version__ = "0.1.0"
