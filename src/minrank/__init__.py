"""Matroid intersection when ranks are visible only through their minimum.

The library solves maximum-cardinality matroid intersection with access to
nothing but the pointwise minimum of the two rank functions, plus the
weighted variants that stay tractable in that model (a circuit-inclusion
promise regime, a bounded-circuit-size regime, lexicographic maxima, and a
positive-weight approximation). It also builds the linear-matroid gadgets
that make the general weighted problem as hard as graph 4-coloring, and it
ships exhaustive brute-force cross-checks for everything.
"""

from types import ModuleType as _ModuleType

from .bitset import (
    bit,
    elements_of,
    format_set,
    full_mask,
    iter_bits,
    mask_of,
    parse_set,
    popcount,
)
from .consistency import almost_consistent_graph
from .core import (
    ExplicitMatroid,
    GraphicMatroid,
    LinearMatroid,
    Matroid,
    PartitionMatroid,
    UniformMatroid,
    ValidationReport,
    validate,
)
from .errors import ContractViolationError, NegativeCycleError
from .exchange import (
    ExchangeGraph,
    ExtensionSurvey,
    StarPair,
    build_modified_graph,
    build_true_graph,
    intersect_modified,
    survey_extensions,
)
from .gadgets import (
    ColoredGraph,
    GadgetInstance,
    build_gadget,
    colorings_from_consistent_graphs,
    proper_four_colorings,
    verify_gadget,
)
from .instances import (
    GENERATOR_KINDS,
    Instance,
    InstanceError,
    crossed_partition_instance,
    dumps,
    load,
    loads,
    random_fpt_instance,
    random_instance,
    random_lexmax_instance,
    random_promise_instance,
    save,
)
from .oracle import MinRankOracle, RestrictedOracle
from .solvers import (
    ApproxResult,
    AugmentStep,
    CardinalityRun,
    Level,
    LexmaxRun,
    WeightedRun,
    approx_max_weight,
    lexicographic_max,
    max_cardinality,
    weighted_fpt_circuit,
    weighted_no_circuit_inclusion,
)
from .verify import (
    BruteReport,
    audit_graphs,
    brute_dual,
    brute_lexmax,
    brute_max_common,
    brute_w_maximal,
    check_promise_no_circuit_inclusion,
    circuits,
    common_independent_sets,
    largest_circuit_size,
)

__version__ = "0.1.0"

# The user-facing names only; internals are imported from their own module.
# Importing them also binds each submodule here.
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
