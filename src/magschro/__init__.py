"""Discrete magnetic Schrodinger operators on weighted graphs.

The package models connected weighted graphs carrying a vertex weight, an
edge weight, a unit-modulus edge phase, a real potential and a minorant
bounding it from below.  On top of that it provides the phase-deformed
differential calculus (differential, codifferential, Laplacian, Schrodinger
expression) with numeric verification of its defining identities, the
minorant-weighted path metric with balls, completeness diagnostics and
cut-off bumps, checkers for the sufficient self-adjointness conditions,
energy bounds with the tapered symmetry defect, and Hermitian truncations
with extreme-eigenvalue trends.  See the CLI (``magschro --help``) for the
command-line surface.
"""

from .errors import (
    BudgetExhaustedError,
    EigensolveError,
    ExprEvalError,
    ExprSyntaxError,
    GraphStructureError,
    InputError,
    MagschroError,
    MinorantViolationError,
    SchemaError,
    UnknownVertexError,
)
from .graphs import (
    EdgeData,
    ExplicitGraph,
    OrientedEdge,
    ValidationReport,
    VertexData,
    WeightedGraph,
    normalize_edge,
    validate,
)
from .families import FamilySpec, PathRayGraph, make_family, quadratic_well_ray
from .functions import (
    EdgeFunction,
    VertexFunction,
    edge_average,
    inner_a,
    inner_w,
    norm_a,
    norm_w,
    phased_edge_average,
)
from .operators import (
    adjointness_residual,
    codifferential,
    composition_residual,
    differential,
    laplacian,
    leibniz_residual,
    product_rule_residual,
    rayleigh_quotient,
    schrodinger_apply,
    symmetry_residual,
)
from .metric import (
    UNIT_Q,
    WITH_Q,
    AnchorFunction,
    CompletenessReport,
    CutoffFunction,
    MetricBall,
    ball,
    completeness_probe,
    cutoff_property_check,
    default_budget,
    distance,
    edge_length,
    shortest_paths,
)
from .criteria import (
    CriteriaReport,
    lipschitz_best_constant,
    minorant_check,
    positive_part,
    selfadjointness_criteria,
    semibounded_probe,
)
from .estimates import (
    EnergyBreakdown,
    energy_bound_check,
    gradient_energy_inequality,
    minorant_weighted_energy,
    tapered_defect_bound,
    tapered_symmetry_defect,
    weighted_gradient_energy,
)
from .spectral import (
    EigenExtremes,
    TruncatedOperator,
    assemble_truncation,
    eigen_extremes,
    spectral_trend,
)
from .exprlang import eval_expr, parse_expr
from .graphio import GraphFile, load_graph, parse_graph, serialize_graph

__version__ = "0.1.0"
