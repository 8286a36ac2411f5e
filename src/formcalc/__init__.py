"""Symbolic exterior and evolutionary skew-symmetric differential forms.

The package computes wedge products and exterior differentials, the
two-term commutator on manifolds with non-symmetric connections,
metric duality, pullbacks onto pseudostructures, balance-law relations
with degenerate transformations and homotopy antiderivatives, and the
(p, k, N) classification of the structures those relations generate.
"""

from .classify import StructureClass, classify
from .errors import (
    ClassificationError,
    ClosureError,
    ConfigError,
    DimensionError,
    EvaluationError,
    FormcalcError,
    HomotopyError,
    ImmersionError,
    MetricError,
    ParseError,
    UnsupportedExpressionError,
)
from .evolution import (
    BalanceSystem,
    EvolutionaryRelation,
    IdenticalRelation,
    IntegrationChain,
    RelationVerdict,
    attempt_degenerate_transformation,
    build_relation,
    nonidentity_check,
    poincare_antiderivative,
    relation_from_form,
    sequential_integration,
)
from .forms import ClosureStatus, Form, add, d_flat, is_closed_flat, scale, wedge
from .hodge import Metric, delta, euclidean, laplacian, minkowski, star
from .manifold import (
    CommutatorReport,
    Connection,
    Manifold,
    commutator,
    d_evolutionary,
    is_deforming,
    torsion_commutator,
)
from .pseudostructure import (
    DegeneracyReport,
    Pseudostructure,
    d_pi,
    degenerate_locus,
    jacobian_determinant,
    poisson_bracket,
    pullback,
)
from .symexpr import (
    Expr,
    ZeroStatus,
    as_expr,
    differentiate,
    eval_at,
    expr_text,
    is_zero,
    simplify_expr,
    substitute,
)

__version__ = "0.1.0"

__all__ = [
    "BalanceSystem",
    "ClassificationError",
    "ClosureError",
    "ClosureStatus",
    "CommutatorReport",
    "ConfigError",
    "Connection",
    "DegeneracyReport",
    "DimensionError",
    "EvaluationError",
    "EvolutionaryRelation",
    "Expr",
    "Form",
    "FormcalcError",
    "HomotopyError",
    "IdenticalRelation",
    "ImmersionError",
    "IntegrationChain",
    "Manifold",
    "Metric",
    "MetricError",
    "ParseError",
    "Pseudostructure",
    "RelationVerdict",
    "StructureClass",
    "UnsupportedExpressionError",
    "ZeroStatus",
    "add",
    "as_expr",
    "attempt_degenerate_transformation",
    "build_relation",
    "classify",
    "commutator",
    "d_evolutionary",
    "d_flat",
    "d_pi",
    "degenerate_locus",
    "delta",
    "differentiate",
    "euclidean",
    "eval_at",
    "expr_text",
    "is_closed_flat",
    "is_deforming",
    "is_zero",
    "jacobian_determinant",
    "laplacian",
    "minkowski",
    "nonidentity_check",
    "poincare_antiderivative",
    "poisson_bracket",
    "pullback",
    "relation_from_form",
    "scale",
    "sequential_integration",
    "simplify_expr",
    "star",
    "substitute",
    "torsion_commutator",
    "wedge",
]
