"""Order-dependent Douglas-Rachford splitting over a catalog of monotone
operators on R^d, with mechanical verification of the exchange identities
between the two operand orders."""

from .operators import (
    AffineRelation,
    BlockSeparable,
    DimensionMismatchError,
    GraphPair,
    Inverse,
    LinearMonotone,
    MonotonicityError,
    NormalConeAffineSubspace,
    NormalConeBall,
    NormalConeBox,
    NormalConeHalfspace,
    NormalConeRay,
    NonFinitePointError,
    NotAffineError,
    Operator,
    Rotation,
    SphereSelection,
    graph_contains,
    is_monotone,
    operator_from_dict,
)
from .splitting import (
    DivergenceError,
    LiftedProblem,
    Orbit,
    SplitOperator,
    dr_matrix,
    dr_step,
    iterate,
    lift,
)
from .analysis import (
    CertificateError,
    FixedPointBudgetError,
    IdentityReport,
    SolutionPair,
    check_commutation,
    check_commutator,
    check_conjugation,
    check_defect_decomposition,
    check_dual_symmetry,
    check_firmly_nonexpansive,
    check_nonexpansive_transfer,
    check_shadow_equality,
    extract_solution,
    find_fixed_point,
    map_fixed_point,
    probe_conjugation,
)
from .config import ConfigError, ProblemConfig, Tolerances
from .harness import (
    NamedInstance,
    figure_scenarios,
    load_corpus,
    run_instance,
)

__version__ = "0.1.0"
