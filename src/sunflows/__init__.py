"""Integrable flows, brackets and reduction probes on doubles of SU(n)."""

from .brackets import (
    bracket_matrix,
    fusion_bracket,
    momentum_condition_matrix,
    momentum_condition_residual,
    poisson_bracket,
)
from .decomp import (
    AlcoveData,
    ChamberData,
    IwasawaFactors,
    alcove_diagonalize,
    borel_of_posdef,
    chamber_diagonalize,
    dress,
    iwasawa_decompose,
    posdef_of_borel,
)
from .errors import (
    AssumptionViolation,
    DegenerateBasis,
    InvalidPlan,
    InvalidRank,
    InvalidShape,
    NotPositiveDefinite,
    RegularityViolation,
    SamplingFailure,
    ShapeError,
    SingularMatrix,
    SunflowsError,
    Unsupported,
    UnsupportedBracket,
    UnsupportedWord,
)
from .liecore import (
    Pairing,
    RootDatum,
    SpecialElements,
    build_root_datum,
    dual_basis,
    pair,
    special_elements,
)
from .moduli import (
    IntervalFamily,
    WordHamiltonian,
    hamiltonian_family,
    moduli_flow,
    moduli_torus_action,
    permutation_pushforward,
    pullback_hamiltonian,
    sphere_constants_of_motion,
    sphere_family,
)
from .spaces import (
    CotangentPoint,
    FusionPoint,
    FusionSpace,
    HeisenbergPoint,
    cotangent_momentum,
    double_space,
    embed_shift,
    heisenberg_momentum,
    moduli_point,
    moduli_space,
    sphere_space,
)

from .flows import (
    cotangent_flow,
    cotangent_torus_action,
    double_flow,
    double_torus_action,
    flow,
    heisenberg_flow,
    heisenberg_torus_action,
    s_transform,
    torus_action,
)
from .observables import (
    AlcoveCoroot,
    AlcoveCoweight,
    AlgebraPower,
    BorelChamberCoroot,
    BorelPower,
    ChamberCoroot,
    PowerTrace,
    WordFunction,
    word_observable,
)
from .probes import (
    commutator_identity_residual,
    commutator_solve,
    ieq_rank_check,
    principal_test_point,
    solve_commutator_in_torus,
    stabilizer_dimension,
)
from .scenario import (
    ScenarioConfig,
    VerificationReport,
    emit_report,
    export_trajectory,
    run_scenario,
)

__version__ = "0.1.0"
