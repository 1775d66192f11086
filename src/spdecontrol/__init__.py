"""Insider stochastic control of SPDEs: conditional-density functionals,
forward solvers, maximum-principle verification, the wealth benchmark, and
nonlinear filtering reductions."""

__version__ = "0.1.0"

from .donsker import (
    FirstOrderChaosSpec,
    HistorySnapshot,
    conditional_delta,
    conditional_malliavin_b,
    conditional_malliavin_n,
    delta_from_mean,
    effective_mean,
    gaussian_phi1,
    phi1,
    phi1_from_mean,
)
from .errors import (
    BoundaryViolation,
    CoefficientShapeMismatch,
    ConfigError,
    ControlShapeMismatch,
    DegenerateCurvature,
    DegenerateVariance,
    DegenerateVolatility,
    DivisionUnstable,
    LinearSolveFailure,
    MassCollapse,
    ModelMismatch,
    NonParabolic,
    NumericalCheckFailure,
    QuadratureFailure,
    SpdeControlError,
    StepTooLarge,
    UnknownMark,
    WealthNonpositive,
    WeightDegeneracy,
)
from .forward import (
    AssembledOperator,
    CoefficientSet,
    ControlPolicy,
    OperatorSpec,
    PathHistory,
    SpatialGrid,
    StateField,
    advance_mean,
    assemble_operator,
    solve_forward,
    step_forward,
    weak_residual,
)
from .maxprinciple import (
    AdjointTriple,
    PerformanceEstimate,
    PerformanceSpec,
    PerturbationDirection,
    ReducedAdjointPath,
    estimate_j,
    gateaux_derivative,
    hamiltonian,
    perturbed_policy,
    reduced_adjoint_block,
    reduced_adjoint_solve,
    run_ensemble,
    state_sensitivity,
    verify_x_independent_stationarity,
)
from .noise import (
    LevySpec,
    PathBundle,
    TimeGrid,
    brownian_increment_matrix,
    jump_count_matrices,
    sample_bundle,
)
from .portfolio import (
    MarketSpec,
    UtilitySpec,
    benchmark_market,
    martingale_match_check,
    optimal_pi,
    optimal_policy,
    run_portfolio_experiment,
)
from .zakai import (
    GirsanovWeight,
    ObservationPath,
    SignalModel,
    UnnormalizedDensity,
    coercivity_check,
    feedback_pi,
    girsanov_weight,
    kalman_bucy_oracle,
    normalize,
    particle_filter_oracle,
    simulate_signal_observation,
    solve_zakai,
    transformed_performance,
)

