"""Equilibrium model checking for concurrent stochastic multi-player games."""

from .games import (
    Csg,
    CoalitionPartition,
    MixedProfile,
    NormalFormGame,
    RewardStructure,
    build_coalition_game,
    validate_csg,
)
from .formulas import (
    FormulaError,
    NashFormula,
    classify_horizon,
    format_formula,
    parse_formula,
    resolve_coalitions,
    sat_states,
)
from .nfg_solve import (
    NoEquilibriumError,
    Support,
    check_pure_profile,
    enumerate_supports,
    expected_utility,
    filter_dominated,
    presolve_support,
    regret,
    scne,
    solve_support,
    support_count,
    swne,
)
from .objectives import (
    CompiledObjectives,
    UnsupportedFormulaError,
    compile_objectives,
)
from .engine import (
    AssumptionViolation,
    CheckResult,
    NotConverged,
    VIConfig,
    check_nash_formula,
    check_stopping_assumption,
    evaluate_state_formula,
    solve_finite_horizon,
    solve_value_iteration,
)
from .strategies import (
    EpsilonCertificate,
    SynthesizedStrategy,
    best_response_value,
    certify_epsilon,
    evaluate_at_initial_modes,
    evaluate_profile,
    export_strategy,
    import_strategy,
)
from .modelio import ModelError, load_model, load_nfg

__version__ = "0.1.0"
