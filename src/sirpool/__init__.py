"""Discrete-time SIR simulation with capacity-limited individual and pooled testing."""

from .sir import (
    POLICIES,
    POLICY_INDIVIDUAL,
    POLICY_SAFFRON_HYBRID,
    ConfigError,
    PopulationState,
    SimConfig,
    Status,
    init_population,
    isolate,
    spread_phase,
)
from .codec import (
    GroupDecode,
    RoundOutcome,
    TestMatrix,
    Verdict,
    assemble_matrix,
    build_saffron_submatrix,
    code_width,
    decode_round,
    evaluate_tests,
)
from .policies import PolicyContext, plan_individual, plan_saffron_hybrid, run_round
from .theory import (
    TheoryCurve,
    TheoryParams,
    epsilon_control_time,
    expected_alpha,
    expected_lambda_individual,
    mean_trajectory,
    saffron_expected_detections,
    saffron_group_size,
)
from .harness import TrajectoryStats, empirical_epsilon_time, run_experiment, run_trial, trial_rng

__version__ = "0.1.0"

__all__ = [
    "POLICIES",
    "POLICY_INDIVIDUAL",
    "POLICY_SAFFRON_HYBRID",
    "ConfigError",
    "GroupDecode",
    "PolicyContext",
    "PopulationState",
    "RoundOutcome",
    "SimConfig",
    "Status",
    "TestMatrix",
    "TheoryCurve",
    "TheoryParams",
    "TrajectoryStats",
    "Verdict",
    "assemble_matrix",
    "build_saffron_submatrix",
    "code_width",
    "decode_round",
    "empirical_epsilon_time",
    "epsilon_control_time",
    "evaluate_tests",
    "expected_alpha",
    "expected_lambda_individual",
    "init_population",
    "isolate",
    "mean_trajectory",
    "plan_individual",
    "plan_saffron_hybrid",
    "run_experiment",
    "run_round",
    "run_trial",
    "saffron_expected_detections",
    "saffron_group_size",
    "spread_phase",
    "trial_rng",
    "__version__",
]
