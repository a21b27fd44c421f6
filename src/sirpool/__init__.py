"""Discrete-time SIR simulation with capacity-limited individual and pooled testing."""

from .sir import POLICIES, ConfigError, SimConfig
from .harness import TrajectoryStats, empirical_epsilon_time, run_experiment

__version__ = "0.1.0"

__all__ = [
    "POLICIES",
    "ConfigError",
    "SimConfig",
    "TrajectoryStats",
    "empirical_epsilon_time",
    "run_experiment",
    "__version__",
]
