"""Monte Carlo experiment runner.

Runs independent trials of the spread/test/isolate loop, aggregates
per-step means and variances, extracts per-trial control times, and attaches
the matching expected-trajectory overlay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sir import POLICY_SAFFRON_HYBRID, PopulationState, SimConfig, init_population, spread_phase
from .policies import run_round
from .theory import TheoryCurve, TheoryParams, mean_trajectory


@dataclass
class TrajectoryStats:
    """Aggregated Monte Carlo trajectories (arrays indexed 0..horizon).

    ``control_time[i]`` is trial i's first step with no circulating
    infections, capped at the horizon; ``control_censored[i]`` flags trials
    that never got there. ``theory`` is the expected trajectory for the same
    parameters and policy.
    """

    config: SimConfig
    mean_susceptible: np.ndarray
    mean_infected: np.ndarray
    mean_isolated: np.ndarray
    var_susceptible: np.ndarray
    var_infected: np.ndarray
    var_isolated: np.ndarray
    control_time: np.ndarray
    control_censored: np.ndarray
    theory: TheoryCurve

    def stderr_infected(self) -> np.ndarray:
        """Standard error of the per-step mean infected count."""
        return np.sqrt(self.var_infected / self.config.trials)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent, reproducible stream for one trial."""
    return np.random.default_rng([seed, trial])


def run_trial(cfg: SimConfig, rng: np.random.Generator, curve: TheoryCurve) -> np.ndarray:
    """One trajectory; returns a (3, horizon+1) array of per-step counts.

    Counts are recorded after the testing phase of each step (step 0 is the
    freshly drawn population). Once no circulating infections remain nothing
    can change, so the remaining steps are filled with the frozen counts.
    """
    hybrid = cfg.policy == POLICY_SAFFRON_HYBRID
    state = init_population(cfg, rng)
    counts = np.empty((3, cfg.horizon + 1), dtype=np.int64)
    counts[:, 0] = (state.susceptible, state.infected, state.isolated)
    for t in range(1, cfg.horizon + 1):
        if state.infected == 0:
            counts[:, t:] = counts[:, t - 1:t]
            break
        spread_phase(state, cfg.q, rng)
        expected = curve.pre_test_infected[t] if hybrid else None
        run_round(state, cfg.policy, cfg.capacity, rng, expected)
        counts[:, t] = (state.susceptible, state.infected, state.isolated)
    return counts


def run_experiment(cfg: SimConfig) -> TrajectoryStats:
    """Run cfg.trials independent trials and aggregate their trajectories.

    Deterministic for a fixed config (including seed): per-trial RNG streams
    are derived from (seed, trial index), so results do not depend on
    execution order.
    """
    cfg.validate()
    curve = mean_trajectory(TheoryParams.from_config(cfg), cfg.policy, cfg.horizon)
    steps = cfg.horizon + 1
    total = np.zeros((3, steps))
    total_sq = np.zeros((3, steps))
    control_time = np.empty(cfg.trials, dtype=np.int64)
    censored = np.zeros(cfg.trials, dtype=bool)
    for trial in range(cfg.trials):
        counts = run_trial(cfg, trial_rng(cfg.seed, trial), curve)
        total += counts
        total_sq += counts.astype(np.float64) ** 2
        extinct = counts[1] == 0
        if extinct.any():
            control_time[trial] = int(np.argmax(extinct))
        else:
            control_time[trial] = cfg.horizon
            censored[trial] = True
    means = total / cfg.trials
    if cfg.trials > 1:
        variances = np.maximum(total_sq - cfg.trials * means ** 2, 0.0) / (cfg.trials - 1)
    else:
        variances = np.zeros_like(means)
    return TrajectoryStats(
        config=cfg,
        mean_susceptible=means[0], mean_infected=means[1], mean_isolated=means[2],
        var_susceptible=variances[0], var_infected=variances[1], var_isolated=variances[2],
        control_time=control_time, control_censored=censored, theory=curve,
    )


def empirical_epsilon_time(stats: TrajectoryStats, epsilon: float) -> int | None:
    """Smallest step with mean infected count <= epsilon, or None if never reached."""
    hits = np.flatnonzero(stats.mean_infected <= epsilon)
    return int(hits[0]) if hits.size else None
