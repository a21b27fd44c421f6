"""Monte Carlo experiment runner.

``run_experiment`` runs a count-level engine. Individuals are exchangeable
within each compartment and neither planner tells them apart beyond
"isolated or not", so the (susceptible, infected, isolated) counts form a
Markov chain of their own (lumpability; Kemeny & Snell, *Finite Markov
Chains*, 1960). Each step draws that chain exactly from a few binomial and
hypergeometric draws, vectorized over trials. Under individual testing a
step's cost does not grow with the population size. A pooled step also
splits each trial's g groups by hypergeometric halving, O(g) draws with
g ~ capacity / (2 ceil(log2 eta)), so at a fixed capacity/n the hybrid's
cost grows with n: about 2,000, 62 and 7 trials/s at n = 10^3, 10^5 and
10^6 (1000 trials, capacity/n = 0.03, n*q = 0.01, 2-CPU VM). It aggregates
per-step means and variances, extracts per-trial control times, and
attaches the matching expected-trajectory overlay.

``run_trial`` is the per-individual engine: it moves a status array
through ``spread_phase`` and ``run_round``, so it runs the real codec. It is
the reference the count engine is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sir import POLICY_SAFFRON_HYBRID, SimConfig, init_population, spread_phase
from .policies import run_round, saffron_layout
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


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent, reproducible stream for one ``run_trial`` trial."""
    return np.random.default_rng([seed, trial])


def run_trial(cfg: SimConfig, rng: np.random.Generator, curve: TheoryCurve) -> np.ndarray:
    """One per-individual trajectory; returns a (3, horizon+1) array of per-step counts.

    This is the reference engine the count-level ``run_experiment`` is
    tested against; the experiment runner does not call it. Counts are
    recorded after the testing phase of each step (step 0 is the freshly
    drawn population). Once no circulating infections remain nothing can
    change, so the remaining steps are filled with the frozen counts.
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


def _lone_groups(infected: np.ndarray, groups: np.ndarray, eta: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
    """Per trial, the groups holding exactly one of ``infected`` members.

    Trial j's infected members sit uniformly at random among its
    groups[j] * eta[j] group slots. The count is split by recursive halving:
    a node holding c infected over h groups sends Hypergeom(c, h*eta - c,
    floor(h/2)*eta) of them to its left half. A node with c = 1 is one lone
    group; nodes with c = 0, or with c >= 2 in a single group, find nothing.
    """
    lone = np.zeros(infected.size, dtype=np.int64)
    owner = np.arange(infected.size)
    count, width = infected, groups
    while True:
        lone += np.bincount(owner[count == 1], minlength=lone.size)
        split = (count >= 2) & (width >= 2)
        if not split.any():
            return lone
        owner, count, width = owner[split], count[split], width[split]
        half = width // 2
        size = eta[owner]
        left = rng.hypergeometric(count, width * size - count, half * size)
        owner = np.concatenate([owner, owner])
        count = np.concatenate([left, count - left])
        width = np.concatenate([half, width - half])


def _detections(cfg: SimConfig, expected: float, counts: np.ndarray,
                rng: np.random.Generator) -> np.ndarray:
    """Infections one testing round identifies, per trial, from post-spread counts.

    ``expected`` is the planner's estimate of the infected count, which only
    the hybrid policy reads. Singleton tests are drawn from all n, isolated
    individuals included. Under the hybrid policy, ``saffron_layout`` shapes
    each trial's round from its non-isolated pool; the infected that land in
    its groups are found when alone in their group, and positive singletons
    that a group already found are not counted twice.
    """
    susceptible, infected, isolated = counts
    leftover = cfg.capacity
    pooled = np.empty(0, dtype=np.int64)
    if cfg.policy == POLICY_SAFFRON_HYBRID:
        pools, which = np.unique(cfg.n - isolated, return_inverse=True)
        layouts = np.array([saffron_layout(pool, expected, cfg.capacity) or (0, 0, cfg.capacity)
                            for pool in pools.tolist()], dtype=np.int64)
        eta, groups, leftover = layouts[which].T
        pooled = np.flatnonzero(groups)
    if pooled.size:
        in_groups = rng.hypergeometric(infected[pooled], susceptible[pooled],
                                       groups[pooled] * eta[pooled])
        found = _lone_groups(in_groups, groups[pooled], eta[pooled], rng)
    hits = rng.hypergeometric(infected, cfg.n - infected, leftover)
    if pooled.size:
        hits[pooled] += found - rng.hypergeometric(found, infected[pooled] - found,
                                                   hits[pooled])
    return hits


def run_experiment(cfg: SimConfig) -> TrajectoryStats:
    """Run cfg.trials trials of the count-level chain and aggregate their trajectories.

    Deterministic for a fixed config: one generator seeded with cfg.seed
    draws every trial's steps together, so a trial's path also depends on
    cfg.trials. Each step, for the trials still holding infections, spread
    is Binomial(S, 1-(1-q)^I) and the round's detections come from
    ``_detections``; the initial infected count is Binomial(n, p). Counts
    are recorded after the testing phase of each step (step 0 is the freshly
    drawn population). A trial with no circulating infections never changes
    again, so it leaves the arrays, and once every trial has, the remaining
    steps are filled. Memory is O(trials + horizon).
    """
    cfg.validate()
    curve = mean_trajectory(TheoryParams.from_config(cfg), cfg.policy, cfg.horizon)
    rng = np.random.default_rng(cfg.seed)
    log_miss = math.log1p(-cfg.q) if cfg.q < 1.0 else -math.inf
    steps = cfg.horizon + 1
    total = np.zeros((3, steps))
    total_sq = np.zeros((3, steps))
    frozen = np.zeros(3)
    frozen_sq = np.zeros(3)
    control_time = np.full(cfg.trials, cfg.horizon, dtype=np.int64)
    censored = np.ones(cfg.trials, dtype=bool)

    infected = rng.binomial(cfg.n, cfg.p, size=cfg.trials)
    counts = np.stack([cfg.n - infected, infected, np.zeros_like(infected)])
    trial = np.arange(cfg.trials)
    for t in range(steps):
        if t:
            new = rng.binomial(counts[0], -np.expm1(counts[1] * log_miss))
            counts[0] -= new
            counts[1] += new
            found = _detections(cfg, curve.pre_test_infected[t], counts, rng)
            counts[1] -= found
            counts[2] += found
        squares = counts.astype(np.float64) ** 2
        total[:, t] = frozen + counts.sum(axis=1)
        total_sq[:, t] = frozen_sq + squares.sum(axis=1)
        extinct = counts[1] == 0
        if extinct.any():
            control_time[trial[extinct]] = t
            censored[trial[extinct]] = False
            frozen += counts[:, extinct].sum(axis=1)
            frozen_sq += squares[:, extinct].sum(axis=1)
            counts, trial = counts[:, ~extinct], trial[~extinct]
            if not trial.size:
                total[:, t + 1:] = frozen[:, np.newaxis]
                total_sq[:, t + 1:] = frozen_sq[:, np.newaxis]
                break
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
