"""Discrete-time susceptible/infected/isolated population dynamics.

Each time step has two phases: an infection spread phase in which every
circulating (non-isolated) infected individual independently exposes every
susceptible individual, followed by a testing phase in which individuals
identified by the tests are moved to the isolated state. Isolation is
absorbing: an isolated individual never changes state again and contributes
negative samples to any later test.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

POLICY_INDIVIDUAL = "individual"
POLICY_SAFFRON_HYBRID = "saffron-hybrid"
POLICIES = (POLICY_INDIVIDUAL, POLICY_SAFFRON_HYBRID)


class Status(IntEnum):
    """Infection status of a single individual."""

    SUSCEPTIBLE = 0
    INFECTED = 1  # infected and still circulating (not yet isolated)
    ISOLATED = 2  # detected by a test; absorbing


class ConfigError(ValueError):
    """A simulation parameter is out of range."""


@dataclass(frozen=True)
class SimConfig:
    """Model and run parameters for one experiment.

    n:        population size
    capacity: number of tests available per time step
    p:        probability each individual starts out infected
    q:        per (infected, susceptible) pair transmission probability per step
    horizon:  number of simulated time steps per trial
    trials:   number of Monte Carlo repetitions
    seed:     RNG seed (>= 0); run_experiment seeds one generator with it for
              all trials, while the per-individual oracle derives one stream
              per trial from (seed, trial)
    policy:   "individual" or "saffron-hybrid" test planning
    epsilon:  infected-count threshold used when reporting control times

    Construction validates the fields (``validate``) and raises
    ``ConfigError`` on one out of range, so no invalid config exists.
    """

    n: int = 1000
    capacity: int = 30
    p: float = 0.2
    q: float = 1e-5
    horizon: int = 500
    trials: int = 1000
    seed: int = 0
    policy: str = POLICY_INDIVIDUAL
    epsilon: float = 1.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        for name in ("n", "capacity", "horizon", "trials", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("p", "q", "epsilon"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
        if not 1 <= self.n < 10**9:
            raise ConfigError(f"population size must be in [1, 10**9), the range numpy's "
                              f"hypergeometric sampler accepts, got {self.n}")
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError(f"initial infection probability p must be in [0, 1], got {self.p}")
        if not 0.0 <= self.q <= 1.0:
            raise ConfigError(f"spread probability q must be in [0, 1], got {self.q}")
        if not 1 <= self.capacity <= self.n:
            raise ConfigError(
                f"testing capacity must be in [1, n={self.n}], got {self.capacity}"
            )
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.policy not in POLICIES:
            raise ConfigError(f"unknown policy {self.policy!r}, expected one of {POLICIES}")
        if not 0.0 < self.epsilon < math.inf:
            raise ConfigError(f"epsilon must be finite and > 0, got {self.epsilon}")


@dataclass
class PopulationState:
    """Per-individual statuses plus cached compartment counts.

    The counts are redundant with ``statuses`` and are kept in sync by the
    state-transition functions.
    """

    statuses: np.ndarray  # int8 vector of Status values, length n
    susceptible: int = 0
    infected: int = 0
    isolated: int = 0

    @property
    def n(self) -> int:
        return self.statuses.size


def init_population(cfg: SimConfig, rng: np.random.Generator) -> PopulationState:
    """Draw the initial population: each individual infected with probability p."""
    infected = rng.random(cfg.n) < cfg.p
    statuses = np.where(infected, np.int8(Status.INFECTED), np.int8(Status.SUSCEPTIBLE))
    k = int(infected.sum())
    return PopulationState(statuses=statuses, susceptible=cfg.n - k, infected=k, isolated=0)


def spread_phase(state: PopulationState, q: float, rng: np.random.Generator) -> PopulationState:
    """Infect each susceptible with probability 1 - (1-q)^infected, in place.

    Distributionally identical to realizing one Bernoulli(q) trial per
    (circulating infected, susceptible) pair, but O(n) per step.
    """
    if q <= 0.0 or state.infected == 0 or state.susceptible == 0:
        return state
    if q >= 1.0:
        p_hit = 1.0
    else:
        p_hit = -math.expm1(state.infected * math.log1p(-q))
    susceptible = np.flatnonzero(state.statuses == Status.SUSCEPTIBLE)
    newly = susceptible[rng.random(susceptible.size) < p_hit]
    if newly.size:
        state.statuses[newly] = Status.INFECTED
        state.susceptible -= newly.size
        state.infected += newly.size
    return state


def isolate(state: PopulationState, identified) -> PopulationState:
    """Move the identified individuals into isolation, in place.

    Every identified index must currently be a circulating infection; tests
    are noiseless, so anything else means the decoder produced a false
    positive and is rejected here.
    """
    idx = np.unique(np.asarray(identified, dtype=np.int64))
    if idx.size == 0:
        return state
    if idx[0] < 0 or idx[-1] >= state.n:
        raise ValueError("identified index out of range")
    if not np.all(state.statuses[idx] == Status.INFECTED):
        bad = idx[state.statuses[idx] != Status.INFECTED]
        raise ValueError(
            f"decoder identified individuals that are not circulating infections: {bad.tolist()}"
        )
    state.statuses[idx] = Status.ISOLATED
    state.infected -= idx.size
    state.isolated += idx.size
    return state
