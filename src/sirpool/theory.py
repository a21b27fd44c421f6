"""Mean-sense predictions for the testing policies.

Closed forms for the individual-testing policy (expected circulating
infections per step and the time to drive them below a threshold), the
expected per-round detection count of the pooled policy, and a step-by-step
recursion that produces the full expected trajectory either policy traces
out. The expressions drop correction terms that vanish only for large
populations with weak per-pair transmission; at moderate sizes they are
approximations of the finite-population means, not exact values (see the
README for the measured gaps at the reference parameters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import code_width
from .sir import POLICY_INDIVIDUAL, POLICY_SAFFRON_HYBRID, SimConfig


@dataclass(frozen=True)
class TheoryParams:
    """Model parameters the closed forms depend on."""

    n: int
    capacity: int
    p: float
    q: float

    @classmethod
    def from_config(cls, cfg: SimConfig) -> "TheoryParams":
        return cls(n=cfg.n, capacity=cfg.capacity, p=cfg.p, q=cfg.q)

    @property
    def growth_factor(self) -> float:
        """Per-step multiplicative growth of the infected count, 1 + n*q*(1-p)."""
        return 1.0 + self.n * self.q * (1.0 - self.p)

    @property
    def individual_miss(self) -> float:
        """Probability one circulating infection escapes a round of individual tests."""
        return 1.0 - self.capacity / self.n

    @property
    def individual_decay(self) -> float:
        """Net per-step factor on the expected infected count under individual testing."""
        return self.individual_miss * self.growth_factor


def expected_lambda_individual(params: TheoryParams, t: float) -> float:
    """Expected circulating infections after t steps of individual testing.

    Geometric decay n*p*((1 - T/n) * growth_factor)^t from the initial mean
    n*p. Accepts non-integer t so it can invert epsilon_control_time exactly.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    return params.n * params.p * params.individual_decay ** t


def epsilon_control_time(params: TheoryParams, epsilon: float) -> float:
    """Steps of individual testing until the expected infected count reaches epsilon.

    Real-valued; callers may round up for step-indexed reporting. Raises when
    the policy cannot shrink the infection (per-step decay factor >= 1) or
    when epsilon is not in (0, n*p].
    """
    peak = params.n * params.p
    if not 0.0 < epsilon <= peak:
        raise ValueError(f"epsilon must be in (0, n*p={peak}], got {epsilon}")
    decay = params.individual_decay
    if decay >= 1.0:
        raise ValueError(
            "individual testing does not control the infection for these parameters: "
            f"(1 - T/n) * growth_factor = {decay} >= 1"
        )
    return math.log(epsilon / peak) / math.log(decay)


def expected_alpha(params: TheoryParams, miss_sequence, t: int) -> float:
    """Expected never-infected count after t steps.

    n(1-p)(1-q)^E where the exponent E = n*p * sum_{i=0}^{t-1} growth^i *
    prod_{j=1}^{i} miss(j) accumulates the expected exposure pressure.
    ``miss_sequence[k]`` is the per-step miss probability of step k+1 and
    must cover steps 1..t-1.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    total = 0.0
    running_miss = 1.0
    for i in range(t):
        if i > 0:
            running_miss *= miss_sequence[i - 1]
        total += params.growth_factor ** i * running_miss
    exponent = params.n * params.p * total
    return params.n * (1.0 - params.p) * (1.0 - params.q) ** exponent


def saffron_expected_detections(n: int, capacity: int, isolated: float,
                                expected_infected: float) -> float:
    """Expected infections identified per pooled-testing round.

    With pool = n - isolated and real-valued group size eta = pool /
    expected_infected, capacity/2 tests per binary digit of eta give
    (capacity/2) / log2(eta) groups, and each holds exactly one infection
    with probability (1 - expected_infected/pool)^(eta-1). The product is
    capped at expected_infected. Only applicable while expected_infected >= 1
    and eta >= 2; outside that regime callers must plan individual tests.
    """
    if expected_infected < 1.0:
        raise ValueError(
            f"pooled detection formula needs expected_infected >= 1, got {expected_infected}")
    pool = n - isolated
    if pool <= 0:
        raise ValueError(f"no non-isolated individuals left (isolated={isolated}, n={n})")
    eta = pool / expected_infected
    if eta < 2.0:
        raise ValueError(f"group size (n - isolated)/expected_infected = {eta} is below 2")
    rate = expected_infected / pool
    zeta = (capacity / 2.0) / math.log2(eta) * (1.0 - rate) ** (eta - 1.0)
    return min(zeta, expected_infected)


def saffron_group_size(pool: float, expected_infected: float, capacity: int) -> int | None:
    """Group size the pooled planner should use, or None to fall back to individual tests.

    The size is floor(pool / expected_infected), which cannot exceed the
    pool because pooling needs expected_infected >= 1. The fallback fires
    when the expected infected count is below 1, the size would drop below 2
    (the regime where the detection formula stops applying), or one group's
    code block would not fit in the per-round capacity.
    """
    if expected_infected < 1.0 or pool < 2:
        return None
    eta = int(pool // expected_infected)
    if eta < 2:
        return None
    if capacity < 2 * code_width(eta):
        return None
    return eta


@dataclass
class TheoryCurve:
    """Expected per-step trajectory (index 0 = initial state, pre-testing).

    ``pre_test_infected[t]`` is the expected infected count after step t's
    spread phase but before its tests: the planner's estimate for round t.
    ``miss_prob[t]`` is the probability a circulating infection survives the
    tests of step t (1.0 at t=0, where no tests run); ``expected_alpha``
    takes ``miss_prob[1:]`` as its miss sequence.
    """

    expected_susceptible: np.ndarray
    expected_infected: np.ndarray
    expected_isolated: np.ndarray
    pre_test_infected: np.ndarray
    miss_prob: np.ndarray


def mean_trajectory(params: TheoryParams, policy: str, horizon: int) -> TheoryCurve:
    """Expected trajectory recursion for either policy.

    Per step: bilinear spread moves q * alpha * lam susceptibles into the
    infected compartment; then the expected detection count (the pooled
    formula while the hybrid's switch rule allows it, capacity/n of the
    infected otherwise) moves infected mass into isolation. Compartments sum
    to n at every step by construction.
    """
    if policy not in (POLICY_INDIVIDUAL, POLICY_SAFFRON_HYBRID):
        raise ValueError(f"unknown policy {policy!r}")
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    steps = horizon + 1
    alpha = np.empty(steps)
    lam = np.empty(steps)
    gam = np.empty(steps)
    pre = np.empty(steps)
    miss = np.ones(steps)

    alpha[0] = params.n * (1.0 - params.p)
    lam[0] = params.n * params.p
    gam[0] = 0.0
    pre[0] = lam[0]

    a, l, g = alpha[0], lam[0], gam[0]
    for t in range(1, steps):
        # bilinear spread transfer, clamped so no more mass moves than exists
        # (the clamp only binds outside the q*lam << 1 regime)
        new = min(params.q * a * l, a)
        l_spread = l + new
        a -= new
        use_pooled = False
        if policy == POLICY_SAFFRON_HYBRID:
            use_pooled = saffron_group_size(params.n - g, l_spread, params.capacity) is not None
        if use_pooled:
            zeta = saffron_expected_detections(params.n, params.capacity, g, l_spread)
        else:
            zeta = (params.capacity / params.n) * l_spread
        l = l_spread - zeta
        g += zeta
        alpha[t] = a
        lam[t] = l
        gam[t] = g
        pre[t] = l_spread
        miss[t] = 1.0 - zeta / l_spread if l_spread > 0.0 else 1.0
    return TheoryCurve(expected_susceptible=alpha, expected_infected=lam,
                       expected_isolated=gam, pre_test_infected=pre, miss_prob=miss)
