"""Mean-sense predictions for the testing policies.

Closed forms for the individual-testing policy, each read from one per-step
decay factor (expected circulating infections per step, the time to drive
them below a threshold, and the never-infected count); the pooled
planner's round shape (``saffron_group_size`` and ``saffron_layout``), the
key that tells which pools share one (``saffron_layout_keys``), and the
expected per-round detection count of the pooled policy; a step-by-step
recursion that produces the full expected trajectory either policy traces
out; and a run's plan of which steps may pool, read from it
(``round_plan``). The expressions drop correction terms that vanish only
for large populations with weak per-pair transmission; at moderate sizes
they are approximations of the finite-population means, not exact values
(``tests/test_acceptance.py`` bounds the gaps at the reference parameters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import code_width
from .sir import POLICY_INDIVIDUAL, POLICY_SAFFRON_HYBRID, SimConfig


@dataclass(frozen=True)
class TheoryParams:
    """Model parameters the closed forms depend on.

    Construction converts n and capacity to ``int`` and p and q to
    ``float``, so the closed forms compute in Python floats (float64)
    whatever numpy type a config holds: under numpy's promotion a float32 p
    would keep 1 - p, and every form read from it, in float32. Two params
    that compare equal therefore give the same results.
    """

    n: int
    capacity: int
    p: float
    q: float

    def __post_init__(self) -> None:
        for name, kind in (("n", int), ("capacity", int), ("p", float), ("q", float)):
            object.__setattr__(self, name, kind(getattr(self, name)))

    @classmethod
    def from_config(cls, cfg: SimConfig) -> "TheoryParams":
        return cls(n=cfg.n, capacity=cfg.capacity, p=cfg.p, q=cfg.q)

    @property
    def growth_factor(self) -> float:
        """Per-step multiplicative growth of the infected count, 1 + n*q*(1-p)."""
        return 1.0 + self.n * self.q * (1.0 - self.p)

    @property
    def individual_decay(self) -> float:
        """Net per-step factor on the expected infected count under individual testing.

        A circulating infection escapes a round of T individual tests with
        probability 1 - T/n, and the survivors grow by ``growth_factor``.
        """
        return (1.0 - self.capacity / self.n) * self.growth_factor


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
    the policy cannot shrink the infection (per-step decay factor >= 1), when
    it clears every infection in one step (capacity >= n, decay factor <= 0,
    so the expected count jumps from n*p to 0 and takes no value between),
    or when epsilon is not in (0, n*p]. Returns 0.0 at epsilon = n*p.
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
    if decay <= 0.0:
        raise ValueError(
            "individual testing clears every infection in one step at capacity >= n: "
            f"(1 - T/n) * growth_factor = {decay} <= 0 has no logarithm"
        )
    if epsilon == peak:
        return 0.0  # log(1) / log(decay) is -0.0
    return math.log(epsilon / peak) / math.log(decay)


def expected_alpha(params: TheoryParams, t: int) -> float:
    """Expected never-infected count after t steps of individual testing.

    n(1-p)(1-q)^E, where the exposure E = n*p * sum_{i<t} decay^i sums the
    frozen-pool circulating count ``expected_lambda_individual`` over the
    steps so far. The sum is taken term by term: on a growing epidemic the
    terms saturate to inf rather than overflow, and (1-q)^inf is 0.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    exposure, term = 0.0, params.n * params.p
    for _ in range(t):
        exposure += term
        term *= params.individual_decay
    return params.n * (1.0 - params.p) * (1.0 - params.q) ** exposure


def saffron_expected_detections(n: int, capacity: int, isolated: float,
                                expected_infected: float) -> float:
    """Expected infections identified per pooled-testing round.

    With pool = n - isolated and real-valued group size eta = pool /
    expected_infected, capacity/2 tests per binary digit of eta give
    (capacity/2) / log2(eta) groups, and each holds exactly one infection
    with probability (1 - expected_infected/pool)^(eta-1). The product is
    capped at expected_infected. Only applicable while expected_infected >= 1
    and eta >= 2; outside that regime callers must plan individual tests.

    The group count is real-valued, while ``saffron_layout`` packs
    min(floor(T / (2*ceil(log2 eta))), pool // eta) whole groups of the
    integer size. Where the formula counts more groups than the planner
    packs, the recursion, and the planner's estimate read from it, falls
    faster than the simulated count; CHANGES.md's FOUND line on this
    formula gives the measured gap at the reference parameters.
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
    (the regime where the detection formula stops applying, and where every
    pool below 2 lands), or one group's code block would not fit in the
    per-round capacity.
    """
    if expected_infected < 1.0:
        return None
    eta = int(pool // expected_infected)
    if eta < 2:
        return None
    if capacity < 2 * code_width(eta):
        return None
    return eta


def saffron_layout(pool: int, expected_infected: float,
                   capacity: int) -> tuple[int, int, int]:
    """Shape of a round as (eta, groups, leftover).

    eta comes from ``saffron_group_size`` over the ``pool`` non-isolated
    individuals. floor(capacity / (2*ceil(log2(eta)))) groups fit, capped at
    what the pool can supply, and the ``leftover`` rows they do not use go to
    singleton tests. The group-size rule guarantees at least one group fits.
    When the rule falls back the round pools nothing: (0, 0, capacity), an
    individual-testing round.
    """
    eta = saffron_group_size(pool, expected_infected, capacity)
    if eta is None:
        return 0, 0, capacity
    rows_per_group = 2 * code_width(eta)
    groups = min(capacity // rows_per_group, pool // eta)
    return eta, groups, capacity - groups * rows_per_group


def saffron_layout_keys(pools: np.ndarray | list[int], expected: float,
                        capacity: int) -> np.ndarray | list[int]:
    """Per pool, a key that fixes its ``saffron_layout`` at an estimate >= 1.

    The layout reads the pool only through eta = pool // expected and
    groups = min(capacity // (2 * code_width(eta)), pool // eta). The first
    term is at most capacity // 2, so min(pool // eta, capacity // 2) fixes
    groups, and the key is eta * (capacity // 2 + 1) + that: keys ascend
    with eta, then with that term. Pools below 2 * expected cannot pool;
    through eta = 1 they fall back whatever their key.

    An int64 array of pools gives an int64 array of keys, and a list of
    Python integers a list of the same keys: Python's float floor division
    is the algorithm numpy's follows, so eta is the same float either way.
    """
    half = capacity // 2
    if isinstance(pools, list):
        etas = [max(int(pool // expected), 1) for pool in pools]
        return [eta * (half + 1) + min(pool // eta, half) for pool, eta in zip(pools, etas)]
    eta = np.maximum(pools // expected, 1).astype(np.int64)
    return eta * (half + 1) + np.minimum(pools // eta, half)


@dataclass
class TheoryCurve:
    """Expected per-step trajectory (index 0 = initial state, pre-testing).

    ``pre_test_infected[t]`` is the expected infected count after step t's
    spread phase but before its tests: the planner's estimate for round t,
    which ``round_plan`` reads.
    """

    expected_susceptible: np.ndarray
    expected_infected: np.ndarray
    expected_isolated: np.ndarray
    pre_test_infected: np.ndarray


def mean_trajectory(params: TheoryParams, policy: str, horizon: int) -> TheoryCurve:
    """Expected trajectory recursion for either policy.

    Per step: bilinear spread moves q * alpha * lam susceptibles into the
    infected compartment; then the expected detection count (the pooled
    formula while the hybrid's switch rule allows it, capacity/n of the
    infected otherwise) moves infected mass into isolation. Compartments sum
    to n at every step by construction. Each step's (alpha, lam, gamma,
    pre-test lam) tuple is derived from the previous one in Python floats,
    and the four float64 arrays are built once, at the end.
    """
    if policy not in (POLICY_INDIVIDUAL, POLICY_SAFFRON_HYBRID):
        raise ValueError(f"unknown policy {policy!r}")
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    n, capacity, q = params.n, params.capacity, params.q
    a, l = n * (1.0 - params.p), n * params.p
    rows = [(a, l, 0.0, l)]
    for _ in range(horizon):
        a, l, g, _ = rows[-1]
        # bilinear spread transfer, clamped so no more mass moves than exists
        # (the clamp only binds outside the q*lam << 1 regime)
        new = min(q * a * l, a)
        l_spread = l + new
        if (policy == POLICY_SAFFRON_HYBRID
                and saffron_group_size(n - g, l_spread, capacity) is not None):
            zeta = saffron_expected_detections(n, capacity, g, l_spread)
        else:
            zeta = (capacity / n) * l_spread
        rows.append((a - new, l_spread - zeta, g + zeta, l_spread))
    alpha, lam, gam, pre = (np.array(column, dtype=np.float64) for column in zip(*rows))
    return TheoryCurve(expected_susceptible=alpha, expected_infected=lam,
                       expected_isolated=gam, pre_test_infected=pre)


def round_plan(curve: TheoryCurve, policy: str) -> list[float | None]:
    """Each step's round of a run under ``policy``: the estimate it pools from, or None.

    Entry t is ``curve.pre_test_infected[t]`` as a Python float where the
    policy is the hybrid and that estimate is 1 or more, and None, a round
    of individual tests, everywhere else. Both engines read it. A pooled
    entry can still fall back, per pool, where ``saffron_group_size`` says
    so; below 1 it would fall back for every pool, and None says so once.
    """
    hybrid = policy == POLICY_SAFFRON_HYBRID
    return [e if hybrid and e >= 1.0 else None for e in curve.pre_test_infected.tolist()]
