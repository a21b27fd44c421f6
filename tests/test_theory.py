import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sirpool import SimConfig
from sirpool.theory import (
    TheoryParams,
    epsilon_control_time,
    expected_alpha,
    expected_lambda_individual,
    mean_trajectory,
    saffron_expected_detections,
    saffron_group_size,
)

BASE = TheoryParams(n=1000, capacity=30, p=0.2, q=1e-5)


def random_params(rng):
    n = int(rng.integers(10, 5000))
    return TheoryParams(
        n=n,
        capacity=int(rng.integers(1, n + 1)),
        p=float(rng.uniform(0.01, 1.0)),
        q=float(rng.uniform(0.0, 0.5 / n)),
    )


class TestParams:
    def test_growth_factor(self):
        assert BASE.growth_factor == pytest.approx(1.008, rel=1e-12)
        assert BASE.individual_miss == pytest.approx(0.97, rel=1e-12)
        assert BASE.individual_decay == pytest.approx(0.97776, rel=1e-12)

    def test_growth_factor_at_least_one(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            assert random_params(rng).growth_factor >= 1.0

    def test_from_config(self):
        cfg = SimConfig(n=50, capacity=5, p=0.1, q=0.001)
        params = TheoryParams.from_config(cfg)
        assert (params.n, params.capacity, params.p, params.q) == (50, 5, 0.1, 0.001)


class TestExpectedLambdaIndividual:
    def test_t_zero_is_initial_mean(self):
        assert expected_lambda_individual(BASE, 0) == pytest.approx(200.0, rel=1e-12)

    def test_one_step(self):
        # 200 * 0.97 * 1.008, full-precision arithmetic
        assert expected_lambda_individual(BASE, 1) == pytest.approx(195.552, rel=1e-12)

    def test_strictly_decreasing_when_contracting(self):
        values = [expected_lambda_individual(BASE, t) for t in range(50)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_negative_t(self):
        with pytest.raises(ValueError):
            expected_lambda_individual(BASE, -1)


class TestEpsilonControlTime:
    def test_reference_parameters(self):
        assert epsilon_control_time(BASE, 1.0) == pytest.approx(235.5746055514, rel=1e-9)

    def test_threshold_at_initial_mean_is_zero(self):
        assert epsilon_control_time(BASE, 200.0) == 0.0

    def test_no_spread_case(self):
        # ln(0.1)/ln(0.9), direct arithmetic
        params = TheoryParams(n=100, capacity=10, p=0.1, q=0.0)
        assert epsilon_control_time(params, 1.0) == pytest.approx(21.854345326782834, rel=1e-9)

    def test_non_contracting_regime_rejected(self):
        params = TheoryParams(n=1000, capacity=5, p=0.2, q=1e-2)
        assert params.individual_decay >= 1.0
        with pytest.raises(ValueError, match="does not control"):
            epsilon_control_time(params, 1.0)

    def test_epsilon_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            epsilon_control_time(BASE, 0.0)
        with pytest.raises(ValueError):
            epsilon_control_time(BASE, 200.0001)

    def test_inverse_identity(self):
        # expected_lambda_individual evaluated at the control time returns epsilon
        for eps in (0.5, 1.0, 7.3, 199.0):
            t = epsilon_control_time(BASE, eps)
            assert expected_lambda_individual(BASE, t) == pytest.approx(eps, rel=1e-9)

    def test_monotone_in_capacity_and_spread(self):
        base = epsilon_control_time(BASE, 1.0)
        more_tests = TheoryParams(n=1000, capacity=60, p=0.2, q=1e-5)
        more_spread = TheoryParams(n=1000, capacity=30, p=0.2, q=2e-5)
        assert epsilon_control_time(more_tests, 1.0) < base
        assert epsilon_control_time(more_spread, 1.0) > base

    @given(st.integers(100, 4000), st.floats(0.01, 0.99), st.floats(0.0, 1.0),
           st.floats(0.001, 0.999))
    @settings(max_examples=300, deadline=None)
    def test_inverse_identity_random(self, n, p, q_scale, eps_frac):
        capacity = max(1, int(0.05 * n))
        params = TheoryParams(n=n, capacity=capacity, p=p, q=q_scale * 0.5 / n)
        if params.individual_decay >= 1.0:
            return
        eps = eps_frac * n * p
        t = epsilon_control_time(params, eps)
        assert expected_lambda_individual(params, t) == pytest.approx(eps, rel=1e-9)


class TestExpectedAlpha:
    def test_t_zero(self):
        assert expected_alpha(BASE, [], 0) == pytest.approx(800.0, rel=1e-12)

    def test_no_spread_keeps_everyone(self):
        params = TheoryParams(n=1000, capacity=30, p=0.2, q=0.0)
        for t in (0, 1, 5, 50):
            assert expected_alpha(params, [0.97] * t, t) == pytest.approx(800.0, rel=1e-12)

    def test_two_steps_reference(self):
        # exponent 200*(1 + 1.008*0.97) = 395.552; 800*(1-1e-5)**395.552
        value = expected_alpha(BASE, [0.97], 2)
        assert value == pytest.approx(796.8418184520169, rel=1e-12)

    def test_nonincreasing_in_t(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            misses = rng.uniform(0.0, 1.0, size=30)
            values = [expected_alpha(BASE, misses, t) for t in range(30)]
            assert all(a >= b for a, b in zip(values, values[1:]))


class TestSaffronExpectedDetections:
    def test_reference_value(self):
        # (30/2) / log2(5) * 0.8^4
        zeta = saffron_expected_detections(1000, 30, 0, 200.0)
        assert zeta == pytest.approx(2.6460767728029273, rel=1e-12)

    def test_zero_capacity_zero_detections(self):
        assert saffron_expected_detections(1000, 0, 0, 200.0) == 0.0

    def test_group_size_one_rejected(self):
        with pytest.raises(ValueError):
            saffron_expected_detections(1000, 30, 0, 1000.0)

    def test_small_expected_infected_rejected(self):
        with pytest.raises(ValueError):
            saffron_expected_detections(1000, 30, 0, 0.5)

    def test_capped_at_expected_infected(self):
        # huge capacity cannot detect more infections than exist
        zeta = saffron_expected_detections(1000, 1000, 0, 2.0)
        assert zeta == pytest.approx(2.0)


class TestSaffronGroupSize:
    def test_reference_sizes(self):
        assert saffron_group_size(1000, 200.0, 30) == 5
        assert saffron_group_size(1000, 2.0, 30) == 500

    def test_fallback_on_small_expected(self):
        assert saffron_group_size(1000, 0.5, 30) is None

    def test_fallback_on_capacity(self):
        # eta = 500 needs 2*ceil(log2(500)) = 18 rows
        assert saffron_group_size(1000, 2.0, 17) is None
        assert saffron_group_size(1000, 2.0, 18) == 500

    def test_fallback_on_tiny_pool(self):
        assert saffron_group_size(1, 1.0, 30) is None

    def test_clamps_to_pool(self):
        assert saffron_group_size(10, 1.0, 30) == 10

    def test_fallback_when_size_drops_below_two(self):
        # more than half the pool expected infected: pooling stops applying
        assert saffron_group_size(100, 90.0, 30) is None
        assert saffron_group_size(100, 50.0, 30) == 2


class TestMeanTrajectory:
    def test_no_spread_individual_matches_closed_form(self):
        params = TheoryParams(n=1000, capacity=30, p=0.2, q=0.0)
        curve = mean_trajectory(params, "individual", 200)
        closed = [expected_lambda_individual(params, t) for t in range(201)]
        assert np.allclose(curve.expected_infected, closed, rtol=1e-9)

    def test_individual_matches_closed_form_with_frozen_susceptibles(self):
        # with q > 0 the recursion tracks the shrinking susceptible pool, so it
        # only matches the closed form at t=1 exactly
        curve = mean_trajectory(BASE, "individual", 5)
        assert curve.expected_infected[1] == pytest.approx(195.552, rel=1e-12)
        assert curve.pre_test_infected[1] == pytest.approx(201.6, rel=1e-12)

    def test_conservation(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            params = random_params(rng)
            policy = "individual" if rng.random() < 0.5 else "saffron-hybrid"
            curve = mean_trajectory(params, policy, 100)
            totals = (curve.expected_susceptible + curve.expected_infected
                      + curve.expected_isolated)
            assert np.all(np.abs(totals - params.n) <= 1e-9 * params.n)

    def test_miss_prob_individual(self):
        curve = mean_trajectory(BASE, "individual", 10)
        assert np.allclose(curve.miss_prob[1:], 0.97, rtol=1e-12)
        assert curve.miss_prob[0] == 1.0

    def test_hybrid_switches_to_individual_eventually(self):
        curve = mean_trajectory(BASE, "saffron-hybrid", 500)
        gamma, pre = curve.expected_isolated, curve.pre_test_infected
        steps = np.arange(1, 501)
        # step t pools when the planner's rule sizes a group from step t's estimate
        pooled = np.array([
            saffron_group_size(BASE.n - gamma[t - 1], pre[t], BASE.capacity) is not None
            for t in steps])
        for t, pools in zip(steps, pooled):
            zeta = (saffron_expected_detections(BASE.n, BASE.capacity, gamma[t - 1], pre[t])
                    if pools else BASE.capacity / BASE.n * pre[t])
            assert gamma[t] - gamma[t - 1] == pytest.approx(zeta, rel=1e-9, abs=1e-9)
        assert pooled[0]
        switched = np.flatnonzero(~pooled)
        assert switched.size
        first = switched[0]
        # pooled accounting never resumes after the switch
        assert not pooled[first:].any()
        # the switch happens once the expected infected count drops below 1
        assert pre[steps[first]] < 1.0

    def test_hybrid_first_step_uses_pooled_detection_rate(self):
        curve = mean_trajectory(BASE, "saffron-hybrid", 1)
        pre = 200.0 + 1e-5 * 800.0 * 200.0
        zeta = saffron_expected_detections(1000, 30, 0.0, pre)
        assert curve.expected_infected[1] == pytest.approx(pre - zeta, rel=1e-12)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            mean_trajectory(BASE, "both", 10)
