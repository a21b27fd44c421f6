import tracemalloc

import numpy as np
import pytest

from sirpool import ConfigError, SimConfig, empirical_epsilon_time, run_experiment
from sirpool.policies import saffron_layout
from sirpool.theory import TheoryParams, expected_lambda_individual


def small_cfg(**kwargs):
    defaults = dict(n=60, capacity=10, p=0.2, q=1e-4, horizon=25, trials=8, seed=5)
    defaults.update(kwargs)
    return SimConfig(**defaults)


class TestRunExperiment:
    def test_rejects_bad_config_before_running(self):
        with pytest.raises(ConfigError):
            run_experiment(small_cfg(p=-1.0))

    def test_p_zero_stays_empty(self):
        stats = run_experiment(small_cfg(p=0.0))
        assert not stats.mean_infected.any()
        assert not stats.mean_isolated.any()
        assert np.all(stats.mean_susceptible == 60)
        assert np.all(stats.control_time == 0)
        assert not stats.control_censored.any()

    def test_array_lengths_include_step_zero(self):
        stats = run_experiment(small_cfg(horizon=17))
        assert stats.mean_infected.shape == (18,)
        assert stats.theory.expected_infected.shape == (18,)

    def test_conservation_of_means(self):
        for policy in ("individual", "saffron-hybrid"):
            stats = run_experiment(small_cfg(policy=policy))
            totals = stats.mean_susceptible + stats.mean_infected + stats.mean_isolated
            assert np.all(np.abs(totals - 60) <= 1e-9 * 60)

    def test_mean_monotonicity(self):
        stats = run_experiment(small_cfg(trials=30))
        assert np.all(np.diff(stats.mean_isolated) >= 0)
        assert np.all(np.diff(stats.mean_susceptible) <= 0)

    def test_reproducible_bit_for_bit(self):
        a = run_experiment(small_cfg(policy="saffron-hybrid"))
        b = run_experiment(small_cfg(policy="saffron-hybrid"))
        assert np.array_equal(a.mean_infected, b.mean_infected)
        assert np.array_equal(a.var_infected, b.var_infected)
        assert np.array_equal(a.control_time, b.control_time)

    def test_seed_changes_results(self):
        a = run_experiment(small_cfg())
        b = run_experiment(small_cfg(seed=6))
        assert not np.array_equal(a.mean_infected, b.mean_infected)

    def test_control_time_and_censoring(self):
        # capacity = n clears all infections in one round: control time 1
        stats = run_experiment(small_cfg(n=30, capacity=30, q=0.0, trials=5))
        assert np.all(stats.control_time == 1)
        assert not stats.control_censored.any()
        # one test per round over a short horizon cannot finish the job
        stats = run_experiment(small_cfg(n=60, capacity=1, p=0.5, horizon=3, trials=5))
        assert stats.control_censored.all()
        assert np.all(stats.control_time == 3)

    def test_no_spread_tracks_closed_form(self):
        # with q=0 the closed form is exact: mean within max(5% rel, 4 SE)
        cfg = SimConfig(n=1000, capacity=30, p=0.2, q=0.0, horizon=80, trials=400,
                        seed=12, policy="individual")
        stats = run_experiment(cfg)
        params = TheoryParams.from_config(cfg)
        closed = np.array([expected_lambda_individual(params, t) for t in range(81)])
        se = np.sqrt(stats.var_infected / cfg.trials)
        allowance = np.maximum(0.05 * closed, 4 * se)
        assert np.all(np.abs(stats.mean_infected - closed) <= allowance)


def assert_count_invariants(stats):
    """What every trial's counts promise, read through the aggregates."""
    cfg = stats.config
    assert stats.mean_infected.shape == (cfg.horizon + 1,)
    totals = stats.mean_susceptible + stats.mean_infected + stats.mean_isolated
    assert np.all(np.abs(totals - cfg.n) <= 1e-9 * cfg.n)
    assert np.all(np.diff(stats.mean_isolated) >= 0)
    assert np.all(np.diff(stats.mean_susceptible) <= 0)
    time, censored = stats.control_time, stats.control_censored
    assert time.dtype == np.int64 and censored.dtype == bool
    assert time.shape == censored.shape == (cfg.trials,)
    assert np.all((0 <= time) & (time <= cfg.horizon))
    assert np.all(time[censored] == cfg.horizon)
    # a trial holds infections up to its control time and none from then on,
    # so the mean is positive exactly until the last trial clears
    last = cfg.horizon + 1 if censored.any() else time.max()
    assert np.all(stats.mean_infected[:last] > 0)
    assert np.all(stats.mean_infected[last:] == 0)
    if cfg.trials == 1:
        assert not stats.var_infected.any()


EDGES = {
    "p=0": dict(p=0.0),
    "p=1": dict(p=1.0),
    "q=0": dict(q=0.0),
    "q=1": dict(q=1.0),
    "capacity=n": dict(capacity=60),
    "n=2": dict(n=2, capacity=1),
    "trials=1": dict(trials=1),
    "horizon=1": dict(horizon=1),
    # the planner's estimate at t=1 is exactly 1: one group of the whole pool
    "eta=pool": dict(n=10, capacity=10, p=0.1, q=0.0),
}


class TestCountEngineEdges:
    @pytest.mark.parametrize("policy", ["individual", "saffron-hybrid"])
    @pytest.mark.parametrize("edge", sorted(EDGES))
    def test_invariants(self, edge, policy):
        stats = run_experiment(small_cfg(**{"policy": policy, "trials": 200, **EDGES[edge]}))
        assert_count_invariants(stats)

    @pytest.mark.parametrize("policy", ["individual", "saffron-hybrid"])
    def test_edge_values(self, policy):
        everyone = run_experiment(small_cfg(policy=policy, p=1.0))
        assert not everyone.mean_susceptible.any()
        still = run_experiment(small_cfg(policy=policy, q=0.0))
        assert np.all(still.mean_susceptible == still.mean_susceptible[0])
        burst = run_experiment(small_cfg(policy=policy, q=1.0))
        assert not burst.mean_susceptible[1:].any()

    def test_group_spans_the_pool(self):
        cfg = small_cfg(policy="saffron-hybrid", **EDGES["eta=pool"])
        stats = run_experiment(cfg)
        assert stats.theory.pre_test_infected[1] == 1.0
        assert saffron_layout(cfg.n, stats.theory.pre_test_infected[1], cfg.capacity) \
            == (10, 1, 2)

    @pytest.mark.parametrize("policy", ["individual", "saffron-hybrid"])
    def test_largest_accepted_population(self, policy):
        # n = 10**9 - 1 is the largest size validate accepts; q=0 keeps the
        # hybrid's pooled rounds, whose hypergeometric draw splits I and S
        cfg = SimConfig(n=10**9 - 1, horizon=3, trials=2, q=0.0, policy=policy)
        stats = run_experiment(cfg)
        assert_count_invariants(stats)
        if policy == "saffron-hybrid":
            assert saffron_layout(cfg.n, stats.theory.pre_test_infected[1], cfg.capacity)

    def test_memory_stays_linear(self):
        # (3, trials, steps) int64 counts would take 3 * 10_000 * 501 * 8 B = 120 MB;
        # at p=0.002 the last trial still runs for hundreds of steps
        tracemalloc.start()
        try:
            stats = run_experiment(SimConfig(trials=10_000, horizon=500, p=0.002, q=0.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.control_time.max() > 250
        assert peak < 12 * 2 ** 20


class TestEmpiricalEpsilonTime:
    def test_threshold_above_start_is_zero(self):
        stats = run_experiment(small_cfg())
        assert empirical_epsilon_time(stats, 60.0) == 0

    def test_not_reached_is_none(self):
        stats = run_experiment(small_cfg(n=200, capacity=1, p=0.5, q=1e-3,
                                         horizon=10, trials=5))
        assert empirical_epsilon_time(stats, 0.01) is None

    def test_nonincreasing_in_epsilon(self):
        stats = run_experiment(small_cfg(trials=20))
        times = []
        for eps in (0.0, 0.5, 1.0, 2.0, 10.0, 60.0):
            t = empirical_epsilon_time(stats, eps)
            times.append(stats.config.horizon + 1 if t is None else t)
        assert all(a >= b for a, b in zip(times, times[1:]))
