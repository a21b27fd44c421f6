import dataclasses

import numpy as np
import pytest

from sirpool import ConfigError, SimConfig
from sirpool.sir import PopulationState, Status, init_population, isolate, spread_phase


def make_state(n, infected_idx, isolated_idx=()):
    statuses = np.zeros(n, dtype=np.int8)
    statuses[list(infected_idx)] = Status.INFECTED
    statuses[list(isolated_idx)] = Status.ISOLATED
    counts = np.bincount(statuses, minlength=3)
    return PopulationState(statuses=statuses, susceptible=int(counts[0]),
                           infected=int(counts[1]), isolated=int(counts[2]))


def counts_consistent(state):
    """Whether the cached compartment counts match the status array."""
    counts = np.bincount(state.statuses, minlength=3)
    return counts.tolist() == [state.susceptible, state.infected, state.isolated]


class TestConfigValidation:
    def test_defaults_valid(self):
        SimConfig().validate()

    def test_accepts_numpy_integers(self):
        SimConfig(n=np.int64(1000), capacity=np.int32(30), horizon=np.int64(5),
                  trials=np.int16(2), seed=np.uint32(7))

    def test_accepts_numpy_floats(self):
        SimConfig(p=np.float32(0.2), q=np.float64(1e-5), epsilon=np.float16(1.0))

    @pytest.mark.parametrize("kwargs", [
        {"n": 0},
        {"p": -0.1},
        {"p": 1.5},
        {"q": -1e-9},
        {"q": 1.0001},
        {"capacity": 0},
        {"capacity": 1001},
        {"horizon": 0},
        {"trials": 0},
        {"policy": "pooled"},
        {"epsilon": 0.0},
        {"epsilon": float("inf")},
        {"epsilon": float("nan")},
        {"n": 10.5},
        {"capacity": True},
        {"horizon": 5.0},
        {"trials": 2.0},
        {"seed": -1},
        {"seed": 1.5},
        {"n": 10**9},  # beyond numpy's hypergeometric sampler
        {"p": "0.2"},
        {"p": True},
        {"q": None},
        {"epsilon": "1"},
    ])
    def test_rejects_out_of_range(self, kwargs):
        # the constructor itself raises, so does a copy with a field replaced,
        # and no invalid config exists to reach an engine
        with pytest.raises(ConfigError):
            SimConfig(**kwargs)
        with pytest.raises(ConfigError):
            dataclasses.replace(SimConfig(), **kwargs)


class TestInitPopulation:
    def test_p_zero_all_susceptible(self):
        state = init_population(SimConfig(n=500, p=0.0), np.random.default_rng(0))
        assert state.infected == 0
        assert state.susceptible == 500
        assert np.all(state.statuses == Status.SUSCEPTIBLE)

    def test_p_one_all_infected(self):
        state = init_population(SimConfig(n=500, p=1.0), np.random.default_rng(0))
        assert state.infected == 500
        assert np.all(state.statuses == Status.INFECTED)

    def test_counts_consistent_and_t_zero(self):
        state = init_population(SimConfig(n=777, p=0.3), np.random.default_rng(1))
        assert state.isolated == 0
        assert counts_consistent(state)

    def test_binomial_mean(self):
        # Binomial oracle: mean n*p = 200, sd of the 1000-trial mean
        # sqrt(n*p*(1-p)/trials) = 0.4, so a 3-sigma band of +-1.2.
        rng = np.random.default_rng(42)
        cfg = SimConfig(n=1000, p=0.2)
        mean = np.mean([init_population(cfg, rng).infected for _ in range(1000)])
        assert abs(mean - 200.0) <= 1.2


class TestSpreadPhase:
    def test_q_zero_no_change(self):
        state = make_state(100, infected_idx=range(10))
        before = state.statuses.copy()
        spread_phase(state, 0.0, np.random.default_rng(0))
        assert np.array_equal(state.statuses, before)

    def test_no_infectors_no_change(self):
        state = make_state(100, infected_idx=())
        before = state.statuses.copy()
        spread_phase(state, 0.5, np.random.default_rng(0))
        assert np.array_equal(state.statuses, before)

    def test_q_one_infects_everyone(self):
        state = make_state(50, infected_idx=[0])
        spread_phase(state, 1.0, np.random.default_rng(0))
        assert state.susceptible == 0
        assert state.infected == 50

    def test_isolated_do_not_spread_or_catch(self):
        state = make_state(50, infected_idx=(), isolated_idx=range(10))
        before = state.statuses.copy()
        spread_phase(state, 1.0, np.random.default_rng(0))
        assert np.array_equal(state.statuses, before)

    def test_mean_new_infections(self):
        # Exact Bernoulli-complement arithmetic with alpha=800, lam=200,
        # q=1e-5: per-susceptible hit probability 1-(1-q)^200 =
        # 0.0019980113127534, expected new infections 1.5984090502027,
        # sd of the 10000-trial mean 0.0126301837312.
        rng = np.random.default_rng(7)
        total = 0
        trials = 10000
        for _ in range(trials):
            state = make_state(1000, infected_idx=range(200))
            spread_phase(state, 1e-5, rng)
            total += state.infected - 200
        assert abs(total / trials - 1.5984090502027235) <= 3 * 0.012630183731197306

    def test_counts_stay_consistent(self):
        rng = np.random.default_rng(3)
        state = make_state(200, infected_idx=range(30), isolated_idx=range(30, 40))
        spread_phase(state, 0.01, rng)
        assert counts_consistent(state)


class TestIsolate:
    def test_empty_is_noop(self):
        state = make_state(20, infected_idx=[3, 4])
        before = state.statuses.copy()
        isolate(state, [])
        assert np.array_equal(state.statuses, before)

    def test_full_detection(self):
        state = make_state(20, infected_idx=[3, 4, 9])
        isolate(state, [3, 4, 9])
        assert state.infected == 0
        assert state.isolated == 3

    def test_partial_counts(self):
        state = make_state(30, infected_idx=range(5))
        isolate(state, [1, 3])
        assert state.infected == 3
        assert state.isolated == 2
        assert counts_consistent(state)

    def test_rejects_susceptible(self):
        state = make_state(10, infected_idx=[0])
        with pytest.raises(ValueError, match="not circulating"):
            isolate(state, [5])

    def test_rejects_already_isolated(self):
        state = make_state(10, infected_idx=[0], isolated_idx=[1])
        with pytest.raises(ValueError, match="not circulating"):
            isolate(state, [1])

    def test_rejects_out_of_range(self):
        state = make_state(10, infected_idx=[0])
        with pytest.raises(ValueError, match="out of range"):
            isolate(state, [10])


class TestTrajectoryInvariants:
    def test_conservation_monotonicity_absorption(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 300))
            state = init_population(SimConfig(n=n, capacity=1, p=float(rng.random())), rng)
            prev = state.statuses.copy()
            for _ in range(15):
                q = float(rng.random() * 0.01)
                spread_phase(state, q, rng)
                infected = np.flatnonzero(state.statuses == Status.INFECTED)
                k = min(infected.size, int(rng.integers(0, 5)))
                isolate(state, rng.choice(infected, size=k, replace=False) if k else [])
                assert state.susceptible + state.infected + state.isolated == n
                assert counts_consistent(state)
                # susceptible can only leave, isolated can only grow
                assert not np.any((prev == Status.ISOLATED) & (state.statuses != Status.ISOLATED))
                assert not np.any((prev != Status.SUSCEPTIBLE)
                                  & (state.statuses == Status.SUSCEPTIBLE))
                prev = state.statuses.copy()

    def test_fixed_seed_reproducible(self):
        def run(seed):
            rng = np.random.default_rng(seed)
            state = init_population(SimConfig(n=300, p=0.1), rng)
            for _ in range(10):
                spread_phase(state, 1e-3, rng)
            return state.statuses.copy()

        assert np.array_equal(run(123), run(123))
        assert not np.array_equal(run(123), run(124))
