"""The count-level engine against the per-individual oracle.

``run_experiment`` draws the (S, I, R) counts of all trials at once;
``run_trial`` moves one trial's status array through the planner, the codec
and isolation. The two consume random numbers differently, so identical
seeds prove nothing: the test compares distributions. For each config, every
step's mean S, I and R must agree within Z_MAX standard errors, and the
per-trial control times must pass a two-sample Kolmogorov-Smirnov test.

The standard error uses the pooled variance of both samples, which is the
variance under the hypothesis being tested. Late in a run only a few trials
hold infections, and a sample whose trials have all cleared would otherwise
have zero variance at exactly the steps where the other one has stragglers.
"""

import numpy as np
import pytest

from sirpool import SimConfig, run_experiment
from sirpool.harness import LONE_TABLE_MAX_CELLS, run_trial, trial_rng
from sirpool.policies import saffron_layout
from sirpool.theory import TheoryParams, mean_trajectory

ENGINE_TRIALS = 20_000
ORACLE_TRIALS = 1_500
ENGINE_SEED = 4021
ORACLE_SEED = 977
Z_MAX = 4.5
KS_LAMBDA_MAX = 1.95  # asymptotic two-sample Kolmogorov-Smirnov critical value, p = 0.001

CONFIGS = {
    "individual": dict(n=100, capacity=20, p=0.2, q=2e-4, horizon=40, policy="individual"),
    # pooled rounds of 10-member groups plus singletons, then individual
    # tests once the planner's estimate falls below one infection
    "hybrid-pooled-first": dict(n=100, capacity=30, p=0.1, q=5e-4, horizon=40,
                                policy="saffron-hybrid"),
    # individual tests while groups would hold fewer than 2, pooled rounds
    # once isolation has shrunk the pool and the estimate, then individual again
    "hybrid-fallback-first": dict(n=100, capacity=30, p=0.6, q=1e-3, horizon=40,
                                  policy="saffron-hybrid"),
    # rounds of 128 and 64 groups of 2-4 with more than one infected per
    # group on average, too wide for a lone-group table, so each trial's
    # group counts are drawn (``_lone_groups_wide``)
    "hybrid-wide-rounds": dict(n=400, capacity=256, p=0.4, q=2e-4, horizon=30,
                               policy="saffron-hybrid"),
}

SERIES = ("susceptible", "infected", "isolated")


def control_times(infected: np.ndarray, horizon: int) -> np.ndarray:
    extinct = infected == 0
    return np.where(extinct.any(axis=1), extinct.argmax(axis=1), horizon)


def planner_rounds(cfg: SimConfig, counts: np.ndarray) -> tuple[int, int, set[tuple[int, int]]]:
    """(pooled, fallback, shapes) for the oracle trials, from their recorded counts.

    pooled and fallback count the trial-rounds of each kind; shapes holds
    the (groups, eta) of every pooled round.
    """
    curve = mean_trajectory(TheoryParams.from_config(cfg), cfg.policy, cfg.horizon)
    pooled = fallback = 0
    shapes = set()
    for t in range(1, cfg.horizon + 1):
        active = counts[:, 1, t - 1] > 0
        pools, runs = np.unique(cfg.n - counts[active, 2, t - 1], return_counts=True)
        for pool, trials in zip(pools.tolist(), runs.tolist()):
            layout = saffron_layout(pool, curve.pre_test_infected[t], cfg.capacity)
            if layout is None:
                fallback += trials
            else:
                pooled += trials
                shapes.add((layout[1], layout[0]))
    return pooled, fallback, shapes


def table_sized(groups: int, eta: int) -> bool:
    """Whether the engine draws a (groups, eta) round's lone groups from a table."""
    return groups > 1 and (groups + 1) * (groups * eta + 1) <= LONE_TABLE_MAX_CELLS


def ks_lambda(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic scaled by sqrt(n*m/(n+m))."""
    values = np.union1d(a, b)
    cdf_a = np.searchsorted(np.sort(a), values, side="right") / a.size
    cdf_b = np.searchsorted(np.sort(b), values, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max() * np.sqrt(a.size * b.size / (a.size + b.size)))


def worst_step(engine, oracle: np.ndarray) -> tuple[float, str, int, float, float]:
    """The largest |z| over steps and series: (|z|, series, t, engine mean, oracle mean)."""
    n_e, n_o = engine.config.trials, oracle.shape[0]
    worst = []
    for k, series in enumerate(SERIES):
        m_e = getattr(engine, f"mean_{series}")
        v_e = getattr(engine, f"var_{series}")
        m_o = oracle[:, k].mean(axis=0)
        v_o = oracle[:, k].var(axis=0, ddof=1)
        m = (n_e * m_e + n_o * m_o) / (n_e + n_o)
        pooled = ((n_e - 1) * v_e + (n_o - 1) * v_o
                  + n_e * (m_e - m) ** 2 + n_o * (m_o - m) ** 2) / (n_e + n_o - 1)
        se = np.sqrt(pooled * (1 / n_e + 1 / n_o))
        # a step with no spread in either sample must hold the same value in both
        z = np.where(se > 0, (m_e - m_o) / np.where(se > 0, se, 1.0),
                     np.where(m_e == m_o, 0.0, np.inf))
        t = int(np.abs(z).argmax())
        worst.append((float(abs(z[t])), series, t, float(m_e[t]), float(m_o[t])))
    return max(worst)


def run_pair(name: str):
    """The engine's TrajectoryStats and the oracle's (trials, 3, steps) counts for a config."""
    params = CONFIGS[name]
    engine = run_experiment(SimConfig(trials=ENGINE_TRIALS, seed=ENGINE_SEED, **params))
    cfg = SimConfig(trials=ORACLE_TRIALS, seed=ORACLE_SEED, **params)
    curve = mean_trajectory(TheoryParams.from_config(cfg), cfg.policy, cfg.horizon)
    oracle = np.stack([run_trial(cfg, trial_rng(cfg.seed, k), curve)
                       for k in range(cfg.trials)])
    return engine, oracle


@pytest.fixture(scope="module")
def pairs():
    made = {}

    def get(name):
        if name not in made:
            made[name] = run_pair(name)
        return made[name]

    return get


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_step_means_agree(pairs, name):
    engine, oracle = pairs(name)
    z, series, t, m_e, m_o = worst_step(engine, oracle)
    assert z <= Z_MAX, (f"{name}: mean {series} at t={t} is {m_e:.4g} (engine) vs "
                        f"{m_o:.4g} (oracle), |z| = {z:.2f} > {Z_MAX}")


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_control_times_agree(pairs, name):
    engine, oracle = pairs(name)
    oracle_times = control_times(oracle[:, 1], engine.config.horizon)
    lam = ks_lambda(engine.control_time, oracle_times)
    assert lam <= KS_LAMBDA_MAX, (
        f"{name}: control-time distributions differ, KS lambda {lam:.2f}; mean "
        f"{engine.control_time.mean():.2f} (engine) vs {oracle_times.mean():.2f} (oracle)")


@pytest.mark.parametrize("name", sorted(n for n, c in CONFIGS.items()
                                        if c["policy"] == "saffron-hybrid"))
def test_hybrid_configs_pool_and_fall_back(pairs, name):
    _, oracle = pairs(name)
    pooled, fallback, _ = planner_rounds(SimConfig(**CONFIGS[name]), oracle)
    assert pooled > 0 and fallback > 0, f"{name}: pooled {pooled}, fallback {fallback}"


def test_wide_config_runs_wide_rounds(pairs):
    _, oracle = pairs("hybrid-wide-rounds")
    _, _, shapes = planner_rounds(SimConfig(**CONFIGS["hybrid-wide-rounds"]), oracle)
    wide = [shape for shape in shapes if shape[0] > 1 and not table_sized(*shape)]
    assert wide, f"no pooled round too wide for a table: (groups, eta) in {sorted(shapes)}"


@pytest.mark.parametrize("name", ["hybrid-pooled-first", "hybrid-fallback-first"])
def test_small_configs_run_tables_and_single_groups(pairs, name):
    _, oracle = pairs(name)
    _, _, shapes = planner_rounds(SimConfig(**CONFIGS[name]), oracle)
    assert any(table_sized(*shape) for shape in shapes), f"{name}: no table-sized round"
    assert any(groups == 1 for groups, _ in shapes), f"{name}: no single-group round"
