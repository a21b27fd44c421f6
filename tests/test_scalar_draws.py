"""The scalar step (``harness._scalar_step``) against the array step: the same draws, bit for bit.

From the first step with at most ``SCALAR_STEP_MAX`` live trials, a run's
scalar phase steps S, I and R lists of Python integers, making the array
step's draws one trial at a time through numpy's scalar samplers. Setting
the constant to 0 runs every step on arrays, and setting it to the trial
count runs every step after step 0 in the scalar phase; every
``TrajectoryStats`` array must be the same either way, and the same as at
the default constant, where a run crosses from one phase to the other as
its trials clear. Each individual-testing round draws its positives through
``_singles``, as every pooled round's leftover singletons do, from a table or
numpy's hypergeometric, in both phases.
"""

import numpy as np
import pytest

from sirpool import SimConfig, run_experiment
from sirpool import harness
from sirpool.harness import LONE_TABLE_MAX_CELLS, SCALAR_STEP_MAX, SINGLES_TABLE_MAX_CELLS
from tests.test_harness import CountingGenerator, ndarray_fields

LENGTHS = (0, 1, SCALAR_STEP_MAX, SCALAR_STEP_MAX + 1)

# (n, p): p = 0, p = 1, n = 0 and the support's ends, then interior values
BINOMIAL_EDGES = [(7, 0.0), (7, 1.0), (0, 0.4), (1, 0.5), (10 ** 6, 1e-6), (50, 0.3),
                  (3000, 0.999), (12, 0.5), (100_000, 0.03)]
# (good, bad, sample): sample = 0, good = 0, bad = 0, sample = good + bad, then
# interior values
HYPERGEOMETRIC_EDGES = [(5, 9, 0), (0, 9, 4), (6, 0, 3), (5, 9, 14), (1, 1, 1),
                        (20_000, 80_000, 3000), (3, 997, 30), (400, 600, 500), (2, 2, 2)]

REF = dict(n=1000, capacity=30, p=0.2, q=1e-5, horizon=500)

CONFIGS = {
    "individual": dict(REF, policy="individual", trials=16, seed=1),
    # table-sized rounds, and steps whose trials split between pooled and
    # fallback rounds
    "hybrid": dict(REF, p=0.3, q=1e-3, policy="saffron-hybrid", trials=16, seed=0),
    # rounds too wide for a lone-group table, with leftover singles too
    # many for a singles table
    "hybrid-wide": dict(n=100_000, capacity=3000, p=2e-3, q=1e-7, horizon=12,
                        policy="saffron-hybrid", trials=3, seed=3),
    "individual-no-spread": dict(REF, q=0.0, policy="individual", trials=10, seed=4),
    "hybrid-no-spread": dict(REF, q=0.0, policy="saffron-hybrid", trials=10, seed=5),
    "individual-capacity-n": dict(n=60, capacity=60, p=0.3, q=1e-3, horizon=10,
                                  policy="individual", trials=6, seed=6),
    "hybrid-capacity-n": dict(n=60, capacity=60, p=0.3, q=1e-3, horizon=10,
                              policy="saffron-hybrid", trials=6, seed=7),
    # individual rounds too wide for a singles table: numpy's sampler draws
    "individual-wide": dict(n=100_000, capacity=3000, p=2e-3, q=1e-7, horizon=12,
                            policy="individual", trials=3, seed=8),
    # a singles table of exactly SINGLES_TABLE_MAX_CELLS cells, and one row
    # over it
    "individual-table-cap": dict(n=4095, capacity=31, p=0.01, q=1e-4, horizon=20,
                                 policy="individual", trials=3, seed=9),
    "individual-past-table-cap": dict(n=4096, capacity=31, p=0.01, q=1e-4, horizon=20,
                                      policy="individual", trials=3, seed=9),
}


def argument_sets(name, length):
    """Arguments of ``length`` rows, each edge row in turn first, then random interior rows.

    Each set comes with an array last argument and with scalar ones.
    """
    edges = BINOMIAL_EDGES if name == "binomial" else HYPERGEOMETRIC_EDGES
    dtypes = (np.int64, np.float64) if name == "binomial" else (np.int64,) * 3
    for start in range(len(edges)):
        picked = [edges[(start + k) % len(edges)] for k in range(min(length, len(edges)))]
        rng = np.random.default_rng([length, start])
        while len(picked) < length:
            good, bad = rng.integers(0, 50, size=2).tolist()
            picked.append((good, bad, int(rng.integers(0, good + bad + 1))) if name != "binomial"
                          else (good, float(rng.random())))
        args = [np.array([row[k] for row in picked], dtype=dtype) for k, dtype in enumerate(dtypes)]
        yield args
        if name == "binomial":
            scalars = (0.0, 1.0, 0.3)
        else:
            scalars = {0, int((args[0] + args[1]).min()) if length else 0}
        for last in scalars:
            yield args[:-1] + [last]


def run(monkeypatch, cfg, threshold):
    monkeypatch.setattr(harness, "SCALAR_STEP_MAX", threshold)
    return run_experiment(cfg)


def scalar_rounds(monkeypatch, cfg):
    """The all-scalar run and, per step, its (groups, eta) per layout, its singles and its calls.

    A step's singles are the ``tests`` of each ``_singles`` call it made. Its
    calls are None for a pooled step, and otherwise its live trials with the
    generator's call count per method. Every scalar step must receive a
    float64 spread table.
    """
    rounds, individual, tests = [], [], []
    step, lone, singles = harness._scalar_step, harness._lone_groups, harness._singles

    def counted_step(cfg, expected, counts, log_miss, spread, rng):
        # each step takes the previous one's lists, which must hold Python
        # integers: a numpy scalar would slow every later step's arithmetic
        assert all(type(c) is list and all(type(x) is int for x in c) for c in counts)
        # the run always hands the phase a spread table
        assert type(spread) is np.ndarray and spread.dtype == np.float64
        rounds.append([])
        tests.append([])
        live = len(counts[0])
        # default_rng hands a Generator back as it is, so this counts rng's calls
        counting = CountingGenerator(rng)
        counts = step(cfg, expected, counts, log_miss, spread, counting)
        individual.append(None if expected is not None else (live, counting.calls))
        return counts

    monkeypatch.setattr(harness, "_scalar_step", counted_step)
    monkeypatch.setattr(harness, "_lone_groups", lambda infected, groups, eta, rng:
                        rounds[-1].append((groups, eta)) or lone(infected, groups, eta, rng))
    monkeypatch.setattr(harness, "_singles", lambda n, good, count, rng:
                        tests[-1].append(count) or singles(n, good, count, rng))
    return run(monkeypatch, cfg, cfg.trials), rounds, individual, tests


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_scalar_step_is_bit_identical_to_the_array_step(monkeypatch, name):
    cfg = SimConfig(**CONFIGS[name])
    runs = {"array": run(monkeypatch, cfg, 0), "default": run(monkeypatch, cfg, SCALAR_STEP_MAX)}
    scalar, rounds, individual, tests = scalar_rounds(monkeypatch, cfg)
    for label, other in runs.items():
        for field, a in ndarray_fields(scalar).items():
            b = getattr(other, field)
            assert a.dtype == b.dtype and np.array_equal(a, b), (label, field)
    # the premises that make each config worth running
    assert len(rounds) == scalar.control_time.max()
    if name.startswith("hybrid"):
        shapes = {shape for step in rounds for shape in step}
        wide = {(g, eta) for g, eta in shapes if (g + 1) * (g * eta + 1) > LONE_TABLE_MAX_CELLS}
        assert any(g >= 2 for g, _ in shapes)
        assert bool(wide) == (name == "hybrid-wide")
    if name == "hybrid":
        assert any({g for g, _ in step} >= {0, 2} for step in rounds)
    leftovers = [k for step, calls in zip(tests, individual) if calls is None for k in step]
    tableless = [k for k in leftovers if (cfg.n + 1) * (k + 1) > SINGLES_TABLE_MAX_CELLS]
    assert bool(tableless) == (name == "hybrid-wide")
    # every individual round makes one ``_singles`` call at the capacity: the
    # capacity's table, read by one call of uniforms, or numpy's
    # hypergeometric, once per trial
    fits = (cfg.n + 1) * (cfg.capacity + 1) <= SINGLES_TABLE_MAX_CELLS
    assert fits == (name not in ("hybrid-wide", "individual-wide", "individual-past-table-cap"))
    picked = [(step, calls) for step, calls in zip(tests, individual) if calls is not None]
    for step, (live, calls) in picked:
        assert step == [cfg.capacity]
        assert calls == ({"binomial": live, "random": 1} if fits
                         else {"binomial": live, "hypergeometric": live})
    if name.startswith("individual"):
        assert len(picked) == len(rounds)
    if cfg.trials > SCALAR_STEP_MAX:
        # the default run crosses from the array step to the scalar step
        cleared = scalar.control_time[~scalar.control_censored]
        assert np.unique(cleared).size > cfg.trials - SCALAR_STEP_MAX


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("name", ["binomial", "hypergeometric"])
def test_draw_matches_the_array_call(name, length):
    # the scalar step calls numpy's scalar sampler once per trial, on the
    # Python values of the array step's arguments, and must get the array
    # call's values and leave the generator in the same state
    for seed, args in enumerate(argument_sets(name, length)):
        mine, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        rows = zip(*(a.tolist() if isinstance(a, np.ndarray) else [a] * length for a in args))
        got = [getattr(mine, name)(*row) for row in rows]
        want = getattr(numpys, name)(*args)
        assert want.dtype == np.int64 and want.shape == (length,)
        assert got == want.tolist(), (args, got, want)
        assert mine.random() == numpys.random()


@pytest.mark.parametrize("length", [0, 1, 8, 9])
def test_zero_sample_draws_nothing(length):
    # every trial of a pooled step takes part in the in-group draw, and a
    # trial whose round falls back has no group slots: its zero-sample draw
    # must consume nothing on the array path, and the scalar step skips it
    good = np.arange(1, length + 1)
    fresh = np.random.default_rng(length).bit_generator.state
    for sample in (np.zeros(length, dtype=np.int64), 0):
        rng = np.random.default_rng(length)
        got = rng.hypergeometric(good, good + 3, sample)
        assert got.shape == (length,) and not got.any()
        assert rng.bit_generator.state == fresh
    rng = np.random.default_rng(length)
    assert [rng.hypergeometric(k, k + 3, 0) for k in good.tolist()] == [0] * length
    assert rng.bit_generator.state == fresh


LARGE = dict(n=100_000, capacity=3000, q=1e-7, horizon=40)


@pytest.mark.parametrize("trials", [1, 2, SCALAR_STEP_MAX, SCALAR_STEP_MAX + 1])
@pytest.mark.parametrize("policy", ["individual", "saffron-hybrid"])
@pytest.mark.parametrize("p", [0.2, 2e-5])
def test_engine_is_bit_identical_on_the_array_path(monkeypatch, p, policy, trials):
    # p = 2e-5 leaves ~2 infected per trial, so trials clear within the
    # horizon and a run with one trial over the constant falls to it
    cfg = SimConfig(p=p, policy=policy, trials=trials, seed=11, **LARGE)
    scalar = run_experiment(cfg)
    array = run(monkeypatch, cfg, 0)
    for name, a in ndarray_fields(scalar).items():
        b = getattr(array, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    if p < 0.01 and trials > SCALAR_STEP_MAX:
        assert (~scalar.control_censored).sum() >= trials - SCALAR_STEP_MAX
