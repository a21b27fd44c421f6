"""``harness._draw``: short draws through numpy's scalar samplers, bit-identical to its array call."""

import numpy as np
import pytest

from sirpool import SimConfig, run_experiment
from sirpool import harness
from sirpool.harness import SCALAR_DRAW_MAX, _draw
from tests.test_harness import ndarray_fields

LENGTHS = (0, 1, SCALAR_DRAW_MAX, SCALAR_DRAW_MAX + 1)

# (n, p): p = 0, p = 1, n = 0 and the support's ends, then interior values
BINOMIAL_EDGES = [(7, 0.0), (7, 1.0), (0, 0.4), (1, 0.5), (10 ** 6, 1e-6), (50, 0.3),
                  (3000, 0.999), (12, 0.5), (100_000, 0.03)]
# (good, bad, sample): sample = 0, good = 0, bad = 0, sample = good + bad, then
# interior values
HYPERGEOMETRIC_EDGES = [(5, 9, 0), (0, 9, 4), (6, 0, 3), (5, 9, 14), (1, 1, 1),
                        (20_000, 80_000, 3000), (3, 997, 30), (400, 600, 500), (2, 2, 2)]


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


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("name", ["binomial", "hypergeometric"])
def test_draw_matches_the_array_call(name, length):
    for seed, args in enumerate(argument_sets(name, length)):
        mine, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _draw(getattr(mine, name), *args)
        want = getattr(numpys, name)(*args)
        assert got.dtype == np.int64 and got.shape == (length,)
        assert np.array_equal(got, want), (args, got, want)
        assert mine.random() == numpys.random()


@pytest.mark.parametrize("length", LENGTHS)
def test_zero_sample_draws_nothing(length):
    # the engine's in-group draw spans every trial, and a trial whose round
    # falls back has no group slots: its zero sample must consume nothing
    good = np.arange(1, length + 1)
    for sample in (np.zeros(length, dtype=np.int64), 0):
        rng = np.random.default_rng(length)
        got = _draw(rng.hypergeometric, good, good + 3, sample)
        assert got.dtype == np.int64 and got.shape == (length,) and not got.any()
        assert rng.bit_generator.state == np.random.default_rng(length).bit_generator.state


@pytest.mark.parametrize("length", [1, SCALAR_DRAW_MAX, SCALAR_DRAW_MAX + 1])
def test_invalid_arguments_raise_on_both_paths(length):
    rng = np.random.default_rng(0)
    count = np.full(length, 10)
    with pytest.raises(ValueError):
        _draw(rng.binomial, count, np.full(length, 1.5))
    with pytest.raises(ValueError):
        _draw(rng.binomial, count, 1.5)
    with pytest.raises(ValueError):
        _draw(rng.hypergeometric, count, count, np.full(length, 21))
    with pytest.raises(ValueError):
        _draw(rng.hypergeometric, count, count, 21)


LARGE = dict(n=100_000, capacity=3000, q=1e-7, horizon=40)


@pytest.mark.parametrize("trials", [1, 2, SCALAR_DRAW_MAX, SCALAR_DRAW_MAX + 1])
@pytest.mark.parametrize("policy", ["individual", "saffron-hybrid"])
@pytest.mark.parametrize("p", [0.2, 2e-5])
def test_engine_is_bit_identical_on_the_array_path(monkeypatch, p, policy, trials):
    # p = 2e-5 leaves ~2 infected per trial, so trials clear within the
    # horizon and a 9-trial run's live count falls to the constant
    cfg = SimConfig(p=p, policy=policy, trials=trials, seed=11, **LARGE)
    scalar = run_experiment(cfg)
    monkeypatch.setattr(harness, "SCALAR_DRAW_MAX", 0)
    array = run_experiment(cfg)
    for name, a in ndarray_fields(scalar).items():
        b = getattr(array, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    if p < 0.01 and trials > SCALAR_DRAW_MAX:
        assert (~scalar.control_censored).sum() >= trials - SCALAR_DRAW_MAX
