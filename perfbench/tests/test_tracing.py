import sys
import types

import pytest

import sirpool
import sirpool.cli
from sirpool import codec, harness, policies

import tracing


class ManualClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_subtracts_nested_spans_and_skips_hook_time():
    clock = ManualClock()
    tracer = tracing.Tracer(clock=clock)

    def slow_hook(args, kwargs):
        clock.advance(10.0)  # wrapper work: charged to no span

    inner = tracer.wrap("codec.decode_round", lambda: clock.advance(2.0),
                        hook=tracing.Hook({"codec.identified"}, before=slow_hook))

    def outer_body():
        clock.advance(1.0)
        inner()
        clock.advance(3.0)
        inner()

    outer = tracer.wrap("policies.run_round", outer_body)
    outer()

    inner_stats = tracer.spans["codec.decode_round"]
    outer_stats = tracer.spans["policies.run_round"]
    assert inner_stats.calls == 2
    assert inner_stats.self_s == pytest.approx(4.0)
    assert outer_stats.calls == 1
    assert outer_stats.self_s == pytest.approx(4.0)  # 1 + 3, not the inner 2 + 2 or hooks
    assert list(outer_stats.durations) == [pytest.approx(28.0)]  # includes 2 x 10 of hooks

    metrics = tracing.span_summary("policies.run_round", outer_stats, wall_s=8.0)
    assert metrics["policies.run_round.share"] == pytest.approx(0.5)
    assert metrics["policies.run_round.us_p50"] == pytest.approx(28e6)


def test_span_closes_when_the_function_raises():
    tracer = tracing.Tracer()

    def boom():
        raise RuntimeError("engine failure")

    wrapped = tracer.wrap("harness.run_trial", boom)
    with pytest.raises(RuntimeError):
        wrapped()
    assert tracer.spans["harness.run_trial"].calls == 1
    assert len(tracer._open) == 1  # the span was closed


def bindings():
    return {
        "policies.decode_round": policies.decode_round,
        "codec.decode_round": codec.decode_round,
        "harness.spread_phase": harness.spread_phase,
        "sirpool.run_experiment": sirpool.run_experiment,
        "cli.write_csv": sirpool.cli.write_csv,
    }


def test_install_wraps_every_binding_and_restores_them():
    before = bindings()
    tracer = tracing.Tracer()
    with tracer.installed():
        during = bindings()
        for name, fn in during.items():
            assert fn is not before[name], name
        assert policies.decode_round is codec.decode_round
        assert sirpool.run_experiment is harness.run_experiment
    assert bindings() == before


def test_install_restores_on_error():
    before = bindings()
    with pytest.raises(KeyError):
        with tracing.Tracer().installed():
            raise KeyError("fail inside the traced block")
    assert bindings() == before


def test_traced_run_counts_and_matches_untraced():
    cfg = sirpool.SimConfig(n=200, capacity=12, q=5e-5, horizon=60, trials=3, seed=11,
                            policy="saffron-hybrid")
    plain = sirpool.run_experiment(cfg)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = sirpool.run_experiment(cfg)
    assert (traced.mean_infected == plain.mean_infected).all()
    metrics = tracer.metrics(traced_wall_s=1.0, overhead=0.0)
    assert metrics["harness.run_trial.calls"] == 3
    assert metrics["harness.steps"] == int(plain.control_time.sum())
    assert metrics["policies.run_round.calls"] == metrics["harness.steps"]
    assert (metrics["policies.pooled_rounds"] + metrics["policies.fallback_rounds"]
            == metrics["policies.plan_saffron_hybrid.calls"])
    verdicts = sum(metrics[f"codec.verdict_{v}"] for v in ("single", "multiple", "negative"))
    assert verdicts == metrics["codec.groups"]
    assert metrics["sir.isolated"] == round(plain.mean_isolated[-1] * 3)
    assert not tracer.absent


def test_missing_function_and_field_are_absent(monkeypatch):
    """A later engine without run_trial, or without RoundOutcome.decoded, still traces."""
    package = types.ModuleType("laterpkg")
    codec_mod = types.ModuleType("laterpkg.codec")
    outcome = types.SimpleNamespace(identified=[4, 7])  # no .decoded field
    codec_mod.decode_round = lambda matrix, results: outcome
    for module in (package, codec_mod):
        monkeypatch.setitem(sys.modules, module.__name__, module)

    tracer = tracing.Tracer()
    with tracer.installed("laterpkg"):
        codec_mod.decode_round(None, None)
    metrics = tracer.metrics(1.0, 0.0)

    assert metrics["codec.decode_round.calls"] == 1
    assert metrics["codec.identified"] == 2
    for gone in ("codec.verdict_single", "codec.single_yield", "harness.steps",
                 "harness.run_trial.calls", "sir.spread_phase.self_s"):
        assert gone not in metrics, gone
