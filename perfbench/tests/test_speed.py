import pytest

import speed


def test_scale_uses_the_probes_taken_during_the_section():
    sampler = speed.SpeedSampler(period_s=1.0)
    ref = speed.REFERENCE_PROBE_S
    sampler.samples = [(0.0, ref), (1.0, ref), (2.0, ref / 2), (3.0, ref / 2), (9.0, ref)]
    assert sampler.scale(2.5, 3.0) == pytest.approx(2.0)  # the probes at 2 and 3 s
    assert sampler.scale(0.5, 1.5) == pytest.approx(1.2)  # 0, 1 and 2 s: mean 5/6 ref
    assert sampler.scale(20.0, 21.0) == 1.0  # no probe nearby: left unscaled


def test_scale_drops_the_slowest_tenth():
    sampler = speed.SpeedSampler(period_s=0.1)
    ref = speed.REFERENCE_PROBE_S
    sampler.samples = [(t / 10, ref) for t in range(10)] + [(0.5, 50 * ref)]
    assert sampler.scale(0.0, 1.0) == pytest.approx(1.0)


def test_sampler_thread_samples_and_stops():
    with speed.SpeedSampler(period_s=0.01) as sampler:
        while len(sampler.samples) < 3:
            speed.probe()
    assert not sampler._thread.is_alive()
    assert all(d > 0 for _, d in sampler.samples)
