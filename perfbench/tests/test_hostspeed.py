import os
import time

import pytest

import hostspeed
from hostspeed import MIN_SAMPLES, NOMINAL_S, SpeedProbe, scale


def test_scale_uses_the_median_of_samples_inside_the_interval_on_the_given_cpus():
    samples = [(0, float(t), 0.004) for t in range(10)]
    samples += [(1, float(t), 0.001) for t in range(10)]
    samples[3] = (0, 3.0, 1.0)  # one outlier does not move the median
    assert scale(samples, 0, 9, {0}) == pytest.approx(NOMINAL_S / 0.004)
    assert scale(samples, 0, 9, {1}) == pytest.approx(NOMINAL_S / 0.001)


def test_a_short_interval_borrows_the_nearest_samples():
    samples = [(0, float(t), 0.001 if t < 50 else 0.004) for t in range(100)]
    # no sample lies inside; the MIN_SAMPLES nearest all come from t >= 50
    assert scale(samples, 60.2, 60.4, {0}) == pytest.approx(NOMINAL_S / 0.004)
    # one sample inside is too few: t = 38..42 are taken, all from t < 50
    assert MIN_SAMPLES == 5
    assert scale(samples, 40, 40, {0}) == pytest.approx(NOMINAL_S / 0.001)


def test_no_sample_is_an_error():
    with pytest.raises(RuntimeError):
        scale([(1, 0.0, 0.001)], 0, 1, {0})


def test_probe_samples_every_cpu_and_stops(monkeypatch):
    monkeypatch.setattr(hostspeed, "INTERVAL_S", 0.01)
    cpus = os.sched_getaffinity(0)
    with SpeedProbe(cpus) as probe:
        time.sleep(0.05 + 0.03 * len(cpus))
    assert not probe._thread.is_alive()
    assert {c for c, _, _ in probe.samples} == cpus
    assert all(d > 0 for _, _, d in probe.samples)
    assert os.sched_getaffinity(0) == cpus  # the probe moved only its own thread
