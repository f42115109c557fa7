"""Tests for the compute-time, link-rate and behaviour models."""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from scipy import stats

from codedconv.models import (
    Behavior,
    CommParams,
    WorkerProfile,
    comm_time,
    compute_load,
    data_rate,
    sample_compute_time,
    signal_power_dbm,
)


# ---------------------------------------------------------------------------
# compute load and time


def test_compute_load_example():
    # (1024 + 1024) * log2(2048) = 2048 * 11
    assert compute_load(1024, 1024) == pytest.approx(2048 * 11.0)


def test_compute_load_coefficient_scales():
    assert compute_load(8, 8, coeff=2.0) == pytest.approx(2 * 16 * 4.0)


def test_compute_load_rejects_bad_sizes():
    with pytest.raises(ValueError):
        compute_load(0, 5)
    with pytest.raises(ValueError):
        compute_load(5, 5, coeff=0.0)


def test_sample_compute_time_mean_and_shift():
    # mean = alpha*c + c/mu; no sample below the deterministic shift.
    rng = np.random.default_rng(42)
    profile = WorkerProfile(mu=4e6)
    load = 1e6
    samples = sample_compute_time(rng.standard_exponential(100_000), load, profile)
    expected_mean = profile.alpha * load + load / profile.mu
    assert expected_mean == pytest.approx(0.5)
    assert abs(samples.mean() - expected_mean) / expected_mean < 0.02
    assert samples.min() >= profile.alpha * load


def test_sample_compute_time_distribution_shape():
    # Shifted samples follow Exp(rate = mu/load): KS test at 1% significance.
    rng = np.random.default_rng(7)
    profile = WorkerProfile(mu=3e6)
    load = 5e5
    samples = sample_compute_time(rng.standard_exponential(20_000), load, profile)
    shifted = samples - profile.alpha * load
    result = stats.kstest(shifted, "expon", args=(0.0, load / profile.mu))
    assert result.pvalue > 0.01


def test_sample_compute_time_rejects_bad_load():
    with pytest.raises(ValueError):
        sample_compute_time(1.0, 0.0, WorkerProfile(mu=1e6))


def test_worker_profile_validation():
    with pytest.raises(ValueError):
        WorkerProfile(mu=0.0)
    with pytest.raises(ValueError):
        WorkerProfile(mu=math.nan)


def test_worker_profile_is_frozen():
    # Every episode of a rep reads the same profiles.
    profile = WorkerProfile(mu=4e6)
    with pytest.raises(dataclasses.FrozenInstanceError):
        profile.mu = 1e6
    assert (profile.mu, profile.alpha) == (4e6, 1.0 / 4e6)


def test_worker_profile_copies_compares_and_stays_frozen():
    profile = WorkerProfile(mu=3.7e6)
    for copied in (pickle.loads(pickle.dumps(profile)), copy.deepcopy(profile)):
        assert copied == profile and copied.alpha == profile.alpha
    twin = WorkerProfile(mu=3.7e6)
    assert repr(profile) == repr(twin) == (
        f"WorkerProfile(mu={3.7e6!r}, alpha={1 / 3.7e6!r})")
    assert profile == twin and hash(profile) == hash(twin)
    assert profile != WorkerProfile(mu=4e6)
    assert profile.alpha == 1 / profile.mu
    for name in ("mu", "alpha"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(profile, name, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(profile, name)


# ---------------------------------------------------------------------------
# link model


def test_signal_power_simplified_example():
    # S(1000 m) = 6 - 20*log10(1000) = -54 dBm
    comm = CommParams()
    assert signal_power_dbm(1000.0, comm) == pytest.approx(-54.0)


def test_data_rate_example():
    # At 1000 m: signal 10^-8.4 W over 1e-12 W noise in 1 MHz.
    comm = CommParams()
    rate = data_rate(1000.0, comm)
    snr = 10.0 ** ((-54.0 - 30.0) / 10.0) / 1e-12
    assert rate == pytest.approx(1e6 * math.log2(1 + snr))
    assert rate == pytest.approx(1.196e7, rel=1e-3)


def test_data_rate_monotone_in_distance():
    comm = CommParams()
    rates = [data_rate(d, comm) for d in (10, 100, 1000, 4000)]
    assert all(r1 > r2 for r1, r2 in zip(rates, rates[1:]))
    assert all(r > 0 for r in rates)


def test_data_rate_near_field_clamped():
    comm = CommParams()
    assert data_rate(0.0, comm) == data_rate(0.5, comm) == data_rate(1.0, comm)


def test_comm_time_example():
    # 1000 numbers at 8 bytes over 1e7 bit/s: 64000 bits -> 6.4 ms
    assert comm_time(1000, 1e7, payload_bytes=8) == pytest.approx(6.4e-3)


def test_comm_time_zero_numbers():
    assert comm_time(0, 1e6) == 0.0


def test_comm_time_rejects_bad_rate():
    with pytest.raises(ValueError):
        comm_time(10, 0.0)
    with pytest.raises(ValueError):
        comm_time(-1, 1e6)


# ---------------------------------------------------------------------------
# straggler behaviours


def test_behavior_validation():
    with pytest.raises(ValueError):
        Behavior(joins=-1.0)
    with pytest.raises(ValueError):
        Behavior(slowdown=0.5)
