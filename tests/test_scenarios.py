"""Scenario construction and validation."""

import dataclasses

import pytest

from codedconv.scenarios import (
    DEFAULT_SCALE,
    SCENARIO_SIZES,
    TUNED_DYNAMIC_B,
    ScenarioConfig,
    benchmark_scenario,
    scaled_size,
)


def test_scaled_size_rounds_and_floors_at_one():
    assert scaled_size(4096, 8) == 512
    assert scaled_size(30000, 8) == 3750
    assert scaled_size(20000, 8) == 2500
    assert scaled_size(3, 8) == 1
    assert scaled_size(100, 1) == 100


def test_benchmark_scenarios_desk_scale():
    want = {1: (512, 256, 8), 2: (512, 256, 4), 3: (2500, 3750, 8), 4: (2500, 3750, 6)}
    for idx, (n1, n2, p) in want.items():
        scn = benchmark_scenario(idx)
        assert (scn.n1, scn.n2, scn.n_workers) == (n1, n2, p)
        assert scn.name == f"scenario{idx}"


def test_benchmark_scenario_full_scale_sizes():
    for idx, (n1, n2, p) in SCENARIO_SIZES.items():
        scn = benchmark_scenario(idx, scale=1)
        assert (scn.n1, scn.n2, scn.n_workers) == (n1, n2, p)


def test_tuned_b_applied_at_default_scale():
    for idx in (1, 2, 3, 4):
        scn = benchmark_scenario(idx)
        assert scn.dynamic_b == TUNED_DYNAMIC_B[(idx, DEFAULT_SCALE)]
    # unknown scale falls back to the automatic piece length
    assert benchmark_scenario(1, scale=16).dynamic_b is None


def test_benchmark_scenario_overrides():
    scn = benchmark_scenario(1, straggler_ratio=0.5, straggler_mode="fail")
    assert scn.straggler_ratio == 0.5
    assert scn.straggler_mode == "fail"


def test_unknown_index_rejected():
    with pytest.raises(ValueError):
        benchmark_scenario(5)


def test_validation_collects_all_problems():
    with pytest.raises(ValueError) as err:
        ScenarioConfig(name="bad", n1=0, n2=-3, n_workers=0,
                       straggler_ratio=1.5, straggler_mode="nap")
    msg = str(err.value)
    for token in ("n1", "n2", "n_workers", "straggler_ratio", "straggler_mode"):
        assert token in msg


def test_validation_mu_range():
    with pytest.raises(ValueError):
        ScenarioConfig(name="x", n1=8, n2=8, n_workers=1,
                       mu_low=5e6, mu_high=4e6)


@pytest.mark.parametrize("field", ["init_box_m", "speed_limit_mps"])
def test_validation_refuses_a_limit_whose_range_overflows(field):
    # Draws on [-limit, limit) span twice the limit: 1e308 is finite, but
    # 2e308 is not, so the config is refused rather than drawing inf or nan.
    with pytest.raises(ValueError, match="twice each finite"):
        benchmark_scenario(1, **{field: 1e308})
    assert getattr(benchmark_scenario(1, **{field: 8e307}), field) == 8e307


def test_replace_revalidates():
    scn = benchmark_scenario(1)
    with pytest.raises(ValueError):
        scn.replace(straggler_ratio=-0.1)
    other = scn.replace(straggler_ratio=0.25)
    assert other.straggler_ratio == 0.25
    assert scn.straggler_ratio == 0.0  # original untouched


def test_scenario_is_frozen_and_hashable():
    scn = benchmark_scenario(1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        scn.n1 = 10
    same = benchmark_scenario(1)
    assert same == scn and hash(same) == hash(scn)
    assert scn.replace(straggler_ratio=0.5) != scn
