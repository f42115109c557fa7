"""The benchmark's tracer still finds every name it wraps in the package.

bench/spans.py patches functions by name at their call sites, so renaming
one of them would otherwise break only `bench/run.py --trace 1`.
"""

import importlib.util
from pathlib import Path

import pytest

from codedconv import coding, strategies
from codedconv.cli import main
from codedconv.engine import run_episode
from codedconv.scenarios import benchmark_scenario

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_package():
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        scn = benchmark_scenario(1, 64)
        run_episode(scn, "traditional", 3, keep_result=False)
        timing_only = tracer.layer_metrics()[0]["coding.convolve_fft.calls"]
        assert run_episode(scn, "traditional", 3).result is not None
        kept = tracer.layer_metrics()[0]
        # The tracer counts a pilot per episode with stragglers, none without.
        run_episode(scn.replace(straggler_ratio=0.5), "dynamic", 3,
                    keep_result=False)
        pilots = tracer.layer_metrics()[0]["engine.pilot.calls"]
        run_episode(scn, "dynamic", 3, keep_result=False)
        counts = tracer.layer_metrics()[0]
    finally:
        tracer.uninstall()
    assert strategies.convolve_fft is coding.convolve_fft
    assert strategies.STRATEGIES["uncoded"] is strategies.run_uncoded
    assert timing_only == 0
    # The kept result is assembled through the names the tracer wraps.
    assert kept["coding.convolve_fft.calls"] > 0
    assert kept["coding.mds_encode.calls"] > 0
    assert kept["coding.mds_decode.calls"] > 0
    assert kept["coding.mds_decode.rhs_bytes"] > 0
    assert pilots == counts["engine.pilot.calls"] == 1
    # Dynamic episodes reach the estimator and the encoding matrix through
    # the names the tracer wraps.
    assert counts["strategies.estimator.calls"] > 0
    assert counts["coding.make_encoding_matrix.calls"] > 0


# Each kind's experiment span; compare is stress at one ratio.
KIND_SPANS = {
    "sweep-b": ("experiments.sweep_b", ["--reps", "1"]),
    "compare": ("experiments.stress_test", ["--reps", "1"]),
    "stress": ("experiments.stress_test", ["--reps", "1"]),
    "success-rate": ("experiments.success_rate", ["--runs", "3"]),
}


@pytest.mark.parametrize("kind", sorted(KIND_SPANS))
def test_cli_calls_reach_the_experiment_spans(kind, tmp_path, capsys):
    # The tracer wraps the experiments, emit and the scenario presets at
    # their names in `cli`; a call that goes round them reads 0 here.
    span, count = KIND_SPANS[kind]
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        code = main([kind, "--scale", "64", "--out", str(tmp_path), *count])
        counts = tracer.layer_metrics()[0]
    finally:
        tracer.uninstall()
    assert code == 0, capsys.readouterr().err
    assert counts[f"{span}.calls"] == 1
    assert counts["experiments.emit.calls"] == 1
    assert counts["scenarios.benchmark_scenario.calls"] >= 1
