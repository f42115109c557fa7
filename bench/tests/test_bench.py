"""Self-tests of the benchmark: tracing is repeatable and changes nothing.

Run from the repository root:

    python3 -m pytest bench/tests -q

Each traced process here runs one untraced and one traced pass.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

from run import END_TO_END_UNITS, ROOT, THREAD_ENV, run_child  # noqa: E402
from spans import PER_LAYER, UNITS  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def test_benchmark_json_lists_what_run_py_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    assert all(m["unit"] == UNITS[m["name"]] for m in spec["per_layer"])


def traced(workload: str, tmp_path_factory) -> dict:
    work_dir = str(tmp_path_factory.mktemp("trace"))
    result, error = run_child("trace", workload, DEFAULT_SEED, 0.0, work_dir,
                              time.monotonic() + 170)
    assert error is None, error
    return result


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    return {name: traced(name, tmp_path_factory) for name in WORKLOADS}


def counters(result: dict) -> dict:
    return result["layers"][0]["counts"]


def test_two_traced_runs_give_identical_counters(traces, tmp_path_factory):
    again = traced("success-fail-s8", tmp_path_factory)
    assert counters(again) == counters(traces["success-fail-s8"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_tables_match_untraced(traces, workload):
    untraced, traced_pass = traces[workload]["passes"]
    assert not untraced["traced"] and traced_pass["traced"]
    for plain, wrapped in zip(untraced["calls"], traced_pass["calls"]):
        assert plain["error"] is None and wrapped["error"] is None
        assert plain["digests"] and wrapped["digests"] == plain["digests"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_pass_runs_every_requested_episode(traces, workload):
    counts = counters(traces[workload])
    assert (counts["experiments.run_episode.calls"]
            == WORKLOADS[workload].episodes_per_pass)


def test_isolation_claims(traces):
    assert counters(traces["success-fail-s8"])["engine.pilot.calls"] == 0
    assert counters(traces["sweep-b-s1"])["engine.pilot.calls"] == 0
    assert counters(traces["stress-delayed-s8"])["engine.pilot.calls"] > 0
    assert counters(traces["sweep-b-s1"])["strategies.select_s.calls"] == 0
    assert counters(traces["sweep-b-s1"])["strategies.chunk_score.calls"] == 0


def test_calibration_scales_a_known_delay_like_the_raw_times(tmp_path):
    """Scaled and unscaled episode times move by the same factor when a
    fixed busy wait is added to every episode, so the calibration kernel
    does not respond to the work it brackets."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "tests", "delay_probe.py"),
         str(tmp_path)],
        cwd=ROOT, env={**os.environ, **THREAD_ENV}, capture_output=True,
        text=True, timeout=170, check=True)
    p50 = json.loads(proc.stdout.strip().splitlines()[-1])
    plain, delayed, delay_ms = p50["plain"], p50["delayed"], p50["delay_ms"]
    # The episode timer sees the delay.
    assert 0.5 * delay_ms < delayed["raw"] - plain["raw"] < 2 * delay_ms
    raw_factor = delayed["raw"] / plain["raw"]
    scaled_factor = delayed["scaled"] / plain["scaled"]
    assert abs(scaled_factor / raw_factor - 1) < 0.1


def test_refuses_to_run_without_the_package(tmp_path):
    """A directory with only the benchmark exits non-zero, printing no result."""
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("tests", ".work",
                                                  "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-b-s1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
