"""One benchmark process: set-up, then timed passes, traced passes or the oracle.

Usage: child.py ROLE WORKLOAD SEED BUDGET_S WORK_DIR [INDEX COUNT]

ROLE is `measure` (timed passes with per-episode samples), `trace`
(untraced and traced passes alternating, all with SEED) or `oracle`
(numeric check of a few episodes against direct convolution, then one
untimed pass with SEED).  Measuring process INDEX of COUNT runs its first
pass with SEED, whose tables the gate checks, and gives its k-th pass
(k >= 1) the seed of global pass INDEX + k * COUNT, so the later passes of
a run never repeat the same episodes.  The last line of standard output
is one JSON object with the results.  The package is imported from the
`src/` directory next to this benchmark's own directory.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ORACLE_PRESETS = (1, 3)
ORACLE_REPS = 2
ORACLE_REL_TOL = 1e-6
# Seed distance between consecutive passes of one run.
PASS_SEED_STRIDE = 1_000_003
# The host's speed drifts by tens of percent over seconds, and a fixed
# kernel slows down with the workload (correlation 0.8-0.9 between adjacent
# timings).  So a fixed kernel runs before and after every pass, and the
# parent scales the pass's times by CALIBRATION_NOMINAL_S over the mean of
# those two kernel timings: times read as on a host where the kernel takes
# CALIBRATION_NOMINAL_S.
CALIBRATION_NOMINAL_S = 0.02


def calibration_kernel() -> float:
    """Seconds for a fixed mix of interpreter work and small FFTs."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    vec = np.linspace(-1.0, 1.0, 4096)
    for _ in range(50):
        np.fft.irfft(np.fft.rfft(vec) * 0.5)
    return time.perf_counter() - start


def pass_seed(seed: int, index: int) -> int:
    """Seed of the run's index-th pass; pass 0 uses the run seed itself."""
    return seed + index * PASS_SEED_STRIDE


class Calibration:
    """Kernel timings between passes; the first one directly follows set-up."""

    def __init__(self):
        self.first = self.last = calibration_kernel()

    def around(self, run):
        """Call run(); returns (result, scale for the times it took)."""
        before = self.last
        result = run()
        self.last = calibration_kernel()
        return result, CALIBRATION_NOMINAL_S / ((before + self.last) / 2)


def setup(workload, seed: int) -> tuple[float, object]:
    """Import the CLI, build the scenarios and run one warm-up episode."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import codedconv.cli as cli
    from codedconv.engine import run_episode
    from codedconv.experiments import episode_seed
    from codedconv.scenarios import benchmark_scenario

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"codedconv imported from {cli.__file__}, not {SRC}")
    scenarios = [benchmark_scenario(call.preset, call.scale)
                 for call in workload.calls]
    warm = scenarios[0].replace(**workload.warmup_overrides)
    run_episode(warm, "dynamic", episode_seed(seed, warm.name, 0),
                horizon=workload.warmup_horizon, keep_result=False)
    return time.perf_counter() - start, cli


def digest_dir(path: str, label: str) -> dict:
    """sha256 of every table and manifest a call wrote, keyed label/file."""
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[f"{label}/{name}"] = hashlib.sha256(fh.read()).hexdigest()
    return out


def run_pass(cli, workload, seed: int, pass_dir: str, main=None) -> list[dict]:
    """Run every call of one pass; returns one record per call.

    Only the `main` call itself is timed.  Hashing the outputs happens
    after the clock stops.
    """
    main = main or cli.main
    records = []
    for call in workload.calls:
        out_dir = os.path.join(pass_dir, call.label)
        argv = [*call.argv, "--seed", str(seed), "--out", out_dir]
        captured = io.StringIO()
        error = None
        with contextlib.redirect_stdout(captured), \
                contextlib.redirect_stderr(captured):
            start = time.perf_counter()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # noqa: BLE001 - reported as a failed run
                code, error = None, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
        if code != 0 and error is None:
            error = f"exit code {code}: {captured.getvalue()[-500:]}"
        records.append({
            "label": call.label, "seed": seed, "wall_s": wall, "error": error,
            "digests": digest_dir(out_dir, call.label)
            if os.path.isdir(out_dir) else {},
        })
    shutil.rmtree(pass_dir, ignore_errors=True)
    return records


def measure(workload, seed, budget, work_dir, cli, calibration,
            index, count) -> dict:
    """Whole passes until `budget` seconds, timing each top-level episode."""
    from codedconv import experiments

    samples: list[float] = []
    original = experiments.run_episode
    clock = time.perf_counter

    def timed_episode(*args, **kwargs):
        start = clock()
        result = original(*args, **kwargs)
        samples.append(clock() - start)
        return result

    experiments.run_episode = timed_episode
    passes = []
    deadline = time.perf_counter() + budget
    try:
        while True:
            before = len(samples)
            # Every process's first pass uses the run seed, so its tables
            # are checked against the oracle's pass and reference.json.
            k = len(passes)
            calls, scale = calibration.around(lambda: run_pass(
                cli, workload, pass_seed(seed, index + k * count if k else 0),
                os.path.join(work_dir, f"pass{k}")))
            passes.append({"traced": False, "calls": calls, "scale": scale,
                           "episodes": len(samples) - before})
            if time.perf_counter() >= deadline:
                break
    finally:
        experiments.run_episode = original
    return {"passes": passes, "samples_ms": [s * 1e3 for s in samples]}


def trace(workload, seed, budget, work_dir, cli, calibration) -> dict:
    """Alternate untraced and traced passes until `budget` seconds."""
    passes, layers = [], []
    deadline = time.perf_counter() + budget
    while True:
        calls, scale = calibration.around(lambda: run_pass(
            cli, workload, seed, os.path.join(work_dir, f"pass{len(passes)}")))
        passes.append({"traced": False, "calls": calls, "scale": scale})

        tracer = Tracer()
        tracer.install()
        try:
            calls, scale = calibration.around(lambda: run_pass(
                cli, workload, seed,
                os.path.join(work_dir, f"pass{len(passes)}"),
                main=tracer.wrap("cli.main", cli.main)))
        finally:
            tracer.uninstall()
        counts, timings = tracer.layer_metrics()
        passes.append({"traced": True, "calls": calls, "scale": scale,
                       "episodes": counts["experiments.run_episode.calls"]})
        layers.append({"counts": counts, "timings": timings, "scale": scale})
        if time.perf_counter() >= deadline:
            break
    return {"passes": passes, "layers": layers}


def oracle(workload, seed, work_dir, cli) -> dict:
    """Episodes with keep_result=True against coding.convolve_direct, then
    one untimed pass whose tables the other processes must reproduce."""
    import numpy as np
    from codedconv.coding import convolve_direct
    from codedconv.engine import episode_task, run_episode
    from codedconv.experiments import STRATEGY_ORDER, episode_seed
    from codedconv.scenarios import benchmark_scenario

    checks = []
    for preset in ORACLE_PRESETS:
        scenario = benchmark_scenario(preset)
        for rep in range(ORACLE_REPS):
            episode = episode_seed(seed, scenario.name, rep)
            want = convolve_direct(*episode_task(scenario, episode))
            for strategy in STRATEGY_ORDER:
                tag = f"{scenario.name}/{strategy}/rep{rep}"
                try:
                    m = run_episode(scenario, strategy, episode,
                                    keep_result=True)
                except Exception as exc:  # noqa: BLE001 - a failed check
                    checks.append({"tag": tag, "error": repr(exc)})
                    continue
                if not m.success or m.result is None:
                    checks.append({"tag": tag, "error": "episode failed"})
                    continue
                err = float(np.max(np.abs(m.result - want))
                            / np.max(np.abs(want)))
                checks.append({"tag": tag, "rel_err": err,
                               "error": None if err <= ORACLE_REL_TOL
                               else f"rel err {err:.3e} > {ORACLE_REL_TOL}"})
    calls = run_pass(cli, workload, seed, os.path.join(work_dir, "pass0"))
    return {"checks": checks, "passes": [{"calls": calls}]}


def main(argv) -> int:
    role, name, seed, budget, work_dir, *position = argv
    workload, seed, budget = WORKLOADS[name], int(seed), float(budget)
    os.makedirs(work_dir, exist_ok=True)
    setup_s, cli = setup(workload, seed)
    if role == "oracle":
        result = oracle(workload, seed, work_dir, cli)
    else:
        calibration = Calibration()
        if role == "measure":
            index, count = map(int, position)
            result = measure(workload, seed, budget, work_dir, cli,
                             calibration, index, count)
        elif role == "trace":
            result = trace(workload, seed, budget, work_dir, cli, calibration)
        else:
            raise SystemExit(f"unknown role {role!r}")
        result["setup_scale"] = CALIBRATION_NOMINAL_S / calibration.first
    result["setup_s"] = setup_s
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
