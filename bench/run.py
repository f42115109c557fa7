"""codedconv benchmark: one workload per invocation, each process fresh.

    python3 bench/run.py --workload success-fail-s8 --seed 1234 --seconds 25 --trace 0

Run from a checkout that holds `src/codedconv`.  Every process runs
`codedconv.cli.main(argv)` single-threaded (OMP/OpenBLAS/MKL threads = 1),
with its tables written under `bench/.work/` and its stdout captured.

`--trace 0` runs the untimed correctness gate (table digests and the
numeric oracle) in one process, then splits `--seconds` over
MEASURE_PROCESSES fresh processes that each set up and time whole passes.
It prints the end-to-end metrics.  `--trace 1` runs the gate and one
process that alternates untraced and traced passes; it prints the
per-layer table and the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The exit code is 0 when every check passed, 1 when one failed
and 2 when the checkout holds no `src/codedconv`.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

from spans import PER_LAYER, TIMING_UNITS, UNITS
from workloads import DEFAULT_SEED, WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
WORK_ROOT = os.path.join(BENCH_DIR, ".work")

MEASURE_PROCESSES = 5
# Every child must have ended this long after start, well inside the
# three minutes one invocation may take.
RUN_DEADLINE_S = 170.0
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "episodes_per_s": "1/s", "episode_ms_p50": "ms", "episode_ms_p90": "ms",
    "setup_s": "s", "peak_rss_mb": "MB",
}


# -- environment ----------------------------------------------------------------


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(), "numpy": _version("numpy"),
        "scipy": _version("scipy"), "nproc": os.cpu_count(),
        "cpu": _cpu_model(), "commit": _git_commit(), "seed": seed,
        "threads": THREAD_ENV,
    }


# -- child processes ---------------------------------------------------------------


def run_child(role: str, workload: str, seed: int, budget: float,
              work_dir: str, deadline: float,
              *extra: str) -> tuple[dict | None, str | None]:
    """Run child.py to completion; returns (result, None) or (None, error)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return None, f"{role}: no time left before the run deadline"
    env = {**os.environ, **THREAD_ENV, "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), role,
           workload, str(seed), repr(budget), work_dir, *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=remaining, check=False)
    except subprocess.TimeoutExpired:
        return None, f"{role}: timed out after {remaining:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, (f"{role}: exit code {proc.returncode}: "
                      f"{proc.stderr.strip()[-1000:]}")
    return json.loads(lines[-1]), None


# -- correctness gate --------------------------------------------------------------


class Gate:
    """Counts attempted and failed runs and keeps the reason for each failure.

    A run is one `cli.main` call, one oracle episode or one child process
    that died before reporting.
    """

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failures: list[str] = []
        with open(REFERENCE, encoding="utf-8") as fh:
            self.reference: dict = json.load(fh).get(workload.name, {})
        self.reference_checked = False
        # Digests of the first pass with each seed, which every later pass
        # with that seed, in any process, must reproduce.
        self.observed: dict[int, dict] = {}
        self.digest_mismatches = 0

    @property
    def failed(self) -> int:
        return len(self.failures)

    def child_failed(self, error: str) -> None:
        self.attempted += 1
        self.failures.append(error)

    def oracle(self, result: dict) -> None:
        for check in result["checks"]:
            self.attempted += 1
            if check["error"]:
                self.failures.append(f"oracle {check['tag']}: {check['error']}")

    def passes(self, passes: list[dict]) -> None:
        wanted = self.workload.episodes_per_pass
        for index, record in enumerate(passes):
            # Passes that ran without the episode timer carry no count.
            episodes = record.get("episodes", wanted)
            for call in record["calls"]:
                self.attempted += 1
                where = f"pass {index} {call['label']} seed {call['seed']}"
                if call["error"]:
                    self.failures.append(f"{where}: {call['error']}")
                elif episodes != wanted:
                    self.failures.append(f"{where}: {episodes} episodes, "
                                         f"expected {wanted}")
                elif problem := self._digests(call):
                    self.digest_mismatches += 1
                    self.failures.append(f"{where}: {problem}")

    def _digests(self, call: dict) -> str | None:
        label, mine = call["label"], call["digests"]
        seen = self.observed.setdefault(call["seed"], {})
        if not any(key.startswith(label + "/") for key in seen):
            seen.update(mine)
        tables = [("the first pass with this seed", seen)]
        if call["seed"] == DEFAULT_SEED and self.reference:
            self.reference_checked = True
            tables.insert(0, ("reference.json", self.reference))
        for what, table in tables:
            want = {k: v for k, v in table.items() if k.startswith(label + "/")}
            if mine != want:
                return f"table digests differ from {what}"
        return None

    def digest_status(self) -> str:
        if self.digest_mismatches:
            return f"FAIL ({self.digest_mismatches} mismatching calls)"
        if self.reference_checked:
            return "pass (matches reference.json)"
        return (f"no reference for seed {self.seed} (checked only between "
                "passes with the same seed)")


# -- statistics --------------------------------------------------------------------


def p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10)[8]


def pass_wall(record: dict) -> float:
    return sum(call["wall_s"] for call in record["calls"])


def end_to_end(measures: list[dict]) -> tuple[dict, dict]:
    """Metrics from the measuring processes, every time scaled by its pass's
    calibration factor; also returns the same metrics unscaled."""
    scaled = {"samples": [], "rates": [], "setup": []}
    raw = {"samples": [], "rates": [], "setup": []}
    episodes, wall, scales = 0, 0.0, []
    for result in measures:
        offset = 0
        for record in result["passes"]:
            count, scale = record["episodes"], record["scale"]
            mine = result["samples_ms"][offset:offset + count]
            offset += count
            for basis, factor in ((scaled, scale), (raw, 1.0)):
                basis["samples"] += [ms * factor for ms in mine]
                basis["rates"].append(count / (pass_wall(record) * factor))
            episodes += count
            wall += pass_wall(record)
            scales.append(scale)
        scaled["setup"].append(result["setup_s"] * result["setup_scale"])
        raw["setup"].append(result["setup_s"])

    def metrics(basis):
        return {
            # Median over passes, so a pass the calibration misjudged
            # weighs no more than any other.
            "episodes_per_s": statistics.median(basis["rates"]),
            "episode_ms_p50": statistics.median(basis["samples"]),
            "episode_ms_p90": p90(basis["samples"]),
            "setup_s": statistics.median(basis["setup"]),
            "peak_rss_mb": statistics.median(m["peak_rss_mb"]
                                             for m in measures),
        }
    return metrics(scaled), {
        "episodes": episodes, "wall_s": wall, "samples": len(raw["samples"]),
        "passes": len(scales), "processes": len(measures),
        "scale": statistics.median(scales), "unscaled": metrics(raw),
    }


def per_layer(result: dict, gate: Gate) -> dict:
    """Counters from the first traced pass; scaled timings, median over passes."""
    layers = result["layers"]
    counts = layers[0]["counts"]
    for index, layer in enumerate(layers[1:], start=1):
        if layer["counts"] != counts:
            gate.attempted += 1
            gate.failures.append(f"traced pass {index}: counters differ from "
                                 "the first traced pass")
    metrics = dict(counts)
    for name, unit in TIMING_UNITS.items():
        metrics[name] = statistics.median(
            layer["timings"][name] * (layer["scale"] if unit == "s" else 1.0)
            for layer in layers)

    def median_wall(traced):
        return statistics.median(pass_wall(p) * p["scale"]
                                 for p in result["passes"]
                                 if p["traced"] == traced)
    metrics["trace.overhead_s"] = median_wall(True) - median_wall(False)
    return metrics


# -- main ----------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "codedconv", "__init__.py")):
        print(f"error: no codedconv package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_DEADLINE_S
    gate = Gate(workload, args.seed)
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("env " + json.dumps(environment(args.seed), sort_keys=True))

    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = os.path.join(WORK_ROOT, f"run{os.getpid()}")
    try:
        def child(role, budget, *extra):
            result, error = run_child(role, workload.name, args.seed, budget,
                                      os.path.join(work_dir, role + "".join(extra)),
                                      deadline, *extra)
            if error:
                gate.child_failed(error)
            return result

        oracle = child("oracle", 0.0)
        if oracle:
            gate.oracle(oracle)
            gate.passes(oracle["passes"])
        if args.trace:
            results = [r for r in [child("trace", args.seconds)] if r]
        else:
            budget = args.seconds / MEASURE_PROCESSES
            results = [r for r in (child("measure", budget, str(i),
                                         str(MEASURE_PROCESSES))
                                   for i in range(MEASURE_PROCESSES)) if r]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)
    for result in results:
        gate.passes(result["passes"])

    metrics = {}
    if results and args.trace:
        layer = per_layer(results[0], gate)
        for name in sorted(UNITS):
            print(f"layer {name} {layer[name]!r} {UNITS[name]}")
        metrics = {name: {"value": layer[name], "unit": UNITS[name]}
                   for name in PER_LAYER}
    elif results:
        values, basis = end_to_end(results)
        for name, value in values.items():
            print(f"{name} {value!r} {END_TO_END_UNITS[name]}")
        print(f"  ({basis['episodes']} episodes in {basis['wall_s']:.3f} s of "
              f"cli.main; {basis['samples']} episode samples; "
              f"{basis['passes']} passes in {basis['processes']} processes)")
        print(f"  (times scaled by the calibration factor, median "
              f"{basis['scale']:.4f})")
        for name, value in basis["unscaled"].items():
            print(f"unscaled {name} {value!r} {END_TO_END_UNITS[name]}")
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}
    print(f"failed_frac {gate.failed / max(gate.attempted, 1)!r} ratio "
          f"({gate.failed} of {gate.attempted} runs)")
    if oracle:
        worst = max((c.get("rel_err", 0.0) for c in oracle["checks"]),
                    default=0.0)
        print(f"oracle {len(oracle['checks'])} episodes, worst relative "
              f"error {worst:.3e}")
    print(f"digests {gate.digest_status()}")
    print("digests " + json.dumps(gate.observed.get(args.seed, {}),
                                  sort_keys=True))
    for failure in gate.failures:
        print(f"FAIL {failure}")

    correct = not gate.failures and bool(results)
    print(json.dumps({"correct": correct, "attempted": max(gate.attempted, 1),
                      "failed": gate.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
