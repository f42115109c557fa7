"""Run the benchmark over several seeds and summarise the spread.

    python3 bench/baseline.py --runs 10 --seconds 25 --out bench/BENCH_baseline.json

For every workload this runs `run.py --trace 0` once per seed (seeds
DEFAULT_SEED, DEFAULT_SEED + 1, ...), reports the median, quartiles and
quartile spread (q3 - q1) / median of every end-to-end metric, scaled and
unscaled, then runs `run.py --trace 1` once at DEFAULT_SEED for the
per-layer table.  Each run is its own process, one at a time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import BENCH_DIR, ROOT, environment
from workloads import DEFAULT_SEED, WORKLOADS


def bench(workload: str, seed: int, seconds: float, trace: int) -> list[str]:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         + "\n".join(lines[-20:]) + proc.stderr[-2000:])
    return lines


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args(argv)

    report = {"env": environment(DEFAULT_SEED), "seconds": args.seconds,
              "runs": args.runs, "workloads": {}}
    for name in WORKLOADS:
        values: dict[str, list[float]] = {}
        unscaled: dict[str, list[float]] = {}
        units, attempted, failed = {}, 0, 0
        for i in range(args.runs):
            lines = bench(name, DEFAULT_SEED + i, args.seconds, 0)
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
                units[metric] = entry["unit"]
            for line in lines:
                if line.startswith("unscaled "):
                    _, metric, value, _ = line.split()
                    unscaled.setdefault(metric, []).append(float(value))
        entry = {"end_to_end": {m: {"unit": units[m], **summary(v)}
                                for m, v in values.items()},
                 "unscaled": {m: {"unit": units[m], **summary(v)}
                              for m, v in unscaled.items()},
                 "failed_frac": failed / attempted}
        for basis in ("end_to_end", "unscaled"):
            for metric, stats in entry[basis].items():
                print(f"{name:18s} {basis:10s} {metric:15s} "
                      f"median {stats['median']:10.4g} {stats['unit']:4s} "
                      f"q1 {stats['q1']:10.4g} q3 {stats['q3']:10.4g} "
                      f"spread {stats['spread']:.3f}")
        print(f"{name:18s} failed_frac {entry['failed_frac']}")
        layers = {}
        for line in bench(name, DEFAULT_SEED, args.seconds, 1):
            if line.startswith("layer "):
                _, metric, value, unit = line.split()
                layers[metric] = {"value": float(value), "unit": unit}
        entry["per_layer"] = layers
        report["workloads"][name] = entry
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
