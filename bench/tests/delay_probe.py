"""Does the calibration scale respond to the workload it brackets?

    python3 bench/tests/delay_probe.py WORK_DIR

Runs PAIRS pairs of success-fail-s8 passes, all with the default seed, in
one process.  The second pass of each pair busy-waits DELAY_MS after every
top-level episode, inside the episode timer.  Prints DELAY_MS and, for
plain and delayed passes, the median over passes of each pass's episode
p50 in ms, unscaled and scaled by the pass's calibration factor.  If the kernel were sped up or
slowed down by the work before it, the two ratios delayed / plain would
differ.
"""

import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from child import Calibration, measure, setup  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

PAIRS = 4
DELAY_MS = 1.0


def main(argv) -> int:
    (work_dir,) = argv
    workload = WORKLOADS["success-fail-s8"]
    _, cli = setup(workload, DEFAULT_SEED)
    from codedconv import experiments

    original = experiments.run_episode

    def delayed(*args, **kwargs):
        result = original(*args, **kwargs)
        end = time.perf_counter() + DELAY_MS / 1e3
        while time.perf_counter() < end:
            pass
        return result

    calibration = Calibration()
    p50 = {"plain": {"raw": [], "scaled": []},
           "delayed": {"raw": [], "scaled": []}}
    try:
        for _ in range(PAIRS):
            for kind, run_episode in (("plain", original), ("delayed", delayed)):
                experiments.run_episode = run_episode
                # A zero budget runs exactly one pass, with the run seed.
                result = measure(workload, DEFAULT_SEED, 0.0, work_dir, cli,
                                 calibration, 0, 1)
                (record,) = result["passes"]
                raw = statistics.median(result["samples_ms"])
                p50[kind]["raw"].append(raw)
                p50[kind]["scaled"].append(raw * record["scale"])
    finally:
        experiments.run_episode = original
    print(json.dumps({"delay_ms": DELAY_MS, **{
        kind: {basis: statistics.median(values)
               for basis, values in bases.items()}
        for kind, bases in p50.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
