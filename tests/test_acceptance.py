"""Acceptance gate: the nine shipped guarantees, one PASS/FAIL line each.

Every test prints `ACCEPTANCE <n> <PASS|FAIL> <details>` before asserting,
so a plain `pytest tests/test_acceptance.py -s` reads as a checklist.
Relative errors are measured against the output vector's infinity norm;
pointwise quotients against near-zero output elements are not meaningful
for real-field decoding.
"""

import itertools
import time

import numpy as np

from codedconv.cli import main as cli_main
from codedconv.coding import (
    convolve_direct,
    convolve_fft,
    make_encoding_matrix,
    mds_decode,
    mds_encode,
)
from codedconv.engine import episode_task, run_episode
from codedconv.experiments import stress_test, success_rate, sweep_b
from codedconv.models import WorkerProfile, compute_load, sample_compute_time
from codedconv.scenarios import ScenarioConfig, benchmark_scenario
from analytics import traditional_success_probability, uncoded_success_probability

SEED = 1234


def report(n, ok, detail):
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {n}: {detail}"


def rel_error(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def test_criterion_1_strategy_outputs_match_direct_convolution():
    # 100 seeded episodes, 1024x1024, 4 or 8 workers, no stragglers: every
    # strategy must reproduce the direct convolution to 1e-6 relative
    t0 = time.time()
    rng = np.random.default_rng(20260817)
    seeds = [int(s) for s in rng.integers(0, 2 ** 62, size=100)]
    worst, worst_tag = 0.0, ""
    for i, seed in enumerate(seeds):
        p = 4 if i % 2 == 0 else 8
        scn = ScenarioConfig(name=f"oracle{p}", n1=1024, n2=1024, n_workers=p)
        a, x = episode_task(scn, seed)
        want = convolve_direct(a, x)
        for strategy in ("uncoded", "traditional", "dynamic"):
            m = run_episode(scn, strategy, seed)
            if not m.success:
                report(1, False, f"{strategy} episode {i} failed outright")
            err = rel_error(m.result, want)
            if err > worst:
                worst, worst_tag = err, f"{strategy} episode {i}"
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 60.0
    report(1, ok, f"worst rel {worst:.3e} ({worst_tag}) in {elapsed:.1f}s")


def test_criterion_2_any_m_of_n_decodes():
    # exhaustive subsets for r <= 10, then 200 random 16-subsets of 24 rows
    t0 = time.time()
    rng = np.random.default_rng(424242)
    worst = 0.0
    checked = 0
    for r in range(1, 11):
        for m in range(1, r + 1):
            mat = make_encoding_matrix(r, m)
            pieces = rng.uniform(-1, 1, (m, 12))
            coded = [(i, mds_encode(pieces, mat, i)) for i in range(r)]
            scale = np.abs(pieces).max()
            for subset in itertools.combinations(range(r), m):
                got = mds_decode([coded[i] for i in subset], mat)
                worst = max(worst, float(np.abs(got - pieces).max() / scale))
                checked += 1
    mat = make_encoding_matrix(24, 16)
    pieces = rng.uniform(-1, 1, (16, 12))
    coded = [(i, mds_encode(pieces, mat, i)) for i in range(24)]
    scale = np.abs(pieces).max()
    for _ in range(200):
        subset = rng.choice(24, size=16, replace=False)
        got = mds_decode([coded[i] for i in subset], mat)
        worst = max(worst, float(np.abs(got - pieces).max() / scale))
        checked += 1
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    report(2, ok, f"worst rel {worst:.3e} over {checked} decodes in {elapsed:.1f}s")


def test_criterion_3_encoding_commutes_with_convolution():
    # convolving a coded combination equals the same combination of the
    # per-piece convolutions
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(1, 9))
        b = int(rng.integers(4, 64))
        n1 = int(rng.integers(4, 128))
        rows = m + int(rng.integers(1, 9))
        pieces = rng.uniform(-1, 1, (m, b))
        a = rng.uniform(-1, 1, n1)
        mat = make_encoding_matrix(rows, m)
        row = int(rng.integers(0, rows))
        coded = mds_encode(pieces, mat, row)
        lhs = convolve_fft(a, coded)
        partial_convs = np.stack([convolve_fft(a, piece) for piece in pieces])
        rhs = mds_encode(partial_convs, mat, row)
        worst = max(worst, rel_error(lhs, rhs))
    ok = worst <= 1e-9
    report(3, ok, f"worst rel {worst:.3e} over 50 instances")


def test_criterion_4_piece_length_sweep_has_interior_minimum():
    t0 = time.time()
    scn = benchmark_scenario(1)
    grid = [16, 32, 64, 128, 256]
    rows, best = sweep_b(scn, grid, reps=25, base_seed=SEED)
    means = {r["b"]: r["mean_time_s"] for r in rows}
    lo_margin = 1.0 - means[best] / means[grid[0]]
    hi_margin = 1.0 - means[best] / means[grid[-1]]
    elapsed = time.time() - t0
    ok = (best not in (grid[0], grid[-1])
          and lo_margin >= 0.05 and hi_margin >= 0.05
          and elapsed < 300.0)
    report(4, ok, f"argmin b={best}, below endpoints by "
                  f"{lo_margin:.1%}/{hi_margin:.1%} in {elapsed:.1f}s")


def test_criterion_5_strategy_ordering_under_delayed_stragglers():
    t0 = time.time()
    detail = []
    ok = True
    for idx in (1, 2, 3, 4):
        scn = benchmark_scenario(idx)
        rows = stress_test(scn, [0.5], reps=25, base_seed=SEED,
                           mode="delayed")
        m = {r["strategy"]: r["mean_time_s"] for r in rows}
        this_ok = (m["dynamic"] < m["traditional"] < m["uncoded"]
                   and m["dynamic"] <= 0.5 * m["uncoded"])
        ok = ok and this_ok
        detail.append(f"scn{idx} d/u={m['dynamic'] / m['uncoded']:.2f}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 600.0
    report(5, ok, f"{' '.join(detail)} in {elapsed:.1f}s")


def test_criterion_6_stress_curve_shape():
    t0 = time.time()
    scn = benchmark_scenario(4)
    ratios = [0.0, 1 / 6, 3 / 6, 5 / 6]
    rows = stress_test(scn, ratios, reps=25, base_seed=SEED, mode="delayed")
    tab = {(round(r["ratio"], 6), r["strategy"]): r["mean_time_s"]
           for r in rows}
    uncoded_jump = tab[(round(1 / 6, 6), "uncoded")] / tab[(0.0, "uncoded")]
    dyn_half = tab[(0.5, "dynamic")] / tab[(0.0, "dynamic")]
    dyn_knee = tab[(round(5 / 6, 6), "dynamic")] / tab[(0.0, "dynamic")]
    elapsed = time.time() - t0
    ok = (uncoded_jump >= 5.0 and dyn_half <= 1.5 and dyn_knee <= 3.0
          and elapsed < 600.0)
    report(6, ok, f"uncoded jump {uncoded_jump:.1f}x, dynamic at 1/2 "
                  f"{dyn_half:.2f}x, at 5/6 {dyn_knee:.2f}x in {elapsed:.1f}s")


def test_criterion_7_resilience_rates_match_analytics():
    t0 = time.time()
    ok = True
    detail = []
    for idx in (1, 2, 3, 4):
        scn = benchmark_scenario(idx)
        rows, details = success_rate(scn, runs=2000, base_seed=SEED,
                                     mode="fail")
        emp = {r["strategy"]: r["success_rate"] for r in rows}
        p = scn.n_workers
        dyn_exact = all(success == (n_failed < p)
                        for n_failed, success in details["dynamic"])
        want_u = uncoded_success_probability(p)
        s = min(scn.n1, scn.n2)  # degenerate chunk selector outcome
        want_t = traditional_success_probability(scn.n1, scn.n2, s, p)
        du = abs(emp["uncoded"] - want_u)
        dt = abs(emp["traditional"] - want_t)
        this_ok = dyn_exact and du <= 0.02 and dt <= 0.02
        ok = ok and this_ok
        detail.append(f"scn{idx} du={du:.3f} dt={dt:.3f} dyn={dyn_exact}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 600.0
    report(7, ok, f"{' '.join(detail)} in {elapsed:.1f}s")


def test_criterion_8_reruns_are_byte_identical(tmp_path, capsys):
    argv = ["compare", "--scenario", "1", "--reps", "3", "--seed", "4242",
            "--ratio", "0.5"]

    def run(tag):
        out = tmp_path / tag
        code = cli_main(argv + ["--out", str(out)])
        assert code == 0
        return ((out / "compare.csv").read_bytes(),
                (out / "compare.manifest.txt").read_bytes())

    first, second = run("a"), run("b")
    capsys.readouterr()  # swallow the CLI tables
    ok = first == second
    report(8, ok, f"csv {len(first[0])}B and manifest {len(first[1])}B "
                  f"identical across reruns")


def test_criterion_9_compute_time_sampler_statistics():
    rng = np.random.default_rng(31337)
    mu = 4.5e6
    profile = WorkerProfile(mu=mu)
    load = compute_load(512, 256)
    samples = sample_compute_time(rng.standard_exponential(100_000), load,
                                  profile)
    want_mean = profile.alpha * load + load / mu
    mean_err = abs(samples.mean() - want_mean) / want_mean
    floor_ok = bool(samples.min() >= profile.alpha * load)
    ok = mean_err <= 0.02 and floor_ok
    report(9, ok, f"mean off by {mean_err:.2%}, floor "
                  f"{'respected' if floor_ok else 'violated'} "
                  f"over {len(samples)} samples")
