"""Behaviour lock: CLI and config-file runs reproduce committed output bytes.

Each directory under tests/golden/ holds the CSV and manifest that one CLI
call in GOLDEN_CASES wrote before the CLI and config front ends were merged
into one runner.  The files are never regenerated: a change that alters any
byte of them changes what a published table means.
"""

from pathlib import Path

import pytest

from codedconv import engine, strategies
from codedconv.cli import main

GOLDEN = Path(__file__).parent / "golden"

# Every case also gets --scale 64 --seed 7 and --reps 2 (success-rate: --runs).
GOLDEN_CASES = {
    "sweep_b": ["sweep-b", "--scenario", "1"],
    "sweep_b_ratio": ["sweep-b", "--scenario", "2", "--ratio", "0.5",
                      "--b-values", "8,16,32"],
    "compare": ["compare", "--scenario", "1"],
    "compare_fail": ["compare", "--scenario", "4", "--mode", "fail",
                     "--ratio", "0.25"],
    "stress": ["stress", "--scenario", "2"],
    "stress_leave": ["stress", "--scenario", "3", "--mode", "leave",
                     "--ratios", "0,0.5"],
    "success_rate": ["success-rate", "--scenario", "2", "--runs", "20"],
    "success_rate_leave": ["success-rate", "--scenario", "4", "--mode",
                           "leave", "--runs", "20"],
}

# Config files equivalent to a golden CLI call, at the same preset, grid,
# straggler ratio and straggler mode.
CONFIG_CASES = {
    "sweep_b": "[scenario]\nindex = 1\nscale = 64\n\n"
               "[experiment]\nkind = sweep-b\nreps = 2\nseed = 7\n",
    "compare": "[scenario]\nindex = 1\nscale = 64\n\n"
               "[experiment]\nkind = compare\nreps = 2\nseed = 7\n",
    "stress": "[scenario]\nindex = 2\nscale = 64\n\n"
              "[experiment]\nkind = stress\nreps = 2\nseed = 7\n",
    "success_rate": "[scenario]\nindex = 2\nscale = 64\n\n"
                    "[experiment]\nkind = success-rate\nruns = 20\n"
                    "seed = 7\n",
    "sweep_b_ratio": "[scenario]\nindex = 2\nscale = 64\n\n"
                     "[straggler]\nratio = 0.5\n\n"
                     "[experiment]\nkind = sweep-b\nreps = 2\nseed = 7\n"
                     "b_values = 8,16,32\n",
    "compare_fail": "[scenario]\nindex = 4\nscale = 64\n\n"
                    "[straggler]\nmode = fail\nratio = 0.25\n\n"
                    "[experiment]\nkind = compare\nreps = 2\nseed = 7\n",
    "stress_leave": "[scenario]\nindex = 3\nscale = 64\n\n"
                    "[straggler]\nmode = leave\n\n"
                    "[experiment]\nkind = stress\nreps = 2\nseed = 7\n"
                    "ratios = 0,0.5\n",
    "success_rate_leave": "[scenario]\nindex = 4\nscale = 64\n\n"
                          "[straggler]\nmode = leave\n\n"
                          "[experiment]\nkind = success-rate\nruns = 20\n"
                          "seed = 7\n",
}

# A config's [straggler] mode is written as straggler_mode.  `--mode` is
# applied by the experiment, after the manifest has read the scenario, so
# the golden manifests keep the default "delayed".  That one line is the
# whole difference, a known defect that a digest-moving change will mend.
CONFIG_MODES = {"compare_fail": "fail", "stress_leave": "leave",
                "success_rate_leave": "leave"}


def read_tree(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_every_golden_directory_has_a_case():
    # The per-episode lock files beside them belong to test_episode_lock.
    cases = [p.name for p in GOLDEN.iterdir() if p.is_dir()]
    assert sorted(cases) == sorted(GOLDEN_CASES)


def run_golden_case(case, out_dir, capsys) -> None:
    argv = GOLDEN_CASES[case] + ["--scale", "64", "--seed", "7",
                                 "--out", str(out_dir)]
    if argv[0] != "success-rate":
        argv += ["--reps", "2"]
    assert main(argv) == 0, capsys.readouterr().err
    assert read_tree(out_dir) == read_tree(GOLDEN / case)


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_cli_output_matches_golden(case, tmp_path, capsys):
    run_golden_case(case, tmp_path, capsys)


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_tables_need_no_payload_work(case, tmp_path, capsys, monkeypatch):
    # Tables use timing only, so no FFT, encode, decode or overlap-add runs.
    def refuse(*args, **kwargs):
        raise AssertionError("payload work in a timing-only run")

    for name in ("convolve_fft", "mds_encode", "mds_decode", "overlap_add"):
        monkeypatch.setattr(strategies, name, refuse)
    run_golden_case(case, tmp_path, capsys)


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_tables_need_no_operands(case, tmp_path, capsys, monkeypatch):
    # Strategies schedule from lengths: no operand is drawn, validated or cut.
    def refuse(*args, **kwargs):
        raise AssertionError("operand work in a timing-only run")

    monkeypatch.setattr(engine, "episode_task", refuse)
    for name in ("as_vector", "partition"):
        monkeypatch.setattr(strategies, name, refuse)
    run_golden_case(case, tmp_path, capsys)


@pytest.mark.parametrize("case", sorted(CONFIG_CASES))
def test_config_file_matches_equivalent_cli_call(case, tmp_path, capsys):
    out_dir = tmp_path / "out"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG_CASES[case] + f"out_dir = {out_dir}\n")
    assert main(["run", str(cfg)]) == 0, capsys.readouterr().err
    expected = read_tree(GOLDEN / case)
    if case in CONFIG_MODES:
        [name] = [name for name in expected if name.endswith(".manifest.txt")]
        line = b"\nstraggler_mode=delayed\n"
        assert expected[name].count(line) == 1
        expected[name] = expected[name].replace(
            line, f"\nstraggler_mode={CONFIG_MODES[case]}\n".encode())
    assert read_tree(out_dir) == expected
