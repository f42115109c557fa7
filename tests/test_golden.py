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

# Config files equivalent to a golden CLI call: a preset index and no
# [straggler] section, so the scenario keeps its default straggler fields.
CONFIG_CASES = {
    "sweep_b": "[scenario]\nindex = 1\nscale = 64\n\n"
               "[experiment]\nkind = sweep-b\nreps = 2\nseed = 7\n",
    "compare": "[scenario]\nindex = 1\nscale = 64\n\n"
               "[experiment]\nkind = compare\nreps = 2\nseed = 7\n"
               "ratio = 0.5\n",
    "stress": "[scenario]\nindex = 2\nscale = 64\n\n"
              "[experiment]\nkind = stress\nreps = 2\nseed = 7\n",
    "success_rate": "[scenario]\nindex = 2\nscale = 64\n\n"
                    "[experiment]\nkind = success-rate\nruns = 20\n"
                    "seed = 7\n",
}


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
    assert read_tree(out_dir) == read_tree(GOLDEN / case)
