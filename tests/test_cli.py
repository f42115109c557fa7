"""Command-line interface: exit codes, output files, determinism."""

import os
import warnings

import pytest

from codedconv import __version__
from codedconv.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_compare_smoke(tmp_path, capsys):
    code, out, err = run_cli(
        ["compare", "--scenario", "1", "--scale", "64", "--reps", "2",
         "--seed", "7", "--ratio", "0", "--out", str(tmp_path)], capsys)
    assert code == 0, err
    assert out.splitlines()[0] == "strategy,mean_time_s,std_time_s"
    assert "uncoded" in out and "traditional" in out and "dynamic" in out
    assert "wrote" in out
    assert (tmp_path / "compare.csv").exists()
    assert (tmp_path / "compare.manifest.txt").exists()


def test_sweep_b_smoke(tmp_path, capsys):
    code, out, err = run_cli(
        ["sweep-b", "--scenario", "1", "--scale", "64", "--reps", "2",
         "--seed", "7", "--b-values", "8,16,32", "--out", str(tmp_path)],
        capsys)
    assert code == 0, err
    assert "argmin_b=" in out
    assert (tmp_path / "sweep_b.csv").exists()


def test_stress_smoke(tmp_path, capsys):
    code, out, err = run_cli(
        ["stress", "--scenario", "2", "--scale", "64", "--reps", "1",
         "--seed", "7", "--ratios", "0,0.5", "--out", str(tmp_path)], capsys)
    assert code == 0, err
    lines = [l for l in out.splitlines() if l and not l.startswith("wrote")]
    assert lines[0] == "ratio,strategy,mean_time_s,std_time_s"
    assert len(lines) == 1 + 2 * 3  # header + 2 ratios x 3 strategies


def test_success_rate_smoke(tmp_path, capsys):
    code, out, err = run_cli(
        ["success-rate", "--scenario", "2", "--scale", "64", "--runs", "10",
         "--seed", "7", "--out", str(tmp_path)], capsys)
    assert code == 0, err
    assert (tmp_path / "success_rate.csv").exists()
    header = out.splitlines()[0]
    assert header == "strategy,success_rate,successes,runs"


def test_run_config_file(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "[scenario]\nn1 = 48\nn2 = 32\nworkers = 3\n\n"
        "[experiment]\nkind = compare\nreps = 2\nseed = 5\n"
        f"out_dir = {tmp_path / 'res'}\n")
    code, out, err = run_cli(["run", str(cfg)], capsys)
    assert code == 0, err
    assert (tmp_path / "res" / "compare.csv").exists()


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[scenario]\nindex = 1\nbogus_key = 3\n")
    code, out, err = run_cli(["run", str(cfg)], capsys)
    assert code == 2
    assert "bogus_key" in err


def test_missing_config_exits_2(capsys):
    code, _, err = run_cli(["run", "/no/such/file.cfg"], capsys)
    assert code == 2
    assert "not found" in err


def test_bad_scenario_index_exits_2(tmp_path, capsys):
    code, _, err = run_cli(
        ["compare", "--scenario", "9", "--reps", "1",
         "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "scenario" in err.lower()


def test_ratio_out_of_range_exits_2(tmp_path, capsys):
    code, _, err = run_cli(
        ["compare", "--scenario", "1", "--scale", "64", "--reps", "1",
         "--ratio", "1.5", "--out", str(tmp_path)], capsys)
    assert code == 2


@pytest.mark.parametrize("argv, option", [
    (["compare", "--reps", "0"], "--reps"),
    (["success-rate", "--runs", "0"], "--runs"),
    (["stress", "--ratios", ","], "--ratios"),
    (["sweep-b", "--b-values", ","], "--b-values"),
    (["sweep-b", "--b-values", "8,x"], "--b-values"),
])
def test_bad_option_value_exits_2_and_writes_nothing(argv, option, tmp_path,
                                                      capsys):
    out_dir = tmp_path / "out"
    code, _, err = run_cli(argv + ["--scale", "64", "--out", str(out_dir)],
                           capsys)
    assert code == 2
    assert option in err
    assert not out_dir.exists()


def test_success_rate_rejects_reps(capsys):
    # argparse exits on an unknown option instead of returning from main.
    with pytest.raises(SystemExit) as exc:
        main(["success-rate", "--reps", "5"])
    assert exc.value.code == 2
    assert "--reps" in capsys.readouterr().err


def test_traditional_s_with_too_many_pieces_exits_2(tmp_path, capsys):
    # ceil(3750 / 2) pieces could never decode; the run is refused up front.
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[scenario]\nindex = 4\nscale = 8\ntraditional_s = 2\n\n"
                   "[experiment]\nkind = compare\nreps = 1\n"
                   f"out_dir = {tmp_path / 'res'}\n")
    code, _, err = run_cli(["run", str(cfg)], capsys)
    assert code == 2
    assert "traditional_s" in err
    assert not (tmp_path / "res").exists()


def test_compare_without_decodable_chunk_length(tmp_path, capsys):
    # No automatic chunk length cuts n1 = 2000 into <= 31 pieces, so every
    # traditional episode fails at once: mean inf, std nan, no warning.
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[scenario]\nn1 = 2000\nn2 = 2\nworkers = 4\n\n"
                   "[experiment]\nkind = compare\nreps = 2\nseed = 7\n"
                   f"out_dir = {tmp_path / 'res'}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(["run", str(cfg)], capsys)
    assert code == 0, err
    assert "traditional,inf,nan" in out.splitlines()
    table = (tmp_path / "res" / "compare.csv").read_text().splitlines()
    assert "traditional,inf,nan" in table


def test_rerun_byte_identical_outputs(tmp_path, capsys):
    argv = ["compare", "--scenario", "1", "--scale", "64", "--reps", "2",
            "--seed", "42", "--ratio", "0.5"]

    def run(sub):
        out_dir = tmp_path / sub
        code, _, err = run_cli(argv + ["--out", str(out_dir)], capsys)
        assert code == 0, err
        csv = (out_dir / "compare.csv").read_bytes()
        manifest = (out_dir / "compare.manifest.txt").read_bytes()
        return csv, manifest

    assert run("a") == run("b")


def test_manifest_has_no_timestamp(tmp_path, capsys):
    code, _, err = run_cli(
        ["compare", "--scenario", "1", "--scale", "64", "--reps", "1",
         "--ratio", "0", "--out", str(tmp_path)], capsys)
    assert code == 0, err
    text = (tmp_path / "compare.manifest.txt").read_text()
    keys = [line.split("=", 1)[0] for line in text.splitlines()]
    assert "version" in keys
    assert not any("date" in k or "timestamp" in k for k in keys)
    assert os.linesep not in text or os.linesep == "\n"
