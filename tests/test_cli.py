"""Command-line interface: exit codes, output files, determinism."""

import argparse
import contextlib
import io
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codedconv import __version__, cli
from codedconv.cli import main
from codedconv.experiments import STRATEGY_ORDER, default_sweep_grid
from codedconv.scenarios import benchmark_scenario
from test_golden import run_golden_case


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_runtime_needs_no_scipy():
    # A fresh interpreter runs the CLI module and one kept-result episode
    # (FFT, encode and decode) without ever loading scipy.
    code = (
        "import sys\n"
        "import codedconv.cli\n"
        "from codedconv.engine import run_episode\n"
        "from codedconv.scenarios import benchmark_scenario\n"
        "out = run_episode(benchmark_scenario(1, 64), 'traditional', 0,"
        " keep_result=True)\n"
        "assert out.result is not None\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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


def test_empty_out_dir_exits_2_and_writes_nothing(tmp_path, capsys,
                                                  monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["compare", "--scale", "64", "--reps", "1",
                              "--out", ""], capsys)
    assert code == 2
    assert "--out " in err and not out
    assert os.listdir(tmp_path) == []


def test_runtime_failure_exits_3_and_writes_nothing(tmp_path, capsys,
                                                   monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "stress_test", broken)
    out_dir = tmp_path / "out"
    code, _, err = run_cli(["compare", "--scale", "64", "--reps", "1",
                            "--out", str(out_dir)], capsys)
    assert code == 3
    assert err.startswith("runtime error: boom")
    assert not out_dir.exists()


def test_interrupt_is_not_a_runtime_failure(tmp_path, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "stress_test", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["compare", "--scale", "64", "--reps", "1",
              "--out", str(tmp_path / "out")])


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


def test_dynamic_b_with_too_many_pieces_exits_2(tmp_path, capsys):
    # ceil(256 / 8) = 32 pieces per column could never decode.
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[scenario]\nindex = 1\ndynamic_b = 8\n\n"
                   "[experiment]\nkind = compare\nreps = 1\n"
                   f"out_dir = {tmp_path / 'res'}\n")
    code, _, err = run_cli(["run", str(cfg)], capsys)
    assert code == 2
    assert "dynamic_b" in err and "31 pieces" in err
    assert not (tmp_path / "res").exists()


def test_sweep_b_with_too_many_pieces_exits_2(tmp_path, capsys):
    code, _, err = run_cli(
        ["sweep-b", "--scenario", "1", "--b-values", "8", "--reps", "1",
         "--out", str(tmp_path / "res")], capsys)
    assert code == 2
    assert "b_values" in err and "b=8" in err and "31 pieces" in err
    assert not (tmp_path / "res").exists()


def test_experiment_ratio_key_exits_2(tmp_path, capsys):
    # [straggler] ratio is the one ratio key.
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[scenario]\nindex = 1\nscale = 64\n\n"
                   "[experiment]\nkind = compare\nratio = 0.5\n"
                   f"out_dir = {tmp_path / 'res'}\n")
    code, _, err = run_cli(["run", str(cfg)], capsys)
    assert code == 2
    assert ("unknown key 'ratio' in [experiment]; valid keys: b_values, "
            "kind, out_dir, ratios, reps, runs, seed") in err
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("kind, line, keys", [
    ("sweep-b", "ratios = 0.5", "b_values, kind, out_dir, reps, seed"),
    ("compare", "runs = 5", "kind, out_dir, reps, seed"),
    ("stress", "b_values = 1,2", "kind, out_dir, ratios, reps, seed"),
    ("success-rate", "reps = 7", "kind, out_dir, runs, seed"),
], ids=["sweep-b", "compare", "stress", "success-rate"])
def test_experiment_key_the_kind_does_not_read_exits_2(kind, line, keys,
                                                       tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[scenario]\nindex = 1\nscale = 64\n\n"
                   f"[experiment]\nkind = {kind}\n{line}\n"
                   f"out_dir = {tmp_path / 'res'}\n")
    code, _, err = run_cli(["run", str(cfg)], capsys)
    assert code == 2
    key = line.split(" =")[0]
    assert (f"[experiment] key {key!r} does not apply to kind {kind}; "
            f"its keys: {keys}") in err
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("kind, count", [("stress", "reps = 1"),
                                         ("success-rate", "runs = 2")],
                         ids=["stress", "success-rate"])
def test_straggler_ratio_the_kind_does_not_read_exits_2(kind, count, tmp_path,
                                                        capsys):
    # stress takes its ratios from its grid and success-rate draws a
    # uniform failure count, so neither reads [straggler] ratio.
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[scenario]\nindex = 1\nscale = 64\n\n"
                   "[straggler]\nratio = 0.5\n\n"
                   f"[experiment]\nkind = {kind}\n{count}\n"
                   f"out_dir = {tmp_path / 'res'}\n")
    code, _, err = run_cli(["run", str(cfg)], capsys)
    assert code == 2
    assert (f"[straggler] key 'ratio' does not apply to kind {kind}; "
            "the kinds that read it: sweep-b, compare") in err
    assert not (tmp_path / "res").exists()


def test_rx_offset_whose_received_power_overflows_exits_2(tmp_path, capsys):
    # The received power at 1 m is 10**((rx_offset_dbm - 30) / 10) W: a
    # float at 3112 dBm, where the link rate is inf, and past it from 3113.
    for rx, want in [("3112", 0), ("3113", 2), ("1e300", 2), ("1.7e308", 2)]:
        cfg = tmp_path / f"{rx}.cfg"
        cfg.write_text("[scenario]\nindex = 1\nscale = 64\n\n"
                       f"[comm]\nrx_offset_dbm = {rx}\n\n"
                       "[experiment]\nkind = compare\nreps = 1\n"
                       f"out_dir = {tmp_path / rx}\n")
        code, _, err = run_cli(["run", str(cfg)], capsys)
        assert code == want, err
        assert (tmp_path / rx).exists() == (want == 0)
        assert want == 0 or "rx_offset_dbm" in err


FLOAT_KEYS = [
    *(("scenario", key) for key in ("mu_low", "mu_high", "compute_coeff",
                                    "init_box_m", "speed_limit_mps",
                                    "horizon_factor")),
    ("straggler", "ratio"), ("straggler", "delay_factor"),
    *(("comm", key) for key in ("bandwidth_hz", "noise_w", "rx_offset_dbm")),
]
EXTREMES = ["0", "-1", "5e-324", "1e-300", "1e4", "1e300", "1.7e308", "nan",
            "inf", "-inf"]


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.sampled_from(FLOAT_KEYS), st.sampled_from(EXTREMES),
                       min_size=1, max_size=2),
       st.integers(1, 8), st.sampled_from(["compare", "success-rate"]))
@example({("comm", "rx_offset_dbm"): "1e300"}, 8, "compare")
@example({("comm", "rx_offset_dbm"): "1.7e308"}, 3, "success-rate")
@example({("comm", "rx_offset_dbm"): "1e4"}, 1, "compare")
@example({("scenario", "init_box_m"): "1e308"}, 8, "compare")
@example({("scenario", "mu_low"): "1e-8", ("scenario", "mu_high"): "1e-8",
          ("scenario", "compute_coeff"): "1e-12"}, 8, "compare")
def test_every_config_that_validates_writes_its_table(values, workers, kind):
    # n1 = 64 and n2 = 32 on 1-8 workers keep every run small.  A config
    # either writes its table or exits 2 naming one of its keys; no float
    # overflows and no RuntimeWarning escapes.
    sections = {"scenario": {"n1": "64", "n2": "32", "workers": str(workers)},
                "straggler": {}, "comm": {}}
    for (section, key), value in values.items():
        sections[section][key] = value
    count = "reps = 1" if kind == "compare" else "runs = 2"
    with tempfile.TemporaryDirectory() as tmp:
        text = "".join(f"[{name}]\n" + "".join(f"{key} = {value}\n"
                                               for key, value in keys.items())
                       for name, keys in sections.items() if keys)
        path = Path(tmp) / "exp.cfg"
        path.write_text(text + f"[experiment]\nkind = {kind}\n{count}\n"
                        f"out_dir = {Path(tmp) / 'res'}\n")
        err = io.StringIO()
        with warnings.catch_warnings(), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["run", str(path)])
    message = err.getvalue()
    assert code in (0, 2), message
    assert code == 0 or any(key in message for _, key in values), message


def test_success_rate_config_with_delayed_mode_exits_2(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[scenario]\nindex = 2\nscale = 64\n\n"
                   "[straggler]\nmode = delayed\n\n"
                   "[experiment]\nkind = success-rate\nruns = 5\n"
                   f"out_dir = {tmp_path / 'res'}\n")
    code, _, err = run_cli(["run", str(cfg)], capsys)
    assert code == 2
    assert "'fail' or 'leave'" in err
    assert not (tmp_path / "res").exists()


def test_compare_without_decodable_chunk_length(tmp_path, capsys):
    # No automatic chunk length cuts n1 = 2000 into <= 31 pieces, so every
    # traditional episode fails at once: mean inf, std nan, no warning.
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[scenario]\nn1 = 2000\nn2 = 2\nworkers = 4\n\n"
                   "[straggler]\nratio = 0\n\n"
                   "[experiment]\nkind = compare\nreps = 2\nseed = 7\n"
                   f"out_dir = {tmp_path / 'res'}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(["run", str(cfg)], capsys)
    assert code == 0, err
    assert "traditional,inf,nan" in out.splitlines()
    table = (tmp_path / "res" / "compare.csv").read_text().splitlines()
    assert "traditional,inf,nan" in table


def test_compare_on_a_fleet_whose_chunk_scores_overflow(tmp_path, capsys):
    # mu = 1e-8 with compute_coeff = 1e-12 overflows the traditional chunk
    # score of every feasible length to inf; the pick is still made, with
    # no warning, and the table is written.
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[scenario]\nn1 = 512\nn2 = 256\nworkers = 8\n"
                   "mu_low = 1e-8\nmu_high = 1e-8\ncompute_coeff = 1e-12\n\n"
                   "[experiment]\nkind = compare\nreps = 2\nseed = 7\n"
                   f"out_dir = {tmp_path / 'res'}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(["run", str(cfg)], capsys)
    assert code == 0, err
    table = (tmp_path / "res" / "compare.csv").read_text().splitlines()
    assert table[2].startswith("traditional,")
    assert not table[2].startswith("traditional,inf")


def test_compare_with_stragglers_and_no_finishing_pilot(tmp_path, capsys):
    # The straggler-free pilot of traditional cannot finish either, so its
    # episodes run without a horizon and are counted as failed.
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[scenario]\nn1 = 2000\nn2 = 2\nworkers = 4\n\n"
                   "[straggler]\nratio = 0.5\n\n"
                   "[experiment]\nkind = compare\nreps = 2\nseed = 7\n"
                   f"out_dir = {tmp_path / 'res'}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(["run", str(cfg)], capsys)
    assert code == 0, err
    assert "traditional,inf,nan" in out.splitlines()
    table = (tmp_path / "res" / "compare.csv").read_text().splitlines()
    assert "traditional,inf,nan" in table


def test_compare_over_zero_rate_links(tmp_path, capsys):
    # At -200 dBm the link rate underflows to 0 beyond a few hundred
    # metres: a piece sent over such a link is lost, so the run writes its
    # table of failed strategies rather than aborting.
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[scenario]\nindex = 1\nscale = 64\n\n"
                   "[comm]\nrx_offset_dbm = -200\n\n"
                   "[experiment]\nkind = compare\nreps = 2\nseed = 7\n"
                   f"out_dir = {tmp_path / 'res'}\n")
    code, out, err = run_cli(["run", str(cfg)], capsys)
    assert code == 0, err
    table = (tmp_path / "res" / "compare.csv").read_text().splitlines()
    assert table == ["strategy,mean_time_s,std_time_s", "uncoded,inf,nan",
                     "traditional,inf,nan", "dynamic,inf,nan"]


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


# (count, grid, seed, mode, scenario straggler ratio) that a bare subcommand
# and a config holding only the preset and the kind both pass to the
# experiment.
DEFAULT_CALLS = {
    "sweep-b": (25, default_sweep_grid(benchmark_scenario(1, 64).n2), 1234,
                None, 0.0),
    "compare": (25, [0.5], 1234, "delayed", 0.5),
    "stress": (25, [0.0, 0.25, 0.5, 0.75, 1.0], 1234, "delayed", 0.0),
    "success-rate": (2000, None, 1234, "fail", 0.0),
}


@pytest.mark.parametrize("kind", sorted(DEFAULT_CALLS))
def test_subcommand_and_config_share_defaults(kind, tmp_path, capsys,
                                              monkeypatch):
    calls = []

    def sweep_b(scenario, b_values, reps, base_seed):
        calls.append((reps, list(b_values), base_seed, None,
                      scenario.straggler_ratio))
        rows = [{"b": b, "mean_time_s": 1.0, "std_time_s": 0.0}
                for b in b_values]
        return rows, b_values[0]

    def stress_test(scenario, ratios, reps, base_seed, mode="delayed"):
        calls.append((reps, list(ratios), base_seed, mode,
                      scenario.straggler_ratio))
        return [{"ratio": ratio, "strategy": strategy, "mean_time_s": 1.0,
                 "std_time_s": 0.0}
                for ratio in ratios for strategy in STRATEGY_ORDER]

    def success_rate(scenario, runs, base_seed, mode="fail"):
        calls.append((runs, None, base_seed, mode, scenario.straggler_ratio))
        return [{"strategy": strategy, "success_rate": 1.0, "successes": runs,
                 "runs": runs} for strategy in STRATEGY_ORDER], {}

    for fake in (sweep_b, stress_test, success_rate):
        monkeypatch.setattr(cli, fake.__name__, fake)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.cfg").write_text(
        f"[scenario]\nindex = 1\nscale = 64\n\n[experiment]\nkind = {kind}\n")
    assert run_cli([kind, "--scale", "64"], capsys)[0] == 0
    assert run_cli(["run", "exp.cfg"], capsys)[0] == 0
    assert calls == [DEFAULT_CALLS[kind]] * 2


def test_import_builds_no_parser_and_main_builds_it_once():
    # A fresh interpreter counts parser constructions (subparsers included):
    # none at import, so the benchmark's set-up pays for none, all of them
    # at the first `main` call, and none at the second.
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import codedconv.cli as cli\n"
        "assert built == [], built\n"
        "for expected in (6, 0):\n"
        "    del built[:]\n"
        "    try:\n"
        "        cli.main(['--version'])\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0\n"
        "    assert len(built) == expected, built\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines() == [__version__] * 2


def test_reused_parser_leaks_no_state(tmp_path, capsys, monkeypatch):
    # Usage errors, --version and a config error share the parser with the
    # golden calls that follow; their non-default flags must not carry over.
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    with pytest.raises(SystemExit) as exc:
        main(["stress", "--mode", "leave", "--ratios", "0.5", "--bogus"])
    assert exc.value.code == 2
    del built[:]  # that first call built the parser unless a test before did
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    code, _, err = run_cli(
        ["stress", "--scenario", "2", "--scale", "64", "--mode", "fail",
         "--ratios", ",", "--reps", "3", "--out", str(tmp_path / "bad")],
        capsys)
    assert code == 2 and "--ratios" in err
    assert not (tmp_path / "bad").exists()
    run_golden_case("stress", tmp_path / "stress", capsys)
    run_golden_case("success_rate", tmp_path / "success_rate", capsys)
    assert built == []
