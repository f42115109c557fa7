"""Experiment drivers, analytics, CSV/manifest output, config files."""

import math
import operator
import os
import warnings
import weakref
import zlib
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codedconv import coding, engine, experiments, strategies
from codedconv.experiments import (
    STRATEGY_ORDER,
    ConfigError,
    auto,
    default_sweep_grid,
    episode_seed,
    format_value,
    load_config,
    scenario_from_config,
    stress_test,
    success_rate,
    sweep_b,
    write_csv,
    write_manifest,
)
from analytics import (
    dynamic_success_probability,
    traditional_success_probability,
    traditional_tolerated_failures,
    uncoded_success_probability,
)
from codedconv.cli import main
from codedconv.scenarios import ScenarioConfig, benchmark_scenario


def small_scenario(**overrides):
    base = dict(name="tiny", n1=48, n2=32, n_workers=3)
    base.update(overrides)
    return ScenarioConfig(**base)


# -- seeds ---------------------------------------------------------------------


def test_episode_seed_stable_and_distinct():
    s = episode_seed(1234, "scenario1", 0)
    assert s == episode_seed(1234, "scenario1", 0)
    assert s != episode_seed(1234, "scenario1", 1)
    assert s != episode_seed(1234, "scenario2", 0)
    assert s != episode_seed(1235, "scenario1", 0)
    assert 0 <= s < 2 ** 63


@given(st.integers(-2**70, 2**70), st.text(max_size=12),
       st.integers(0, 10**6))
def test_next_rep_has_the_next_seed(base_seed, name, rep):
    # A Draws reads ahead the keys of the seeds after its own, which are
    # the next reps' seeds everywhere but at the 2**63 wrap.
    seed = episode_seed(base_seed, name, rep)
    if seed != 2**63 - 1:
        assert episode_seed(base_seed, name, rep + 1) == seed + 1


def base_seed_at(seed, name):
    """The base seed whose rep 0 has episode seed `seed` under `name`."""
    tag = zlib.crc32(name.encode("utf-8"))
    return (seed - 97 * tag) * pow(1_000_003, -1, 2**63) % 2**63


def test_run_paired_across_the_seed_wrap_matches_private_draws(monkeypatch):
    # Reps 0-4 have seeds 2**63 - 3 .. 2**63 - 1, 0, 1: the keys read ahead
    # at rep 0 stop serving at the wrap, so seed 0 reads ahead its own.
    scn = small_scenario(n_workers=4, straggler_ratio=0.5)
    base_seed = base_seed_at(2**63 - 3, scn.name)
    seeds = [episode_seed(base_seed, scn.name, rep) for rep in range(5)]
    assert seeds == [2**63 - 3, 2**63 - 2, 2**63 - 1, 0, 1]
    episodes = [(scn, strategy, {}) for strategy in STRATEGY_ORDER]

    def value(m):
        return m.success, m.completion_time, m.pieces_dispatched, m.horizon

    firsts = []
    original = engine._derive_rows
    monkeypatch.setattr(engine, "_derive_rows",
                        lambda seed, *rest: firsts.append(seed)
                        or original(seed, *rest))
    engine._KEY_ROWS.clear()
    paired = experiments.run_paired(episodes, 5, base_seed, value)
    assert firsts == [2**63 - 3, 0]
    for out, (_, strategy, _) in zip(paired, episodes):
        alone = []
        for seed in seeds:
            engine._KEY_ROWS.clear()
            alone.append(value(engine.run_episode(scn, strategy, seed)))
        assert out == alone


# -- sweep ------------------------------------------------------------------------


def test_sweep_b_row_shape_and_argmin():
    scn = small_scenario()
    rows, best = sweep_b(scn, [8, 16, 32], reps=3, base_seed=5)
    assert [r["b"] for r in rows] == [8, 16, 32]
    for r in rows:
        assert set(r) == {"b", "mean_time_s", "std_time_s"}
        assert r["mean_time_s"] > 0
        assert r["std_time_s"] >= 0
    means = {r["b"]: r["mean_time_s"] for r in rows}
    assert means[best] == min(means.values())


def test_sweep_b_rejects_bad_grid():
    scn = small_scenario()
    with pytest.raises(ConfigError):
        sweep_b(scn, [0, 8], reps=1, base_seed=1)
    with pytest.raises(ConfigError):
        sweep_b(scn, [scn.n2 + 1], reps=1, base_seed=1)
    with pytest.raises(ConfigError):
        sweep_b(scn, [], reps=1, base_seed=1)


def test_sweep_b_judges_each_row_set_once(monkeypatch):
    # A full-size sweep meets many arrival orders of a few row sets per
    # code; decode_factors runs once per (shape, row set), not per order.
    judged = []
    check_decodable = strategies.check_decodable
    decode_factors = coding.decode_factors
    calls = []

    def recording(rows, cols, order):
        judged.append((rows, cols, tuple(order)))
        return check_decodable(rows, cols, order)

    def counted(matrix, rows):
        calls.append((*matrix.shape, tuple(rows)))
        return decode_factors(matrix, rows)

    monkeypatch.setattr(strategies, "check_decodable", recording)
    monkeypatch.setattr(coding, "decode_factors", counted)
    coding._decode_failure.cache_clear()
    scn = benchmark_scenario(3, 1)
    sweep_b(scn, default_sweep_grid(scn.n2), reps=10, base_seed=1234)
    row_sets = {(rows, cols, tuple(sorted(order)))
                for rows, cols, order in judged}
    assert len(set(judged)) > len(row_sets)
    assert sorted(calls) == sorted(row_sets)


def test_default_sweep_grid():
    assert default_sweep_grid(256) == [16, 32, 64, 128, 256]
    assert default_sweep_grid(8) == [1, 2, 4, 8]  # duplicates collapse


def test_single_rep_reports_zero_std():
    scn = small_scenario()
    rows, _ = sweep_b(scn, [16], reps=1, base_seed=2)
    assert rows[0]["std_time_s"] == 0.0


@st.composite
def paired_times(draw):
    """(rows, reps) completion times over several decades; when drawn so,
    a tenth of the entries are inf."""
    rows, reps = draw(st.integers(1, 20)), draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    times = rng.lognormal(0.0, 2.0, size=(rows, reps))
    if draw(st.booleans()):
        times[rng.random((rows, reps)) < 0.1] = math.inf
    return times.tolist()


@settings(max_examples=200, deadline=None)
@given(paired_times())
@example([[math.inf]])
@example([[1.0, math.inf], [2.0, 3.0]])
def test_time_rows_match_per_row_statistics(times):
    # The one-array reduction gives every row the bits of its own 1-D mean
    # and ddof=1 std, warns about nothing, and keeps the two special cases:
    # one rep has std 0.0, and a row with an inf has mean inf and std nan.
    reps = len(times[0])
    labels = [{"row": i} for i in range(len(times))]
    with mock.patch.object(experiments, "run_paired",
                           lambda episodes, n, seed, value: times), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = experiments._time_rows(labels, [None] * len(times), reps, 0)
    assert [row["row"] for row in rows] == list(range(len(times)))
    for row, values in zip(rows, times):
        arr = np.asarray(values, dtype=float)
        assert row["mean_time_s"].hex() == float(arr.mean()).hex()
        if reps == 1:
            assert row["std_time_s"].hex() == (0.0).hex()
        elif math.inf in values:
            assert row["mean_time_s"] == math.inf
            assert math.isnan(row["std_time_s"])
        else:
            assert row["std_time_s"].hex() == float(arr.std(ddof=1)).hex()


# -- compare / stress / success-rate ------------------------------------------------


def test_compare_rows_one_per_strategy():
    scn = small_scenario()
    # The CLI's compare is a stress sweep at one ratio.
    rows = stress_test(scn, [0.0], reps=3, base_seed=9)
    assert [r["strategy"] for r in rows] == ["uncoded", "traditional", "dynamic"]
    for r in rows:
        assert set(r) == {"ratio", "strategy", "mean_time_s", "std_time_s"}
        assert r["mean_time_s"] > 0


def test_compare_paired_episodes_share_stragglers():
    # with the same (scenario, rep) seed, every strategy must see the same
    # straggler draw; the detail hook in success_rate exposes the counts
    scn = small_scenario(n_workers=4)
    _, details = success_rate(scn, runs=6, base_seed=3, mode="fail")
    per_rep = list(zip(*[details[s] for s in ("uncoded", "traditional", "dynamic")]))
    for triple in per_rep:
        counts = {n for n, _ in triple}
        assert len(counts) == 1


def test_delay_factor_one_compares_like_no_stragglers():
    scn = benchmark_scenario(1, 64, delay_factor=1.0)
    times = [[r["mean_time_s"], r["std_time_s"]]
             for r in stress_test(scn, [0.5, 0.0], reps=3, base_seed=9)]
    assert times[:3] == times[3:]


def test_stress_rejects_empty_ratios():
    with pytest.raises(ConfigError, match="ratios must not be empty"):
        stress_test(small_scenario(), [], reps=1, base_seed=4)


def test_stress_rows_cover_ratio_grid():
    scn = small_scenario()
    ratios = [0.0, 0.5]
    rows = stress_test(scn, ratios, reps=2, base_seed=4, mode="delayed")
    assert len(rows) == len(ratios) * 3
    assert {r["ratio"] for r in rows} == set(ratios)
    for r in rows:
        assert set(r) == {"ratio", "strategy", "mean_time_s", "std_time_s"}


def test_stress_rejects_ratio_out_of_range():
    scn = small_scenario()
    with pytest.raises(ConfigError):
        stress_test(scn, [0.0, 1.5], reps=1, base_seed=1, mode="delayed")


def test_success_rate_matches_survivor_rule():
    scn = small_scenario(n_workers=4)
    rows, details = success_rate(scn, runs=40, base_seed=11, mode="fail")
    by_name = {r["strategy"]: r for r in rows}
    assert set(by_name) == {"uncoded", "traditional", "dynamic"}
    for r in rows:
        assert r["runs"] == 40
        assert r["successes"] == round(r["success_rate"] * 40)
    # dynamic succeeds exactly when at least one worker survives
    for n_frozen, ok in details["dynamic"]:
        assert ok == (n_frozen < scn.n_workers)
    # uncoded succeeds exactly when nobody fails
    for n_frozen, ok in details["uncoded"]:
        assert ok == (n_frozen == 0)


def test_success_rate_rejects_bad_mode():
    with pytest.raises(ConfigError):
        success_rate(small_scenario(), runs=1, base_seed=1, mode="delayed")


# -- draws shared within a rep ----------------------------------------------------


def test_stress_runs_one_pilot_per_rep_and_strategy(monkeypatch):
    # Pilots recurse through the module global; the straggler-free pilot is
    # the same for every nonzero ratio of a rep.
    pilots = []
    original = engine.run_episode

    def recording(scenario, strategy, seed, **kwargs):
        if kwargs.get("_behaviors") is not None:
            pilots.append((strategy, seed))
        return original(scenario, strategy, seed, **kwargs)

    monkeypatch.setattr(engine, "run_episode", recording)
    reps = 3
    stress_test(small_scenario(), [0.0, 0.3, 0.7, 1.0], reps, base_seed=5)
    assert len(pilots) == 3 * reps
    assert len(set(pilots)) == len(pilots)


def stress_searches(monkeypatch, scenario, reps):
    """select_s's calls in a stress run, and each traditional episode's
    (pick, select_s's pick on the episode's profiles)."""
    calls = []
    original = strategies.select_s

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(strategies, "select_s", counted)
    picks = []
    original_run = strategies.run_traditional_coded

    def recording(n1, n2, eng, **kwargs):
        outcome = original_run(n1, n2, eng, **kwargs)
        picks.append((outcome.params["s"],
                      original(max(n1, n2), min(n1, n2), eng.n_workers,
                               eng.profiles, eng.fleet.compute_coeff)))
        return outcome

    monkeypatch.setitem(strategies.STRATEGIES, "traditional", recording)
    stress_test(scenario, [0.0, 0.3, 0.7, 1.0], reps, base_seed=5)
    assert picks and all(s == want for s, want in picks)
    return calls


def test_stress_scans_an_unsettled_fleet_once_per_traditional_episode(
        monkeypatch):
    # On a fleet whose mu range does not settle the pick (mu = 1e-3), every
    # traditional episode scans: 4 ratios plus 1 pilot per rep.
    reps = 3
    calls = stress_searches(monkeypatch,
                            small_scenario(mu_low=1e-3, mu_high=1e-3), reps)
    assert len(calls) == 5 * reps


def test_stress_on_a_settled_fleet_searches_no_chunk_length(monkeypatch):
    # The default mu range settles the pick once for the fleet: no rep
    # searches, and every pick is still select_s's on the rep's profiles.
    assert stress_searches(monkeypatch, small_scenario(), reps=3) == []


@pytest.mark.parametrize("experiment, straggler_configs", [
    (lambda scn: sweep_b(scn.replace(straggler_ratio=0.5), [8, 32], 3, 7), 1),
    (lambda scn: stress_test(scn, [0.5], 3, 7), 1),
    # Ratio 0 draws no straggler and ratio 1 makes every worker one, so
    # neither opens the straggler stream.
    (lambda scn: stress_test(scn, [0.0, 0.3, 0.7, 1.0], 3, 7), 2),
    (lambda scn: stress_test(scn, [0.5, 1.0], 3, 7, mode="leave"), 1),
    (lambda scn: success_rate(scn, 12, 7), 1),
], ids=["sweep_b", "compare", "stress", "stress_leave", "success_rate"])
def test_experiments_build_each_stream_once(experiment, straggler_configs,
                                            streams_opened):
    # Slow workers make episodes span mobility ticks, so velocity tapes
    # are built too.
    experiment(small_scenario(mu_low=100.0, mu_high=200.0))
    built = Counter(streams_opened)
    assert any(tags[-1] == engine._VELOCITY for tags in built)
    # Each straggler configuration that draws a straggler reads the seed's
    # straggler stream from its start; every other stream is built once.
    for tags, count in built.items():
        if tags[-1] == engine._STRAGGLER:
            assert count == straggler_configs
        else:
            assert count == 1


def test_success_rate_keeps_one_draws_alive(monkeypatch):
    refs, alive = [], []
    original = experiments.run_episode

    def recording(*args, draws, **kwargs):
        if not refs or refs[-1]() is not draws:
            refs.append(weakref.ref(draws))
        alive.append(sum(ref() is not None for ref in refs))
        return original(*args, draws=draws, **kwargs)

    monkeypatch.setattr(experiments, "run_episode", recording)
    runs = 20
    success_rate(small_scenario(n_workers=4), runs, base_seed=3)
    assert len(refs) == runs
    assert len(alive) == 3 * runs and max(alive) == 1


def test_success_rate_derives_keys_a_bounded_block_at_a_time(monkeypatch):
    # A rep's Draws reads ahead the keys of KEY_ROWS_KEPT reps in one
    # evaluation, or of the reps left if fewer, so 53 runs derive at reps
    # 0, 16, 32 and 48 alone, the last for 5 reps; no stream derives a key
    # of its own, and the rows kept never outgrow KEY_ROWS_KEPT.
    kept = engine.KEY_ROWS_KEPT
    derived = []
    derive, run_episode = engine._derive, experiments.run_episode

    def recording(seeds, *args):
        derived.append(list(seeds))
        return derive(seeds, *args)

    def checking_episode(scenario, strategy, seed, **kwargs):
        assert seed in derived[-1] and seed in engine._KEY_ROWS
        assert len(engine._KEY_ROWS) <= kept
        return run_episode(scenario, strategy, seed, **kwargs)

    monkeypatch.setattr(engine, "_derive", recording)
    monkeypatch.setattr(experiments, "run_episode", checking_episode)
    engine._KEY_ROWS.clear()
    scn = small_scenario(n_workers=4)
    success_rate(scn, 53, base_seed=3)
    assert [seeds[0] for seeds in derived] == [
        episode_seed(3, scn.name, rep) for rep in (0, 16, 32, 48)]
    assert [len(seeds) for seeds in derived] == [kept, kept, kept, 53 - 48]
    assert len(engine._KEY_ROWS) <= kept


def test_a_run_reads_ahead_only_the_reps_it_has_left(monkeypatch):
    # A 4-rep run derives its 4 seeds' rows in one evaluation and keeps
    # those 4 alone.  A row's 3p + 5 keys are the master's two streams,
    # the scenario's three, then worker w's purpose q at 5 + 3w + q - 1,
    # each the key that its stream's own derivation gives.
    derived = []
    derive = engine._derive
    monkeypatch.setattr(engine, "_derive",
                        lambda seeds, *args: derived.append(list(seeds))
                        or derive(seeds, *args))
    engine._KEY_ROWS.clear()
    scn = small_scenario(n_workers=4, straggler_ratio=0.5)
    stress_test(scn, [0.5], reps=4, base_seed=3)
    seeds = [episode_seed(3, scn.name, rep) for rep in range(4)]
    assert derived == [seeds]
    assert list(engine._KEY_ROWS) == seeds
    streams = [(engine._MASTER_TAG, engine._POSITION),
               (engine._MASTER_TAG, engine._VELOCITY),
               *((engine._SCENARIO_TAG, purpose) for purpose in
                 (engine._MU, engine._STRAGGLER, engine._TASK)),
               *((w, purpose) for w in range(4) for purpose in
                 (engine._POSITION, engine._VELOCITY, engine._COMPUTE))]
    indices = [engine._key_index(node, purpose) for node, purpose in streams]
    assert indices == [*range(3 * 4 + 5)]
    for seed, row in engine._KEY_ROWS.items():
        assert len(row) == 2 * (3 * 4 + 5)
        for (node, purpose), i in zip(streams, indices):
            alone = derive((seed,), (node,), (purpose,))
            assert row[2 * i:2 * i + 2].tolist() == alone[0, 0].tolist()


def test_a_fleet_larger_than_the_kept_rows_derives_one_block(monkeypatch):
    # Runs of one name share their seeds.  The 8-worker run finds rows
    # derived for 4 workers, too short for its fleet, and derives one block
    # of its own rather than each missing key alone; the 4-worker run after
    # it is served by the 8-worker rows and derives nothing.
    derived = []
    derive = engine._derive
    monkeypatch.setattr(engine, "_derive",
                        lambda seeds, *args: derived.append(len(seeds))
                        or derive(seeds, *args))
    engine._KEY_ROWS.clear()
    counts = []
    for workers in (4, 8, 4):
        success_rate(ScenarioConfig("custom", 64, 64, workers), 16, 1)
        counts.append(derived[:])
        derived.clear()
    assert counts == [[16], [16], []]


# -- analytics ----------------------------------------------------------------------


def test_success_probability_formulas():
    assert uncoded_success_probability(8) == pytest.approx(1 / 9)
    assert dynamic_success_probability(8) == pytest.approx(8 / 9)
    # s=256, n1=512, n2=256: tolerates floor(8 - 512*256/256^2) = 6
    assert traditional_tolerated_failures(512, 256, 256, 8) == 6
    assert traditional_success_probability(512, 256, 256, 8) == pytest.approx(7 / 9)
    # hopeless geometry: s too small to fit any redundancy
    assert traditional_tolerated_failures(512, 256, 16, 8) == -1
    assert traditional_success_probability(512, 256, 16, 8) == 0.0


# -- formatting -------------------------------------------------------------------


def test_format_value():
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(3) == "3"
    assert format_value(0.125) == "0.125"
    assert format_value(1 / 3) == "0.333333"
    assert format_value("dyn") == "dyn"


def test_write_csv_layout(tmp_path):
    rows = [{"b": 8, "mean_time_s": 0.5, "ok": True},
            {"b": 16, "mean_time_s": 1 / 7, "ok": False}]
    csv_path = tmp_path / "out.csv"
    write_csv(csv_path, ["b", "mean_time_s", "ok"], rows)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "b,mean_time_s,ok"
    assert lines[1] == "8,0.5,true"
    assert lines[2] == "16,0.142857,false"


def test_write_manifest_sorted_no_timestamps(tmp_path):
    man_path = tmp_path / "out.manifest.txt"
    write_manifest(man_path, {"seed": 1234, "scenario": "scenario1",
                              "b": auto(None), "ratio": 0.5})
    lines = man_path.read_text().splitlines()
    assert lines == sorted(lines)
    assert "b=auto" in lines
    assert "seed=1234" in lines
    assert not any("time" in line.split("=")[0] for line in lines
                   if not line.startswith("mean"))


def test_write_csv_rejects_delimiter_in_cell(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ["name"], [{"name": "a,b"}])


# -- config files ------------------------------------------------------------------


GOOD_CONFIG = """\
[scenario]
index = 1
scale = 8

[experiment]
kind = compare
reps = 2
seed = 77
"""


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(GOOD_CONFIG)
    cfg = load_config(path)
    assert cfg["scenario"]["index"] == 1
    assert cfg["experiment"]["kind"] == "compare"
    scn = scenario_from_config(cfg)
    assert scn.name == "scenario1"


def test_config_unknown_section(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("[scenarioo]\nindex = 1\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "scenarioo" in str(err.value)
    assert "scenario" in str(err.value)  # valid names listed


def test_config_unknown_key(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("[scenario]\nindex = 1\nworkerss = 3\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "workerss" in str(err.value)
    assert "workers" in str(err.value)


def test_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/no/such/file.cfg")


def test_config_unreadable_path_named(tmp_path, capsys):
    # configparser skips paths it cannot open; a directory must not read
    # as an empty config.
    assert main(["run", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"cannot read config file: {tmp_path}" in err


def test_config_not_utf8_path_named(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_bytes(b"[scenario]\nindex = 1\n# \xff\n")
    assert main(["run", str(path)]) == 2
    assert str(path) in capsys.readouterr().err


def test_config_index_and_sizes_conflict(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("[scenario]\nindex = 1\nn1 = 100\n")
    cfg = load_config(path)
    with pytest.raises(ConfigError):
        scenario_from_config(cfg)


def test_config_sizes_incomplete(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("[scenario]\nn1 = 100\nn2 = 50\n")
    cfg = load_config(path)
    with pytest.raises(ConfigError):
        scenario_from_config(cfg)


def test_config_bad_kind(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text("[scenario]\nindex = 1\n\n[experiment]\nkind = race\n")
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "race" in err
    assert "sweep-b, compare, stress, success-rate" in err


def write_config(path, config: dict):
    """Write {section: {key: raw value}} as a config file at `path`."""
    path.write_text("".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items())
        for name, entries in config.items()))
    return path


@pytest.mark.parametrize("section, key, value", [
    ("scenario", "compute_coeff", "nan"),
    ("scenario", "compute_coeff", "inf"),
    ("comm", "bandwidth_hz", "nan"),
    ("comm", "noise_w", "nan"),
    ("comm", "rx_offset_dbm", "nan"),
    ("scenario", "init_box_m", "nan"),
    ("scenario", "init_box_m", "inf"),
    # Finite, but positions are drawn over twice the box, which is not.
    ("scenario", "init_box_m", "1e308"),
    ("scenario", "speed_limit_mps", "1e308"),
    ("scenario", "mu_high", "inf"),
    ("scenario", "horizon_factor", "nan"),
    ("scenario", "speed_limit_mps", "nan"),
    ("straggler", "delay_factor", "nan"),
    ("experiment", "out_dir", ""),
])
def test_config_bad_value_exits_2_before_running(section, key, value,
                                                 tmp_path, capsys,
                                                 monkeypatch):
    ran = []
    monkeypatch.setattr(experiments, "run_episode",
                        lambda *args, **kwargs: ran.append(args))
    config = {"scenario": {"index": "1"},
              "experiment": {"kind": "compare", "reps": "2",
                             "out_dir": str(tmp_path / "res")}}
    config.setdefault(section, {})[key] = value
    path = write_config(tmp_path / "exp.cfg", config)
    assert main(["run", str(path)]) == 2
    assert key in capsys.readouterr().err
    assert not ran
    assert os.listdir(tmp_path) == ["exp.cfg"]


def test_config_straggler_section(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("[scenario]\nindex = 2\n\n"
                    "[straggler]\nratio = 0.5\nmode = fail\n")
    scn = scenario_from_config(load_config(path))
    assert scn.straggler_ratio == 0.5
    assert scn.straggler_mode == "fail"


# One valid value per [scenario], [straggler] and [comm] key that is not
# its default on preset 1: (raw value, field it sets, parsed value).  The
# geometry keys have tests of their own.
GEOMETRY_KEYS = ("index", "scale", "n1", "n2", "workers")
KEY_VALUES = {
    ("scenario", "mu_low"): ("2e6", "mu_low", 2e6),
    ("scenario", "mu_high"): ("7e6", "mu_high", 7e6),
    ("scenario", "compute_coeff"): ("2", "compute_coeff", 2.0),
    ("scenario", "init_box_m"): ("900", "init_box_m", 900.0),
    ("scenario", "speed_limit_mps"): ("4", "speed_limit_mps", 4.0),
    ("scenario", "horizon_factor"): ("20", "horizon_factor", 20.0),
    ("scenario", "dynamic_b"): ("64", "dynamic_b", 64),
    ("scenario", "traditional_s"): ("128", "traditional_s", 128),
    ("straggler", "ratio"): ("0.25", "straggler_ratio", 0.25),
    ("straggler", "mode"): ("leave", "straggler_mode", "leave"),
    ("straggler", "delay_factor"): ("4", "delay_factor", 4.0),
    ("straggler", "failure_count_uniform"): ("yes", "failure_count_uniform",
                                             True),
    ("comm", "bandwidth_hz"): ("2e6", "comm.bandwidth_hz", 2e6),
    ("comm", "noise_w"): ("1e-11", "comm.noise_w", 1e-11),
    ("comm", "payload_bytes"): ("4", "comm.payload_bytes", 4),
    ("comm", "rx_offset_dbm"): ("3", "comm.rx_offset_dbm", 3.0),
}


@pytest.mark.parametrize("section, key", [
    (section, key) for section in ("scenario", "straggler", "comm")
    for key in experiments._SECTIONS[section] if key not in GEOMETRY_KEYS])
def test_config_key_reaches_its_field(section, key, tmp_path):
    raw, field, value = KEY_VALUES[section, key]
    config = {"scenario": {"index": "1"}}
    config.setdefault(section, {})[key] = raw
    path = write_config(tmp_path / "exp.cfg", config)
    read = operator.attrgetter(field)
    assert read(benchmark_scenario(1)) != value
    assert read(scenario_from_config(load_config(path))) == value


def test_config_scale_with_sizes_exits_2(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text("[scenario]\nn1 = 48\nn2 = 32\nworkers = 3\nscale = 8\n\n"
                    "[experiment]\nkind = compare\nreps = 2\n"
                    f"out_dir = {tmp_path / 'res'}\n")
    with pytest.raises(ConfigError, match="scale"):
        scenario_from_config(load_config(path))
    assert main(["run", str(path)]) == 2
    assert "scale" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["exp.cfg"]


def test_run_scenario_file_emits_files(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    out_dir = tmp_path / "res"
    path.write_text(
        "[scenario]\nn1 = 48\nn2 = 32\nworkers = 3\n\n"
        "[experiment]\nkind = compare\nreps = 2\nseed = 5\n"
        f"out_dir = {out_dir}\n"
    )
    assert main(["run", str(path)]) == 0, capsys.readouterr().err
    assert sorted(os.listdir(out_dir)) == ["compare.csv",
                                           "compare.manifest.txt"]
    manifest = (out_dir / "compare.manifest.txt").read_text().splitlines()
    assert "experiment=compare" in manifest
    assert "seed=5" in manifest
    assert "mode=delayed" in manifest
    # scale is recorded for preset scenarios only
    assert not any(line.startswith("scale=") for line in manifest)


def test_reruns_byte_identical(tmp_path):
    scn = small_scenario()

    def render():
        rows = stress_test(scn, [0.0], reps=2, base_seed=8)
        out = tmp_path / "r.csv"
        write_csv(out, ["strategy", "mean_time_s", "std_time_s"], rows)
        return out.read_bytes()

    assert render() == render()
