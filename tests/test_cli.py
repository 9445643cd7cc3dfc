"""Command-line interface: exit codes, file outputs, config plumbing."""

import inspect
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import typing
from pathlib import Path

import pytest

import prestigesim.mining
from prestigesim import (
    Account, ChainState, SystemParams, advance_block, cli, register_motivator_reward, run_scenario,
    save_snapshot, scenarios,
)
from prestigesim.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, EXIT_VIOLATION, main


def test_list_names_every_scenario(capsys):
    assert main(["list"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in ("decay", "gain_vs_decay", "dag_study", "global",
                 "tradeoff", "file_distribution", "theorem_checks"):
        assert name in out


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == EXIT_USAGE


def test_help_exits_zero():
    assert main(["--help"]) == 0


# --- run -------------------------------------------------------------------------

def test_run_writes_csv_and_summary(tmp_path, capsys):
    code = main(["run", "decay", "--seed", "7", "--out", str(tmp_path),
                 "--set", "blocks=30", "--set", "spike_up_at=10",
                 "--set", "spike_down_at=20"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "wrote" in out
    csv_file = tmp_path / "decay.csv"
    summary_file = tmp_path / "decay_summary.txt"
    assert csv_file.exists() and summary_file.exists()
    assert csv_file.read_text().startswith("block,user_id,prestige,coins\n")
    assert "blocks: 30" in summary_file.read_text()


def test_run_same_seed_is_byte_identical(tmp_path):
    args = ["run", "gain_vs_decay", "--seed", "3",
            "--set", "blocks=200", "--set", "decay_grid=0.5,"]
    main(args + ["--out", str(tmp_path / "a")])
    main(args + ["--out", str(tmp_path / "b")])
    for name in ("gain_vs_decay.csv", "gain_vs_decay_summary.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_set_accepts_comma_grids(tmp_path):
    code = main(["run", "tradeoff", "--seed", "1", "--out", str(tmp_path),
                 "--set", "blocks=50", "--set", "decay_grid=0.05,0.5"])
    assert code == EXIT_OK
    summary = (tmp_path / "tradeoff_summary.txt").read_text()
    assert "winner.d0.05:" in summary
    assert "winner.d0.5:" in summary
    assert "winner.d0.01:" not in summary  # default grid was replaced


def test_run_unknown_scenario(capsys):
    assert main(["run", "warp_drive"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "unknown scenario" in err
    assert "dag_study" in err  # listing is shown


def test_run_without_name(capsys):
    assert main(["run"]) == EXIT_USAGE
    assert "give a scenario name or --all" in capsys.readouterr().err


def test_run_refuses_a_name_with_all(tmp_path, capsys):
    assert main(["run", "decay", "--all", "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert "give a scenario name or --all" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_malformed_set(capsys):
    assert main(["run", "decay", "--set", "no_equals_sign"]) == EXIT_USAGE


def test_run_unknown_kwarg(capsys):
    assert main(["run", "decay", "--set", "bogus_knob=5"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "does not accept" in err
    assert "valid keys" in err


def test_run_bad_seed(capsys):
    assert main(["run", "decay", "--seed", "-1"]) == EXIT_USAGE
    assert main(["run", "decay", "--seed", str(2**64)]) == EXIT_USAGE


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_run_refuses_a_seed_outside_64_bits_however_given(tmp_path, capsys, seed):
    ini = tmp_path / "seed.ini"
    ini.write_text(f"[scenario]\nseed = {seed}\n")
    out = tmp_path / "out"
    for args in (["decay", "--set", f"seed={seed}"], ["decay", "--config", str(ini)],
                 ["decay", "--seed", str(seed)]):
        assert main(["run", *args, "--out", str(out)]) == EXIT_USAGE
        assert f"seed must be in [0, 2**64), got {seed}" in capsys.readouterr().err
    assert not out.exists()


def test_run_refuses_a_repeated_fee_grid_point(tmp_path, capsys):
    # both runs would report under one combo key
    assert main(["run", "file_distribution", "--set", "scale=20000", "--set", "fee_grid=300,300",
                 "--set", "branch_grid=0.5", "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert "fee_grid must not repeat a value, got (300.0, 300.0)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_all_refuses_a_bad_seed_before_starting_the_worker(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_worker_pays", lambda: True)
    monkeypatch.setattr(cli, "_start_worker", lambda *args: pytest.fail("a worker was started"))
    assert main(["run", "--all", "--seed", "-1", "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert "seed must be in [0, 2**64), got -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_rejected_value_exits_2(tmp_path, capsys):
    # valid kwarg, invalid value: the runner itself rejects it
    code = main(["run", "decay", "--out", str(tmp_path),
                 "--set", "spike_up_at=90", "--set", "spike_down_at=10"])
    assert code == EXIT_USAGE
    assert "spike blocks" in capsys.readouterr().err
    assert main(["run", "theorem_checks", "--set", "trials=0", "--out", str(tmp_path)]) == EXIT_USAGE
    assert "trials" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("key", ["decay_grid", "injections"])
def test_run_empty_grid_exits_2(tmp_path, capsys, key):
    # a lone comma sets an empty tuple
    assert main(["run", "gain_vs_decay", "--set", f"{key}=,", "--out", str(tmp_path)]) == EXIT_USAGE
    assert "must not be empty" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name", ["gain_vs_decay", "tradeoff"])
def test_run_decay_grid_outside_the_unit_interval_exits_2(tmp_path, capsys, name):
    assert main(["run", name, "--set", "decay_grid=0.5,1.5", "--out", str(tmp_path)]) == EXIT_USAGE
    assert "decay must be in (0, 1), got 1.5" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_run_mistyped_set_exits_2(tmp_path, capsys):
    # blocks defaults to an int, so a value that parses as no number is a usage error
    for value in ("abc", "true"):
        assert main(["run", "decay", "--set", f"blocks={value}", "--out", str(tmp_path)]) == EXIT_USAGE
        assert "blocks must be an integer" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name, setting, message", [
    ("dag_study", "n_users=1e3", "scenario 'dag_study': n_users must be an integer, got '1e3'"),
    ("decay", "blocks=2.5e2", "scenario 'decay': blocks must be an integer, got '2.5e2'"),
    ("global", "mode=5", "unknown mining mode '5'"),
    ("dag_study", "modes=3", "unknown mining mode '3'"),
    ("dag_study", "modes=simple,3", "modes: unknown mining mode '3'"),
    ("dag_study", "modes=simple,simple", "modes must not repeat a value, got ('simple', 'simple')"),
    ("dag_study", "modes=,", "modes must not be empty"),
    ("dag_study", "branch_power=-1", "branch_power must be finite and >= 0, got -1.0"),
    ("global", "fee=-5", "fee must be finite and >= 0, got -5.0"),
    ("decay", "seed=-1", "seed must be in [0, 2**64), got -1"),
    ("decay", "users=5", "scenario 'decay': users cannot be given as text, got '5'"),
    ("dag_study", "base_range=5",
     "scenario 'dag_study': base_range must be 2 comma-separated values, got '5'"),
    ("dag_study", "tasks_range=1,x", "scenario 'dag_study': tasks_range must be an integer, got 'x'"),
    ("global", "window=abc", "scenario 'global': window must be an integer, got 'abc'"),
    ("global", "cohorts=5", "scenario 'global': cohorts cannot be given as text, got '5'"),
    ("gain_vs_decay", "decay_grid=0.5,x", "scenario 'gain_vs_decay': decay_grid must be a number, got 'x'"),
    ("decay", "spike=abc", "scenario 'decay': spike must be a number, got 'abc'"),
    ("dag_study", "fanout=2.0", "scenario 'dag_study': fanout must be an integer, got '2.0'"),
])
def test_run_parses_each_value_as_the_runner_declares(tmp_path, capsys, name, setting, message):
    # the mining mode is a str, so the runner itself refuses one it does not know
    assert main(["run", name, "--set", setting, "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", list(scenarios.SCENARIOS))
def test_every_runner_parameter_carries_an_annotation(name):
    runner = scenarios.SCENARIOS[name]
    hints = typing.get_type_hints(runner)
    del hints["return"]
    assert set(hints) == set(inspect.signature(runner).parameters)


def test_run_numbers_take_the_declared_type(tmp_path):
    # integer text for a float parameter writes the default's bytes
    outputs = []
    for extra in (["--set", "spike=200"], ["--set", "spike=200.0"], []):
        out = tmp_path / str(len(outputs))
        assert main(["run", "decay", "--out", str(out), *extra]) == EXIT_OK
        outputs.append([(out / f).read_bytes() for f in ("decay.csv", "decay_summary.txt")])
    assert outputs[0] == outputs[1] == outputs[2]
    assert main(["run", "file_distribution", "--set", "scale=20000", "--set", "fee_grid=150,600",
                 "--set", "branch_grid=0.5", "--out", str(tmp_path / "fd")]) == EXIT_OK
    summary = (tmp_path / "fd" / "file_distribution_summary.txt").read_text()
    assert "combo_f150.0_b0.5.top_cents:" in summary
    assert "combo_f600.0_b0.5.top_cents:" in summary


def test_a_single_value_fills_a_one_element_grid(tmp_path):
    assert main(["run", "gain_vs_decay", "--set", "decay_grid=0.5", "--set", "blocks=200",
                 "--out", str(tmp_path)]) == EXIT_OK
    rows = (tmp_path / "gain_vs_decay.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0.5"] * 5  # one decay x 5 injections
    assert main(["run", "dag_study", "--set", "modes=progressive", "--set", "n_users=200",
                 "--out", str(tmp_path)]) == EXIT_OK
    rows = (tmp_path / "dag_study.csv").read_text().splitlines()[1:]
    assert {row.split(",")[0] for row in rows} == {"progressive"}


def test_file_distribution_with_nobody_in_credit_pays_nothing(tmp_path):
    # a fee no joiner can earn back leaves no pool member with positive prestige
    assert main(["run", "file_distribution", "--set", "fee=1e9", "--set", "scale=20000",
                 "--out", str(tmp_path)]) == EXIT_OK
    lines = (tmp_path / "file_distribution_summary.txt").read_text().splitlines()
    for line in ("rewards_sum_cents: 0", "budget_exact: false", "fraction_paid: 0.0",
                 "typical_reward_cents: 0.0"):
        assert line in lines


NAN = float("nan")


@pytest.mark.parametrize("name, key, value", [
    ("decay", "spike", NAN),
    ("dag_study", "fee", NAN),
    ("global", "fee", NAN),
    ("tradeoff", "work_value", NAN),
    ("dag_study", "branch_power", NAN),
    ("global", "branch_power", float("inf")),
    ("gain_vs_decay", "decay_grid", (NAN, 0.5)),
    ("file_distribution", "branch_power", NAN),
])
def test_non_finite_argument_is_rejected_up_front(tmp_path, capsys, name, key, value):
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        run_scenario(name, **{key: value})
    text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
    assert main(["run", name, "--set", f"{key}={text}", "--out", str(tmp_path)]) == EXIT_USAGE
    assert f"{key} must be finite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name, setting, message", [
    ("tradeoff", "decay_grid=0.3,0.3", "decay_grid must not repeat a value, got (0.3, 0.3)"),
    ("gain_vs_decay", "decay_grid=0.1,0.1", "decay_grid must not repeat a value, got (0.1, 0.1)"),
    ("dag_study", "tasks_range=-3,2", "tasks_range must have 0 <= low <= high, got (-3, 2)"),
    ("dag_study", "tasks_range=5,2", "tasks_range must have 0 <= low <= high, got (5, 2)"),
    ("dag_study", "fanout=0", "fanout must be at least 1"),
    ("file_distribution", "fanout=0", "fanout must be at least 1"),
    ("file_distribution", "scale=0", "scale must be a positive integer"),
    ("file_distribution", "scale=20000000", "scale too aggressive: zero viewers per episode"),
])
def test_run_refuses_an_argument_the_scenario_cannot_report(tmp_path, capsys, name, setting, message):
    assert main(["run", name, "--set", setting, "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_runtime_failure_exits_3(tmp_path, capsys):
    # the run succeeds, but --out names a regular file, so nothing can be written
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("", encoding="utf-8")
    code = main(["run", "decay", "--out", str(blocker)])
    assert code == EXIT_RUNTIME
    assert "failed" in capsys.readouterr().err


def test_run_mode_flag_maps_to_kwarg(tmp_path, capsys):
    code = main(["run", "global", "--seed", "1", "--set", "mode=progressive",
                 "--out", str(tmp_path), "--set", "blocks=40",
                 "--set", "fanout=4"])
    assert code == EXIT_OK
    assert 'mode: "progressive"' in (tmp_path / "global_summary.txt").read_text()
    # the mode is set only through --set, which rejects an unknown one
    assert main(["run", "global", "--mode", "progressive", "--out", str(tmp_path)]) == EXIT_USAGE
    assert main(["run", "global", "--set", "mode=sideways", "--out", str(tmp_path)]) == EXIT_USAGE
    assert "unknown mining mode 'sideways'" in capsys.readouterr().err


def test_run_scale_flag_maps_to_kwarg(tmp_path):
    code = main(["run", "file_distribution", "--seed", "1", "--set", "scale=2000",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert "scale: 2000" in (tmp_path / "file_distribution_summary.txt").read_text()


@pytest.fixture
def forked(monkeypatch):
    """Run --all through the forked worker whatever the CPU count; return the workers started."""
    if not hasattr(os, "fork"):
        pytest.skip("no fork on this platform")
    started = []
    start = cli._start_worker

    def recording_start(name, kwargs):
        worker, reader = start(name, kwargs)
        started.append(worker)
        return worker, reader

    monkeypatch.setattr(cli, "_worker_pays", lambda: True)
    monkeypatch.setattr(cli, "_start_worker", recording_start)
    return started


def scenario_files(names):
    return {f"{name}{suffix}" for name in names for suffix in (".csv", "_summary.txt")}


BEFORE_FORKED = scenarios.scenario_names()[:scenarios.scenario_names().index("file_distribution")]


def test_run_all_writes_every_pair(tmp_path, capsys, forked):
    # the worker's file_distribution and the rest match one in-process run each,
    # at seed 11, which no pin covers
    assert main(["run", "--all", "--seed", "11", "--out", str(tmp_path)]) == EXIT_OK
    assert len(forked) == 1 and multiprocessing.active_children() == []
    names = scenarios.scenario_names()
    assert len(names) == 7
    assert capsys.readouterr().out == "".join(
        f"wrote {tmp_path / name}.csv and {tmp_path / name}_summary.txt\n" for name in names)
    assert {p.name for p in tmp_path.iterdir()} == scenario_files(names)
    for name in names:
        result = scenarios.SCENARIOS[name](seed=11)
        assert (tmp_path / f"{name}.csv").read_bytes() == result.csv_text().encode("utf-8")
        assert (tmp_path / f"{name}_summary.txt").read_bytes() == result.summary_text().encode("utf-8")


def _rejects(**kwargs):
    raise ValueError("scale must leave a task to share")


def _fails(**kwargs):
    raise RuntimeError(f"blew up in process {os.getpid()}")


def _misses(**kwargs):
    raise KeyError("x")


def _dies(**kwargs):
    os._exit(9)


@pytest.mark.parametrize("runner, code, message", [
    (_rejects, EXIT_USAGE,
     "scenario 'file_distribution' rejected its arguments: scale must leave a task to share\n"),
    (_fails, EXIT_RUNTIME, "scenario 'file_distribution' failed: blew up in process "),
    (_misses, EXIT_RUNTIME, "scenario 'file_distribution' failed: 'x'\n"),
    (_dies, EXIT_RUNTIME, "scenario 'file_distribution' failed: its worker exited with code 9\n"),
])
def test_run_all_reports_the_worker_failure_in_scenario_order(
        tmp_path, capsys, monkeypatch, forked, runner, code, message):
    # the fork inherits the patched registry
    monkeypatch.setitem(scenarios.SCENARIOS, "file_distribution", runner)
    assert main(["run", "--all", "--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert err.startswith(message)
    if runner is _fails:  # raised in the worker, not in this process
        assert err != f"{message}{os.getpid()}\n"
    assert len(forked) == 1 and multiprocessing.active_children() == []
    assert {p.name for p in tmp_path.iterdir()} == scenario_files(BEFORE_FORKED)


def _sleeps(**kwargs):
    time.sleep(120)


def _decay_rejects(**kwargs):
    raise ValueError("spike blocks out of order")


@pytest.mark.parametrize("failure", ["decay_rejects", "unwritable_out"])
def test_run_all_kills_the_worker_when_an_earlier_scenario_fails(
        tmp_path, capsys, monkeypatch, forked, failure):
    monkeypatch.setitem(scenarios.SCENARIOS, "file_distribution", _sleeps)
    out = tmp_path / "out"
    if failure == "decay_rejects":
        monkeypatch.setitem(scenarios.SCENARIOS, "decay", _decay_rejects)
        expected = (EXIT_USAGE, "scenario 'decay' rejected its arguments: spike blocks out of order\n")
    else:
        out.write_text("", encoding="utf-8")  # a regular file, so nothing can be written
        expected = (EXIT_RUNTIME, "scenario 'decay' failed to write: ")
    assert main(["run", "--all", "--out", str(out)]) == expected[0]
    assert capsys.readouterr().err.startswith(expected[1])
    assert len(forked) == 1 and forked[0].exitcode == -signal.SIGKILL
    assert multiprocessing.active_children() == []
    assert not out.is_dir()


def test_a_single_run_and_a_single_cpu_start_no_worker(tmp_path, monkeypatch, forked):
    assert main(["run", "gain_vs_decay", "--set", "blocks=20", "--out", str(tmp_path)]) == EXIT_OK
    assert forked == []
    monkeypatch.undo()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli._worker_pays() is False


def test_run_all_and_check_never_import_scipy(tmp_path):
    # the runtime needs numpy only; scipy is a test extra for the acceptance statistics
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import sys\n"
        "from prestigesim import cli\n"
        f"assert cli.main(['run', '--all', '--out', {str(tmp_path)!r}]) == 0\n"
        "assert cli.main(['check', '--trials', '200']) == 0\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_run_all_rejects_overrides(capsys):
    assert main(["run", "--all", "--set", "blocks=2"]) == EXIT_USAGE
    assert capsys.readouterr().err == "run --all accepts only --seed/--out, not --set\n"


# --- config files -------------------------------------------------------------------

CONFIG = """\
[scenario]
blocks = 40
decay = 0.1
mode = simple

[cohort alpha]
coins = 30
work_probability = 0.1
count = 4

[cohort beta]
coins = 60
work_probability = 0.3
"""


def test_run_with_config_cohorts(tmp_path):
    ini = tmp_path / "econ.ini"
    ini.write_text(CONFIG)
    code = main(["run", "global", "--seed", "2", "--config", str(ini),
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    summary = (tmp_path / "global_summary.txt").read_text()
    assert "alpha.static_value: 300.0" in summary  # 30 coins / 0.1 decay
    assert "beta.surplus_trimmed:" in summary
    assert "blocks: 40" in summary


def test_run_refuses_a_cohort_with_negative_coins(tmp_path, capsys):
    ini = tmp_path / "debt.ini"
    ini.write_text("[cohort a]\ncoins = -50\nwork_probability = 0.1\ncount = 3\n\n"
                   "[cohort b]\ncoins = 10\nwork_probability = 0.2\ncount = 3\n")
    out = tmp_path / "out"
    code = main(["run", "global", "--config", str(ini), "--set", "blocks=20", "--out", str(out)])
    assert code == EXIT_USAGE
    assert "cohort 'a' needs coins >= 0, got -50" in capsys.readouterr().err
    assert not out.exists()


def test_run_global_reads_no_gap_between_two_zero_surpluses(tmp_path):
    # both lazy cohorts hold nothing and never work: each surplus is 0, and so is their gap
    ini = tmp_path / "idle.ini"
    ini.write_text("".join(f"[cohort {label}]\ncoins = {coins}\nwork_probability = {work}\ncount = 3\n\n"
                           for label, coins, work in (("poor_lazy", 0, 0), ("poor_active", 50, 0.2),
                                                      ("rich_lazy", 0, 0), ("rich_active", 100, 0.2))))
    code = main(["run", "global", "--config", str(ini), "--set", "blocks=20", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert "same_work_rel_gap.lazy: 0.0" in (tmp_path / "global_summary.txt").read_text().splitlines()


@pytest.mark.parametrize("label", ["odd,label", 'say"hi"', "two words"])
@pytest.mark.parametrize("name", ["global", "tradeoff"])
def test_run_refuses_a_cohort_label_that_breaks_a_csv_row(tmp_path, capsys, name, label):
    # 'odd,label' wrote an 8-field tradeoff row under its 7-field header
    ini = tmp_path / "odd.ini"
    ini.write_text("".join(f"[cohort {cohort}]\ncoins = 10\nwork_probability = 0.2\ncount = 3\n\n"
                           for cohort in ("poor_active", "rich_lazy", label)))
    out = tmp_path / "out"
    code = main(["run", name, "--config", str(ini), "--set", "blocks=5", "--out", str(out)])
    assert code == EXIT_USAGE
    assert f"cohort label {label!r} must be non-empty, without whitespace" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name, config, refused", [
    ("decay", "[scenari]\nblocks = 7\n", "unknown section [scenari]"),
    ("global", "[scenario]\nblocks = 7\n\n[cohort a]\ncoins = 5\nwork_probability = 0.2\n"
               "work_prob = 0.9\n", "[cohort a] does not accept: work_prob\n"),
    ("decay", "[DEFAULT]\nspike = 50\n\n[scenario]\nseed = 1\n", "unknown section [DEFAULT]"),
], ids=["misspelt-section", "cohort-key", "default-section"])
def test_run_refuses_an_unknown_config_section_or_cohort_key(tmp_path, capsys, name, config, refused):
    # each was ignored, or copied into every section, and the run went on
    ini = tmp_path / "c.ini"
    ini.write_text(config)
    out = tmp_path / "out"
    assert main(["run", name, "--config", str(ini), "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"config error: {refused}")
    assert not out.exists()


def test_cli_overrides_beat_config(tmp_path):
    ini = tmp_path / "econ.ini"
    ini.write_text(CONFIG)
    code = main(["run", "global", "--seed", "2", "--config", str(ini),
                 "--out", str(tmp_path), "--set", "blocks=20"])
    assert code == EXIT_OK
    assert "blocks: 20" in (tmp_path / "global_summary.txt").read_text()


def test_run_all_rejects_config(tmp_path, capsys):
    ini = tmp_path / "econ.ini"
    ini.write_text(CONFIG)
    out = tmp_path / "out"
    assert main(["run", "--all", "--config", str(ini), "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == "run --all accepts only --seed/--out, not --config\n"
    assert not out.exists()


def test_missing_config(capsys):
    assert main(["run", "global", "--config", "/does/not/exist.ini"]) == EXIT_USAGE
    assert "config error" in capsys.readouterr().err


# --- check ------------------------------------------------------------------------

def test_check_passes_and_prints_every_property(capsys):
    assert main(["check", "--trials", "200"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "all properties hold" in out
    for prop in ("split_trajectory_additive", "transfer_conservation",
                 "split_never_retains_more", "collusion_never_beats_idle",
                 "propagation_exact_and_nonnegative"):
        assert f"pass  {prop}:" in out


def test_check_rejects_bad_trials(capsys):
    assert main(["check", "--trials", "0"]) == EXIT_USAGE
    assert main(["check", "--trials", "-5"]) == EXIT_USAGE


def test_check_reports_the_runners_refusal(capsys):
    assert main(["check", "--trials", "0"]) == EXIT_USAGE
    assert capsys.readouterr().err == "check rejected its arguments: trials must be at least 1, got 0\n"


def test_check_rejects_bad_seed(capsys):
    assert main(["check", "--trials", "1", "--seed", "-1"]) == EXIT_USAGE
    assert main(["check", "--trials", "1", "--seed", str(2**64)]) == EXIT_USAGE
    assert f"seed must be in [0, 2**64), got {2**64}" in capsys.readouterr().err


def test_check_reports_a_runner_that_fails_to_run(monkeypatch, capsys):
    def broken(**kwargs):
        raise RuntimeError("out of cheese")

    monkeypatch.setattr(scenarios, "run_theorem_checks", broken)
    assert main(["check", "--trials", "1"]) == EXIT_RUNTIME
    assert capsys.readouterr().err == "check failed to run: out of cheese\n"


def test_check_detects_corruption(monkeypatch, capsys):
    # settle_upstream applies the retention rule inline, so corrupt the kernel:
    # it credits 1% more than the fee it splits.
    real = prestigesim.mining.settle_upstream
    monkeypatch.setattr(
        prestigesim.mining,
        "settle_upstream",
        lambda path, x, prestige_of, b, credit: real(path, 1.01 * x, prestige_of, b, credit),
    )
    assert main(["check", "--trials", "100"]) == EXIT_VIOLATION
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "property violation detected" in captured.err


# --- step -------------------------------------------------------------------------

@pytest.fixture
def snapshot_file(tmp_path):
    state = ChainState.genesis(
        [("a", 40), ("b", 40), ("c", 40)],
        SystemParams(decay=0.2),
        rng_seed=5,
        subsidy=2,
    )
    path = tmp_path / "state.txt"
    path.write_text(save_snapshot(state), newline="")
    return path


def test_step_advances_and_logs(tmp_path, snapshot_file, capsys):
    code = main(["step", str(snapshot_file), "--blocks", "5", "--out", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "advanced 5 block(s) to height 5" in out
    snap = tmp_path / "state_h5.txt"
    log = tmp_path / "state_h5_blocks.csv"
    assert snap.exists() and log.exists()
    lines = log.read_text().splitlines()
    assert lines[0] == "block,minter,fees_collected,subsidy,motivator_payout,acks"
    assert len(lines) == 6
    assert lines[1].startswith("1,")
    assert all(line.split(",")[3] == "2" for line in lines[1:])  # subsidy column
    # the written snapshot is itself steppable
    assert main(["step", str(snap), "--blocks", "1", "--out", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / "state_h6.txt").exists() and (tmp_path / "state_h6_blocks.csv").exists()


def test_step_block_log_bytes(tmp_path, snapshot_file):
    assert main(["step", str(snapshot_file), "--blocks", "2", "--out", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / "state_h2_blocks.csv").read_bytes() == (
        b"block,minter,fees_collected,subsidy,motivator_payout,acks\n"
        b"1,c,0,2,0,\n"
        b"2,a,0,2,0,\n"
    )


def test_step_zero_blocks_echoes_state(tmp_path, snapshot_file):
    code = main(["step", str(snapshot_file), "--blocks", "0", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert (tmp_path / "state_h0.txt").read_bytes() == snapshot_file.read_bytes()


def test_step_negative_blocks(tmp_path, snapshot_file, capsys):
    assert main(["step", str(snapshot_file), "--blocks", "-1"]) == EXIT_USAGE


def test_step_missing_file(capsys):
    assert main(["step", "/no/such/state.txt"]) == EXIT_USAGE
    assert "cannot read" in capsys.readouterr().err


def test_step_state_file_not_utf8_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "state.txt"
    bad.write_bytes(b"# prestigesim-state 1\n\xff\xfe\n")
    assert main(["step", str(bad), "--out", str(tmp_path / "out")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read {bad}: ") and "utf-8" in err and err.count("\n") == 1


def test_step_unwritable_out_is_a_runtime_failure(tmp_path, snapshot_file, capsys):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("", encoding="utf-8")
    code = main(["step", str(snapshot_file), "--blocks", "1", "--out", str(blocker / "sub")])
    assert code == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("step failed to write: ") and err.count("\n") == 1


def test_step_malformed_snapshot(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("this is not a snapshot\n")
    assert main(["step", str(bad)]) == EXIT_USAGE
    assert "malformed snapshot" in capsys.readouterr().err


def test_step_snapshot_missing_a_header_names_it_once(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("# prestigesim-state 1\n# height 0\na,5,0.0,\n")
    assert main(["step", str(bad)]) == EXIT_USAGE
    assert capsys.readouterr().err == "malformed snapshot: missing header 'decay'\n"


def test_step_rejects_a_negative_subsidy(tmp_path, snapshot_file, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text(snapshot_file.read_text().replace("# subsidy 2\n", "# subsidy -1\n"))
    out = tmp_path / "out"
    assert main(["step", str(bad), "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == "malformed snapshot: line 7: subsidy must be >= 0, got -1\n"
    assert not out.exists()


def test_step_rejects_a_seed_outside_64_bits(tmp_path, snapshot_file, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text(snapshot_file.read_text().replace("# seed 5\n", "# seed -5\n"))
    assert main(["step", str(bad), "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert capsys.readouterr().err == "malformed snapshot: line 6: seed must be in [0, 2**64), got -5\n"
    assert not (tmp_path / "out").exists()


def test_step_refuses_a_snapshot_whose_coins_do_not_add_up(tmp_path, snapshot_file, capsys):
    # advancing it would carry the broken identity into every later snapshot
    bad = tmp_path / "bad.txt"
    bad.write_text(snapshot_file.read_text().replace("# initial-coins 120\n", "# initial-coins 999\n"))
    assert main(["step", str(bad), "--blocks", "2", "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "malformed snapshot: coins do not add up: 120 held + 0 escrowed + 0 fees pending "
        "!= 999 initial + 0 blocks * 2 subsidy\n")
    assert not (tmp_path / "out").exists()


def test_step_refuses_a_reward_funded_by_no_account(tmp_path, snapshot_file, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text(snapshot_file.read_text().replace("# seed 5\n", "# seed 5\n# reward ghost 1 3\n"))
    assert main(["step", str(bad), "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert capsys.readouterr().err == "malformed snapshot: reward funder 'ghost' has no account line\n"
    assert not (tmp_path / "out").exists()


def test_step_counts_escrow_and_pending_fees_in_the_coin_check(tmp_path, capsys):
    state = ChainState.genesis([("a", 40), ("b", 40)], SystemParams(decay=0.2), rng_seed=5, subsidy=2)
    register_motivator_reward(state, "a", 3, 4)
    state, _ = advance_block(state)
    b = state.accounts["b"]
    state.fees_pending, state.accounts["b"] = 5, Account("b", b.coins - 5, b.prestige, b.verification_key)
    path = tmp_path / "busy.txt"
    path.write_text(save_snapshot(state))
    assert main(["step", str(path), "--blocks", "2", "--out", str(tmp_path / "out")]) == EXIT_OK
    assert "advanced 2 block(s) to height 3" in capsys.readouterr().out


def test_step_reward_past_coin_limit_is_a_runtime_failure(tmp_path, capsys):
    state = ChainState.genesis([("a", 2**63 - 2)], SystemParams(decay=0.5), rng_seed=1, subsidy=2)
    path = tmp_path / "full.txt"
    path.write_text(save_snapshot(state))
    assert main(["step", str(path), "--blocks", "1", "--out", str(tmp_path)]) == EXIT_RUNTIME
    assert "coins, past 2**63 - 1" in capsys.readouterr().err
