"""Command-line interface: exit codes, file outputs, config plumbing."""

import pytest

import prestigesim.mining
from prestigesim import ChainState, SystemParams, run_scenario, save_snapshot
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


def test_run_rejected_value_exits_2(tmp_path, capsys):
    # valid kwarg, invalid value: the runner itself rejects it
    code = main(["run", "decay", "--out", str(tmp_path),
                 "--set", "spike_up_at=90", "--set", "spike_down_at=10"])
    assert code == EXIT_USAGE
    assert "spike blocks" in capsys.readouterr().err
    assert main(["run", "theorem_checks", "--set", "trials=0", "--out", str(tmp_path)]) == EXIT_USAGE
    assert "trials" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_run_mistyped_set_exits_2(tmp_path, capsys):
    # blocks defaults to an int, so a value that parses as no number is a usage error
    for value in ("abc", "true"):
        assert main(["run", "decay", "--set", f"blocks={value}", "--out", str(tmp_path)]) == EXIT_USAGE
        assert "blocks must be a number" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


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


def test_run_runtime_failure_exits_3(tmp_path, capsys):
    # the run succeeds, but --out names a regular file, so nothing can be written
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("", encoding="utf-8")
    code = main(["run", "decay", "--out", str(blocker)])
    assert code == EXIT_RUNTIME
    assert "failed" in capsys.readouterr().err


def test_run_mode_flag_maps_to_kwarg(tmp_path):
    code = main(["run", "global", "--seed", "1", "--mode", "progressive",
                 "--out", str(tmp_path), "--set", "blocks=40",
                 "--set", "fanout=4"])
    assert code == EXIT_OK
    assert 'mode: "progressive"' in (tmp_path / "global_summary.txt").read_text()


def test_run_scale_flag_maps_to_kwarg(tmp_path):
    code = main(["run", "file_distribution", "--seed", "1", "--scale", "2000",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert "scale: 2000" in (tmp_path / "file_distribution_summary.txt").read_text()


def test_run_all_writes_every_pair(tmp_path):
    code = main(["run", "--all", "--seed", "11", "--out", str(tmp_path)])
    assert code == EXIT_OK
    files = {p.name for p in tmp_path.iterdir()}
    assert len(files) == 14  # 7 scenarios x (csv + summary)
    assert "theorem_checks.csv" in files
    assert "global_summary.txt" in files


def test_run_all_rejects_overrides(capsys):
    assert main(["run", "--all", "--set", "blocks=2"]) == EXIT_USAGE
    assert main(["run", "--all", "--mode", "simple"]) == EXIT_USAGE


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


def test_cli_overrides_beat_config(tmp_path):
    ini = tmp_path / "econ.ini"
    ini.write_text(CONFIG)
    code = main(["run", "global", "--seed", "2", "--config", str(ini),
                 "--out", str(tmp_path), "--set", "blocks=20"])
    assert code == EXIT_OK
    assert "blocks: 20" in (tmp_path / "global_summary.txt").read_text()


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


def test_check_rejects_bad_seed(capsys):
    assert main(["check", "--trials", "1", "--seed", "-1"]) == EXIT_USAGE
    assert main(["check", "--trials", "1", "--seed", str(2**64)]) == EXIT_USAGE
    assert "unsigned 64-bit" in capsys.readouterr().err


def test_check_detects_corruption(monkeypatch, capsys):
    monkeypatch.setattr(
        prestigesim.mining,
        "retain_progressive",
        lambda x, prestige, bp: 1.01 * x if prestige > 0 else 0.0,
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
    assert (tmp_path / "state_h5_h6.txt").exists()


def test_step_zero_blocks_echoes_state(tmp_path, snapshot_file):
    code = main(["step", str(snapshot_file), "--blocks", "0", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert (tmp_path / "state_h0.txt").read_bytes() == snapshot_file.read_bytes()


def test_step_negative_blocks(tmp_path, snapshot_file, capsys):
    assert main(["step", str(snapshot_file), "--blocks", "-1"]) == EXIT_USAGE


def test_step_missing_file(capsys):
    assert main(["step", "/no/such/state.txt"]) == EXIT_USAGE
    assert "cannot read" in capsys.readouterr().err


def test_step_malformed_snapshot(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("this is not a snapshot\n")
    assert main(["step", str(bad)]) == EXIT_USAGE
    assert "malformed snapshot" in capsys.readouterr().err
