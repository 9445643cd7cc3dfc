"""Command-line front end.

Subcommands
-----------
run    execute one scenario (or ``--all``) and write CSV + summary files
check  randomized verification of the fairness properties
step   load a chain snapshot, advance blocks, write snapshot + block log
list   show available scenarios

Exit codes: 0 success, 1 property violation, 2 usage/config error
(a scenario argument value the runner rejects included), 3 runtime
failure.  All outputs land under the ``--out`` directory.

Config files are INI-style: a ``[scenario]`` section of flat key=value
pairs passed to the runner, plus optional ``[cohort <label>]`` sections
(keys ``coins``, ``work_probability``, ``count``) for the cohort-based
scenarios.  ``--set key=value`` overrides take precedence, and ``--seed``
overrides those.
"""

from __future__ import annotations

import argparse
import configparser
import inspect
import re
import sys
from pathlib import Path

from . import scenarios
from .chain import advance_block, load_snapshot, save_snapshot
from .errors import PrestigeError, SnapshotError

__all__ = ["main", "cmd_run", "cmd_check", "cmd_step", "cmd_list"]

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


def _coerce(text: str) -> object:
    """Parse a config/override value: int, then float, then bool, then str.

    Comma-separated values become a tuple, so grid kwargs are settable
    (e.g. ``--set decay_grid=0.05,0.5``; a trailing comma makes a 1-tuple).
    """
    if "," in text:
        return tuple(_coerce(part.strip()) for part in text.split(",") if part.strip())
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if text.lower() in ("true", "yes", "on"):
        return True
    if text.lower() in ("false", "no", "off"):
        return False
    return text


def _parse_overrides(pairs: list[str]) -> dict[str, object]:
    out: dict[str, object] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"--set expects key=value, got {pair!r}")
        out[key.strip()] = _coerce(value.strip())
    return out


def _load_config(path: str) -> dict[str, object]:
    """Read an INI config into runner kwargs (cohort sections included)."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep key case
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(path)
    kwargs: dict[str, object] = {}
    if parser.has_section("scenario"):
        for key, value in parser.items("scenario"):
            kwargs[key] = _coerce(value)
    cohorts = []
    for section in parser.sections():
        if not section.startswith("cohort "):
            continue
        label = section[len("cohort "):].strip()
        cohorts.append((
            label,
            parser.getint(section, "coins"),
            parser.getfloat(section, "work_probability"),
            parser.getint(section, "count", fallback=1),
        ))
    if cohorts:
        kwargs["cohorts"] = tuple(cohorts)
    return kwargs


def _reject_kwargs(runner, kwargs: dict[str, object], name: str) -> str | None:
    """Return an error message if kwargs contains keys the runner lacks, or a
    value that is not a number where the runner's default is one."""
    params = inspect.signature(runner).parameters
    unknown = sorted(set(kwargs) - set(params))
    if unknown:
        return (
            f"scenario {name!r} does not accept: {', '.join(unknown)}\n"
            f"valid keys: {', '.join(sorted(params))}"
        )
    number = (int, float)
    for key, value in kwargs.items():
        default = params[key].default
        if isinstance(default, number) and not isinstance(default, bool) and (
                isinstance(value, bool) or not isinstance(value, number)):
            return f"scenario {name!r}: {key} must be a number, got {value!r}"
    return None


def _scenario_listing() -> str:
    lines = []
    for name, runner in scenarios.SCENARIOS.items():
        doc = (inspect.getdoc(runner) or "").splitlines()
        lines.append(f"  {name:20s} {doc[0] if doc else ''}")
    return "\n".join(lines)


def cmd_run(scenario_name: str | None, config_path: str | None, seed: int | None,
            overrides: dict[str, object], output_dir: str) -> int:
    """Run one scenario, or every scenario when *scenario_name* is None."""
    if scenario_name is None:
        names = scenarios.scenario_names()
        if overrides or config_path is not None:
            flag = "--set" if overrides else "--config"
            print(f"run --all accepts only --seed/--out, not {flag}", file=sys.stderr)
            return EXIT_USAGE
    elif scenario_name not in scenarios.SCENARIOS:
        print(f"unknown scenario {scenario_name!r}; available:\n"
              f"{_scenario_listing()}", file=sys.stderr)
        return EXIT_USAGE
    else:
        names = (scenario_name,)

    try:
        kwargs = _load_config(config_path) if config_path is not None else {}
    except (FileNotFoundError, ValueError, configparser.Error) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    kwargs.update(overrides)
    if seed is not None:
        kwargs["seed"] = seed

    for name in names:
        runner = scenarios.SCENARIOS[name]
        message = _reject_kwargs(runner, kwargs, name)
        if message:
            print(message, file=sys.stderr)
            return EXIT_USAGE
        try:
            result = runner(**kwargs)
        except ValueError as exc:  # the runner rejected an argument value
            print(f"scenario {name!r} rejected its arguments: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except Exception as exc:  # scenario blew up: report, don't traceback
            print(f"scenario {name!r} failed: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        try:
            csv_path, summary_path = result.write(output_dir)
        except Exception as exc:  # an unwritable --out, a NaN in the summary
            print(f"scenario {name!r} failed to write: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        print(f"wrote {csv_path} and {summary_path}")
    return EXIT_OK


def cmd_check(seed: int, trials: int) -> int:
    if trials < 1:
        print(f"--trials must be a positive integer, got {trials}", file=sys.stderr)
        return EXIT_USAGE
    try:
        report = scenarios.run_theorem_checks(seed=seed, trials=trials)
    except Exception as exc:
        print(f"check failed to run: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    for prop, n, violation, tol, passed in report.rows:
        status = "pass" if passed else "FAIL"
        print(f"{status}  {prop}: max violation {violation:.3e} "
              f"(tolerance {tol:.0e}, {n} trials)")
    if report.summary["all_passed"]:
        print("all properties hold")
        return EXIT_OK
    print("property violation detected", file=sys.stderr)
    return EXIT_VIOLATION


def cmd_step(state_file: str, n_blocks: int, output_dir: str) -> int:
    if n_blocks < 0:
        print("--blocks must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    path = Path(state_file)
    try:
        state = load_snapshot(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read {state_file}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SnapshotError as exc:
        print(f"malformed snapshot: {exc}", file=sys.stderr)
        return EXIT_USAGE

    rows = []
    try:
        for _ in range(n_blocks):
            state, block = advance_block(state)
            rows.append((
                block.height, block.minter, block.fees_collected,
                block.subsidy, block.motivator_payout,
                ";".join(block.ack_hexes),
            ))
    except (PrestigeError, OverflowError) as exc:  # OverflowError: a reward past 2**63 - 1 coins
        print(f"advance failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    columns = ("block", "minter", "fees_collected", "subsidy", "motivator_payout", "acks")
    log = scenarios.ScenarioResult("blocks", columns, list(zip(*rows)))

    outdir = Path(output_dir)
    stem = re.sub(r"_h\d+$", "", path.stem)  # resuming x_h3.txt writes x_h5.txt, not x_h3_h5.txt
    snap_path = outdir / f"{stem}_h{state.height}{path.suffix or '.txt'}"
    log_path = outdir / f"{stem}_h{state.height}_blocks.csv"
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        snap_path.write_text(save_snapshot(state), encoding="utf-8", newline="")
        log_path.write_text(log.csv_text(), encoding="utf-8", newline="")
    except OSError as exc:  # an --out that cannot be created or written
        print(f"step failed to write: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"advanced {n_blocks} block(s) to height {state.height}")
    print(f"wrote {snap_path} and {log_path}")
    return EXIT_OK


def cmd_list() -> int:
    print("available scenarios:")
    print(_scenario_listing())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prestigesim",
        description="Deterministic prestige-economy simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario and write CSV + summary")
    run.add_argument("scenario", nargs="?", help="scenario name (see `list`)")
    run.add_argument("--all", action="store_true", help="run every scenario")
    run.add_argument("--config", help="INI config file")
    run.add_argument("--seed", type=int, help="RNG seed (unsigned 64-bit)")
    run.add_argument("--out", default=".", help="output directory (default: .)")
    run.add_argument("--set", dest="sets", action="append", default=[],
                     metavar="KEY=VALUE", help="override one runner argument")

    check = sub.add_parser("check", help="randomized fairness-property verification")
    check.add_argument("--trials", type=int, default=10_000)
    check.add_argument("--seed", type=int, default=0)

    step = sub.add_parser("step", help="advance a chain snapshot")
    step.add_argument("state_file")
    step.add_argument("--blocks", type=int, default=1)
    step.add_argument("--out", default=".", help="output directory (default: .)")

    sub.add_parser("list", help="list scenarios")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)

    if args.command == "list":
        return cmd_list()

    if args.command == "step":
        return cmd_step(args.state_file, args.blocks, args.out)

    # run and check both take --seed
    if args.seed is not None and not 0 <= args.seed < 2**64:
        print("--seed must fit in an unsigned 64-bit integer", file=sys.stderr)
        return EXIT_USAGE

    if args.command == "check":
        return cmd_check(args.seed, args.trials)

    try:
        overrides = _parse_overrides(args.sets)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    if args.scenario is None and not args.all:
        print("run: give a scenario name or --all\navailable:\n"
              f"{_scenario_listing()}", file=sys.stderr)
        return EXIT_USAGE
    name = None if args.all else args.scenario
    return cmd_run(name, args.config, args.seed, overrides, args.out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
