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
pairs, plus optional ``[cohort <label>]`` sections (keys ``coins``,
``work_probability``, ``count``) for the cohort-based scenarios; any other
section, ``[DEFAULT]`` included, and any other cohort key is refused.
``--set key=value`` overrides take precedence, and ``--seed`` overrides
those.  Each value is parsed as the runner's type annotation declares it.
"""

from __future__ import annotations

import argparse
import configparser
import inspect
import os
import re
import sys
from collections.abc import Sequence
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from . import core, scenarios
from .chain import ChainState, advance_block, load_snapshot, save_snapshot
from .errors import PrestigeError, SnapshotError

__all__ = ["main", "cmd_run", "cmd_check", "cmd_step", "cmd_list"]

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


_NOUNS = {int: "an integer", float: "a number", str: "text"}
_COHORT_KEYS = ("coins", "work_probability", "count")


def _setting(text: str) -> tuple[str, str]:
    """One ``--set KEY=VALUE`` as (key, value text); argparse reports a malformed one."""
    key, sep, value = text.partition("=")
    if not sep or not key.strip():
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    return key.strip(), value.strip()


def _parse(hint, text: str) -> object:
    """*text* as the type *hint* declares it, or ValueError saying what it must be.

    A scalar calls its type; ``X | None`` parses as ``X``; ``tuple[A, B]``
    takes exactly that many comma-separated parts and ``Sequence[A]`` any
    number (blank parts are dropped, so ``,`` is empty and ``0.5,`` one part).
    Anything nested cannot be given as text.
    """
    if isinstance(hint, UnionType):  # None is only ever the default
        (hint,) = set(get_args(hint)) - {type(None)}
    if hint in _NOUNS:
        try:
            return hint(text)
        except ValueError:
            raise ValueError(f"must be {_NOUNS[hint]}, got {text!r}") from None
    origin, args = get_origin(hint), get_args(hint)
    if origin not in (tuple, Sequence) or not set(args) <= set(_NOUNS):
        raise ValueError(f"cannot be given as text, got {text!r}")
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if origin is tuple and len(parts) != len(args):
        raise ValueError(f"must be {len(args)} comma-separated values, got {text!r}")
    kinds = args if origin is tuple else args * len(parts)
    return tuple(_parse(kind, part) for kind, part in zip(kinds, parts))


def _load_config(path: str) -> dict[str, object]:
    """Read an INI config into runner kwargs: ``[scenario]`` values as text, cohorts as tuples.
    ValueError names the first section (``[DEFAULT]`` too) or cohort key it does not take."""
    parser = configparser.ConfigParser(default_section="")  # "" names no header: [DEFAULT] is plain
    parser.optionxform = str  # keep key case
    if not parser.read(path):
        raise FileNotFoundError(path)
    kwargs: dict[str, object] = dict(parser.items("scenario")) if parser.has_section("scenario") else {}
    cohorts = []
    for section in (s for s in parser.sections() if s != "scenario"):
        if not section.startswith("cohort "):
            raise ValueError(f"unknown section [{section}]; expected [scenario] or [cohort <label>]")
        unknown = sorted(set(parser[section]) - set(_COHORT_KEYS))
        if unknown:
            raise ValueError(f"[{section}] does not accept: {', '.join(unknown)}\n"
                             f"valid keys: {', '.join(_COHORT_KEYS)}")
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


def _arguments(name: str, given: dict[str, object]) -> dict[str, object]:
    """Scenario *name*'s kwargs, each text value parsed as its runner declares, others passed
    through. ValueError for an unknown key, unparsable text or a seed outside [0, 2**64)."""
    hints = get_type_hints(scenarios.SCENARIOS[name])
    hints.pop("return", None)
    unknown = sorted(set(given) - set(hints))
    if unknown:
        raise ValueError(f"scenario {name!r} does not accept: {', '.join(unknown)}\n"
                         f"valid keys: {', '.join(sorted(hints))}")
    kwargs = dict(given)
    for key, value in given.items():
        if isinstance(value, str):
            try:
                kwargs[key] = _parse(hints[key], value)
            except ValueError as exc:
                raise ValueError(f"scenario {name!r}: {key} {exc}") from None
    core.seed(kwargs.get("seed", 0))
    return kwargs


def _scenario_listing() -> str:
    lines = []
    for name, runner in scenarios.SCENARIOS.items():
        doc = (inspect.getdoc(runner) or "").splitlines()
        lines.append(f"  {name:20s} {doc[0] if doc else ''}")
    return "\n".join(lines)


# The longest runner; under ``run --all`` a forked worker computes it while
# the parent runs, renders and writes the others in order.
_FORKED = "file_distribution"


def _worker_pays() -> bool:
    """Whether fork exists and a second CPU is there to run the worker."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


def _start_worker(name: str, kwargs: dict[str, object]):
    """Fork a process computing scenario *name*; return it and the pipe's read end."""
    import multiprocessing  # here, so that a single run never pays for the import

    context = multiprocessing.get_context("fork")
    reader, writer = context.Pipe(duplex=False)
    worker = context.Process(target=_compute, args=(writer, name, kwargs), daemon=True)
    worker.start()
    writer.close()  # the worker holds the only write end, so its death reads as EOF
    return worker, reader


def _compute(writer, name: str, kwargs: dict[str, object]) -> None:
    """Worker body: send the result, or the exception the runner raised (the pipe pickles either)."""
    try:
        writer.send(scenarios.SCENARIOS[name](**kwargs))
    except Exception as exc:
        writer.send(exc)


def _receive(worker, reader) -> scenarios.ScenarioResult:
    """The worker's result; the exception its runner raised is raised here again."""
    try:
        received = reader.recv()
    except EOFError:
        worker.join()
        raise RuntimeError(f"its worker exited with code {worker.exitcode}") from None
    if isinstance(received, Exception):
        raise received
    return received


def cmd_run(scenario_name: str | None, config_path: str | None, seed: int | None,
            overrides: dict[str, object], output_dir: str) -> int:
    """Run one scenario, or every scenario when *scenario_name* is None.

    Text values in the config and *overrides* are parsed per runner, as its
    signature declares them.

    Every scenario is written in registry order, and the first failure ends
    the run. For all of them, a forked worker computes ``_FORKED`` meanwhile
    where a second CPU is there; its result or error is reported at its turn.
    """
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

    try:
        arguments = {name: _arguments(name, kwargs) for name in names}
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE

    worker = reader = None
    if len(names) > 1 and _worker_pays():
        worker, reader = _start_worker(_FORKED, arguments[_FORKED])
    try:
        for name in names:
            try:
                if name == _FORKED and worker is not None:
                    result = _receive(worker, reader)
                else:
                    result = scenarios.SCENARIOS[name](**arguments[name])
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
    finally:
        if worker is not None:
            worker.kill()
            worker.join()
            reader.close()
    return EXIT_OK


def cmd_check(seed: int, trials: int) -> int:
    try:  # through _arguments, which holds the seed to run's rule
        arguments = _arguments("theorem_checks", {"seed": seed, "trials": trials})
        report = scenarios.run_theorem_checks(**arguments)
    except ValueError as exc:  # the runner rejected an argument value
        print(f"check rejected its arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE
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


def _check_balance(state: ChainState) -> None:
    """SnapshotError unless every reward funder has an account and the coins add up."""
    for schedule in state.motivator_rewards:
        if schedule.funder not in state.accounts:
            raise SnapshotError(f"reward funder {schedule.funder!r} has no account line")
    held, escrowed, fees = state.total_coins(), state.escrowed_coins(), state.fees_pending
    if held + escrowed + fees != state.initial_coins + state.height * state.subsidy:
        raise SnapshotError(f"coins do not add up: {held} held + {escrowed} escrowed + {fees} fees pending "
                            f"!= {state.initial_coins} initial + {state.height} blocks * {state.subsidy} subsidy")


def cmd_step(state_file: str, n_blocks: int, output_dir: str) -> int:
    if n_blocks < 0:
        print("--blocks must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    path = Path(state_file)
    try:
        state = load_snapshot(path.read_text(encoding="utf-8"))
        _check_balance(state)  # load_snapshot loads such a state; advancing it carries the break on
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
        scenarios._write_text(snap_path, save_snapshot(state))
        scenarios._write_text(log_path, log.csv_text())
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
    run.add_argument("--set", dest="sets", action="append", default=[], type=_setting,
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

    if args.command == "check":
        return cmd_check(args.seed, args.trials)

    if (args.scenario is None) != args.all:
        print("run: give a scenario name or --all\navailable:\n"
              f"{_scenario_listing()}", file=sys.stderr)
        return EXIT_USAGE
    return cmd_run(args.scenario, args.config, args.seed, dict(args.sets), args.out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
