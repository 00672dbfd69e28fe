"""Command-line entry point.

    evosim run INPUT        full run report
    evosim query INPUT      membership answer only
    evosim scenario FILE    execute a scenario script
    evosim repl             interactive scenario commands
    evosim snapshot         print the world's canonical snapshot
    evosim trace INPUT      run under the evolving model, show trie traffic

Shared flags (after the subcommand): --model {v,e}, --proc FILE,
--budget N, --state FILE. With --state the world is loaded from a snapshot
file first and, for mutating commands under the evolving model, written
back on success, which is what lets order effects persist across
one-line invocations.

Exit status: 0 all expectations met, 1 expectation failure,
2 usage, parse, or I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .engine import EvolvingModel, decode_snapshot, encode_snapshot, make_model
from .errors import EvosimError
from .experiments import right_scanner, run_traced
from .procfile import load_procedure
from .runner import answer_word, run
from .scenario import (
    LineParser,
    ScenarioRunner,
    parse_scenario,
    run_line,
    show_config,
    trace_line,
)


# What a user can get wrong: package errors, unreadable files and bad
# values, UnicodeDecodeError from a file that is not UTF-8 among them. Each
# is reported as an error line, never as a traceback.
_USER_ERRORS = (EvosimError, OSError, ValueError)


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return value


def _build_parser():
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--model", choices=("v", "e"), default="v",
                        help="machine world: v = stateless, e = evolving "
                             "(default: v)")
    shared.add_argument("--proc", metavar="FILE",
                        help="procedure file (default: built-in right scanner)")
    shared.add_argument("--budget", type=_positive_int, default=10_000,
                        metavar="N",
                        help="transition-step budget per run (default: 10000)")
    shared.add_argument("--state", metavar="FILE",
                        help="snapshot file to load the world from; evolved "
                             "state is written back on success (model e)")

    parser = argparse.ArgumentParser(
        prog="evosim",
        description="Run tape machines under a fixed or an evolving "
                    "accepting engine.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", parents=[shared],
                   help="run the procedure, full report").add_argument("input")
    sub.add_parser("query", parents=[shared],
                   help="run the procedure, answer only").add_argument("input")
    sub.add_parser("scenario", parents=[shared],
                   help="execute a scenario file").add_argument("file")
    sub.add_parser("repl", parents=[shared],
                   help="interactive scenario commands")
    snap = sub.add_parser("snapshot", parents=[shared],
                          help="print the world's canonical snapshot")
    snap.add_argument("--out", metavar="FILE", help="write to a file instead")
    sub.add_parser("trace", parents=[shared],
                   help="run under model e, reporting trie traffic"
                   ).add_argument("input")
    return parser


def _make_model(args):
    if args.state:
        model = decode_snapshot(Path(args.state).read_text(encoding="utf-8"))
        if args.model == "v":
            raise EvosimError("--state carries an evolving world; use --model e")
        return model
    return make_model(args.model)


def _load_procedure(args):
    return load_procedure(args.proc) if args.proc else right_scanner()


def _write_back(args, model):
    if args.state and isinstance(model, EvolvingModel):
        Path(args.state).write_text(encode_snapshot(model), encoding="utf-8")


def _cmd_run(args):
    model = _make_model(args)
    result = run(model, _load_procedure(args), args.input, args.budget)
    print(run_line(args.input, result))
    _write_back(args, model)
    return 0


def _cmd_query(args):
    model = _make_model(args)
    result = run(model, _load_procedure(args), args.input, args.budget)
    print(answer_word(result.verdict))
    _write_back(args, model)
    return 0


def _cmd_trace(args):
    model = _make_model(args)
    if not isinstance(model, EvolvingModel):
        raise EvosimError("trace needs the evolving world; pass --model e")
    result, trace = run_traced(model, _load_procedure(args), args.input,
                               args.budget)
    print(run_line(args.input, result))
    print(trace_line(trace))
    for config in trace.halting_configs:
        print(f"  halt {show_config(config)}")
    _write_back(args, model)
    return 0


def _cmd_snapshot(args):
    model = _make_model(args)
    if not isinstance(model, EvolvingModel):
        raise EvosimError("snapshots capture the evolving world; pass --model e")
    text = encode_snapshot(model)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return 0


def _scenario_runner(args, base_dir):
    runner = ScenarioRunner(model=_make_model(args), budget=args.budget,
                            base_dir=base_dir)
    if args.proc:
        runner.procedure = load_procedure(args.proc)
    return runner


def _cmd_scenario(args):
    path = Path(args.file)
    scenario = parse_scenario(path.read_text(encoding="utf-8"))
    runner = _scenario_runner(args, path.parent)
    for command in scenario.commands:
        for line in runner.execute(command):
            print(line)
    print(runner.summary())
    _write_back(args, runner.model)
    return 0 if runner.passed else 1


def _cmd_repl(args):
    runner = _scenario_runner(args, Path.cwd())
    parser = LineParser()
    print("evosim repl; scenario commands, plus exit (or EOF) to leave")
    line_no = 0
    while True:
        try:
            raw = input("evosim> ")
        except EOFError:
            print()
            break
        line_no += 1
        line = raw.strip()
        if not line:
            continue
        if line in ("exit", "quit"):
            break
        try:
            command = parser.parse_line(line, line_no)
            if command is None:
                continue
            for out in runner.execute(command):
                print(out)
        except _USER_ERRORS as exc:
            print(f"error: {exc}")
    _write_back(args, runner.model)
    return 0 if runner.passed else 1


_COMMANDS = {
    "run": _cmd_run,
    "query": _cmd_query,
    "scenario": _cmd_scenario,
    "repl": _cmd_repl,
    "snapshot": _cmd_snapshot,
    "trace": _cmd_trace,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _USER_ERRORS as exc:
        print(f"evosim: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
