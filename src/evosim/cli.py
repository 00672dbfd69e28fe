"""Command-line entry point.

    evosim run INPUT        full run report
    evosim query INPUT      membership answer only
    evosim scenario FILE    execute a scenario script
    evosim repl             interactive scenario commands
    evosim snapshot         print the world's canonical snapshot
    evosim trace INPUT      run under the evolving model, show trie traffic

Shared flags (after the subcommand): --model {v,e}, --proc FILE,
--budget N, --state FILE. `main` opens one world per invocation (model,
procedure and budget), runs the subcommand against it and stores, once,
the model the subcommand ended with: `scenario` and `repl` hand commands
to a ScenarioRunner, whose `model` and `snapshot load` may replace the
model. With --state the world is loaded from a snapshot file first and,
when the subcommand succeeds and the evolving world differs from what was
loaded, written back, which is what lets order effects persist across
one-line invocations. An exclusive lock on the sidecar FILE.lock is held
from load to write-back, so concurrent invocations take turns, and the
write replaces the file atomically, so a crash leaves the old world or the
new one. A FILE that is a symlink is resolved first: the world is read from
and written to its target, and the sidecars sit beside the target.

Exit status: 0 all expectations met, 1 expectation failure,
2 usage, parse, or I/O error, or out of memory (nothing written back).

A one-shot process pays for the modules it imports, so the scenario,
experiment and procedure-file modules are imported only by the subcommands
and flags that use them: `run`, `query` and `snapshot` load none of them
without --proc, and `trace` loads `experiments` only. No subcommand loads
`dataclasses`, unless a scenario or REPL line runs `stats` (see
`evosim.trie` on `MachineStats`).
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import os
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

from .engine import EvolvingModel, decode_snapshot, encode_snapshot, make_model
from .errors import EvosimError, excerpt
from .runner import DEFAULT_BUDGET, answer_word, right_scanner, run, run_line


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
            f"expected a positive integer, got {excerpt(text)}")
    return value


def _build_parser():
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--model", choices=("v", "e"), default="v",
                        help="machine world: v = stateless, e = evolving "
                             "(default: v)")
    shared.add_argument("--proc", metavar="FILE",
                        help="procedure file (default: built-in right scanner)")
    shared.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET,
                        metavar="N", help="transition-step budget per run "
                                          "(default: %(default)s)")
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


def _open_world(args):
    """The invocation's one world, holding the model, the procedure and the
    budget, plus the snapshot text loaded from --state (None without it)."""
    loaded = None
    if args.state:
        loaded = Path(args.state).read_text(encoding="utf-8")
        model = decode_snapshot(loaded)
    else:
        model = make_model(args.model)
    if args.proc:
        from .procfile import load_procedure
        procedure = load_procedure(args.proc)
    else:
        procedure = right_scanner()
    return SimpleNamespace(model=model, procedure=procedure,
                           budget=args.budget), loaded


@contextlib.contextmanager
def _state_lock(state):
    """Hold an exclusive lock on the sidecar FILE.lock of a --state file, so
    concurrent invocations take turns from load to write-back. The sidecar
    is never deleted: a new one would let two holders in at once. A path
    that cannot be opened for reading (missing, a directory) raises before
    the sidecar is made, so none is left beside a path that holds no world.
    That probe is closed at once: the world is read by path under the
    lock, since a descriptor opened before it could hold a world that a
    write-back has since replaced."""
    if not state:
        yield
        return
    open(state, "rb").close()
    with open(state + ".lock", "ab") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(lock, fcntl.LOCK_UN)


def _write_back(state, model, loaded):
    """Store an evolving world that differs from the text loaded from
    `state`. The text goes to FILE.tmp (safe under the lock), is flushed
    and fsynced, takes the file's permission bits, then replaces the file,
    so a crash leaves the old world or the new one, never part of either.
    The directory is fsynced after the rename, so that the new world
    survives a power cut too."""
    if not state or not isinstance(model, EvolvingModel):
        return
    text = encode_snapshot(model)
    if text == loaded:
        return
    temp = Path(state + ".tmp")
    try:
        with open(temp, "w", encoding="utf-8") as out:
            out.write(text)
            out.flush()
            os.fsync(out.fileno())
        shutil.copymode(state, temp)
        os.replace(temp, state)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    directory = os.open(temp.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def _cmd_run(world, args):
    result = run(world.model, world.procedure, args.input, world.budget)
    print(run_line(args.input, result))
    return 0


def _cmd_query(world, args):
    result = run(world.model, world.procedure, args.input, world.budget)
    print(answer_word(result.verdict))
    return 0


def _cmd_trace(world, args):
    from .experiments import run_traced, show_config, trace_line
    if not isinstance(world.model, EvolvingModel):
        raise EvosimError("trace needs the evolving world; pass --model e")
    result, trace = run_traced(world.model, world.procedure, args.input,
                               world.budget)
    print(run_line(args.input, result))
    print(trace_line(trace))
    for config in trace.halting_configs:
        print(f"  halt {show_config(config)}")
    return 0


def _cmd_snapshot(world, args):
    if not isinstance(world.model, EvolvingModel):
        raise EvosimError("snapshots capture the evolving world; pass --model e")
    text = encode_snapshot(world.model)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return 0


def _cmd_scenario(world, args):
    from .scenario import ScenarioRunner, parse_scenario
    path = Path(args.file)
    scenario = parse_scenario(path.read_text(encoding="utf-8"))
    runner = ScenarioRunner(world.model, world.procedure, world.budget,
                            path.parent)
    for line in runner.transcript(scenario):
        print(line)
    world.model = runner.model
    return 0 if runner.passed else 1


def _cmd_repl(world, args):
    from .scenario import LineParser, ScenarioRunner
    runner = ScenarioRunner(world.model, world.procedure, world.budget)
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
    world.model = runner.model
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
        # A usage error, found before the --state file or its lock is opened.
        if args.state and args.model == "v":
            raise EvosimError("--state carries an evolving world; use --model e")
        # One path for the world, its sidecars and the directory fsync: a
        # symlink is followed once, so write-back replaces its target.
        args.state = args.state and os.path.realpath(args.state)
        with _state_lock(args.state):
            world, loaded = _open_world(args)
            status = _COMMANDS[args.command](world, args)
            _write_back(args.state, world.model, loaded)
    except _USER_ERRORS as exc:
        print(f"evosim: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # Here only, not among the REPL's user errors: a world that ran out
        # of memory part way through growing is never written back.
        print("evosim: error: out of memory; the world was not written back",
              file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
