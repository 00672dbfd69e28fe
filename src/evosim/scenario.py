"""Scenario scripts: a flat command grammar over one machine world.

Grammar (one command per line; # comments and blank lines ignored):

    model v|e
    proc <file>
    query [<binary string>]
    run [<binary string>]
    expect accept|reject
    saturate <n>
    brute [<binary string>]
    snapshot save <name>
    snapshot load <name>
    stats
    trace on|off

`expect` checks the answer of the immediately preceding query/run/brute.
`snapshot save` keeps a fork of the live world under a name, for the
duration of the scenario (`engine.fork`: a copy of the trie's arrays, equal
to decoding the world's snapshot text, which is for files only);
`snapshot load` makes a fork of the kept world the live one, so a name can
be loaded any number of times, and growth on either side never reaches
the other. Loading a name that was not saved earlier is rejected at parse
time. Expectation failures mark the scenario failed but execution
continues; transcripts are byte-stable across runs.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import NamedTuple

from .engine import EvolvingModel, fork, make_model
from .errors import ScenarioError, excerpt
from .experiments import (SIBLING_LENGTH_LIMIT, Answers, run_traced, saturate,
                          sibling_search, trace_line)
from .procfile import load_procedure
from .runner import (DEFAULT_BUDGET, Verdict, answer_word, cost_text, right_scanner,
                     run, run_line, show_string)

_NAME = re.compile(r"^[A-Za-z0-9_\-]+$")
_CHECKABLE = {"query", "run", "brute"}
# The answer word of each verdict code of `Answers.codes`.
_CODE_WORD = tuple(map(answer_word, Verdict))
_ACCEPTED_CODE = tuple(Verdict).index(Verdict.ACCEPTED)


class Command(NamedTuple):
    line_no: int
    kind: str
    arg: str


class Scenario(tuple):
    """A parsed scenario: the tuple of its commands, in line order;
    `commands` returns them as a plain tuple."""

    __slots__ = ()
    commands = property(tuple)

    def __repr__(self):
        return f"Scenario(commands={tuple(self)!r})"


def _binary_or_die(arg, line_no, what):
    if set(arg) - {"0", "1"}:
        raise ScenarioError(f"{what} must be a binary string, got {excerpt(arg)}",
                            line_no)


class LineParser:
    """Parses command lines while carrying cross-line context: which command
    came last (for `expect`) and which snapshot names exist (for `load`).

    parse_scenario uses a fresh one per text; the REPL keeps one for the
    whole session so checks span input lines.
    """

    def __init__(self):
        self.previous_kind = None
        self.saved_names = set()

    def parse_line(self, raw, line_no):
        """One Command, or None for blank/comment lines."""
        line = raw.split("#", 1)[0].strip()
        if not line:
            return None
        parts = line.split()
        kind, args = parts[0], parts[1:]
        if kind == "model":
            if args not in (["v"], ["e"]):
                raise ScenarioError("model must be v or e", line_no)
            command = Command(line_no, "model", args[0])
        elif kind == "proc":
            if len(args) != 1:
                raise ScenarioError("proc takes one file path", line_no)
            command = Command(line_no, "proc", args[0])
        elif kind in ("query", "run", "brute"):
            if len(args) > 1:
                raise ScenarioError(f"{kind} takes at most one string", line_no)
            arg = args[0] if args else ""
            _binary_or_die(arg, line_no, f"{kind} argument")
            if kind == "brute" and len(arg) > SIBLING_LENGTH_LIMIT:
                raise ScenarioError(
                    f"brute is desk-scale only (length <= {SIBLING_LENGTH_LIMIT})",
                    line_no)
            command = Command(line_no, kind, arg)
        elif kind == "expect":
            if args not in (["accept"], ["reject"]):
                raise ScenarioError("expect takes accept or reject", line_no)
            if self.previous_kind not in _CHECKABLE:
                raise ScenarioError(
                    "expect must immediately follow query, run, or brute",
                    line_no)
            command = Command(line_no, "expect", args[0])
        elif kind == "saturate":
            if len(args) != 1 or not (args[0].isascii() and args[0].isdigit()):
                raise ScenarioError("saturate takes a probe length", line_no)
            try:
                beyond = int(args[0]) > SIBLING_LENGTH_LIMIT
            except ValueError:  # more digits than `int` converts
                beyond = True
            if beyond:
                raise ScenarioError(
                    f"saturate is desk-scale only "
                    f"(probe length <= {SIBLING_LENGTH_LIMIT})", line_no)
            command = Command(line_no, "saturate", args[0])
        elif kind == "snapshot":
            if len(args) != 2 or args[0] not in ("save", "load"):
                raise ScenarioError(
                    "snapshot takes 'save <name>' or 'load <name>'", line_no)
            if not _NAME.match(args[1]):
                raise ScenarioError(f"bad snapshot name {excerpt(args[1])}", line_no)
            if args[0] == "load" and args[1] not in self.saved_names:
                raise ScenarioError(
                    f"snapshot {excerpt(args[1])} loaded before it was saved",
                    line_no)
            if args[0] == "save":
                self.saved_names.add(args[1])
            command = Command(line_no, f"snapshot-{args[0]}", args[1])
        elif kind == "stats":
            if args:
                raise ScenarioError("stats takes no argument", line_no)
            command = Command(line_no, "stats", "")
        elif kind == "trace":
            if args not in (["on"], ["off"]):
                raise ScenarioError("trace takes on or off", line_no)
            command = Command(line_no, "trace", args[0])
        else:
            raise ScenarioError(f"unknown command {excerpt(kind)}", line_no)
        self.previous_kind = kind
        return command


def parse_scenario(text):
    """Parse scenario text; raises ScenarioError with a line number."""
    parser = LineParser()
    commands = (parser.parse_line(raw, line_no)
                for line_no, raw in enumerate(text.splitlines(), start=1))
    return Scenario(command for command in commands if command is not None)


def _probe_line(text, code):
    """The transcript line of one probe run of `saturate`."""
    return f"  probe {text} -> {_CODE_WORD[code]}"


class ScenarioRunner:
    """Executes scenario commands against one live world.

    Used both for whole scenario files and line-at-a-time by the REPL.
    """

    def __init__(self, model=None, procedure=None, budget=DEFAULT_BUDGET,
                 base_dir=None):
        self.model = model if model is not None else make_model("v")
        self.procedure = procedure if procedure is not None else right_scanner()
        self.budget = budget
        self.base_dir = Path(base_dir) if base_dir is not None else Path.cwd()
        self.snapshots = {}
        self.trace_enabled = False
        self.last_answer = None
        self.expectations = 0
        self.failures = 0

    def _require_evolving(self, command):
        if not isinstance(self.model, EvolvingModel):
            raise ScenarioError(
                f"{command.kind.replace('-', ' ')} needs an evolving world (model e)",
                command.line_no)

    def execute(self, command):
        """Run one command; returns its transcript lines: a list, or for
        `saturate` an `experiments.Answers` view that renders them on
        access, the header line and then one `  probe <text> -> <answer>`
        line per probe run, so that the 2^n lines are never held at
        once."""
        kind, arg = command.kind, command.arg
        # `expect` checks the answer of the command just before it, so every
        # other command clears it first and only query, run and brute set it.
        if kind != "expect":
            self.last_answer = None
        if kind == "model":
            self.model = make_model(arg)
            return [f"model {arg}"]
        if kind == "proc":
            path = Path(arg)
            if not path.is_absolute():
                path = self.base_dir / path
            self.procedure = load_procedure(path)
            return [f"proc {arg} ({len(self.procedure)} instructions)"]
        if kind in ("query", "run"):
            if isinstance(self.model, EvolvingModel) and self.trace_enabled:
                result, trace = run_traced(self.model, self.procedure, arg,
                                           self.budget)
            else:
                result, trace = run(self.model, self.procedure, arg,
                                    self.budget), None
            answer = answer_word(result.verdict)
            self.last_answer = answer
            if kind == "query":
                lines = [f"query {show_string(arg)} -> {answer} "
                         f"({cost_text(result.cost)})"]
            else:
                lines = [run_line(arg, result)]
            if trace is not None:
                lines.append("  " + trace_line(trace))
            return lines
        if kind == "expect":
            self.expectations += 1
            if self.last_answer == arg:
                return [f"expect {arg} -> ok"]
            self.failures += 1
            return [f"expect {arg} -> FAIL (got {self.last_answer})"]
        if kind == "saturate":
            self._require_evolving(command)
            length = int(arg)
            report = saturate(self.model, length, self.procedure, self.budget)
            accepted = report.feed_answers.codes.count(_ACCEPTED_CODE)
            header = (f"saturate {arg} -> fed {report.fed} "
                      f"length-{length + 1} strings ({accepted} accepted)")
            return Answers(length, report.probe_answers.codes, _probe_line,
                           (header,))
        if kind == "brute":
            self._require_evolving(command)
            result = sibling_search(self.model, arg, self.procedure, self.budget)
            self.last_answer = "accept" if result.found else "reject"
            if result.found:
                return [f"brute {show_string(arg)} -> found {result.witness} "
                        f"after {result.queries_used} "
                        f"quer{'y' if result.queries_used == 1 else 'ies'} "
                        f"({result.delta})"]
            return [f"brute {show_string(arg)} -> not found "
                    f"after {result.queries_used} queries ({result.delta})"]
        if kind == "snapshot-save":
            self._require_evolving(command)
            self.snapshots[arg] = fork(self.model)
            return [f"snapshot save {arg} -> {len(self.model.trie.states)} states"]
        if kind == "snapshot-load":
            self._require_evolving(command)
            if arg not in self.snapshots:
                raise ScenarioError(f"unknown snapshot {excerpt(arg)}", command.line_no)
            self.model = fork(self.snapshots[arg])
            return [f"snapshot load {arg} -> {len(self.model.trie.states)} states"]
        if kind == "stats":
            self._require_evolving(command)
            s = self.model.trie.stats()
            return [f"stats -> maxaccept {s.max_accepted_length}, "
                    f"depth {s.depth}, states {s.state_count}, "
                    f"accepting {s.accepting_count}"]
        if kind == "trace":
            self.trace_enabled = arg == "on"
            return [f"trace {arg}"]
        raise ScenarioError(f"unknown command kind {kind!r}", command.line_no)

    @property
    def passed(self):
        return self.failures == 0

    def transcript(self, scenario):
        """The scenario's transcript lines: each command's as it runs (a
        `saturate`'s probe lines one at a time, as they are rendered), then
        the summary line."""
        for command in scenario:
            yield from self.execute(command)
        yield self.summary()

    def summary(self):
        if self.failures:
            return (f"scenario: FAIL ({self.failures} of "
                    f"{self.expectations} expectations failed)")
        return f"scenario: pass ({self.expectations} expectations)"


def execute_scenario(scenario, budget=DEFAULT_BUDGET, base_dir=None):
    """Execute a parsed scenario from a fresh world.

    Returns (transcript, passed). Expectation mismatches do not stop
    execution; I/O and usage problems raise instead.
    """
    runner = ScenarioRunner(budget=budget, base_dir=base_dir)
    return "\n".join(runner.transcript(scenario)) + "\n", runner.passed
