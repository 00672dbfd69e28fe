"""Generic execution semantics: instruction selection, runs, cost accounting.

The run loop owns the machine: it steps one mutable tape (a `bytearray` of
cell codes plus a head index, see `evosim.tape`) through
`evosim.tape.walk`, and reads off the final string. Each `Procedure`
compiles its instructions once, where it checks determination, into a step
table, state -> row, each row a list indexed by cell code of entries
(write, moves_right, target, target_row, instruction, run), which the walk
and `select_instruction` read; the walk holds the two tape rules.
Determination is checked only there, so the loop never meets two
candidates. A *model* supplies only the accepting engine, as one question
about the mutable tape itself:

    accept_tape(cells, pos)   -> bool                (the accepting engine,
                                                      asked in the halt
                                                      state; may mutate the
                                                      model)
    acceptor_ticks            -> int                 (monotone counter of
                                                      accepting-engine work;
                                                      constant 0 for pure
                                                      models)

Acceptor contract: an accepting engine may answer YES only on a
configuration in the halt state with the head on a blank at a tape edge
(cell 0 or the last cell: an empty `left` or an empty `right`), the
paper's halting pattern, and must answer NO everywhere else without doing
any work. The run loop relies on this: `walk` asks in place, only on
those edge configurations, in order of generation, and takes NO as the
answer everywhere else, so a run costs time and memory linear in its
steps, apart from what each question costs. So the state is always
`HALT_STATE` where it asks, and the tape question does not take it. `run`
hands `walk` the model's `accept_tape` (the experiments that map `walk`
over their start tapes, once per pass), and no configuration is built to
ask it. A model without `accept_tape` is an AttributeError; an acceptor
written for configurations asks its rule on
`evosim.tape.tape_view(HALT_STATE, cells, pos)` in its own `accept_tape`.
`StandardModel.accept(config)` is a reader derived from the tape question,
for callers that hold a configuration; nothing on the run path asks it. A
model that would answer YES with the halt state on a blank inside the
tape is not asked there.

Loops: an instruction that writes back the symbol it reads and stays in
its state crosses the whole run of cells it loops on in one move (see
`evosim.tape.walk`): the right scanner's h, the palindrome machine's
seek0, seek1 and left and its final walk left in h, the increment
machine's scan and ret, a runaway's q0. The crossing stops at the nearest
cell whose instruction is not such a loop, with one `bytearray.find` or
`rfind` per symbol, or at the end of the budget; a right crossing in h
stops at the last cell, and one in another state that loops on blanks runs
past the end of the tape. Rewrites (the increment machine's carry) are
stepped one cell at a time. A crossing extends a record of the applied
instructions in one call (a `map` over the crossed cells, or an
`itertools.repeat` where one symbol loops). Every configuration it skips
has the same instruction under single steps, and none is in h on a blank
at a tape edge, so the acceptor contract answers NO there without a call,
and a crossing skips no acceptor call; `applied`, the costs, the verdicts
and the final string are those of single steps.

One loop, two readers: the loop is `evosim.tape.walk`, which steps a
start tape that its caller builds to the final tape in place, asks the
acceptor where it must, and returns the verdict code (the index in
`Verdict`); it records the applied instructions only when its caller
hands it a list. A run is one `walk` call: the walk keeps the answer of
its last question, and where no instruction applies it ends with that
answer, so it never stops to hand a question back. `run` builds the tape
from its text with `evosim.tape.start_tape`, which checks the alphabet,
hands `walk` a list and wraps the verdict in a `RunResult` with its
`CostMeter` and final string. The experiments that read only verdicts,
`saturate` and `sibling_search` in `evosim.experiments`, map `walk`
itself over their start tapes with no list, because they make tens of
thousands of runs and would throw each report and each record away. They
run every binary string of one length, so they build its start tapes in
C, from the bits of `itertools.product`, with no string to join, check or
encode; everything else calls `run`. Both go through the same acceptor
calls in the same order.

Value types: every value type of the package is a `typing.NamedTuple`,
the per-run ones here and in `evosim.tape`, `evosim.trie` and
`evosim.engine`, and the experiment reports and scenario commands (a
parsed `Scenario` is a tuple of its `Command`s). A named tuple builds in
about half the time of a frozen dataclass, and faster still from
positional arguments than from keywords; it equals a plain tuple of the
same values, iterates and orders, and takes `_replace` and `_asdict`;
and none of them makes a process import `dataclasses`, with the
`inspect`, `ast` and `dis` that it imports. `Instruction` checks its
fields in `__new__`, and its `_make`, which `_replace` calls, goes through
`__new__`, so no way of building one skips the check. Every value is
built by calling its class, but for the two that `run` builds once per
run: it builds its `CostMeter` and its `RunResult` in C, by calling
`tuple.__new__(Cls, fields)` with the fields as one tuple. A class call
goes through the Python-level `__new__` that `collections.namedtuple`
generates, one more Python frame and about 0.25-0.3 us a build on
CPython 3.11; the value is the same, with its type, repr, hash and
pickle. A run of a shipped model builds no other value: the readers
that do (`tape_view`, which no shipped model's run calls,
`evosim.engine.render_record` and `PartialDfa.query`) pay that frame per
value. The one exception to named tuples is `MachineStats`, a dataclass
defined on first use (see `evosim.trie`), because the benchmark digests
it with `dataclasses.astuple`.

`evosim.tape.StandardModel` is the plain halting-pattern acceptor;
`evosim.engine.EvolvingModel` is a `StandardModel` that swaps in a tape
question that rewrites itself, and inherits `accept`.
The run loop itself holds no state: all mutation lives in the model, so a
run against a stateful model needs exclusive access to that model instance,
while concurrent runs against distinct instances are safe.
"""

from __future__ import annotations

import enum
import operator
from typing import NamedTuple

from .errors import DeterminationError, InvalidSymbolError, excerpt
# BLANK is also re-exported here, for callers that build instructions.
from .tape import (
    ALPHABET,
    BLANK,
    MOVES,
    START_STATE,
    start_config,
    start_tape,
    step_config,
    step_table,
    walk,
)


class _InstructionFields(NamedTuple):
    state: str
    read: str
    target: str
    write: str
    move: str


# The characters besides whitespace that procedure text cannot spell in a
# state name (see `evosim.procfile`).
_NOT_IN_NAMES = frozenset("(),#")


class Instruction(_InstructionFields):
    """One rewrite rule: in `state` reading `read`, write `write`, move
    one cell in `move`, and enter `target`.

    A named tuple of those five fields that checks them when it is built,
    by the constructor, `_make`, `_replace` or unpickling alike: the two
    symbols must be in the alphabet (InvalidSymbolError), the move L or R,
    and each state name a str (TypeError) that procedure text can spell,
    nonempty and free of whitespace, "(", ")", "," and "#" (ValueError),
    so that `evosim.procfile.render_procedure` writes text that
    `parse_procedure` reads back."""

    __slots__ = ()

    def __new__(cls, state, read, target, write, move):
        self = super().__new__(cls, state, read, target, write, move)
        if read not in ALPHABET or write not in ALPHABET:
            raise InvalidSymbolError(f"symbol outside alphabet in {self!r}")
        if move not in MOVES:
            raise ValueError(f"move must be L or R, got {move!r}")
        if not state or not target:
            raise ValueError("state names must be nonempty")
        for name in (state, target):
            if not isinstance(name, str):
                raise TypeError(f"state names must be str, not {type(name).__name__}")
            if name.split() != [name] or not _NOT_IN_NAMES.isdisjoint(name):
                raise ValueError(f"state name {excerpt(name)} holds whitespace "
                                 f"or one of ( ) , #")
        return self

    @classmethod
    def _make(cls, iterable):
        # The named tuple's own `_make`, which `_replace` calls, skips
        # `__new__` and so the checks.
        return cls(*iterable)

    def key(self):
        return (self.state, self.read)


def check_determination(instructions):
    """Return the (state, symbol) keys claimed by more than one instruction.

    An empty result means at most one instruction can ever apply to a
    configuration, which is what makes selection single-valued.
    """
    seen = {}
    collisions = []
    for inst in instructions:
        key = inst.key()
        if key in seen and key not in collisions:
            collisions.append(key)
        seen[key] = inst
    return collisions


class Procedure:
    """A finite instruction set with at most one instruction per
    (state, symbol) key.

    Construction rejects colliding keys with DeterminationError, and there
    is no other way to build one, so each slot of the step table names a
    single instruction. The step table (see `evosim.tape.step_table`) is
    compiled here, once.
    """

    def __init__(self, instructions):
        self.instructions = tuple(instructions)
        collisions = check_determination(self.instructions)
        if collisions:
            raise DeterminationError(collisions)
        self._steps = step_table(self.instructions)

    def __len__(self):
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    def __eq__(self, other):
        if not isinstance(other, Procedure):
            return NotImplemented
        return frozenset(self.instructions) == frozenset(other.instructions)

    def __hash__(self):
        return hash(frozenset(self.instructions))

    def __repr__(self):
        return f"Procedure({len(self.instructions)} instructions)"


def right_scanner():
    """The three-instruction scanner: step off the origin blank, sweep
    right over the input, halt on the first blank past it.

    Under the stateless model it accepts every binary string; under the
    evolving model every run ends by consulting the trie on the input, so
    its language is whatever the trie has grown into. It is the default
    procedure of the CLI and of scenarios.
    """
    return Procedure([
        Instruction("q0", BLANK, "h", BLANK, "R"),
        Instruction("h", "0", "h", "0", "R"),
        Instruction("h", "1", "h", "1", "R"),
    ])


# The transition-step budget of a run when the caller names none.
DEFAULT_BUDGET = 10_000


class Verdict(enum.Enum):
    ACCEPTED = "accepted"
    HALTED_REJECTED = "halted-rejected"
    BUDGET_EXCEEDED = "budget-exceeded"


# The verdicts as module globals: a global read is several times cheaper
# than an enum member read through its class, and every run makes one.
# `VERDICTS` maps the walk's verdict code to its verdict.
VERDICTS = ACCEPTED, HALTED_REJECTED, BUDGET_EXCEEDED = tuple(Verdict)


def answer_word(verdict):
    """The membership answer a verdict gives: accept, reject or
    budget-exceeded."""
    if verdict is ACCEPTED:
        return "accept"
    if verdict is HALTED_REJECTED:
        return "reject"
    return "budget-exceeded"


def show_string(text):
    """Render a tape string for transcripts: blanks as _, empty as ""."""
    text = text.replace(BLANK, "_")
    return text if text else '""'


def cost_text(cost):
    return (f"path {cost.path_length}, transitions {cost.transition_ticks}, "
            f"acceptor-ticks {cost.acceptor_ticks}")


def run_line(text, result):
    """The full report of one run, as `run` prints it."""
    return (f"run {show_string(text)} -> {result.verdict.value} "
            f"({cost_text(result.cost)}) "
            f"final {show_string(result.final_string)}")


class CostMeter(NamedTuple):
    """Two-level cost of a run.

    path_length counts configurations; transition_ticks counts engine steps
    (always path_length - 1); acceptor_ticks counts accepting-engine work
    (0 under the stateless model).
    """

    path_length: int
    transition_ticks: int
    acceptor_ticks: int


class RunResult(NamedTuple):
    """The outcome of one run: its verdict, input text, applied
    instructions, cost and final string; `start` and `path` are built on
    demand."""

    verdict: Verdict
    text: str
    applied: tuple
    cost: CostMeter
    final_string: str

    @property
    def accepted(self):
        return self.verdict is ACCEPTED

    @property
    def start(self):
        """The start configuration of the run."""
        return start_config(self.text)

    @property
    def path(self):
        """Every configuration of the run in order, rebuilt by replaying
        `applied` from `start` one single step at a time through
        `evosim.tape.step_config`, over a step table of the applied
        instructions. Each step must take the next applied instruction,
        which makes the replay exact. Costs O(steps x tape); call it
        sparingly."""
        steps = step_table(self.applied)
        config = self.start
        path = [config]
        for i, inst in enumerate(self.applied):
            taken, config = step_config(steps, config)
            if taken != inst:
                raise ValueError(f"step {i} of the replay takes {taken}, "
                                 f"not the applied {inst}")
            path.append(config)
        return tuple(path)


def select_instruction(procedure, config):
    """The unique instruction of `procedure` that applies to `config`,
    or None when none does."""
    return step_config(procedure._steps, config)[0]


def run(model, procedure, text, budget=DEFAULT_BUDGET):
    """Execute `procedure` on `text` under `model`.

    The accepting engine is consulted on every configuration in the halt
    state with the head on a blank at a tape edge, in order of generation
    (its side effects on an evolving model persist); every other
    configuration answers NO without a call (see the module docstring).
    Only the answer on the final configuration decides the verdict.
    `budget` bounds transition steps, not acceptor work; exhausting it
    yields the BUDGET_EXCEEDED verdict rather than an error.

    The loop itself is `evosim.tape.walk`, on the start tape of `text`:
    it asks the model's `accept_tape` and records the applied instructions
    in a list of `run`'s. `run` reads the acceptor's tick counter around
    the walk and builds the report: the verdict of the walk's code, the
    costs, the applied instructions as a tuple and the final string, the
    final tape with its blank ends stripped (interior blanks kept). A
    budget that is not an integer is a TypeError (a bool counts as one),
    and one below 1 a ValueError, both checked before the text's alphabet.
    A run whose tape would outgrow memory raises MemoryError, also where
    the budget lets a crossing ask for more cells than an index holds.
    """
    if operator.index(budget) < 1:
        raise ValueError("budget must be at least 1")
    cells = start_tape(text)
    ticks_before = model.acceptor_ticks
    applied = []
    verdict = VERDICTS[walk(procedure._steps, cells, 0, START_STATE, budget, applied,
                            model.accept_tape)]
    steps = len(applied)
    cost = tuple.__new__(CostMeter, (steps + 1, steps, model.acceptor_ticks - ticks_before))
    return tuple.__new__(RunResult, (verdict, text, tuple(applied), cost,
                                     cells.strip(b"\0").decode("ascii").replace("\0", BLANK)))


def compute_function(model, procedure, text, budget=DEFAULT_BUDGET):
    """The string a successful run leaves behind, or None if the run does
    not end accepted."""
    result = run(model, procedure, text, budget)
    return result.final_string if result.accepted else None
