"""Generic execution semantics: instruction selection, runs, cost accounting.

The run loop owns the machine: it steps one mutable tape (a list of cells
plus a head index) through `evosim.tape.walk`, and reads off the final
string. Each `Procedure` compiles its instructions once, where it checks
determination, into a step table, (state, cell) -> (write, moves_right,
target, instruction), which the walk and `select_instruction` read; the
walk holds the two tape rules. Determination is checked only there, so the
loop never meets two candidates. A *model* supplies only the accepting
engine:

    accept(config)            -> bool                (the accepting engine;
                                                      may mutate the model)
    acceptor_ticks            -> int                 (monotone counter of
                                                      accepting-engine work;
                                                      constant 0 for pure
                                                      models)

Acceptor contract: an accepting engine may answer YES only on a
configuration in the halt state with the head on a blank, and must answer
NO everywhere else without doing any work. The run loop relies on this: it
builds a `Configuration` and calls `accept` only on those halt-on-blank
configurations, in order of generation, and takes NO as the answer
everywhere else, so a run costs time and memory linear in its steps, apart
from the halt-on-blank configurations it builds.

Sweeps: the walk crosses three kinds of runs in one move each.
- A right sweep: a state whose 0- and 1-instructions both write back the
  symbol they read, move right and stay in the state (the right scanner's
  h, the palindrome machine's seek0 and seek1, the increment machine's
  scan and ret). On a non-blank cell the walk jumps to the next blank, or
  as far as the remaining budget allows, with one `list.index`.
- A left sweep: the same, moving left (the palindrome machine's left). The
  walk jumps to the nearest blank on the left with one search of a
  reversed slice; with no blank between the head and the origin it lands
  on cell 0, where a left move does not apply, so the run halts there.
- An end-of-tape blank sweep: a state other than h whose blank-instruction
  writes a blank, moves right and stays (a runaway's q0). Once a step
  appends a blank in such a state, only blanks lie ahead, and the walk
  takes the rest of the budget in one go. Blanks inside the tape are
  stepped one cell at a time.
Each sweep extends the applied instructions in one call (a `map` over the
crossed cells, or an `itertools.repeat`). Every configuration it skips has
the head on a non-blank cell, or is not in h, so the acceptor contract
answers NO there without a call, and a sweep skips no acceptor call;
`applied`, the costs, the verdicts and the final string are those of single
steps. For the same reason blank runs in h (the palindrome machine's final
walk left) stay single steps: each of their configurations is asked about,
in order.

Value types: a type built on every run is a `typing.NamedTuple`, and a
type built once per procedure, experiment or scenario is a frozen
dataclass. A named tuple builds in about half the time (`Configuration`,
`QueryOutcome`, `InvocationRecord`, `CostMeter`, `RunResult`); it also
equals a plain tuple of the same values, iterates and orders, and takes
`_replace` where a dataclass takes `dataclasses.replace`. The rest stay
dataclasses, each for a reason: `Instruction` validates in
`__post_init__`, `MachineStats` is digested by the benchmark with
`dataclasses.astuple`, `Scenario` defines its own `__len__`, and
`Command` and the experiment reports are built once per line or
experiment, where the saving does not count.

`evosim.tape.StandardModel` is the plain halting-pattern acceptor;
`evosim.engine.EvolvingModel` swaps in an acceptor that rewrites itself.
The run loop itself holds no state: all mutation lives in the model, so a
run against a stateful model needs exclusive access to that model instance,
while concurrent runs against distinct instances are safe.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DeterminationError, InvalidSymbolError
# BLANK is also re-exported here, for callers that build instructions.
from .tape import (
    ALPHABET,
    BLANK,
    HALT_STATE,
    MOVES,
    START_STATE,
    start_config,
    start_tape,
    step_config,
    step_table,
    tape_view,
    walk,
)


@dataclass(frozen=True, slots=True)
class Instruction:
    """One rewrite rule: in `state` reading `read`, write `write`, move
    one cell in `move`, and enter `target`."""

    state: str
    read: str
    target: str
    write: str
    move: str

    def __post_init__(self):
        if self.read not in ALPHABET or self.write not in ALPHABET:
            raise InvalidSymbolError(f"symbol outside alphabet in {self!r}")
        if self.move not in MOVES:
            raise ValueError(f"move must be L or R, got {self.move!r}")
        if not self.state or not self.target:
            raise ValueError("state names must be nonempty")

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
    is no other way to build one, so each key of the step table names a
    single instruction. The step table and the two sweep tables (see
    `evosim.tape.step_table`) are compiled here, once.
    """

    def __init__(self, instructions):
        self.instructions = tuple(instructions)
        collisions = check_determination(self.instructions)
        if collisions:
            raise DeterminationError(collisions)
        self._steps, self._sweeps, self._blank_sweeps = step_table(
            self.instructions)

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


# The transition-step budget of a run when the caller names none.
DEFAULT_BUDGET = 10_000


class Verdict(enum.Enum):
    ACCEPTED = "accepted"
    HALTED_REJECTED = "halted-rejected"
    BUDGET_EXCEEDED = "budget-exceeded"


def answer_word(verdict):
    """The membership answer a verdict gives: accept, reject or
    budget-exceeded."""
    if verdict is Verdict.ACCEPTED:
        return "accept"
    if verdict is Verdict.HALTED_REJECTED:
        return "reject"
    return "budget-exceeded"


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
        return self.verdict is Verdict.ACCEPTED

    @property
    def start(self):
        """The start configuration of the run."""
        return start_config(self.text)

    @property
    def path(self):
        """Every configuration of the run in order, rebuilt by replaying
        `applied` from `start` one single step at a time, through a step
        table of the applied instructions and no sweeps. Each step must take
        the next applied instruction, which makes the replay exact. Costs
        O(steps x tape); call it sparingly."""
        steps = step_table(self.applied)[0]
        cells = start_tape(self.text)
        state, pos = START_STATE, 0
        path = [tape_view(state, cells, pos)]
        taken = []
        for i, inst in enumerate(self.applied):
            state, pos, _ = walk(steps, {}, {}, cells, pos, state, 1, taken)
            if taken != [inst]:
                raise ValueError(f"step {i} of the replay takes {taken}, "
                                 f"not the applied {inst}")
            taken.clear()
            path.append(tape_view(state, cells, pos))
        return tuple(path)


def select_instruction(procedure, config):
    """The unique instruction of `procedure` that applies to `config`,
    or None when none does."""
    return step_config(procedure._steps, config)[0]


def run(model, procedure, text, budget=DEFAULT_BUDGET):
    """Execute `procedure` on `text` under `model`.

    The accepting engine is consulted on every halt-on-blank configuration,
    in order of generation (its side effects on an evolving model persist);
    every other configuration answers NO without a call (see the module
    docstring). Only the answer on the final configuration decides the
    verdict. `budget` bounds transition steps, not acceptor work; exhausting
    it yields the BUDGET_EXCEEDED verdict rather than an error.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    cells = start_tape(text)
    steps, sweeps = procedure._steps, procedure._sweeps
    blank_sweeps = procedure._blank_sweeps
    applied = []
    ticks_before = model.acceptor_ticks
    # The start state is not the halt state, so the start configuration
    # answers NO.
    state, pos, answer = START_STATE, 0, False
    while True:
        taken = len(applied)
        state, pos, halted = walk(steps, sweeps, blank_sweeps, cells, pos,
                                  state, budget - taken, applied)
        # A walk that took steps ends on a new configuration, so ask about
        # it (NO without a call unless it is h on a blank). One that took
        # none ends on the configuration last asked about, halted or out of
        # budget.
        if len(applied) > taken:
            answer = (state == HALT_STATE and cells[pos] == BLANK
                      and model.accept(tape_view(state, cells, pos)))
        if halted:
            verdict = Verdict.ACCEPTED if answer else Verdict.HALTED_REJECTED
            break
        if len(applied) == taken:
            verdict = Verdict.BUDGET_EXCEEDED
            break
    cost = CostMeter(
        path_length=len(applied) + 1,
        transition_ticks=len(applied),
        acceptor_ticks=model.acceptor_ticks - ticks_before,
    )
    return RunResult(
        verdict=verdict,
        text=text,
        applied=tuple(applied),
        cost=cost,
        final_string="".join(cells).strip(BLANK),
    )


def compute_function(model, procedure, text, budget=DEFAULT_BUDGET):
    """The string a successful run leaves behind, or None if the run does
    not end accepted."""
    result = run(model, procedure, text, budget)
    return result.final_string if result.accepted else None
