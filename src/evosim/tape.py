"""The tape machine: alphabet, configurations, the step table and its walk.

A configuration is a named tuple (state, left, head, right) that splits
the tape at the head; the conceptual tape is left+head+right, extended
with blanks on the right on demand. As a tuple it equals a plain tuple of
the same values, and it is cheap to build: `RunResult.path` builds one
per step, and the run loop none. Both plain engines (`apply_instruction`
and `halting_accept`) are pure functions, so the model is stateless and
configurations can be shared freely across threads.

Every run is taken by `walk`, on a mutable tape: a `bytearray` of cell
codes (blank 0, "0" and "1" their ASCII codes), cell 0 being the origin,
plus a head index. It reads a step table, compiled once from the
instructions by `step_table`: one row per state, a list indexed by cell
code, whose entries name the row of their target state, so that the walk
follows rows and reads one list slot per step. It is the one place that
holds the two tape rules: a left move at the origin does not
apply, and a right move off the last cell appends a blank. It is the whole
run loop: it asks the acceptor's question in place, only where the halt
state reads a blank at a tape edge (cell 0 or the last cell), and returns
the run's verdict code. It has one rule for
runs of steps, a macro step (Marxen and Buntrock, "Attacking the Busy
Beaver 5", 1990): an instruction that writes back the symbol it reads and
stays in its state, a *loop*, crosses the whole run of cells it loops on
in one move. The pure engine `apply_instruction` takes one step of a
configuration through the same walk, asking nothing, and `tape_view` turns
a mutable tape back into a configuration (`config_cells` the other way).
A model is the walk's question about the tape itself,
`accept_tape(cells, pos)`, the only question a run asks: `StandardModel`
answers YES, as `halting_accept` does on every configuration the walk
asks about, and derives its configuration question, `accept`, from it;
the evolving acceptor, a subclass, overrides the tape question alone and
reads the string on the tape itself. The byte codes are
known to this module and to one builder outside it,
`evosim.experiments._runs`, which builds the start tapes of a saturation
pass from `(0,)` and the bits `b"01"`, in C.

This module sits at the bottom of the package: it imports nothing from
evosim but the error types, and the run loop and the engines build on it.
"""

from __future__ import annotations

from itertools import repeat
from typing import NamedTuple

from .errors import InvalidSymbolError

BLANK = "△"
ALPHABET = ("0", "1", BLANK)
MOVES = ("L", "R")

START_STATE = "q0"
HALT_STATE = "h"

# The code of each symbol on the byte tape, and the symbol object of each
# code. A view's head is the ALPHABET string itself, not a blank sliced out
# of the decoded tape: a fresh string in every configuration that a reader
# renders, such as each record of the evolving model's log (which keeps the
# raw tape, not the view).
CODE = dict(zip(ALPHABET, b"01\0"))
SYMBOL = {code: symbol for symbol, code in CODE.items()}
ZERO, ONE = CODE["0"], CODE["1"]

# The step-table row of a state with no instruction: a slot for every cell
# code, each empty. Every table shares it, and nothing writes it.
NO_STEPS = (None,) * (max(CODE.values()) + 1)

# The origin cell of every start tape; `start_tape` adds the input to it,
# which makes a new tape, and nothing writes it.
_ORIGIN = bytearray(1)


class Configuration(NamedTuple):
    """Machine snapshot: control state plus the split tape.

    `left` never carries an implied infinite blank prefix; it is exactly
    the cells to the left of the head, and it is empty at the tape origin.
    """

    state: str
    left: str
    head: str
    right: str


def start_tape(text):
    """The cells of an input's start tape: the origin blank, then the
    input."""
    if text.strip("01"):
        bad = sorted(set(text).difference("01"))
        raise InvalidSymbolError(f"input contains {bad!r}; allowed: 0, 1")
    # The check leaves only "0" and "1", whose UTF-8 is their ASCII.
    return _ORIGIN + text.encode()


def start_config(text):
    """The start configuration of an input: head on a blank, input to its
    right."""
    return tape_view(START_STATE, start_tape(text), 0)


def tape_view(state, cells, pos):
    """The immutable configuration of a mutable tape with the head on `pos`."""
    tape = cells.decode("latin-1").replace("\0", BLANK)
    return Configuration(state, tape[:pos], SYMBOL[cells[pos]], tape[pos + 1:])


def config_cells(config):
    """The mutable tape of a configuration, cell 0 being the origin.

    InvalidSymbolError if the configuration holds a symbol outside the
    alphabet."""
    tape = config.left + config.head + config.right
    if config.head not in ALPHABET or tape.strip("".join(ALPHABET)):
        raise InvalidSymbolError(f"symbol outside alphabet in {config!r}")
    return bytearray(tape.replace(BLANK, "\0"), "ascii")


def step_table(instructions):
    """Compile key-unique instructions into one step table: each state that
    has an instruction maps to its *row*, a list indexed by cell code that
    holds the entry of the instruction reading that code, or None.

    Each entry is (write, moves_right, target, target_row, instruction,
    run), `target_row` being the row of `target`, so that a walk follows
    rows from step to step and reads one list slot per step. Every state
    with no instruction has the one shared empty row, `NO_STEPS`. `run` is
    None unless the instruction is a *loop*: it writes back the symbol it
    reads and stays in its state, so that the walk crosses the whole run of
    such cells in one move. For a loop, `run` is (stoppers, getter,
    single): the *stoppers* are the cell codes whose instruction in that
    state is not a loop the same way (right or left), or that have none;
    the getter maps each other code to its loop instruction; and `single`
    is that instruction when only one code loops, else None.
    """
    steps = {(inst.state, CODE[inst.read]):
             (CODE[inst.write], inst.move == "R", inst.target, inst)
             for inst in instructions}
    table = {state: [None] * len(NO_STEPS) for state, _ in steps}
    for (state, read), (write, moves_right, target, inst) in steps.items():
        run = None
        if write == read and target == state:
            loops = {code: steps[state, code][3] for code in (ZERO, ONE, 0)
                     if steps.get((state, code), ())[:3] == (code, moves_right, state)}
            stoppers = tuple(code for code in (ZERO, ONE, 0) if code not in loops)
            run = (stoppers, loops.__getitem__, inst if len(loops) == 1 else None)
        table[state][read] = (write, moves_right, target,
                              table.get(target, NO_STEPS), inst, run)
    return table


def walk(steps, cells, pos, state, room, applied, ask):
    """Run a mutable tape in place from `state` with the head on `pos`, by
    the instructions of `steps`, and return the verdict code: 0 accepted,
    1 halted-rejected, 2 budget-exceeded (the index in
    `evosim.runner.Verdict`).

    `cells` is the whole allocated tape, cell 0 being the origin. Each
    applied instruction is appended to `applied` when it is a list; None
    records nothing. The walk takes at most `room` steps. After each step
    or crossing that ends in the halt state on a blank at a tape edge, cell
    0 or the last cell, it asks `ask(cells, pos)` and keeps the answer, and
    any later step clears it; `ask` None asks nothing, and the answer is
    then NO. The halt state on a blank inside the tape is not asked about,
    nor the configuration the walk starts from. The walk ends where no
    instruction applies, by the rule at the top of its loop (the state's
    row has no entry at the cell's code, or the entry moves left at the
    origin), accepted if the kept answer is YES and halted-rejected
    otherwise; failing that, where the room is used up, budget-exceeded.
    The walk keeps the row of its state and takes the next one from the
    entry it applies.

    A loop (see `step_table`) crosses the run of cells it loops on in one
    move, using the same room and applying the same instructions as single
    steps: up to the nearest stopper that way, with one C-level search per
    stopper code, or up to the room. A left crossing stops at the origin
    at the latest; a left move does not apply there. A right crossing
    stops, at the latest, at the end of the tape where a blank is a
    stopper, so that the usual blank is appended, and at the last cell in
    the halt state, since the halt state on a blank there is asked about;
    a head already on the last cell moves one past it. Any other state
    that loops on a blank runs past the end, and the tape is extended with
    blanks (MemoryError where that many cells cannot be allocated, also
    where they are more than an index holds). So every configuration a
    crossing skips is one that single steps pass through with the same
    instruction, and none is the halt state on a blank at a tape edge.
    """
    answer = False
    row = steps.get(state, NO_STEPS)
    while True:
        entry = row[cells[pos]]
        if entry is None:
            return 0 if answer else 1
        write, moves_right, target, target_row, inst, run = entry
        # A left move at the origin does not apply.
        if not (pos or moves_right):
            return 0 if answer else 1
        if not room:
            return 2
        # A crossing of one cell is a single step, and the replay of a path
        # takes only those.
        if run is None or room == 1:
            cells[pos] = write
            pos += 1 if moves_right else -1
            state, row = target, target_row
            if applied is not None:
                applied.append(inst)
            room -= 1
        else:
            stoppers, getter, single = run
            if moves_right:
                stop, end = pos + room, len(cells)
                if 0 in stoppers:
                    if stop > end:
                        stop = end
                elif state == HALT_STATE and stop >= end:
                    stop = end - 1 if pos < end - 1 else end
                for code in stoppers:
                    found = cells.find(code, pos, stop)
                    if found >= 0:
                        stop = found
                if stop > end:
                    try:
                        cells.extend(bytes(stop - end))
                    except OverflowError:  # a length past what an index holds
                        raise MemoryError(f"a tape of {stop} cells cannot be "
                                          f"allocated") from None
                crossed = stop - pos
            else:
                stop = pos - room if pos > room else 0
                for code in stoppers:
                    found = cells.rfind(code, stop, pos)
                    if found >= 0:
                        stop = found
                crossed = pos - stop
            if applied is not None:
                applied.extend(repeat(single, crossed) if single is not None else map(
                    getter, cells[pos:stop] if moves_right else cells[pos:stop:-1]))
            room -= crossed
            pos = stop
        # A right move off the last cell appends a blank.
        if pos == len(cells):
            cells.append(0)
        answer = (state == HALT_STATE and not cells[pos] and (not pos or pos == len(cells) - 1)
                  and ask is not None and ask(cells, pos))


def step_config(steps, config):
    """The instruction of a step table that applies to `config`, and the
    configuration it leads to; (None, None) where none applies.

    InvalidSymbolError if the configuration holds a symbol outside the
    alphabet."""
    cells = config_cells(config)
    pos = len(config.left)
    applied = []
    walk(steps, cells, pos, config.state, 1, applied, None)
    if not applied:
        return None, None
    inst = applied[0]
    return inst, tape_view(inst.target, cells, pos + 1 if inst.move == "R" else pos - 1)


def apply_instruction(config, inst):
    """One transition-engine step; None where the instruction does not apply.

    An instruction applies when its (state, read) key matches the
    configuration and `walk`'s tape rules admit the move.
    InvalidSymbolError if the configuration holds a symbol outside the
    alphabet.
    """
    return step_config(step_table([inst]), config)[1]


def halting_accept(config):
    """The stateless accepting engine: YES exactly on a halt-state head
    parked on a blank at either tape edge.

    The left-edge pattern is tested first; on the fully blank tape both
    patterns overlap and the fixed order keeps the answer a function.
    """
    if config.state != HALT_STATE or config.head != BLANK:
        return False
    if not config.left:
        return True
    return not config.right


def extract_string(config):
    """Tape content with blank ends stripped (interior blanks retained)."""
    return (config.left + config.head + config.right).strip(BLANK)


class StandardModel:
    """Stateless model: the halting-pattern acceptor, no acceptor work.

    The tape question `accept_tape` is the model: the run loop asks
    nothing else. A model that replaces the acceptor, as
    `evosim.engine.EvolvingModel` does, overrides it alone and inherits
    the configuration question `accept`, which is derived from it."""

    acceptor_ticks = 0

    def accept(self, config):
        """The accepting engine, asked about a configuration: a reader
        derived from the tape question, for callers that hold a
        configuration; the run loop does not ask it.

        NO outside the halting pattern (`halting_accept`). Inside it, at
        either tape edge, the configuration is asked about as its tape, by
        `accept_tape`, which holds the origin rule of each model: under
        this model YES, so the answer is `halting_accept` on every
        configuration in the alphabet. InvalidSymbolError there if the
        configuration holds a symbol outside the alphabet (`config_cells`).
        """
        return halting_accept(config) and self.accept_tape(config_cells(config),
                                                           len(config.left))

    def accept_tape(self, cells, pos):
        """YES: the answer of `accept(tape_view(HALT_STATE, cells, pos))`
        wherever the run loop asks, the halt state on a blank at a tape
        edge."""
        return True
