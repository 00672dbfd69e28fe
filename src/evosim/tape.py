"""The tape machine: alphabet, configurations, the step table and its walk.

A configuration is a named tuple (state, left, head, right) that splits
the tape at the head; the conceptual tape is left+head+right, extended
with blanks on the right on demand. As a tuple it equals a plain tuple of
the same values, and it is cheap to build: the run loop builds one for
every acceptor question, and `RunResult.path` one per step. Both
plain engines (`apply_instruction` and `halting_accept`) are pure
functions, so the model is stateless and configurations can be shared
freely across threads.

Every step is taken by `walk`, on a mutable tape: a `bytearray` of cell
codes (blank 0, "0" and "1" their ASCII codes), cell 0 being the origin,
plus a head index. It reads a step table, compiled once from the
instructions by `step_table` and keyed by cell code, and it is the one
place that holds the two tape rules: a left move at the origin does not
apply, and a right move off the last cell appends a blank. An acceptor is
asked only where the halt state reads a blank at a tape edge (cell 0 or
the last cell), so the walk stops for one only there. It crosses four
kinds of run in one move each: right and left sweeps over non-blank cells,
blank sweeps past the end of the tape, and walks of the halt state over
blanks inside the tape. The pure engine `apply_instruction` takes one step
of a configuration through the same walk, and `tape_view` turns a mutable
tape back into a configuration.

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
# code. A view's head is the ALPHABET string itself: a blank sliced out of a
# decoded tape would be a fresh string in every configuration that the
# evolving model's log keeps.
CODE = dict(zip(ALPHABET, b"01\0"))
SYMBOL = {code: symbol for symbol, code in CODE.items()}
ZERO, ONE = CODE["0"], CODE["1"]


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
    return bytearray(b"\0" + text.encode("ascii"))


def start_config(text):
    """The start configuration of an input: head on a blank, input to its
    right."""
    return tape_view(START_STATE, start_tape(text), 0)


def tape_view(state, cells, pos):
    """The immutable configuration of a mutable tape with the head on `pos`."""
    tape = cells.decode("latin-1").replace("\0", BLANK)
    return Configuration(state, tape[:pos], SYMBOL[cells[pos]], tape[pos + 1:])


def tape_string(cells):
    """The content of a mutable tape with blank ends stripped (interior
    blanks retained)."""
    return cells.strip(b"\0").decode("latin-1").replace("\0", BLANK)


def at_halting_edge(state, cells, pos):
    """Whether a mutable tape is in the halt state with the head on a blank
    at a tape edge: the only configurations an acceptor is asked about."""
    return state == HALT_STATE and not cells[pos] and (not pos or pos == len(cells) - 1)


def step_table(instructions):
    """Compile key-unique instructions into a step table and two sweep
    tables, all keyed by cell code.

    The step table maps each (state, read) key to (write, moves_right,
    target, instruction). The sweep table maps each *sweep state* to its
    {read: instruction} for "0" and "1": a state whose 0- and
    1-instructions both write back the symbol they read, move the same way
    (right or left) and stay in the state, so that it crosses a run of
    non-blank cells unchanged. The blank-sweep table maps each *blank-sweep
    state* to its blank-instruction: a state other than the halt state that
    reads a blank, writes a blank, moves right and stays, so that past the
    last cell it fills the rest of a walk with blanks. The halt state is
    left out there, because every blank configuration of it past the last
    cell is at the tape edge, where an acceptor must be asked about it.
    """
    steps = {(inst.state, CODE[inst.read]):
             (CODE[inst.write], inst.move == "R", inst.target, inst)
             for inst in instructions}
    sweeps = {}
    blank_sweeps = {}
    for (state, read), (write, moves_right, target, inst) in steps.items():
        if target != state or write != read:
            continue
        if not read:
            if moves_right and state != HALT_STATE:
                blank_sweeps[state] = inst
        elif read == ZERO:
            one = steps.get((state, ONE))
            if one is not None and one[:3] == (ONE, moves_right, state):
                sweeps[state] = {ZERO: inst, ONE: one[3]}
    return steps, sweeps, blank_sweeps


def walk(steps, sweeps, blank_sweeps, cells, pos, state, room, applied):
    """Step a mutable tape in place from `state` with the head on `pos`;
    return the new (state, pos, halted).

    `cells` is the whole allocated tape, cell 0 being the origin. Each
    applied instruction is appended to `applied`. The walk takes at most
    `room` steps and stops at the first configuration where no instruction
    of `steps` applies (halted is True), where the room is used up, or
    that a step reaches in the halt state on a blank at a tape edge, cell
    0 or the last cell (both with halted False), so that the caller can
    ask an acceptor about it. The halt state on a blank inside the tape is
    not such a stop.

    Runs of steps are crossed in one move, with the same applied
    instructions as single steps (see `step_table` for the two tables):

    - In a state of `sweeps`, on a non-blank cell, the walk crosses every
      cell up to the nearest blank in the state's direction, or up to the
      room, with one C-level search. A left sweep with no blank between
      the head and the origin lands on cell 0; a left move does not apply
      there, so the next step halts. On every crossed cell the instruction
      writes back what it reads and stays in the state, so no
      configuration in between is in the halt state on a blank.
    - When a step appends a blank in a state of `blank_sweeps`, only
      blanks lie ahead, so the walk takes the rest of the room in one go.
    - When a step leaves the halt state on a blank inside the tape, and
      its blank-instruction writes a blank and stays in it, the walk
      crosses the blanks that way up to the next non-blank cell, the tape
      edge or the end of the room. Every configuration in between is
      inside the tape, so no acceptor is asked about it.

    Blanks inside the tape in any other state are stepped one cell at a
    time.
    """
    while True:
        cell = cells[pos]
        entry = steps.get((state, cell))
        # A left move at the origin does not apply.
        if entry is None or not (pos or entry[1]):
            return state, pos, True
        if not room:
            return state, pos, False
        if cell and state in sweeps:
            if entry[1]:
                stop = cells.find(0, pos, pos + room)
                if stop < 0:
                    stop = min(pos + room, len(cells))
                crossed = cells[pos:stop]
            else:
                stop = cells.rfind(0, max(pos - room, 0), pos)
                if stop < 0:
                    # No blank within reach: land on its farthest cell.
                    stop = max(pos - room, 0)
                crossed = cells[pos:stop:-1]
            applied.extend(map(sweeps[state].__getitem__, crossed))
            room -= len(crossed)
            pos = stop
        else:
            cells[pos], moves_right, state, inst = entry
            pos += 1 if moves_right else -1
            applied.append(inst)
            room -= 1
        # A right move off the last cell appends a blank.
        if pos == len(cells):
            cells.append(0)
            if state in blank_sweeps:
                cells.extend(bytes(room))
                applied.extend(repeat(blank_sweeps[state], room))
                pos += room
                room = 0
        if state == HALT_STATE and not cells[pos]:
            last = len(cells) - 1
            entry = steps.get((state, 0)) if room and 0 < pos < last else None
            if entry is not None and entry[2] == state and not entry[0]:
                if entry[1]:
                    stop = min(pos + room, last)
                    for code in (ZERO, ONE):
                        found = cells.find(code, pos, stop)
                        if found >= 0:
                            stop = found
                else:
                    stop = max(pos - room, 0)
                    for code in (ZERO, ONE):
                        found = cells.rfind(code, stop, pos)
                        if found >= 0:
                            stop = found
                applied.extend(repeat(entry[3], abs(stop - pos)))
                room -= abs(stop - pos)
                pos = stop
            if not cells[pos] and (not pos or pos == last):
                return state, pos, False


def step_config(steps, config):
    """The instruction of a step table that applies to `config`, and the
    configuration it leads to; (None, None) where none applies.

    InvalidSymbolError if the configuration holds a symbol outside the
    alphabet."""
    tape = config.left + config.head + config.right
    if config.head not in ALPHABET or tape.strip("".join(ALPHABET)):
        raise InvalidSymbolError(f"symbol outside alphabet in {config!r}")
    cells = bytearray(tape.replace(BLANK, "\0"), "ascii")
    applied = []
    state, pos, _ = walk(steps, {}, {}, cells, len(config.left), config.state,
                         1, applied)
    if not applied:
        return None, None
    return applied[0], tape_view(state, cells, pos)


def apply_instruction(config, inst):
    """One transition-engine step; None where the instruction does not apply.

    An instruction applies when its (state, read) key matches the
    configuration and `walk`'s tape rules admit the move.
    InvalidSymbolError if the configuration holds a symbol outside the
    alphabet.
    """
    return step_config(step_table([inst])[0], config)[1]


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
    """Stateless model: the halting-pattern acceptor, no acceptor work."""

    acceptor_ticks = 0

    def accept(self, config):
        return halting_accept(config)
