"""The tape machine: alphabet, configurations and both plain engines.

A configuration splits the tape into (left, head, right); the conceptual
tape is left+head+right, extended with blanks on the right on demand. Both
engines are pure functions, so the model is stateless and configurations
can be shared freely across threads.

The run loop steps a mutable tape instead: a list of cells, cell 0 being
the origin, plus a head index. `applies_at` and `step_tape` carry the same
two tape rules as `apply_instruction` (a left move at the origin does not
apply; a right move off the last cell appends a blank), and `tape_view`
turns such a tape back into a configuration.

This module sits at the bottom of the package: it imports nothing from
evosim but the error types, and the run loop and the engines build on it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidSymbolError

BLANK = "△"
ALPHABET = ("0", "1", BLANK)
MOVES = ("L", "R")

START_STATE = "q0"
HALT_STATE = "h"


@dataclass(frozen=True, slots=True)
class Configuration:
    """Machine snapshot: control state plus the split tape.

    `left` never carries an implied infinite blank prefix; it is exactly
    the cells to the left of the head, and it is empty at the tape origin.
    """

    state: str
    left: str
    head: str
    right: str

    def __str__(self):
        return f"({self.state}, {self.left}[{self.head}]{self.right})"


def start_config(text):
    """The start configuration of an input: head on a blank, input to its
    right."""
    bad = sorted(set(text) - {"0", "1"})
    if bad:
        raise InvalidSymbolError(f"input contains {bad!r}; allowed: 0, 1")
    return Configuration(state=START_STATE, left="", head=BLANK, right=text)


def apply_instruction(config, inst):
    """One transition-engine step; None where the instruction does not apply.

    An instruction applies when its (state, read) key matches the
    configuration. Moving right past the last written cell extends the tape
    with a blank; moving left at the tape origin does not apply.
    """
    if config.state != inst.state or config.head != inst.read:
        return None
    if inst.move == "R":
        if config.right:
            head, right = config.right[0], config.right[1:]
        else:
            head, right = BLANK, ""
        return Configuration(inst.target, config.left + inst.write, head, right)
    if not config.left:
        return None
    return Configuration(
        inst.target, config.left[:-1], config.left[-1], inst.write + config.right
    )


def applies_at(inst, pos):
    """Whether a key-matching instruction applies with the head on cell
    `pos`, cell 0 being the origin: every one does but a left move at the
    origin, as in `apply_instruction`."""
    return pos > 0 or inst.move == "R"


def step_tape(cells, pos, inst):
    """Apply an applicable, key-matching instruction to a mutable tape in
    place and return the new head index.

    `cells` is the whole allocated tape, cell 0 being the origin; a right
    move off the last cell appends a blank, as `apply_instruction` extends
    its right part.
    """
    cells[pos] = inst.write
    if inst.move == "L":
        return pos - 1
    pos += 1
    if pos == len(cells):
        cells.append(BLANK)
    return pos


def tape_view(state, cells, pos):
    """The immutable configuration of a mutable tape with the head on `pos`."""
    return Configuration(state, "".join(cells[:pos]), cells[pos],
                         "".join(cells[pos + 1:]))


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
