"""The tape machine: alphabet, configurations and both plain engines.

A configuration splits the tape into (left, head, right); the conceptual
tape is left+head+right, extended with blanks on the right on demand. Both
engines are pure functions, so the model is stateless and configurations
can be shared freely across threads.

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
