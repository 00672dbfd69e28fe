"""The evolving model: standard transitions, self-rewriting acceptance.

The run loop applies the plain transitions of `evosim.tape`. The accepting
engine answers YES outright on a halt-state head parked on a blank at the
tape origin; on a halt-state head parked on a blank at the right edge it
strips the end blanks off the tape content and hands the resulting string
to an embedded growing trie (`evosim.trie.PartialDfa`); the trie's answer,
and its structural growth, become part of the world. Everything else is NO.
The acceptor reads the trie's one writer, `PartialDfa._walk_and_grow`,
which gives only the answer and its ticks: `PartialDfa.answer` is that
writer after a check of the string's symbols, which the acceptor's strings
pass by construction, and `PartialDfa.query` calls `answer` and reads off
the grown trie a report of what it added, for callers that read that.

An EvolvingModel is single-writer mutable world state: a run or query needs
exclusive access for its full duration. `fork` is the supported way to
compare alternative histories: it copies the trie's arrays
(`PartialDfa.copy`), and the world it returns equals the one that decoding
the world's snapshot gives, without the text. Snapshots are immutable text
for files (a `--state` world, `evosim snapshot --out`); their format
belongs to the trie (`PartialDfa.snapshot` and `PartialDfa.from_snapshot`),
and `encode_snapshot` and `decode_snapshot` apply it to a whole world.

`EvolvingModel` is a `StandardModel` with one part replaced: it overrides
the tape question, `accept_tape(cells, pos)`, the one question of the
model protocol, which the run loop, `evosim.tape.walk`, asks in place; it
strips and decodes the string on the tape itself, without building a
`Configuration`, and holds the origin rule. It inherits the configuration
question, `StandardModel.accept`, a reader that checks the pattern with
`evosim.tape.halting_accept` and asks the tape question in turn at either
edge, so the trie answer, the ticks and the ring entry are written in one
place.

Only the trie grows with the number of runs. `ring` keeps the last
`LOG_LIMIT` consultations raw, each as (tape bytes, text, answer, ticks):
every one is asked in the halt state at the tape's last cell, the origin
answering YES without one, so those two never vary and are not kept.
`invocation_log` renders the ring, oldest first, as a new list of
`InvocationRecord`s each time it is read: a saturation makes tens of
thousands of consultations and reads none. A caller that needs every
record of one run collects the raw entries itself, as
`evosim.experiments.run_traced` does, and renders them with
`render_record`.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .tape import HALT_STATE, StandardModel, tape_view
from .trie import PartialDfa

# The number of consultations `ring` keeps: the most recent ones.
LOG_LIMIT = 256


class InvocationRecord(NamedTuple):
    """One consultation of the embedded trie: where, on what, with what
    answer, at what cost."""

    config: object
    text: str
    accepted: bool
    ticks: int


def render_record(entry):
    """The `InvocationRecord` of a raw ring entry (tape bytes, text, answer,
    ticks), asked in the halt state on the tape's last cell."""
    tape, text, accepted, ticks = entry
    return InvocationRecord(tape_view(HALT_STATE, tape, len(tape) - 1), text,
                            accepted, ticks)


class EvolvingModel(StandardModel):
    """Evolving model: a `StandardModel` whose tape question is asked of
    the trie, with its last `LOG_LIMIT` consultations raw in `ring` (a
    bounded deque) and rendered, oldest first, by `invocation_log`. It
    inherits `accept`, which asks `accept_tape` at either tape edge."""

    def __init__(self, trie=None):
        self.trie = trie if trie is not None else PartialDfa()
        self.ring = deque(maxlen=LOG_LIMIT)
        self.acceptor_ticks = 0

    @property
    def invocation_log(self):
        """The consultations in `ring`, oldest first, as a new list of
        `InvocationRecord`s."""
        return list(map(render_record, self.ring))

    def accept_tape(self, cells, pos):
        """The answer of `accept(tape_view(HALT_STATE, cells, pos))`, with
        the same side effects: the ticks, the trie's growth and the ring
        entry.

        Asked only where the halt state reads a blank at a tape edge (cell
        0 or the last cell), as `walk` asks it and `accept` after its own
        check; so it does not check that pattern again. At the origin the
        answer is YES; at the right edge the trie is asked about the
        string on the tape, its blank ends stripped, or the answer is NO
        when a blank remains inside it, as the content is then not a
        binary string. The ring keeps a frozen copy of the tape, not its
        view.

        Precondition: `cells` holds only the cell codes 0, 48 and 49, as
        every tape that a run steps does: `evosim.tape.start_tape` and
        `config_cells` build it after their alphabet checks,
        `evosim.experiments._runs` from bits, and only step-table writes
        change it. So the content is binary and the trie is asked with no
        symbol check (`PartialDfa._walk_and_grow`); nothing checks the
        precondition, and another byte is read as "0".
        """
        if not pos:
            return True
        content = cells.strip(b"\0")
        if 0 in content:
            return False
        text = content.decode("ascii")
        accepted, ticks = self.trie._walk_and_grow(text)
        self.acceptor_ticks += ticks
        self.ring.append((bytes(cells), text, accepted, ticks))
        return accepted


def make_model(kind):
    """Model instance for a selector: "v" (stateless) or "e" (evolving)."""
    if kind == "v":
        return StandardModel()
    if kind == "e":
        return EvolvingModel()
    raise ValueError(f"unknown model kind {kind!r}; expected 'v' or 'e'")


def encode_snapshot(model):
    """Canonical text for the evolving part of the world: the trie only
    (logs are replayable from scenario scripts)."""
    return model.trie.snapshot()


def decode_snapshot(text):
    """Rebuild an EvolvingModel from snapshot text; SnapshotError on
    malformed text or a machine that is not a well-formed trie."""
    return EvolvingModel(PartialDfa.from_snapshot(text))


def fork(model):
    """An independent copy of the evolving world (fresh, empty ring), equal
    to `decode_snapshot(encode_snapshot(model))`: the trie's arrays are
    copied, not printed and parsed back, so neither world's growth reaches
    the other."""
    return EvolvingModel(model.trie.copy())
