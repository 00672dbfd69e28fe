"""The evolving model: standard transitions, self-rewriting acceptance.

The run loop applies the plain transitions of `evosim.tape`. The accepting
engine answers YES outright on a halt-state head parked on a blank at the
tape origin; on a halt-state head parked on a blank at the right edge it
strips the end blanks off the tape content and hands the resulting string
to an embedded growing trie (`evosim.trie.PartialDfa`); the trie's answer,
and its structural growth, become part of the world. Everything else is NO.
The acceptor reads `PartialDfa.answer`, the trie's one writer, which
gives only the answer and its ticks; `PartialDfa.query` calls it and reads
off the grown trie a report of what it added, for callers that read that.

An EvolvingModel is single-writer mutable world state: a run or query needs
exclusive access for its full duration. `fork` is the supported way to
compare alternative histories: it copies the trie's arrays
(`PartialDfa.copy`), and the world it returns equals the one that decoding
the world's snapshot gives, without the text. Snapshots are immutable text
for files (a `--state` world, `evosim snapshot --out`); their format
belongs to the trie (`PartialDfa.snapshot` and `PartialDfa.from_snapshot`),
and `encode_snapshot` and `decode_snapshot` apply it to a whole world.

The run loop asks `accept_tape`, the same question about the byte tape
itself, where `evosim.tape.walk` stopped to ask: the acceptor reads the
string on the tape (`evosim.tape.edge_content`) without building a
`Configuration`. `accept(config)` checks the pattern and asks it in turn,
so the trie answer, the ticks and the record are written in one place.

Only the trie grows with the number of runs. `ring` keeps the last
`LOG_LIMIT` consultations raw, each as (state, tape bytes, head position,
text, answer, ticks), and `invocation_log` is a read-only view over it
that renders each as an `InvocationRecord` only when it is read: a
saturation makes tens of thousands of consultations and reads none. A
caller that needs every record of one run collects the raw entries
itself, as `evosim.experiments.run_traced` does, and renders them with
`render_record`.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from functools import partial
from typing import NamedTuple

from .tape import (BLANK, HALT_STATE, StandardModel, config_cells,
                   edge_content, tape_view)
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


# The builder, in C (see the `evosim.runner` "Value types" paragraph).
_invocation_record = partial(tuple.__new__, InvocationRecord)


def render_record(entry):
    """The `InvocationRecord` of a raw ring entry (state, tape bytes, head
    position, text, answer, ticks)."""
    state, tape, pos, text, accepted, ticks = entry
    return _invocation_record((tape_view(state, tape, pos), text, accepted, ticks))


class InvocationLog(Sequence):
    """A model's consultations, oldest first, read-only: its `ring`, each
    entry rendered on access by `render_record`. Equal to a list or tuple
    of the same records; a slice is a list of them."""

    __slots__ = ("_model",)

    def __init__(self, model):
        self._model = model

    def __len__(self):
        return len(self._model.ring)

    def __getitem__(self, index):
        ring = self._model.ring
        if isinstance(index, slice):
            return [render_record(ring[i]) for i in range(*index.indices(len(ring)))]
        return render_record(ring[index])

    def __iter__(self):
        return map(render_record, self._model.ring)

    def __eq__(self, other):
        if isinstance(other, (InvocationLog, list, tuple)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    def __repr__(self):
        return f"{type(self).__name__}({list(self)!r})"


class EvolvingModel:
    """Evolving model: the trie-backed acceptor, with its last `LOG_LIMIT`
    consultations raw in `ring` (a bounded deque) and rendered, oldest
    first, by `invocation_log`."""

    def __init__(self, trie=None):
        self.trie = trie if trie is not None else PartialDfa()
        self.ring = deque(maxlen=LOG_LIMIT)
        self.acceptor_ticks = 0

    @property
    def invocation_log(self):
        """The consultations in `ring`, as a read-only `InvocationLog`."""
        return InvocationLog(self)

    def accept(self, config):
        """The evolving accepting engine.

        The origin pattern is tested before the right-edge pattern, so the
        fully blank tape answers YES without consulting the trie. A
        right-edge tape whose content still holds interior blanks after
        end-stripping is not a binary string; the trie is never consulted
        and the answer is NO. A configuration in either pattern is asked
        about as its tape, by `accept_tape`.
        """
        if config.state != HALT_STATE or config.head != BLANK:
            return False
        if not config.left:
            return True
        if config.right:
            return False
        return self.accept_tape(HALT_STATE, config_cells(config), len(config.left))

    def accept_tape(self, state, cells, pos):
        """The answer of `accept(tape_view(state, cells, pos))`, with the
        same side effects: the ticks, the trie's growth and the ring entry.

        Asked only where the halt state reads a blank at a tape edge (cell
        0 or the last cell), as the run loop asks it where `walk` stopped
        to ask and `accept` after its own check; so it does not check that
        pattern again. At the origin the answer is YES; at the right edge
        the trie is asked about the string on the tape (`edge_content`),
        or the answer is NO when a blank remains inside it. The ring keeps
        a frozen copy of the tape, not its view.
        """
        if not pos:
            return True
        text = edge_content(cells)
        if text is None:
            return False
        accepted, ticks = self.trie.answer(text)
        self.acceptor_ticks += ticks
        self.ring.append((state, bytes(cells), pos, text, accepted, ticks))
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
