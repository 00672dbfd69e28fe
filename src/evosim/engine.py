"""The evolving model: standard transitions, self-rewriting acceptance.

The run loop applies the plain transitions of `evosim.tape`. The accepting
engine answers YES outright on a halt-state head parked on a blank at the
tape origin; on a halt-state head parked on a blank at the right edge it
strips the end blanks off the tape content and hands the resulting string
to an embedded growing trie (`evosim.trie.PartialDfa`); the trie's answer,
and its structural growth, become part of the world. Everything else is NO.

An EvolvingModel is single-writer mutable world state: a run or query needs
exclusive access for its full duration. Snapshots are immutable text,
freely shareable; forking by snapshot is the supported way to compare
alternative histories.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SnapshotError
from .tape import BLANK, HALT_STATE, StandardModel
from .trie import PartialDfa

SNAPSHOT_HEADER = "PET1 v1"


@dataclass(frozen=True, slots=True)
class InvocationRecord:
    """One consultation of the embedded trie: where, on what, with what
    answer, at what cost."""

    config: object
    text: str
    accepted: bool
    ticks: int


class EvolvingModel:
    """Evolving model: the trie-backed acceptor, with every consultation
    in `invocation_log`."""

    def __init__(self, trie=None):
        self.trie = trie if trie is not None else PartialDfa()
        self.invocation_log = []
        self.acceptor_ticks = 0

    def accept(self, config):
        """The evolving accepting engine.

        The origin pattern is tested before the right-edge pattern, so the
        fully blank tape answers YES without consulting the trie. A
        right-edge tape whose content still holds interior blanks after
        end-stripping is not a binary string; the trie is never consulted
        and the answer is NO.
        """
        if config.state != HALT_STATE or config.head != BLANK:
            return False
        if not config.left:
            return True
        if config.right:
            return False
        text = config.left.strip(BLANK)
        if BLANK in text:
            return False
        outcome = self.trie.query(text)
        self.acceptor_ticks += outcome.ticks
        self.invocation_log.append(
            InvocationRecord(config, text, outcome.accepted, outcome.ticks)
        )
        return outcome.accepted


def make_model(kind):
    """Model instance for a selector: "v" (stateless) or "e" (evolving)."""
    if kind == "v":
        return StandardModel()
    if kind == "e":
        return EvolvingModel()
    raise ValueError(f"unknown model kind {kind!r}; expected 'v' or 'e'")


def encode_snapshot(model):
    """Canonical text for the evolving part of the world.

    Only the trie is captured (logs are replayable from scenario scripts).
    Equal query histories give byte-identical text: states in creation
    order, accepting in creation order, transitions sorted by source
    creation index then symbol.
    """
    trie = model.trie
    order = {name: i for i, name in enumerate(trie.states)}
    lines = [SNAPSHOT_HEADER]
    lines.append(("states: " + " ".join(trie.states)).rstrip())
    lines.append(f"start: {trie.start}")
    lines.append(("accept: " + " ".join(trie.accepting_in_creation_order())).rstrip())
    triples = sorted(
        ((src, symbol, dst) for (src, symbol), dst in trie.transitions.items()),
        key=lambda t: (order[t[0]], t[1]),
    )
    for src, symbol, dst in triples:
        lines.append(f"trans: {src} {symbol} {dst}")
    lines.append(f"maxaccept: {trie.max_accepted_length}")
    lines.append(f"counter: {trie.creation_counter}")
    return "\n".join(lines) + "\n"


def _field(lines, index, key):
    if index >= len(lines):
        raise SnapshotError(f"missing '{key}:' line", index + 1)
    line = lines[index]
    if line != key + ":" and not line.startswith(key + ": "):
        raise SnapshotError(f"expected '{key}:' line, got {line!r}", index + 1)
    return line[len(key) + 1:].strip()


def decode_snapshot(text):
    """Rebuild an EvolvingModel from snapshot text.

    Raises SnapshotError with a line number on malformed text, and on
    structural violations (duplicate transitions per key, non-trie shape,
    a creation counter that would collide with existing state names).
    """
    lines = text.splitlines()
    if not lines or lines[0] != SNAPSHOT_HEADER:
        raise SnapshotError(f"bad header; expected {SNAPSHOT_HEADER!r}", 1)
    states_field = _field(lines, 1, "states")
    states = states_field.split() if states_field else []
    if not states:
        raise SnapshotError("no states listed", 2)
    start = _field(lines, 2, "start")
    accept_field = _field(lines, 3, "accept")
    accepting = accept_field.split() if accept_field else []

    transitions = {}
    index = 4
    while index < len(lines) and lines[index].startswith("trans: "):
        parts = lines[index].split()
        if len(parts) != 4:
            raise SnapshotError("transition needs source, symbol, target",
                                index + 1)
        _, src, symbol, dst = parts
        if (src, symbol) in transitions:
            raise SnapshotError(
                f"two transitions from ({src},{symbol})", index + 1)
        transitions[(src, symbol)] = dst
        index += 1

    maxaccept_field = _field(lines, index, "maxaccept")
    counter_field = _field(lines, index + 1, "counter")
    try:
        maxaccept = int(maxaccept_field)
        counter = int(counter_field)
    except ValueError as exc:
        raise SnapshotError(f"not an integer: {exc}", index + 1) from None
    if maxaccept < 0 or counter < 0:
        raise SnapshotError("negative count", index + 1)
    if index + 2 != len(lines):
        raise SnapshotError("trailing content after 'counter:'", index + 3)

    try:
        trie = PartialDfa.from_parts(states, start, transitions, accepting,
                                     maxaccept, counter)
    except ValueError as exc:
        raise SnapshotError(str(exc)) from None
    return EvolvingModel(trie)


def fork(model):
    """An independent copy of the evolving world (fresh, empty logs)."""
    return decode_snapshot(encode_snapshot(model))
