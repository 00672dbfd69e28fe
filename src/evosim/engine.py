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
alternative histories. The snapshot format belongs to the trie
(`PartialDfa.snapshot` and `PartialDfa.from_snapshot`); `encode_snapshot`,
`decode_snapshot` and `fork` apply it to a whole world.
"""

from __future__ import annotations

from typing import NamedTuple

from .tape import BLANK, HALT_STATE, StandardModel
from .trie import PartialDfa


class InvocationRecord(NamedTuple):
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
    """Canonical text for the evolving part of the world: the trie only
    (logs are replayable from scenario scripts)."""
    return model.trie.snapshot()


def decode_snapshot(text):
    """Rebuild an EvolvingModel from snapshot text; SnapshotError on
    malformed text or a machine that is not a well-formed trie."""
    return EvolvingModel(PartialDfa.from_snapshot(text))


def fork(model):
    """An independent copy of the evolving world (fresh, empty logs)."""
    return decode_snapshot(encode_snapshot(model))
