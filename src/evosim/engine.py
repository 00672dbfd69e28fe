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

Only the trie grows with the number of runs. `invocation_log` is a ring of
the last `LOG_LIMIT` consultations; a caller that needs every record of one
run collects them itself, as `evosim.experiments.run_traced` does.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import NamedTuple

from .tape import BLANK, HALT_STATE, StandardModel
from .trie import PartialDfa

# The number of consultations `invocation_log` keeps: the most recent ones.
LOG_LIMIT = 256


class InvocationRecord(NamedTuple):
    """One consultation of the embedded trie: where, on what, with what
    answer, at what cost."""

    config: object
    text: str
    accepted: bool
    ticks: int


# The run path's builder, in C (see the `evosim.runner` "Value types"
# paragraph).
_invocation_record = partial(tuple.__new__, InvocationRecord)


class EvolvingModel:
    """Evolving model: the trie-backed acceptor, with its last `LOG_LIMIT`
    consultations in `invocation_log`, oldest first (a bounded deque)."""

    def __init__(self, trie=None):
        self.trie = trie if trie is not None else PartialDfa()
        self.invocation_log = deque(maxlen=LOG_LIMIT)
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
        accepted, ticks = self.trie.answer(text)
        self.acceptor_ticks += ticks
        self.invocation_log.append(_invocation_record((config, text, accepted, ticks)))
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
    """An independent copy of the evolving world (fresh, empty log), equal
    to `decode_snapshot(encode_snapshot(model))`: the trie's arrays are
    copied, not printed and parsed back, so neither world's growth reaches
    the other."""
    return EvolvingModel(model.trie.copy())
