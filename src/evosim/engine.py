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
from itertools import compress

from .errors import SnapshotError
from .tape import BLANK, HALT_STATE, StandardModel
from .trie import TRIE_ALPHABET, PartialDfa, int_array

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
    order, accepting in creation order, transitions by source creation
    index then symbol, which is the order the trie's arrays hold them in.
    """
    trie = model.trie
    names = trie.names()
    root = trie.root
    lines = [SNAPSHOT_HEADER,
             ("states: " + " ".join(names)).rstrip(),
             f"start: {trie.start}",
             ("accept: " + " ".join(compress(names, trie.marks))).rstrip()]
    for src, zero, one in zip(names, trie.kids0, trie.kids1):
        if zero != root:
            lines.append(f"trans: {src} 0 {names[zero]}")
        if one != root:
            lines.append(f"trans: {src} 1 {names[one]}")
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
    """Rebuild an EvolvingModel from snapshot text, in one pass.

    Raises SnapshotError with a line number on malformed text, checked line
    by line, and without one on structural violations: unknown names, two
    transitions into one state or one into the start state, unreachable
    states, a `maxaccept` that is not the depth of the deepest accepting
    state, and a creation counter that would collide with existing state
    names. The transitions go straight into the trie's child arrays, and a
    state's depth is set from its parent's as its transition is read; only
    a snapshot that lists a child's transitions before its parent's, or has
    unreachable states, needs a second pass (`structure_problems`).
    """
    lines = text.splitlines()
    if not lines or lines[0] != SNAPSHOT_HEADER:
        raise SnapshotError(f"bad header; expected {SNAPSHOT_HEADER!r}", 1)
    states_field = _field(lines, 1, "states")
    names = states_field.split() if states_field else []
    if not names:
        raise SnapshotError("no states listed", 2)
    start = _field(lines, 2, "start")
    accept_field = _field(lines, 3, "accept")

    count = len(names)
    index_of = dict(zip(names, range(count)))
    problems = [] if len(index_of) == count else ["duplicate state names"]
    root = index_of.get(start)
    if root is None:
        problems.append("start state unknown")
        root = 0
    kids0 = int_array(root, count)
    kids1 = int_array(root, count)
    sides = dict(zip(TRIE_ALPHABET, (kids0, kids1)))
    # Depths are set from the parent's as each transition is read, from
    # `unset` at first. A child read before its parent, or cut off from
    # the start state, stays negative: it can climb at most once per row.
    unset = -2 * count - 1
    depth = int_array(unset, count)
    depth[root] = 0
    unslotted = set()
    get = index_of.get
    for index, line in enumerate(lines[4:], 4):
        if not line.startswith("trans: "):
            break
        try:
            _, src, symbol, dst = line.split()
        except ValueError:
            raise SnapshotError("transition needs source, symbol, target",
                                index + 1) from None
        parent = get(src)
        child = get(dst)
        kids = sides.get(symbol)
        if parent is None or kids is None:
            # A key with no child slot: only the same key can repeat it.
            if (src, symbol) in unslotted:
                raise SnapshotError(
                    f"two transitions from ({src},{symbol})", index + 1)
            unslotted.add((src, symbol))
            problems.append(f"transition {src}-{symbol}->{dst} has an "
                            f"unknown state or a symbol outside the alphabet")
            continue
        if kids[parent] != root:
            raise SnapshotError(
                f"two transitions from ({src},{symbol})", index + 1)
        if child is None or child == root:
            kids[parent] = -1  # taken: a repeat of the key is a duplicate
            problems.append(f"transition {src}-{symbol}->{dst} enters "
                            f"the start state or an unknown state")
            continue
        kids[parent] = child
        if depth[child] != unset:
            problems.append(f"state {dst} has more than one incoming "
                            f"transition")
        depth[child] = depth[parent] + 1
    else:
        index = len(lines)

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

    marks = bytearray(count)
    for name in accept_field.split():
        state = get(name)
        if state is None:
            problems.append(f"accepting state {name} unknown")
        else:
            marks[state] = 1
    if problems:
        raise SnapshotError("; ".join(problems))
    trie = PartialDfa.from_arrays(kids0, kids1, marks, root, names, counter,
                                  maxaccept)
    if min(depth) < 0:
        problems = trie.structure_problems()
    else:
        deepest = max(compress(depth, marks), default=0)
        if maxaccept != deepest:
            problems.append(f"maxaccept {maxaccept} is not the deepest "
                            f"accepting depth {deepest}")
        problems += trie.name_problems()
    if problems:
        raise SnapshotError("; ".join(problems))
    return EvolvingModel(trie)


def fork(model):
    """An independent copy of the evolving world (fresh, empty logs)."""
    return decode_snapshot(encode_snapshot(model))
