"""A partial DFA that rewrites itself while answering membership queries.

The machine is a trie over {0,1} rooted at q0. A query walks the trie and
then, depending on where the walk ends, either answers from the existing
structure or grows it:

  * the walk reads the whole string and lands on an accepting state:
    the string is accepted and nothing changes;
  * the walk reads the whole string and lands on a non-accepting state
    that has an accepting state one symbol away: the string is rejected
    and nothing changes;
  * the walk reads the whole string and lands on a dead end (no accepting
    neighbor): that state is marked accepting and the string is accepted;
  * the walk gets stuck mid-string: a fresh chain of states spelling the
    unread suffix is appended, its last state is marked accepting, and the
    string is accepted.

These rules only ever add structure, which is what makes every answer
permanent: once a string has been accepted or rejected, every future query
of it repeats the answer. The *order* of first-time queries, on the other
hand, decides which strings end up in the language at all.

Layout: flat arrays indexed by creation order, after the child arrays of
J. Aoe, "An efficient digital search algorithm by using a double-array
structure", IEEE TSE 15(9), 1989. State i is the i-th state created;
`kids0[i]` and `kids1[i]` (each an `array('l')`) hold its children on 0
and on 1, and the `bytearray` `marks[i]` is 1 when it accepts. A child slot
that holds the start state's index (`root`, 0 unless a decoded snapshot
lists the start state elsewhere) is empty, since the start state is never
a child. About 17 bytes per state, against some 190 for name strings in a
dict keyed by (name, symbol) tuples. State names are not stored: fresh
states are named `s<counter>`, computed from their index, and only a
decoded snapshot whose names follow another rule keeps its list of names.
The counters `state_count`, `transition_count` (a trie has one transition
per state but the start) and `accepting_count` are O(1).

Views: `states` (a sequence of names), `transitions` (a mapping
(source, symbol) -> target) and `accepting` (a set of names) read the
arrays by name, each with an O(1) `len`; they hold no copy.

Snapshots: `snapshot()` writes the machine as canonical 7-bit text, the
format of a `--state` world file, and `PartialDfa.from_snapshot(text)`
reads it back, filling a new machine's arrays while it checks the trie
shape. The format, like the layout it is read into, is known to this
module only.

Instances are single-writer: queries must be serialized, and no view,
stat or snapshot may be read while a query runs; reading them on a
quiescent instance is safe. The arrays are written only by `query` (and
filled once by `from_snapshot`); everything else only reads them.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping, Sequence, Set
from dataclasses import dataclass
from itertools import compress

from .errors import InvalidSymbolError, SnapshotError

TRIE_ALPHABET = ("0", "1")
TRIE_START = "q0"
SNAPSHOT_HEADER = "PET1 v1"


class QueryCase(enum.Enum):
    AT_ACCEPTING = "at-accepting"          # full read onto an accepting state
    NEAR_ACCEPTING = "near-accepting"      # full read, acceptance one hop away
    MARKED_ACCEPTING = "marked-accepting"  # full read onto a promoted dead end
    GREW_CHAIN = "grew-chain"              # stuck; suffix chain appended


@dataclass(frozen=True, slots=True)
class QueryOutcome:
    """What one query answered and what it added.

    `ticks` charges one unit per transition traversed and one per element
    added (state, transition, or accepting mark), so it never exceeds
    2*len(query) + 1.
    """

    accepted: bool
    case: QueryCase
    added_states: tuple
    added_transitions: tuple
    added_accepting: tuple
    ticks: int


@dataclass(frozen=True, slots=True)
class MachineStats:
    max_accepted_length: int
    depth: int
    state_count: int
    accepting_count: int


class _View:
    """A read-only view of a PartialDfa by state name, with O(1) `len`."""

    __slots__ = ("_machine",)
    _plain = list  # the built-in type the view reads as

    def __init__(self, machine):
        self._machine = machine

    def __repr__(self):
        return f"{type(self).__name__}({self._plain(self)!r})"


class StateNames(_View, Sequence):
    """The state names in creation order; equal to a list or tuple of the
    same names."""

    __slots__ = ()

    def __len__(self):
        return self._machine.state_count

    def __getitem__(self, index):
        return self._machine.names()[index]

    def __iter__(self):
        return iter(self._machine.names())

    def __eq__(self, other):
        if isinstance(other, (StateNames, list, tuple)):
            return self._machine.names() == list(other)
        return NotImplemented

    __hash__ = None


class Transitions(_View, Mapping):
    """{(source, symbol): target} by name."""

    __slots__ = ()
    _plain = dict

    def __len__(self):
        return self._machine.transition_count

    def __getitem__(self, key):
        machine = self._machine
        source, symbol = key
        index = machine.index(source)
        if index is None or symbol not in TRIE_ALPHABET:
            raise KeyError(key)
        child = (machine.kids1 if symbol == "1" else machine.kids0)[index]
        if child == machine.root:
            raise KeyError(key)
        return machine.name(child)

    def __iter__(self):
        machine = self._machine
        root = machine.root
        for src, zero, one in zip(machine.names(), machine.kids0, machine.kids1):
            if zero != root:
                yield src, "0"
            if one != root:
                yield src, "1"


class AcceptingNames(_View, Set):
    """The set of accepting state names."""

    __slots__ = ()
    _plain = set

    def __len__(self):
        return self._machine.accepting_count

    def __contains__(self, name):
        index = self._machine.index(name)
        return index is not None and self._machine.marks[index] == 1

    def __iter__(self):
        return iter(self._machine.accepting_in_creation_order())


def int_array(fill, count):
    """An `array('l')` of `count` copies of `fill`. The array module is
    imported here, on first use, so that a process that builds no trie
    (the stateless model only) does not map it: about 0.25 MB of RSS."""
    from array import array
    return array("l", (fill,)) * count


def _levels(kids0, kids1, root):
    """The states reachable from `root`, one list per depth. A state reached
    twice is expanded once, so malformed arrays cannot loop."""
    seen = bytearray(len(kids0))
    seen[root] = 1
    level = [root]
    while level:
        yield level
        below = []
        for node in level:
            for child in (kids0[node], kids1[node]):
                if not seen[child]:
                    seen[child] = 1
                    below.append(child)
        level = below


def _field(lines, index, key):
    if index >= len(lines):
        raise SnapshotError(f"missing '{key}:' line", index + 1)
    line = lines[index]
    if line != key + ":" and not line.startswith(key + ": "):
        raise SnapshotError(f"expected '{key}:' line, got {line!r}", index + 1)
    return line[len(key) + 1:].strip()


def _decimal(text):
    """The value of an ASCII decimal numeral, or ValueError."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not an ASCII decimal numeral: {text!r}")
    return int(text)


class PartialDfa:
    """The growing trie acceptor, laid out as the module docstring says,
    with its views; single-writer.

    Fresh states are named s1, s2, … from `creation_counter`, so identical
    query histories produce identical machines, state names included.
    """

    def __init__(self):
        self.kids0 = int_array(0, 1)
        self.kids1 = int_array(0, 1)
        self.marks = bytearray(1)
        self.root = 0
        self._named = []   # names of the first states, when not fresh names
        self._shift = 0    # creation_counter minus state_count
        self.accepting_count = 0
        self.max_accepted_length = 0

    @classmethod
    def from_snapshot(cls, text):
        """Rebuild a machine from snapshot text, in one pass.

        Raises SnapshotError with a line number on malformed text, checked
        line by line, and without one on structural violations: unknown
        names, two transitions into one state or one into the start state,
        unreachable states, a `maxaccept` that is not the depth of the
        deepest accepting state, and a creation counter that would collide
        with existing state names. `maxaccept` and `counter` are ASCII
        decimal numerals. The transitions go straight into the new
        machine's child arrays, and a state's depth is set from its
        parent's as its transition is read; only a snapshot that lists a
        child's transitions before its parent's, or has unreachable states,
        needs a second pass (`structure_problems`).
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
        machine = cls.__new__(cls)
        machine.root = root
        machine.kids0 = int_array(root, count)
        machine.kids1 = int_array(root, count)
        sides = dict(zip(TRIE_ALPHABET, (machine.kids0, machine.kids1)))
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
                                f"unknown state or a symbol outside the "
                                f"alphabet")
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
            maxaccept = _decimal(maxaccept_field)
            counter = _decimal(counter_field)
        except ValueError as exc:
            raise SnapshotError(str(exc), index + 1) from None
        if index + 2 != len(lines):
            raise SnapshotError("trailing content after 'counter:'", index + 3)

        machine.marks = marks = bytearray(count)
        for name in accept_field.split():
            state = get(name)
            if state is None:
                problems.append(f"accepting state {name} unknown")
            else:
                marks[state] = 1
        if problems:
            raise SnapshotError("; ".join(problems))
        fresh = (counter == count
                 and names == [TRIE_START, *[f"s{i}" for i in range(1, count)]])
        machine._named = [] if fresh else names
        machine._shift = counter - count
        machine.accepting_count = marks.count(1)
        machine.max_accepted_length = maxaccept
        if min(depth) < 0:
            problems = machine.structure_problems()
        else:
            deepest = max(compress(depth, marks), default=0)
            if maxaccept != deepest:
                problems.append(f"maxaccept {maxaccept} is not the deepest "
                                f"accepting depth {deepest}")
            problems += machine.name_problems()
        if problems:
            raise SnapshotError("; ".join(problems))
        return machine

    def snapshot(self):
        """Canonical text for the machine.

        Equal query histories give byte-identical text: states in creation
        order, accepting in creation order, transitions by source creation
        index then symbol, which is the order the arrays hold them in.
        """
        names = self.names()
        root = self.root
        lines = [SNAPSHOT_HEADER,
                 ("states: " + " ".join(names)).rstrip(),
                 f"start: {self.start}",
                 ("accept: " + " ".join(compress(names, self.marks))).rstrip()]
        for src, zero, one in zip(names, self.kids0, self.kids1):
            if zero != root:
                lines.append(f"trans: {src} 0 {names[zero]}")
            if one != root:
                lines.append(f"trans: {src} 1 {names[one]}")
        lines.append(f"maxaccept: {self.max_accepted_length}")
        lines.append(f"counter: {self.creation_counter}")
        return "\n".join(lines) + "\n"

    @property
    def state_count(self):
        return len(self.marks)

    @property
    def transition_count(self):
        return len(self.marks) - 1

    @property
    def creation_counter(self):
        return len(self.marks) + self._shift

    def name(self, index):
        """The name of the state created `index`-th (0 is the first)."""
        if index < len(self._named):
            return self._named[index]
        return f"s{index + self._shift}" if index else TRIE_START

    def names(self):
        """Every state name, in creation order, as a new list."""
        named = self._named
        first = len(named) or 1
        shift = self._shift
        return ((named or [TRIE_START])
                + [f"s{i}" for i in range(first + shift, len(self.marks) + shift)])

    def index(self, name):
        """The creation index of the state named `name`, or None."""
        named = self._named
        if name in named:
            return named.index(name)
        if name == TRIE_START and not named:
            return 0
        if name[:1] == "s" and name[1:].isdecimal():
            index = int(name[1:]) - self._shift
            fresh = range(len(named) or 1, len(self.marks))
            if index in fresh and self.name(index) == name:
                return index
        return None

    @property
    def start(self):
        return self.name(self.root)

    @property
    def states(self):
        """View: the state names in creation order."""
        return StateNames(self)

    @property
    def transitions(self):
        """View: {(source, symbol): target} by name."""
        return Transitions(self)

    @property
    def accepting(self):
        """View: the set of accepting state names."""
        return AcceptingNames(self)

    def accepting_in_creation_order(self):
        return list(compress(self.names(), self.marks))

    def query(self, text):
        """Answer a membership query, growing the machine as needed."""
        if text.strip("01"):
            bad = sorted(set(text) - set(TRIE_ALPHABET))
            raise InvalidSymbolError(f"query contains {bad!r}; allowed: 0, 1")
        kids0 = self.kids0
        kids1 = self.kids1
        root = self.root
        node = root
        read = 0
        for symbol in text:
            child = (kids1 if symbol == "1" else kids0)[node]
            if child == root:
                break
            node = child
            read += 1

        marks = self.marks
        if read == len(text):
            if marks[node]:
                return QueryOutcome(True, QueryCase.AT_ACCEPTING,
                                    (), (), (), read)
            zero = kids0[node]
            one = kids1[node]
            if (zero != root and marks[zero]) or (one != root and marks[one]):
                return QueryOutcome(False, QueryCase.NEAR_ACCEPTING,
                                    (), (), (), read)
            self._mark(node, read)
            return QueryOutcome(True, QueryCase.MARKED_ACCEPTING,
                                (), (), (self.name(node),), read + 1)

        new_states = []
        new_transitions = []
        source = self.name(node)
        fresh = len(marks)
        shift = self._shift
        for symbol in text[read:]:
            (kids1 if symbol == "1" else kids0)[node] = fresh
            kids0.append(root)
            kids1.append(root)
            marks.append(0)
            name = f"s{fresh + shift}"
            new_states.append(name)
            new_transitions.append((source, symbol, name))
            node = fresh
            source = name
            fresh += 1
        self._mark(node, len(text))
        ticks = read + 2 * len(new_states) + 1
        return QueryOutcome(True, QueryCase.GREW_CHAIN,
                            tuple(new_states), tuple(new_transitions),
                            (source,), ticks)

    def _mark(self, node, length):
        """Mark `node`, where a query of `length` symbols ends, accepting."""
        self.marks[node] = 1
        self.accepting_count += 1
        if length > self.max_accepted_length:
            self.max_accepted_length = length

    def stats(self):
        """Measured figures: the depth is recomputed by traversal, not read
        off a counter."""
        return MachineStats(
            max_accepted_length=self.max_accepted_length,
            depth=self.depth(),
            state_count=self.state_count,
            accepting_count=self.accepting_count,
        )

    def depth(self):
        """Length of the longest transition path from the start state."""
        deepest = -1
        for _ in _levels(self.kids0, self.kids1, self.root):
            deepest += 1
        return deepest

    def structure_problems(self):
        """Violations of the machine's structural invariants, if any.

        Checks: every child slot holds a known state; every non-start state
        has exactly one incoming transition and all states are reachable
        from the start (trie shape); the longest accepted length is the
        depth of the deepest accepting state (0 if none is reachable); the
        accepting counter matches the marks; names are distinct and fresh
        names never collide with the counter. One transition per
        (state, symbol), symbols in the alphabet and no transition into the
        start state hold by the layout of the arrays.
        """
        kids0, kids1, root, marks = self.kids0, self.kids1, self.root, self.marks
        count = len(marks)
        if not (len(kids0) == len(kids1) == count
                and all(0 <= k < count for k in kids0)
                and all(0 <= k < count for k in kids1)):
            return ["child slots reference unknown states"]
        problems = self.name_problems()
        targets = [k for k in (*kids0, *kids1) if k != root]
        if len(set(targets)) != len(targets):
            problems.append("a state has more than one incoming transition")
        reached = 0
        deepest_accepting = 0
        for depth, level in enumerate(_levels(kids0, kids1, root)):
            reached += len(level)
            if any(marks[node] for node in level):
                deepest_accepting = depth
        if reached != count:
            problems.append(f"{count - reached} unreachable states")
        if self.max_accepted_length != deepest_accepting:
            problems.append(f"maxaccept {self.max_accepted_length} is not the "
                            f"deepest accepting depth {deepest_accepting}")
        if self.accepting_count != marks.count(1):
            problems.append(f"accepting count {self.accepting_count} is not "
                            f"the number of accepting states")
        return problems

    def name_problems(self):
        """Duplicate names, and names a fresh state would take again. Fresh
        names lie below the counter, so only kept names are checked."""
        named = self._named
        problems = []
        if len(set(named)) != len(named):
            problems.append("duplicate state names")
        counter = self.creation_counter
        for name in named:
            if name[:1] == "s" and name[1:].isdecimal() and int(name[1:]) >= counter:
                problems.append(f"creation counter {counter} "
                                f"would collide with existing {name}")
        return problems
