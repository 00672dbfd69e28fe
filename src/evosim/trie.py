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

`answer` checks the string's symbols, then makes that walk and growth
(`_walk_and_grow`) and gives (accepted, ticks); the evolving model's
acceptor asks `_walk_and_grow` itself, on every consultation, since the
string it asks about is binary by construction. `query` reads
`answer`: it takes the case from the answer, its ticks and the length of
the string, and walks the grown path to name what was added, reporting
it all as a `QueryOutcome`.

These rules only ever add structure, which is what makes every answer
permanent: once a string has been accepted or rejected, every future query
of it repeats the answer. The *order* of first-time queries, on the other
hand, decides which strings end up in the language at all.

Layout: flat arrays indexed by creation order, after the child arrays of
J. Aoe, "An efficient digital search algorithm by using a double-array
structure", IEEE TSE 15(9), 1989. State i is the i-th state created;
`kids0[i]` and `kids1[i]` (each an `array('i')`, 4 bytes a slot) hold its
children on 0 and on 1, and the `bytearray` `marks[i]` is 1 when it
accepts. A child slot that holds the start state's index (`root`, 0 unless
a decoded snapshot lists the start state elsewhere) is empty, since the
start state is never a child. About 9 bytes per state, against some 190
for name strings in a dict keyed by (name, symbol) tuples. A slot holds at
most 2^31 - 1, so a machine has fewer than 2^31 states; nothing checks
that bound. Such a machine's arrays alone would take some 19 GB, and a
snapshot naming that many states runs out of memory in its `splitlines`
and `split` long before a slot is written, so neither growth nor the
decoder can reach it on a desk machine. Names are mostly not stored: a
machine keeps the names of its first states, as a list with a dict from
name to index for O(1) lookups by name, and names the rest `s<counter>`,
computed from their index. With fresh names the start state `q0` is the
one kept name, in a list and dict that all such machines share; only a
decoded snapshot whose names follow another rule keeps its own.
The counters `state_count`, `transition_count` (a trie has one transition
per state but the start) and `accepting_count` are O(1).

Views: `states` (a sequence of names), `transitions` (a mapping
(source, symbol) -> target) and `accepting` (a set of names) read the
arrays by name, each with an O(1) `len`; they hold no copy.

Snapshots: `snapshot()` writes the machine as canonical 7-bit text, the
format of a `--state` world file, and `PartialDfa.from_snapshot(text)`
reads it back: it parses the text straight into a new machine's arrays,
and `structure_problems`, the one check of the trie shape, then judges
them. The format, like the layout it is read into, is known to this
module only. The text is for files: `copy()` makes an independent machine
equal to the one its snapshot decodes to by copying the arrays.

Stats: `stats()` measures a machine as a `MachineStats`, a frozen,
slotted dataclass, since the benchmark digests it with
`dataclasses.astuple`. Every figure is read in O(1), the depth too: the
trie never loses a state, and each chain that growth appends ends at the
mark of an accepted string, so the depth is the larger of the longest
accepted length and the depth the machine was decoded with, which the
decoder reads off the level walk of its shape check. `structure_problems`
compares the depth with that walk. The class is defined on first use, by
`stats()` or a lookup of the name (a PEP 562 module `__getattr__`), with
the module and qualified name it would have at module level. So a
one-shot CLI query, which never asks for stats, does not import
`dataclasses` and the `inspect`, `ast` and `dis` that it drags in, some
12-15 ms of a fresh process.

Instances are single-writer: queries must be serialized, and no view,
stat or snapshot may be read while a query runs; reading them on a
quiescent instance is safe. The arrays and counters are written only by
`_walk_and_grow`, which keeps the trie shape and which `answer` calls
after its symbol check, and filled once by
`from_snapshot`, which checks it and records the decoded depth, or by
`copy`, from arrays and a decoded depth of one of those two; everything
else, `query` included, only reads them. So a copy needs no check of its
own.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping, Sequence, Set
from itertools import chain, compress
from typing import NamedTuple

from .errors import InvalidSymbolError, SnapshotError, excerpt, summary

TRIE_ALPHABET = ("0", "1")
TRIE_START = "q0"
SNAPSHOT_HEADER = "PET1 v1"

# The kept names of a machine with fresh names: the start state's alone,
# the first name. Every such machine shares them; nothing writes them.
_FRESH_NAMED = [TRIE_START]
_FRESH_INDEX_OF = {TRIE_START: 0}


class QueryCase(enum.Enum):
    AT_ACCEPTING = "at-accepting"          # full read onto an accepting state
    NEAR_ACCEPTING = "near-accepting"      # full read, acceptance one hop away
    MARKED_ACCEPTING = "marked-accepting"  # full read onto a promoted dead end
    GREW_CHAIN = "grew-chain"              # stuck; suffix chain appended


class QueryOutcome(NamedTuple):
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


def __getattr__(name):
    # PEP 562: `MachineStats` is defined on first use (see the module
    # docstring); after that it is an ordinary module global.
    if name == "MachineStats":
        return _machine_stats()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _machine_stats():
    """The `MachineStats` class, defined on the first call: a frozen,
    slotted dataclass of a machine's measured figures."""
    defined = globals().get("MachineStats")
    if defined is not None:
        return defined
    from dataclasses import dataclass

    @dataclass(frozen=True, slots=True)
    class MachineStats:
        max_accepted_length: int
        depth: int
        state_count: int
        accepting_count: int

    # As if defined at module level: the repr and pickle read these.
    MachineStats.__qualname__ = "MachineStats"
    MachineStats.__module__ = __name__
    # setdefault: two first calls at once still agree on one class.
    return globals().setdefault("MachineStats", MachineStats)


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
        if isinstance(index, slice):
            return self._machine.names()[index]
        # One name, without building the list of all of them: the range
        # checks the index and counts a negative one from the end.
        return self._machine.name(range(len(self))[index])

    def __iter__(self):
        return iter(self._machine.names())

    # Membership, `index` and `count` by one name lookup, not the mixins'
    # scan of every name; a key that is not a name is absent.
    def __contains__(self, name):
        return self._machine.index(name) is not None

    def index(self, name, start=0, stop=None):
        """The position of `name`, as `list.index` gives it."""
        found = self._machine.index(name)
        if found is None or found not in range(len(self))[start:stop]:
            raise ValueError(f"{name!r} is not in the state names")
        return found

    def count(self, name):
        return int(name in self)

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
        try:
            source, symbol = key
        except (TypeError, ValueError):
            raise KeyError(key) from None
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


# The `array` constructor, bound by the first `int_array` call.
_array = None


def int_array(fill, count):
    """An `array('i')` of `count` copies of `fill`: 4-byte signed slots,
    which hold any state index (the module docstring gives the bound). The
    first call imports the array module and binds its constructor to a
    module global, so that a process that builds no trie (the stateless
    model only) does not map it, about 0.25 MB of RSS, and no later call
    pays for an import: every fresh trie calls this twice, and an import
    statement took about 1 us a call against a global read's 0.03 on
    CPython 3.11."""
    global _array
    if _array is None:
        from array import array as _array
    return _array("i", (fill,)) * count


def _levels(kids0, kids1, root):
    """The states reachable from `root`, one list per depth, in no set order
    within a level. A state reached twice is expanded once, so malformed
    arrays cannot loop."""
    seen = bytearray(len(kids0))
    seen[root] = 1
    level = [root]
    while level:
        yield level
        below = []
        for child in chain(map(kids0.__getitem__, level),
                           map(kids1.__getitem__, level)):
            if not seen[child]:
                seen[child] = 1
                below.append(child)
        level = below


def _value(numeral):
    """The value of a decimal numeral, or infinity for one with more digits
    after its leading zeros than `int` converts: past any counter, itself
    a numeral that `int` converted."""
    try:
        return int(numeral.lstrip("0") or "0")
    except ValueError:  # beyond sys.get_int_max_str_digits()
        return float("inf")


def _shown(name):
    """A name or numeral from snapshot text as a message shows it: short
    enough that three fit in one problem (see `evosim.errors.excerpt`)."""
    return excerpt(str(name), 15, str)


def _field(lines, index, key):
    if index >= len(lines):
        raise SnapshotError(f"missing '{key}:' line", index + 1)
    line = lines[index]
    if line != key + ":" and not line.startswith(key + ": "):
        raise SnapshotError(f"expected '{key}:' line, got {excerpt(line)}", index + 1)
    return line[len(key) + 1:].strip()


def _decimal(text, line_no):
    """The value of an ASCII decimal numeral, or SnapshotError at `line_no`,
    also for one with more digits than `int` converts."""
    if not (text.isascii() and text.isdigit()):
        raise SnapshotError(f"not an ASCII decimal numeral: {excerpt(text)}", line_no)
    try:
        return int(text)
    except ValueError:  # beyond sys.get_int_max_str_digits()
        raise SnapshotError(f"{len(text)}-digit numeral too long", line_no) from None


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
        self._named = _FRESH_NAMED  # names of the first states, kept
        self._index_of = _FRESH_INDEX_OF  # name -> index in `_named`
        self._shift = 0    # creation_counter minus state_count
        self.accepting_count = 0
        self.max_accepted_length = 0
        self._decoded_depth = 0  # the depth of the decoded trie, 0 if none

    @classmethod
    def from_snapshot(cls, text):
        """Rebuild a machine from snapshot text.

        Raises SnapshotError with a line number on malformed text, checked
        line by line: the header and fields, a `trans:` line that is not
        source, symbol and target, two transitions from one (state,
        symbol), `maxaccept` and `counter` values that are not ASCII
        decimal numerals, and content after `counter:`. Without
        a line number it reports names that do not resolve (duplicates, an
        unknown start, source, symbol or accepting state, a transition into
        an unknown state or the start state), and then whatever
        `structure_problems` finds in the filled arrays: the trie shape,
        `maxaccept` against the deepest accepting state, and a creation
        counter that would collide with existing state names. The
        transitions go straight into the new machine's child arrays, in
        whatever order the text lists them. The deepest level of the shape
        check's walk is the machine's decoded depth.
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
                        f"two transitions from ({_shown(src)},{_shown(symbol)})",
                        index + 1)
                unslotted.add((src, symbol))
                problems.append(f"transition {_shown(src)}-{_shown(symbol)}->"
                                f"{_shown(dst)} has an "
                                f"unknown state or a symbol outside the "
                                f"alphabet")
                continue
            if kids[parent] != root:
                raise SnapshotError(
                    f"two transitions from ({_shown(src)},{_shown(symbol)})",
                    index + 1)
            if child is None or child == root:
                kids[parent] = -1  # taken: a repeat of the key is a duplicate
                problems.append(f"transition {_shown(src)}-{_shown(symbol)}->"
                                f"{_shown(dst)} enters "
                                f"the start state or an unknown state")
                continue
            kids[parent] = child
        else:
            index = len(lines)

        maxaccept_field = _field(lines, index, "maxaccept")
        counter_field = _field(lines, index + 1, "counter")
        maxaccept = _decimal(maxaccept_field, index + 1)
        counter = _decimal(counter_field, index + 2)
        if index + 2 != len(lines):
            raise SnapshotError("trailing content after 'counter:'", index + 3)

        machine.marks = marks = bytearray(count)
        for name in accept_field.split():
            state = get(name)
            if state is None:
                problems.append(f"accepting state {_shown(name)} unknown")
            else:
                marks[state] = 1
        fresh = (counter == count
                 and names == [TRIE_START, *[f"s{i}" for i in range(1, count)]])
        machine._named = _FRESH_NAMED if fresh else names
        machine._index_of = _FRESH_INDEX_OF if fresh else index_of
        machine._shift = counter - count
        machine.accepting_count = marks.count(1)
        machine.max_accepted_length = maxaccept
        if not problems:
            problems, machine._decoded_depth = machine._shape_problems()
        if problems:
            raise SnapshotError(summary(problems))
        return machine

    def copy(self):
        """An independent machine equal to `from_snapshot(self.snapshot())`,
        made without the text: the arrays are copied by slice, the counters
        and the decoded depth by value, and the kept names, which nothing
        writes after `from_snapshot` fills them, are shared. It is not
        checked again (the module docstring says why)."""
        twin = PartialDfa.__new__(PartialDfa)
        twin.kids0 = self.kids0[:]
        twin.kids1 = self.kids1[:]
        twin.marks = self.marks[:]
        twin.root = self.root
        twin._named = self._named
        twin._index_of = self._index_of
        twin._shift = self._shift
        twin.accepting_count = self.accepting_count
        twin.max_accepted_length = self.max_accepted_length
        twin._decoded_depth = self._decoded_depth
        return twin

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
        return f"s{index + self._shift}"

    def names(self):
        """Every state name, in creation order, as a new list."""
        named = self._named
        shift = self._shift
        return named + [f"s{i}" for i in range(len(named) + shift,
                                               len(self.marks) + shift)]

    def index(self, name):
        """The creation index of the state named `name`, or None (also for
        a `name` that is not a string, hashable or not)."""
        if not isinstance(name, str):
            return None
        index = self._index_of.get(name)
        if index is not None:
            return index
        if name[:1] == "s" and name[1:].isdecimal():
            index = int(name[1:]) - self._shift
            if (len(self._named) <= index < len(self.marks)
                    and self.name(index) == name):
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
        """Answer a membership query, growing the machine as needed, as
        `answer` does; the report of what it answered and added, as a
        `QueryOutcome`, read off the grown machine."""
        accepted, ticks = self.answer(text)
        # The case follows from the answer, its ticks and the length.
        length = len(text)
        if not accepted or ticks == length:
            case = QueryCase.AT_ACCEPTING if accepted else QueryCase.NEAR_ACCEPTING
            return QueryOutcome(accepted, case, (), (), (), ticks)
        # A mark (ticks length + 1) or a grown chain: the path of `text` is
        # complete now, and its states after the first `read` symbols are new.
        read = 2 * length + 1 - ticks
        kids0, kids1 = self.kids0, self.kids1
        node = self.root
        for symbol in text[:read]:
            node = (kids1 if symbol == "1" else kids0)[node]
        new_states, new_transitions = [], []
        source = self.name(node)
        for symbol in text[read:]:
            node = (kids1 if symbol == "1" else kids0)[node]
            name = self.name(node)
            new_states.append(name)
            new_transitions.append((source, symbol, name))
            source = name
        case = QueryCase.MARKED_ACCEPTING if read == length else QueryCase.GREW_CHAIN
        return QueryOutcome(True, case, tuple(new_states),
                            tuple(new_transitions), (source,), ticks)

    def answer(self, text):
        """Answer a membership query, growing the machine as needed:
        (accepted, ticks). InvalidSymbolError for a symbol outside the
        alphabet; `_walk_and_grow` does the rest, and `query` reports what
        it did."""
        if text.strip("01"):
            bad = sorted(set(text) - set(TRIE_ALPHABET))
            raise InvalidSymbolError(f"query contains {bad!r}; allowed: 0, 1")
        return self._walk_and_grow(text)

    def _walk_and_grow(self, text):
        """`answer` on a binary string, unchecked: the one writer of a built
        machine. It reads every symbol but "1" as "0", so a caller other
        than `answer` passes only text that is binary by construction, as
        the evolving acceptor does with a tape's content. Both accepting
        paths that grow the machine, a promoted dead end and a new chain,
        end at one mark."""
        kids0, kids1 = self.kids0, self.kids1
        node = root = self.root
        read = 0
        for symbol in text:
            child = (kids1 if symbol == "1" else kids0)[node]
            if child == root:
                break
            node = child
            read += 1

        marks = self.marks
        length = len(text)
        if read == length:
            if marks[node]:
                return True, read
            zero = kids0[node]
            one = kids1[node]
            if (zero != root and marks[zero]) or (one != root and marks[one]):
                return False, read
            ticks = read + 1
        else:
            fresh = len(marks)
            for symbol in text[read:]:
                (kids1 if symbol == "1" else kids0)[node] = fresh
                kids0.append(root)
                kids1.append(root)
                marks.append(0)
                node = fresh
                fresh += 1
            # One tick per symbol read, two per state added (the state and
            # its transition) and one for the mark.
            ticks = 2 * length - read + 1
        marks[node] = 1
        self.accepting_count += 1
        if length > self.max_accepted_length:
            self.max_accepted_length = length
        return True, ticks

    def stats(self):
        """Measured figures, each read in O(1), the depth as `depth()`
        gives it."""
        return _machine_stats()(
            max_accepted_length=self.max_accepted_length,
            depth=self.depth(),
            state_count=self.state_count,
            accepting_count=self.accepting_count,
        )

    def depth(self):
        """Length of the longest transition path from the start state, in
        O(1): the larger of the longest accepted length and the decoded
        depth. Growth deepens the trie only along a chain that ends at the
        mark of the string it spells, whose length it counts as accepted
        (the module docstring says why this holds)."""
        return max(self._decoded_depth, self.max_accepted_length)

    def structure_problems(self):
        """Violations of the machine's structural invariants, if any.

        Checks: every child slot holds a known state; the machine is a trie,
        rooted at the start state; the longest accepted length is the depth
        of the deepest accepting state (0 if none is reachable); `depth()`
        is the deepest level of the walk; the accepting counter matches the
        marks; names are distinct and fresh names never collide with the
        counter. One transition per (state, symbol), symbols in the
        alphabet and no transition into the start state hold by the layout
        of the arrays.

        The trie shape is checked as a count and a walk. A slot that holds
        the start state is empty, so every transition enters one of the
        other count - 1 states. If there are exactly count - 1 transitions
        and the walk from the start reaches every state, each of those
        states has at least one incoming transition, so by pigeonhole
        exactly one: every state but the start has one parent, and since
        each is reached from the start, none lies on a cycle.
        """
        problems, deepest = self._shape_problems()
        if deepest is not None and self.depth() != deepest:
            problems.append(f"depth {_shown(self.depth())} is not the deepest "
                            f"level {deepest} of the walk")
        return problems

    def _shape_problems(self):
        """Every problem `structure_problems` names but the depth, and the
        deepest level of its walk (None where the slots cannot be walked):
        the decoder records that level as the decoded depth, so it makes
        one walk and checks the depth by construction."""
        kids0, kids1, root, marks = self.kids0, self.kids1, self.root, self.marks
        count = len(marks)
        if not (len(kids0) == len(kids1) == count
                and min(kids0) >= 0 and min(kids1) >= 0
                and max(kids0) < count and max(kids1) < count):
            return ["child slots reference unknown states"], None
        problems = []
        edges = 2 * count - kids0.count(root) - kids1.count(root)
        if edges != count - 1:
            problems.append(f"{edges} transitions for {count} states, "
                            f"where a trie has {count - 1}")
        reached = deepest_accepting = 0
        # The walk always yields the start's level, so `deepest` is bound.
        for deepest, level in enumerate(_levels(kids0, kids1, root)):
            reached += len(level)
            if any(map(marks.__getitem__, level)):
                deepest_accepting = deepest
        if reached != count:
            problems.append(f"{count - reached} unreachable states")
        if self.max_accepted_length != deepest_accepting:
            problems.append(f"maxaccept {_shown(self.max_accepted_length)} is "
                            f"not the deepest accepting depth {deepest_accepting}")
        if self.accepting_count != marks.count(1):
            problems.append(f"accepting count {self.accepting_count} is not "
                            f"the number of accepting states")
        # Fresh names lie below the counter, so only kept names can collide.
        named = self._named
        if len(set(named)) != len(named):
            problems.append("duplicate state names")
        counter = self.creation_counter
        for name in named:
            if name[:1] == "s" and name[1:].isdecimal() and _value(name[1:]) >= counter:
                problems.append(f"creation counter {_shown(counter)} "
                                f"would collide with existing {_shown(name)}")
        return problems, deepest
