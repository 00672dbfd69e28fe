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

Instances are single-writer: queries must be serialized; reading stats on
a quiescent instance is safe.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import InvalidSymbolError

TRIE_ALPHABET = ("0", "1")
TRIE_START = "q0"


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


class PartialDfa:
    """The growing trie acceptor.

    `states` is kept in creation order and fresh states are named s1, s2, …
    from `creation_counter`, so identical query histories produce identical
    machines, state names included.
    """

    def __init__(self):
        self.states = [TRIE_START]
        self.start = TRIE_START
        self.transitions = {}
        self.accepting = set()
        self.max_accepted_length = 0
        self.creation_counter = 1

    @classmethod
    def from_parts(cls, states, start, transitions, accepting,
                   max_accepted_length, creation_counter):
        """Rebuild a machine from snapshot data; validates the invariants."""
        machine = cls.__new__(cls)
        machine.states = list(states)
        machine.start = start
        machine.transitions = dict(transitions)
        machine.accepting = set(accepting)
        machine.max_accepted_length = max_accepted_length
        machine.creation_counter = creation_counter
        problems = machine.structure_problems()
        if problems:
            raise ValueError("; ".join(problems))
        return machine

    def _fresh_state(self):
        name = f"s{self.creation_counter}"
        self.creation_counter += 1
        self.states.append(name)
        return name

    def query(self, text):
        """Answer a membership query, growing the machine as needed."""
        bad = sorted(set(text) - set(TRIE_ALPHABET))
        if bad:
            raise InvalidSymbolError(f"query contains {bad!r}; allowed: 0, 1")
        current = self.start
        read = 0
        for symbol in text:
            target = self.transitions.get((current, symbol))
            if target is None:
                break
            current = target
            read += 1

        if read == len(text):
            if current in self.accepting:
                return QueryOutcome(True, QueryCase.AT_ACCEPTING,
                                    (), (), (), read)
            if any(self.transitions.get((current, a)) in self.accepting
                   for a in TRIE_ALPHABET):
                return QueryOutcome(False, QueryCase.NEAR_ACCEPTING,
                                    (), (), (), read)
            self.accepting.add(current)
            self.max_accepted_length = max(self.max_accepted_length, len(text))
            return QueryOutcome(True, QueryCase.MARKED_ACCEPTING,
                                (), (), (current,), read + 1)

        new_states = []
        new_transitions = []
        for symbol in text[read:]:
            fresh = self._fresh_state()
            self.transitions[(current, symbol)] = fresh
            new_states.append(fresh)
            new_transitions.append((current, symbol, fresh))
            current = fresh
        self.accepting.add(current)
        self.max_accepted_length = max(self.max_accepted_length, len(text))
        ticks = read + 2 * len(new_states) + 1
        return QueryOutcome(True, QueryCase.GREW_CHAIN,
                            tuple(new_states), tuple(new_transitions),
                            (current,), ticks)

    def stats(self):
        """Measured figures: the depth is recomputed by traversal, not read
        off a counter."""
        return MachineStats(
            max_accepted_length=self.max_accepted_length,
            depth=self.depth(),
            state_count=len(self.states),
            accepting_count=len(self.accepting),
        )

    def depth(self):
        """Length of the longest transition path from the start state."""
        children = {}
        for (src, _), dst in self.transitions.items():
            children.setdefault(src, []).append(dst)
        deepest = 0
        stack = [(self.start, 0)]
        while stack:
            state, d = stack.pop()
            deepest = max(deepest, d)
            for child in children.get(state, ()):
                stack.append((child, d + 1))
        return deepest

    def accepting_in_creation_order(self):
        return [s for s in self.states if s in self.accepting]

    def structure_problems(self):
        """Violations of the machine's structural invariants, if any.

        Checks: one transition per (state, symbol); transitions reference
        known states; every non-start state has exactly one incoming
        transition and all states are reachable from the start (trie shape);
        accepting states exist; the longest accepted length is the depth of
        the deepest accepting state (0 if none is reachable); fresh names
        never collide with the counter.
        """
        problems = []
        known = set(self.states)
        if len(known) != len(self.states):
            problems.append("duplicate state names")
        if self.start not in known:
            problems.append("start state unknown")
        incoming = {s: 0 for s in self.states}
        for (src, symbol), dst in self.transitions.items():
            if symbol not in TRIE_ALPHABET:
                problems.append(f"transition symbol {symbol!r} outside alphabet")
            if src not in known or dst not in known:
                problems.append(f"transition {src}-{symbol}->{dst} references unknown state")
            elif dst == self.start:
                problems.append("start state has an incoming transition")
            else:
                incoming[dst] += 1
        for state, count in incoming.items():
            if state != self.start and count != 1:
                problems.append(f"state {state} has {count} incoming transitions")
        reachable = {self.start} if self.start in known else set()
        deepest_accepting = 0
        stack = [(self.start, 0)]
        while stack:
            state, depth = stack.pop()
            if state in self.accepting:
                deepest_accepting = max(deepest_accepting, depth)
            for symbol in TRIE_ALPHABET:
                dst = self.transitions.get((state, symbol))
                if dst is not None and dst in known and dst not in reachable:
                    reachable.add(dst)
                    stack.append((dst, depth + 1))
        if known - reachable:
            problems.append(f"unreachable states: {sorted(known - reachable)}")
        if self.max_accepted_length != deepest_accepting:
            problems.append(f"maxaccept {self.max_accepted_length} is not the "
                            f"deepest accepting depth {deepest_accepting}")
        for extra in self.accepting - known:
            problems.append(f"accepting state {extra} unknown")
        for state in known:
            if state.startswith("s") and state[1:].isdigit():
                if int(state[1:]) >= self.creation_counter:
                    problems.append(f"creation counter {self.creation_counter} "
                                    f"would collide with existing {state}")
        return problems

