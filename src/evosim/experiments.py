"""Desk-scale experiments on the evolving model.

Everything here is reproducible: candidate orders are fixed (lexicographic),
engines are owned exclusively by the experiment that mutates them, and
control/treatment comparisons fork the world (`engine.fork`, a copy of the
trie's arrays equal to decoding its snapshot) instead of sharing a live
engine.

`saturate` and `sibling_search` make one run per string of a length and
read only their verdicts, so they call the run loop itself,
`evosim.tape.walk`, in place of `run`, and hand it no list to record the
applied instructions in: the same acceptor calls in the same order,
without the record of steps or the report that `run` builds around it
(`RunResult`, `CostMeter`, the tuple of applied instructions and the final
string). `_runs` reads the model's tape question, `accept_tape`, once per
pass and maps `walk` over the start tapes of the strings, built in C from
the bits of `itertools.product`: no string is joined, checked or encoded,
and `sibling_search` renders only its witness, from its index
(`_binary_string`). Everything else here calls `run`.

A saturation pass keeps one verdict code per run, and `Answers` is the one
read-only view over such codes: it renders each entry on access, as a
(text, verdict value) pair in a `SaturationReport`, and as a transcript
line for a scenario's `saturate` (`evosim.scenario`).

A traced run (`run_traced`) collects the model's raw ring entries for one
run, (tape bytes, text, answer, ticks) each, and renders them with
`evosim.engine.render_record`. It is shown here too, beside its
`TraceRecord`: `trace_line` summarizes it, for `evosim trace` and a
scenario's `trace on`, and `show_config` renders each halting
configuration that `evosim trace` lists.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Sequence
from typing import NamedTuple

from .engine import EvolvingModel, encode_snapshot, render_record
# right_scanner lives beside Procedure, so that the CLI builds its default
# procedure without this module; it is re-exported here, unchanged.
from .runner import DEFAULT_BUDGET, Verdict, answer_word, right_scanner, run
from .tape import BLANK, START_STATE, walk


def binary_strings(length):
    """All binary strings of the given length, lexicographically, as an
    iterator (a `map` that joins each in C)."""
    return map("".join, itertools.product("01", repeat=length))


def _binary_string(index, length):
    """The `index`-th string of `binary_strings(length)`: `index` as a
    binary numeral of `length` digits, zero-padded, that is the bits after
    a leading 1 placed just above them ("" when length is 0)."""
    return bin(index | 1 << length)[3:]


class StructureDelta(NamedTuple):
    """How much an experiment grew the embedded trie."""

    states: int
    transitions: int
    accepting: int

    @property
    def empty(self):
        return self.states == 0 and self.transitions == 0 and self.accepting == 0

    def __str__(self):
        return (f"states +{self.states}, transitions +{self.transitions}, "
                f"accepting +{self.accepting}")


def _counts(model):
    trie = model.trie
    return (trie.state_count, trie.transition_count, trie.accepting_count)


def _delta(before, after):
    return StructureDelta(*(a - b for b, a in zip(before, after)))


_VERDICT_VALUE = tuple(verdict.value for verdict in Verdict)


def _pair(text, code):
    return text, _VERDICT_VALUE[code]


class Answers(Sequence):
    """The answers of one saturation pass, read-only and rendered on access
    from one verdict code per run (`codes`): the fixed entries of `head`,
    then `render(text, code)` for the i-th string of
    `binary_strings(length)` and its code, by default the pair (text,
    verdict value). Equal to a list or tuple of the same entries; a slice
    is a list of its entries."""

    __slots__ = ("_length", "_codes", "_render", "_head")

    def __init__(self, length, codes, render=_pair, head=()):
        self._length = length
        self._codes = codes
        self._render = render
        self._head = head

    @property
    def codes(self):
        """The verdict codes as `bytes`, one per run in `binary_strings`
        order: the index of the run's verdict in `Verdict`."""
        return self._codes

    def __len__(self):
        return len(self._head) + len(self._codes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        index = operator.index(index)
        # The index into the codes: a negative one counts from their end.
        # Below 0 is a head entry, read from the head's end, or out of range.
        index = index + len(self._codes) if index < 0 else index - len(self._head)
        if index < 0:
            return self._head[index]
        return self._render(_binary_string(index, self._length), self._codes[index])

    def __iter__(self):
        return itertools.chain(self._head, map(
            self._render, binary_strings(self._length), self._codes))

    def __eq__(self, other):
        if isinstance(other, (Answers, list, tuple)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    def __repr__(self):
        return f"{type(self).__name__}({list(self)!r})"


class SaturationReport(NamedTuple):
    probe_length: int
    precondition_ok: bool
    fed: int
    feed_answers: Answers
    probe_answers: Answers


def _runs(model, procedure, length, budget):
    """The verdict codes of the procedure on every string of the given
    length (the index of each verdict in `Verdict`), lazily, in
    `binary_strings` order: `walk` mapped over their start tapes, each the
    origin blank and the string's cell codes, built in C as `start_tape`
    builds it from the string. A budget that is not an integer is a
    TypeError, and one below 1 a ValueError, before any run."""
    if operator.index(budget) < 1:
        raise ValueError("budget must be at least 1")
    tapes = map(bytearray, map((0,).__add__, itertools.product(b"01", repeat=length)))
    return map(walk, itertools.repeat(procedure._steps), tapes, itertools.repeat(0),
               itertools.repeat(START_STATE), itertools.repeat(budget),
               itertools.repeat(None), itertools.repeat(model.accept_tape))


def _verdicts(model, procedure, length, budget):
    """Run the procedure on every string of the given length, in
    `binary_strings` order; their answers."""
    return Answers(length, bytes(_runs(model, procedure, length, budget)))


def saturate(model, probe_length, procedure=None, budget=DEFAULT_BUDGET):
    """Feed every string one symbol longer than the probes, then probe.

    Runs the procedure (default: the right scanner) on all 2^(n+1) strings
    of length n+1 in lexicographic order, then on all 2^n strings of length
    n, recording every verdict. On a fresh engine the feeding pass grows a
    full trie of depth n+1, after which every probe stops one step below an
    accepting chain end and is rejected, permanently.

    The report keeps one byte per run: its answers are `Answers` views, in
    which a run's text is computed from its index. A negative probe length
    is a ValueError, raised before any run.
    """
    if probe_length < 0:
        raise ValueError(f"probe length must be at least 0, not {probe_length}")
    procedure = procedure if procedure is not None else right_scanner()
    precondition_ok = model.trie.depth() <= probe_length
    feed_answers = _verdicts(model, procedure, probe_length + 1, budget)
    probe_answers = _verdicts(model, procedure, probe_length, budget)
    return SaturationReport(
        probe_length=probe_length,
        precondition_ok=precondition_ok,
        fed=len(feed_answers),
        feed_answers=feed_answers,
        probe_answers=probe_answers,
    )


class SiblingSearchResult(NamedTuple):
    found: bool
    queries_used: int
    witness: str | None
    delta: StructureDelta


SIBLING_LENGTH_LIMIT = 20


def sibling_search(model, text, procedure=None, budget=DEFAULT_BUDGET):
    """Brute-force search for an accepted string of the same length.

    Decides "does some string of length len(text) belong to the language?"
    by running the procedure on candidates in lexicographic order and
    short-circuiting on the first acceptance. Under the evolving model the
    search itself perturbs the language it examines; the returned delta
    summarizes that perturbation.
    """
    if len(text) > SIBLING_LENGTH_LIMIT:
        raise ValueError(
            f"sibling search is desk-scale only (length <= {SIBLING_LENGTH_LIMIT})")
    procedure = procedure if procedure is not None else right_scanner()
    before = _counts(model)
    length = len(text)
    for used, code in enumerate(_runs(model, procedure, length, budget), 1):
        if not code:  # accepted
            return SiblingSearchResult(True, used, _binary_string(used - 1, length),
                                       _delta(before, _counts(model)))
    return SiblingSearchResult(False, 1 << length, None,
                               _delta(before, _counts(model)))


class TraceRecord(NamedTuple):
    """Per-run bookkeeping of the acceptor's trie consultations.

    `halting_configs` are the configurations on which the trie ran;
    `fed_strings` the strings it was fed; the last two fields slice those
    strings to the lengths len(input) and len(input)+2. All four keep
    first-seen order and are duplicate-free.
    """

    halting_configs: tuple
    fed_strings: tuple
    same_length: tuple
    longer_by_two: tuple


def run_traced(model, procedure, text, budget=DEFAULT_BUDGET):
    """Run under the evolving model while capturing its trie consultations.

    The run's raw consultations go to a list of their own, swapped in for
    the model's bounded `ring` for the length of the run, so the trace
    holds every consultation however many there are. The ring is then
    restored and extended with them, as if the run had been untraced, and
    the trace renders them (`render_record`).
    """
    ring = model.ring
    entries = model.ring = []
    try:
        result = run(model, procedure, text, budget)
    finally:
        model.ring = ring
        ring.extend(entries)
    records = list(map(render_record, entries))
    configs = tuple(dict.fromkeys(r.config for r in records))
    fed = tuple(dict.fromkeys(r.text for r in records))
    trace = TraceRecord(
        halting_configs=configs,
        fed_strings=fed,
        same_length=tuple(x for x in fed if len(x) == len(text)),
        longer_by_two=tuple(x for x in fed if len(x) == len(text) + 2),
    )
    return result, trace


def show_config(config):
    left = config.left.replace(BLANK, "_")
    head = config.head.replace(BLANK, "_")
    right = config.right.replace(BLANK, "_")
    return f"({config.state}, {left}[{head}]{right})"


def trace_line(trace):
    """One-line summary of a traced run's trie consultations."""
    # The record's string fields: fed_strings, same_length, longer_by_two.
    fed, same, longer = (", ".join(sorted(strings)) for strings in trace[1:])
    return (f"trace: halts {len(trace.halting_configs)}, fed [{fed}], "
            f"same-length [{same}], longer-by-two [{longer}]")


def order_demo():
    """Two fresh engines, same two inputs, opposite orders, different
    languages. Returns a deterministic transcript of the divergence."""
    procedure = right_scanner()
    first = EvolvingModel()
    a1 = answer_word(run(first, procedure, "101").verdict)
    a2 = answer_word(run(first, procedure, "10").verdict)
    second = EvolvingModel()
    b1 = answer_word(run(second, procedure, "10").verdict)
    b2 = answer_word(run(second, procedure, "101").verdict)
    accepting_a = first.trie.accepting_in_creation_order()
    accepting_b = second.trie.accepting_in_creation_order()
    same = encode_snapshot(first) == encode_snapshot(second)
    lines = [
        "order demo: one procedure, two query orders",
        f"engine A: 101 -> {a1}, then 10 -> {a2}",
        f"engine B: 10 -> {b1}, then 101 -> {b2}",
        f"divergence on 10: A says {a2}, B says {b1}",
        (f"final structures: A states {len(first.trie.states)} "
         f"accepting [{' '.join(accepting_a)}]; "
         f"B states {len(second.trie.states)} "
         f"accepting [{' '.join(accepting_b)}]"),
        f"structures equal: {'yes' if same else 'no'}",
    ]
    return "\n".join(lines) + "\n"


__all__ = [
    "right_scanner", "binary_strings", "StructureDelta", "SaturationReport",
    "saturate", "SiblingSearchResult", "sibling_search", "TraceRecord",
    "run_traced", "order_demo",
]
