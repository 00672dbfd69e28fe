"""Desk-scale experiments on the evolving model.

Everything here is reproducible: candidate orders are fixed (lexicographic),
engines are owned exclusively by the experiment that mutates them, and
control/treatment comparisons fork the world by snapshot instead of sharing
a live engine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .engine import EvolvingModel, encode_snapshot
# right_scanner lives beside Procedure, so that the CLI builds its default
# procedure without this module; it is re-exported here, unchanged.
from .runner import DEFAULT_BUDGET, Verdict, answer_word, right_scanner, run


def binary_strings(length):
    """All binary strings of the given length, lexicographically."""
    for bits in itertools.product("01", repeat=length):
        yield "".join(bits)


@dataclass(frozen=True, slots=True)
class StructureDelta:
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


@dataclass(frozen=True, slots=True)
class SaturationReport:
    probe_length: int
    precondition_ok: bool
    fed: int
    feed_answers: tuple
    probe_answers: tuple


def saturate(model, probe_length, procedure=None, budget=DEFAULT_BUDGET):
    """Feed every string one symbol longer than the probes, then probe.

    Runs the procedure (default: the right scanner) on all 2^(n+1) strings
    of length n+1 in lexicographic order, then on all 2^n strings of length
    n, recording every verdict. On a fresh engine the feeding pass grows a
    full trie of depth n+1, after which every probe stops one step below an
    accepting chain end and is rejected, permanently.
    """
    procedure = procedure if procedure is not None else right_scanner()
    precondition_ok = model.trie.depth() <= probe_length
    feed_answers = []
    for text in binary_strings(probe_length + 1):
        result = run(model, procedure, text, budget)
        feed_answers.append((text, result.verdict.value))
    probe_answers = []
    for text in binary_strings(probe_length):
        result = run(model, procedure, text, budget)
        probe_answers.append((text, result.verdict.value))
    return SaturationReport(
        probe_length=probe_length,
        precondition_ok=precondition_ok,
        fed=len(feed_answers),
        feed_answers=tuple(feed_answers),
        probe_answers=tuple(probe_answers),
    )


@dataclass(frozen=True, slots=True)
class SiblingSearchResult:
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
    used = 0
    for candidate in binary_strings(len(text)):
        used += 1
        result = run(model, procedure, candidate, budget)
        if result.verdict is Verdict.ACCEPTED:
            return SiblingSearchResult(True, used, candidate,
                                       _delta(before, _counts(model)))
    return SiblingSearchResult(False, used, None,
                               _delta(before, _counts(model)))


@dataclass(frozen=True, slots=True)
class TraceRecord:
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
    """Run under the evolving model while capturing its trie consultations."""
    mark = len(model.invocation_log)
    result = run(model, procedure, text, budget)
    records = model.invocation_log[mark:]
    configs = tuple(dict.fromkeys(r.config for r in records))
    fed = tuple(dict.fromkeys(r.text for r in records))
    trace = TraceRecord(
        halting_configs=configs,
        fed_strings=fed,
        same_length=tuple(x for x in fed if len(x) == len(text)),
        longer_by_two=tuple(x for x in fed if len(x) == len(text) + 2),
    )
    return result, trace


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
