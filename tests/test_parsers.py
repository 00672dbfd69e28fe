"""Text parsers on mutated corpus text: only package errors escape."""

import argparse
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evosim import (
    BLANK,
    EvolvingModel,
    EvosimError,
    decode_snapshot,
    encode_snapshot,
    parse_procedure,
    right_scanner,
    run,
    saturate,
)
from evosim.cli import _positive_int
from evosim.scenario import parse_scenario

ROOT = Path(__file__).resolve().parent.parent


def _worlds():
    fresh = EvolvingModel()
    ordered = EvolvingModel()
    for text in ("101", "10", "0110"):
        run(ordered, right_scanner(), text)
    saturated = EvolvingModel()
    saturate(saturated, 3)
    return fresh, ordered, saturated


# Each parser with its corpus texts: every shipped procedure and scenario,
# and the snapshots of a fresh, a queried and a saturated world.
CORPUS = {
    "procedure": (parse_procedure, [
        p.read_text(encoding="utf-8")
        for p in sorted((ROOT / "machines").glob("*.proc"))]),
    "scenario": (parse_scenario, [
        p.read_text(encoding="utf-8")
        for p in sorted((ROOT / "scenarios").glob("*.scn"))]),
    "snapshot": (decode_snapshot, [encode_snapshot(w) for w in _worlds()]),
}

# Pieces an edit puts in: the grammars' own tokens, values out of range or
# of the wrong kind, a numeral of more digits than `int` converts, a word
# far longer than any message should echo, non-ASCII digits, odd whitespace
# and control characters, and free text.
TOKENS = ("", "0", "1", "_", BLANK, "x", "q0", "h", "s1", "(q0,_)", "(h,_,R)",
          "->", "#", ":", "\r", "\t", "\x00", "-1", "1.5", "99999999999",
          "9" * 4301, "x" * 100_000,
          "\u00b2", "\u0663", "PET1 v1", "trans:", "states:", "accept:",
          "saturate", "brute", "expect", "snapshot", "load", "model", "e")
pieces = st.one_of(st.sampled_from(TOKENS), st.text(max_size=3))
KINDS = ("replace", "append", "insert", "delete", "splice", "copy-line",
         "drop-line")
# Offsets are bounded so that they spread over the lines and words instead
# of piling up on the first ones.
offsets = st.integers(min_value=0, max_value=10_000)
edits = st.lists(st.tuples(st.sampled_from(KINDS), offsets, offsets, pieces),
                 min_size=1, max_size=3)


# The longest message a parser may give.
MESSAGE_LIMIT = 200

# Words are what lies between these: whitespace and the grammars'
# punctuation, so that `(h,_,R)` has the words h, _ and R.
SEPARATORS = re.compile(r"([\s(),:#>-]+)")


def mutate(text, edit_list):
    """Apply line- and word-level edits: word `word` of line `line`, both
    taken modulo the counts, is replaced, extended, preceded or dropped;
    `splice` puts the piece in place of one character instead."""
    lines = text.split("\n")
    for kind, line, word, piece in edit_list:
        row = line % len(lines)
        if kind == "copy-line":
            lines.insert(row, lines[row])
            continue
        if kind == "drop-line":
            if len(lines) > 1:
                del lines[row]
            continue
        if kind == "splice":
            at = word % (len(lines[row]) + 1)
            lines[row] = lines[row][:at] + piece + lines[row][at + 1:]
            continue
        parts = SEPARATORS.split(lines[row])  # words at the even indices
        at = 2 * (word % ((len(parts) + 1) // 2))
        if kind == "replace":
            parts[at] = piece
        elif kind == "append":
            parts[at] += piece
        elif kind == "insert":
            parts[at] = piece + " " + parts[at]
        else:
            parts[at] = ""
        lines[row] = "".join(parts)
    return "\n".join(lines)


@pytest.mark.parametrize("name", sorted(CORPUS))
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(offsets, edits)
def test_only_package_errors_escape_the_parsers(name, which, edit_list):
    parser, texts = CORPUS[name]
    try:
        parser(mutate(texts[which % len(texts)], edit_list))
    except EvosimError as error:
        # A message names what is wrong; it does not echo a whole input.
        assert len(str(error)) <= MESSAGE_LIMIT, str(error)[:300]


LONG = "x" * 100_000
HEAD = "PET1 v1\nstates: q0 s1\nstart: q0\n"


def _snapshot_message(text):
    with pytest.raises(EvosimError) as caught:
        decode_snapshot(text)
    return str(caught.value)


def _scenario_message(text):
    with pytest.raises(EvosimError) as caught:
        parse_scenario(text)
    return str(caught.value)


def _procedure_message(text):
    with pytest.raises(EvosimError) as caught:
        parse_procedure(text)
    return str(caught.value)


def _budget_message(text):
    with pytest.raises(argparse.ArgumentTypeError) as caught:
        _positive_int(text)
    return str(caught.value)


@pytest.mark.parametrize("message, text", [
    (_snapshot_message, "PET1 v1\n" + LONG + "\n"),
    (_snapshot_message, HEAD + "accept:\nmaxaccept: 0\ncounter: " + LONG + "\n"),
    (_snapshot_message, HEAD + "accept: " + LONG + "\nmaxaccept: 0\ncounter: 2\n"),
    (_snapshot_message, HEAD + f"accept:\ntrans: {LONG} {LONG} {LONG}\n"
                               "maxaccept: 0\ncounter: 2\n"),
    (_snapshot_message, HEAD + f"accept:\ntrans: {LONG} 1 s1\ntrans: {LONG} 1 s1\n"
                               "maxaccept: 0\ncounter: 2\n"),
    (_scenario_message, LONG),
    (_scenario_message, "model e\nsnapshot save " + LONG + "!"),
    (_scenario_message, "query 2" + LONG),
    (_procedure_message, LONG),
    (_budget_message, LONG),
])
def test_a_message_names_a_long_input_by_an_excerpt(message, text):
    shown = message(text)
    assert len(shown) <= MESSAGE_LIMIT
    assert " characters)" in shown


@pytest.mark.parametrize("message, text, expected", [
    (_snapshot_message, HEAD + "accept: zz\nmaxaccept: 0\ncounter: 2\n",
     "accepting state zz unknown"),
    (_snapshot_message, HEAD + "accept:\ntrans: q0 1 zz\nmaxaccept: 0\ncounter: 2\n",
     "transition q0-1->zz enters the start state or an unknown state"),
    (_snapshot_message, HEAD + "accept:\nmaxaccept: 0\ncounter: 2x\n",
     "line 6: not an ASCII decimal numeral: '2x'"),
    (_scenario_message, "frob", "line 1: unknown command 'frob'"),
    (_scenario_message, "query 12", "line 1: query argument must be a binary "
                                    "string, got '12'"),
    (_procedure_message, "(q0,_) -> h", "line 1: expected '(<state>,<sym>) -> "
                                        "(<state>,<sym>,<L|R>)', got '(q0,_) -> h'"),
    (_budget_message, "-3", "expected a positive integer, got '-3'"),
    (_procedure_message, "(h,1) -> (h,1,R)\n(h,1) -> (h,0,L)\n"
                         "(q0,_) -> (h,_,R)\n(q0,_) -> (h,1,R)\n",
     "conflicting instructions for key(s): (h,1), (q0,△)"),
])
def test_a_message_about_a_short_input_names_it_whole(message, text, expected):
    assert message(text) == expected


def test_a_determination_message_counts_the_keys_it_does_not_name():
    # 1,000 keys, each written twice: the message names the first few and
    # counts the rest, and the error still carries every key.
    lines = [f"(q{i},1) -> (h,1,R)" for i in range(1000)]
    with pytest.raises(EvosimError) as caught:
        parse_procedure("\n".join(lines + lines))
    shown = str(caught.value)
    assert len(shown) <= MESSAGE_LIMIT, shown[:300]
    assert shown.startswith("conflicting instructions for key(s): (q0,1), (q1,1), ")
    assert shown.endswith(" more")
    assert caught.value.collisions == tuple((f"q{i}", "1") for i in range(1000))


def test_a_state_name_of_more_digits_than_int_converts_is_a_snapshot_error():
    # A kept name s<digits> past any counter collides with the fresh names.
    name = "s" + "9" * 5000
    text = (f"PET1 v1\nstates: q0 {name}\nstart: q0\naccept: {name}\n"
            f"trans: q0 1 {name}\nmaxaccept: 1\ncounter: 2\n")
    assert "would collide" in _snapshot_message(text)
