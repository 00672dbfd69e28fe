"""Text parsers on mutated corpus text: only package errors escape."""

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
# of the wrong kind, a numeral of more digits than `int` converts, non-ASCII
# digits, odd whitespace and control characters, and free text.
TOKENS = ("", "0", "1", "_", BLANK, "x", "q0", "h", "s1", "(q0,_)", "(h,_,R)",
          "->", "#", ":", "\r", "\t", "\x00", "-1", "1.5", "99999999999",
          "9" * 4301,
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
    except EvosimError:
        pass
