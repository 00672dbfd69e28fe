"""Procedure file grammar: parse, render, round trips."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evosim import (
    BLANK,
    DeterminationError,
    Instruction,
    Procedure,
    ProcedureSyntaxError,
    import_tm,
    parse_procedure,
    render_procedure,
    right_scanner,
)

SCANNER_TEXT = """\
(q0,_) -> (h,_,R)
(h,0) -> (h,0,R)
(h,1) -> (h,1,R)
"""

# render_procedure sorts by state name, then symbol
SCANNER_CANONICAL = """\
(h,0) -> (h,0,R)
(h,1) -> (h,1,R)
(q0,_) -> (h,_,R)
"""


def test_parse_the_scanner():
    assert parse_procedure(SCANNER_TEXT) == right_scanner()


def test_parse_single_line():
    proc = parse_procedure("(q0,_) -> (h,_,R)")
    assert list(proc) == [Instruction("q0", BLANK, "h", BLANK, "R")]


def test_parse_ignores_comments_and_blanks():
    text = "# header\n\n(q0,_) -> (h,_,R)  # trailing\n\n"
    assert len(parse_procedure(text)) == 1


def test_parse_collision_is_a_determination_violation():
    text = "(h,1) -> (h,1,R)\n(h,1) -> (h,0,L)\n"
    with pytest.raises(DeterminationError) as excinfo:
        parse_procedure(text)
    assert excinfo.value.collisions == (("h", "1"),)


def test_parse_error_carries_the_line_number():
    with pytest.raises(ProcedureSyntaxError) as excinfo:
        parse_procedure("(q0,_) -> (h,_,R)\n(q0,_) => (h,_,R)\n")
    assert excinfo.value.line_no == 2


def test_parse_rejects_bad_symbols():
    with pytest.raises(ProcedureSyntaxError):
        parse_procedure("(q0,x) -> (h,_,R)")


def test_render_is_canonical_and_parseable():
    rendered = render_procedure(right_scanner())
    assert rendered == SCANNER_CANONICAL
    assert parse_procedure(rendered) == right_scanner()


def test_a_state_name_that_text_cannot_spell_is_rejected_when_built():
    # Rendered, "a#b" would read as the state "a" and a comment.
    for name in ("a#b", "a b", "a(", ")", "a,b", "\tq", "q\u00a0"):
        with pytest.raises(ValueError, match="state name"):
            import_tm([(name, "0", "q", "0", "R")])
        with pytest.raises(ValueError, match="state name"):
            Instruction("q", "0", name, "0", "R")


# Names the grammar spells, and names it cannot: whitespace, parentheses,
# commas and the comment mark.
states = st.sampled_from(["q0", "h", "p", "q1", "loop", "x-y",
                          "a#b", "a b", "(p", "q)", "x,y", "\t", "h\n"])
symbols = st.sampled_from(["0", "1", BLANK])
moves = st.sampled_from(["L", "R"])


@given(st.dictionaries(st.tuples(states, symbols),
                       st.tuples(states, symbols, moves), max_size=12))
def test_round_trip_over_random_procedures(table):
    # Each procedure round-trips, or one of its instructions is rejected
    # when it is built, and then it names a state that the grammar's state
    # token does not spell.
    try:
        procedure = Procedure(
            Instruction(s, a, t, w, m) for (s, a), (t, w, m) in table.items())
    except ValueError as error:
        assert str(error).startswith("state name ")
        names = {s for s, _ in table} | {t for t, _, _ in table.values()}
        assert not all(re.fullmatch(r"[^\s(),#]+", name) for name in names)
        return
    assert parse_procedure(render_procedure(procedure)) == procedure
