"""The growing trie acceptor and the arrival-order numbering process."""

import ast
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evosim import (
    ArrivalNumbering,
    InvalidSymbolError,
    PartialDfa,
    QueryCase,
    binary_strings,
)
from ledger import QueryLedger, replay_check

queries = st.lists(st.text(alphabet="01", max_size=10), max_size=60)


def test_numbering_assigns_arrival_order():
    g = ArrivalNumbering()
    assert [g.query(n) for n in (7, 9, 1, 11)] == [1, 2, 3, 4]
    assert g.query(7) == 1


def test_numbering_alternate_order():
    g = ArrivalNumbering()
    assert [g.query(n) for n in (9, 1, 7, 11)] == [1, 2, 3, 4]


def test_numbering_items_keep_arrival_order():
    g = ArrivalNumbering()
    for n in (7, 9, 1, 11, 9, 7):
        g.query(n)
    assert g.items() == [(7, 1), (9, 2), (1, 3), (11, 4)]


def test_first_query_grows_a_chain():
    m = PartialDfa()
    outcome = m.query("101")
    assert outcome.accepted
    assert outcome.case is QueryCase.GREW_CHAIN
    assert outcome.added_states == ("s1", "s2", "s3")
    assert outcome.added_transitions == (
        ("q0", "1", "s1"), ("s1", "0", "s2"), ("s2", "1", "s3"))
    assert outcome.added_accepting == ("s3",)
    assert outcome.ticks == 7


def test_prefix_one_step_below_acceptance_is_rejected():
    m = PartialDfa()
    m.query("101")
    outcome = m.query("10")
    assert not outcome.accepted
    assert outcome.case is QueryCase.NEAR_ACCEPTING
    assert outcome.added_states == ()
    assert outcome.added_accepting == ()
    assert outcome.ticks == 2


def test_opposite_order_accepts_both():
    m = PartialDfa()
    assert m.query("10").accepted
    assert m.query("101").accepted


def test_empty_string_promotes_the_start_state():
    m = PartialDfa()
    outcome = m.query("")
    assert outcome.accepted
    assert outcome.case is QueryCase.MARKED_ACCEPTING
    assert outcome.added_accepting == ("q0",)
    assert m.accepting == {"q0"}


def test_repeat_of_an_accepted_string_replays_the_path():
    m = PartialDfa()
    m.query("1011")
    outcome = m.query("1011")
    assert outcome.accepted
    assert outcome.case is QueryCase.AT_ACCEPTING
    assert outcome.ticks == 4


def test_query_rejects_foreign_symbols():
    with pytest.raises(InvalidSymbolError):
        PartialDfa().query("10x")


def test_stats_fresh_and_after_growth():
    m = PartialDfa()
    s = m.stats()
    assert (s.max_accepted_length, s.depth, s.state_count, s.accepting_count) == (0, 0, 1, 0)
    m.query("101")
    s = m.stats()
    assert (s.max_accepted_length, s.depth, s.state_count, s.accepting_count) == (3, 3, 4, 1)
    m.query("10")
    s = m.stats()
    assert (s.max_accepted_length, s.depth, s.state_count, s.accepting_count) == (3, 3, 4, 1)


def test_full_trie_memory_per_state_is_bounded():
    # Name strings in a list, a dict keyed by (name, symbol) tuples and a
    # set of names held about 190 bytes per state here; two child slots of
    # 8 bytes and one accepting byte per state hold about 20.
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        machine = PartialDfa()
        for text in binary_strings(15):
            machine.query(text)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(machine.states) == 65_535
    assert held / len(machine.states) <= 96


def test_views_and_counters_agree():
    m = PartialDfa()
    for text in ("101", "10", "", "0110", "11"):
        m.query(text)
    names = ["q0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8"]
    assert m.states == names and list(m.states) == names
    assert m.states[-1] == "s8" and m.states[1:3] == ["s1", "s2"]
    assert m.transitions[("s1", "1")] == "s8"
    assert m.accepting == {"q0", "s3", "s7", "s8"}
    assert m.accepting_in_creation_order() == ["q0", "s3", "s7", "s8"]
    assert (m.state_count, m.transition_count, m.accepting_count) == (
        len(m.states), len(m.transitions), len(m.accepting))
    assert m.creation_counter == 9


# The trie's layout and the snapshot format read into it: only trie.py may
# name these.
LAYOUT_NAMES = {"kids0", "kids1", "marks", "_named", "_shift", "from_arrays",
                "int_array", "TRIE_ALPHABET"}


def test_only_the_trie_module_touches_its_layout():
    package = Path(__file__).resolve().parent.parent / "src" / "evosim"
    touched = []
    for path in sorted(package.glob("*.py")):
        if path.name == "trie.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            touched += [f"{path.name}:{node.lineno} {name}"
                        for name in names if name in LAYOUT_NAMES]
    assert touched == []


def test_replay_check_accepts_a_faithful_ledger():
    m = PartialDfa()
    ledger = QueryLedger()
    for text in ("101", "10"):
        ledger.record(text, m.query(text).accepted)
    assert replay_check(PartialDfa, ledger) is None


def test_replay_check_pinpoints_a_forged_entry():
    report = replay_check(PartialDfa, QueryLedger([("10", False)]))
    assert report is not None and "entry 1" in report


# --- properties over random query sequences ---

@settings(max_examples=300, deadline=None)
@given(queries)
def test_growth_is_monotone_and_answers_are_permanent(texts):
    m = PartialDfa()
    first_answer = {}
    for text in texts:
        before = (len(m.states), len(m.transitions), len(m.accepting))
        outcome = m.query(text)
        after = (len(m.states), len(m.transitions), len(m.accepting))
        assert all(b <= a for b, a in zip(before, after))
        if text in first_answer:
            assert outcome.accepted == first_answer[text]
        first_answer[text] = outcome.accepted


@settings(max_examples=300, deadline=None)
@given(queries)
def test_outcome_shapes_match_their_case(texts):
    m = PartialDfa()
    for text in texts:
        o = m.query(text)
        added = (o.added_states, o.added_transitions, o.added_accepting)
        if o.case in (QueryCase.AT_ACCEPTING, QueryCase.NEAR_ACCEPTING):
            assert added == ((), (), ())
            assert o.accepted == (o.case is QueryCase.AT_ACCEPTING)
        elif o.case is QueryCase.MARKED_ACCEPTING:
            assert o.added_states == () and len(o.added_accepting) == 1
            assert o.accepted
        else:
            assert len(o.added_states) == len(o.added_transitions) >= 1
            assert len(o.added_accepting) == 1
            assert o.accepted


@settings(max_examples=300, deadline=None)
@given(queries)
def test_structure_stays_a_trie_and_depth_tracks_queries(texts):
    m = PartialDfa()
    longest = 0
    for text in texts:
        if len(text) > longest:
            outcome = m.query(text)
            assert outcome.accepted
            assert outcome.case is QueryCase.GREW_CHAIN
        else:
            outcome = m.query(text)
        assert outcome.ticks <= 2 * len(text) + 1
        longest = max(longest, len(text))
    assert m.structure_problems() == []
    assert m.depth() == longest


@settings(max_examples=200, deadline=None)
@given(queries)
def test_identical_histories_build_identical_machines(texts):
    a, b = PartialDfa(), PartialDfa()
    for text in texts:
        assert a.query(text) == b.query(text)
    assert a.states == b.states
    assert a.transitions == b.transitions
    assert a.accepting == b.accepting
    assert a.creation_counter == b.creation_counter


@settings(max_examples=200, deadline=None)
@given(queries, queries)
def test_rejected_strings_stay_rejected(prefix_history, later_noise):
    m = PartialDfa()
    rejected = []
    for text in prefix_history:
        if not m.query(text).accepted:
            rejected.append(text)
    for text in later_noise:
        m.query(text)
        for old in rejected:
            check = m.query(old)
            assert not check.accepted
            assert check.case is QueryCase.NEAR_ACCEPTING


@settings(max_examples=200, deadline=None)
@given(queries)
def test_any_ledger_from_real_queries_replays_clean(texts):
    m = PartialDfa()
    ledger = QueryLedger()
    for text in texts:
        ledger.record(text, m.query(text).accepted)
    assert replay_check(PartialDfa, ledger) is None
