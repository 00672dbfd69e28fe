"""The growing trie acceptor and the arrival-order numbering process."""

import ast
import tracemalloc
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evosim import (
    ArrivalNumbering,
    EvolvingModel,
    InvalidSymbolError,
    PartialDfa,
    QueryCase,
    binary_strings,
    saturate,
)
from evosim import trie
from ledger import QueryLedger, replay_check
from oracle_trie import OracleTrie
from test_decoder_record import OUT_OF_ORDER, OWN_NAMES

queries = st.lists(st.text(alphabet="01", max_size=10), max_size=60)

# A decoded world whose deepest state, s2, is an unmarked leaf below the
# one accepting state: depth 2, longest accepted length 1.
UNMARKED_LEAF = """PET1 v1
states: q0 s1 s2
start: q0
accept: s1
trans: q0 0 s1
trans: s1 1 s2
maxaccept: 1
counter: 3
"""


def walked_depth(machine):
    """The depth of the machine, walked level by level over its
    transitions view, by name: sharing no code with `PartialDfa.depth`."""
    children = defaultdict(list)
    for (source, _), target in machine.transitions.items():
        children[source].append(target)
    level, depth = [machine.start], -1
    while level:
        level = [child for state in level for child in children[state]]
        depth += 1
    return depth


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


def test_a_decoded_unmarked_leaf_keeps_the_depth_until_growth_passes_it():
    m = PartialDfa.from_snapshot(UNMARKED_LEAF)
    readings = []
    for text in ("", "01", "011"):
        m.answer(text)
        twin = m.copy()
        readings.append((m.max_accepted_length, m.depth(), twin.depth(),
                         m.stats().depth, walked_depth(m)))
        assert (m.structure_problems(), twin.structure_problems()) == ([], [])
    # After "": q0 marked; after "01": s2 marked; after "011": s3 grown.
    assert readings == [(1, 2, 2, 2, 2), (2, 2, 2, 2, 2), (3, 3, 3, 3, 3)]


def test_depth_stats_and_saturate_make_no_level_walk(monkeypatch):
    grown = PartialDfa()
    for text in ("101", "10", "", "0110"):
        grown.answer(text)
    worlds = [grown, grown.copy(), PartialDfa.from_snapshot(grown.snapshot()),
              PartialDfa.from_snapshot(UNMARKED_LEAF)]

    def walked(*args):
        raise AssertionError("a level walk")

    monkeypatch.setattr(trie, "_levels", walked)
    assert [world.depth() for world in worlds] == [4, 4, 4, 2]
    assert [world.stats().depth for world in worlds] == [4, 4, 4, 2]
    reports = [saturate(EvolvingModel(world), 3) for world in worlds]
    assert [report.precondition_ok for report in reports] == [False] * 3 + [True]


def test_full_trie_memory_per_state_is_bounded():
    # Name strings in a list, a dict keyed by (name, symbol) tuples and a
    # set of names held about 190 bytes per state here; two child slots of
    # 4 bytes and one accepting byte per state hold about 9, and slots of
    # 8 bytes about 17.
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
    assert held / len(machine.states) <= 12


def test_child_slots_take_four_bytes():
    fresh = PartialDfa()
    fresh.query("0110")
    for machine in (fresh, PartialDfa.from_snapshot(fresh.snapshot()), fresh.copy(),
                    PartialDfa.from_snapshot(OWN_NAMES)):
        assert (machine.kids0.itemsize, machine.kids1.itemsize) == (4, 4)


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


def test_views_repr_as_their_plain_values():
    m = PartialDfa()
    m.query("101")
    assert repr(m.states) == "StateNames(['q0', 's1', 's2', 's3'])"
    assert repr(m.transitions) == ("Transitions({('q0', '1'): 's1', "
                                   "('s1', '0'): 's2', ('s2', '1'): 's3'})")
    assert repr(m.accepting) == "AcceptingNames({'s3'})"


@pytest.mark.parametrize("damage, problem", [
    (lambda m: m.kids0.__setitem__(0, 99), "child slots reference unknown states"),
    (lambda m: m.kids1.__setitem__(2, -1), "child slots reference unknown states"),
    (lambda m: setattr(m, "accepting_count", m.accepting_count + 1),
     "accepting count 2 is not the number of accepting states"),
    (lambda m: setattr(m, "_decoded_depth", 5),
     "depth 5 is not the deepest level 3 of the walk"),
    # An unmarked state grown by hand below the deepest one, s3.
    (lambda m: (m.kids0.__setitem__(3, 4), m.kids0.append(0), m.kids1.append(0),
                m.marks.append(0)),
     "depth 3 is not the deepest level 4 of the walk"),
    # A list of its own: fresh machines share one list of their first names.
    (lambda m: setattr(m, "_named", ["q0", "q0"]), "duplicate state names"),
], ids=["slot-99", "slot-minus-1", "accepting-count", "decoded-depth",
        "unmarked-leaf", "duplicate-names"])
def test_structure_problems_name_each_fault(damage, problem):
    grown = PartialDfa()
    grown.query("101")
    broken = grown.copy()
    damage(broken)
    assert broken.structure_problems() == [problem]
    assert grown.structure_problems() == []


def _grown(m):
    for text in ("101", "10", "", "0110"):
        m.query(text)
    return m


@pytest.mark.parametrize("start", [None, OUT_OF_ORDER, OWN_NAMES],
                         ids=["fresh", "out-of-order", "own-names"])
def test_a_state_index_reads_one_name(start, monkeypatch):
    m = _grown(PartialDfa() if start is None else PartialDfa.from_snapshot(start))
    names = m.names()
    count = len(names)
    slices = [slice(None), slice(1, 3), slice(-2, None), slice(None, None, -2)]
    assert [m.states[index] for index in slices] == [names[index] for index in slices]

    def names_called():
        raise AssertionError("an index built the list of every name")

    monkeypatch.setattr(m, "names", names_called)
    for index in range(-count, count):
        assert m.states[index] == names[index]
    for index in (count, -count - 1):
        with pytest.raises(IndexError):
            m.states[index]
    with pytest.raises(TypeError):
        m.states["s1"]


@pytest.mark.parametrize("start", [None, OUT_OF_ORDER, OWN_NAMES],
                         ids=["fresh", "out-of-order", "own-names"])
def test_name_membership_index_and_count_read_one_name(start, monkeypatch):
    m = _grown(PartialDfa() if start is None else PartialDfa.from_snapshot(start))
    names = m.names()
    count = len(names)

    def names_called():
        raise AssertionError("a name lookup built the list of every name")

    monkeypatch.setattr(m, "names", names_called)
    states = m.states
    for position, name in enumerate(names):
        assert name in states and states.count(name) == 1
        assert states.index(name) == position
        for low, high in ((position, None), (-count, count + 5), (0, position + 1),
                          (position - count, -1), (position + 1, None), (0, position),
                          (count, 0)):
            try:
                expected = names.index(name, low, count if high is None else high)
            except ValueError:
                with pytest.raises(ValueError):
                    states.index(name, low, high)
            else:
                assert states.index(name, low, high) == expected
    for key in ("s99", "q1", "", "s01", 5, None, ("q0",), ["q0"], b"q0"):
        assert key not in states and states.count(key) == names.count(key) == 0
        with pytest.raises(ValueError):
            states.index(key)


def test_a_symbol_outside_the_alphabet_has_no_transition():
    m = PartialDfa()
    m.query("0")
    m.query("1")
    assert ("q0", "0") in m.transitions and ("q0", "1") in m.transitions
    with pytest.raises(KeyError):
        m.transitions[("q0", "2")]
    assert ("q0", "2") not in m.transitions


def test_a_key_of_another_type_is_absent_as_from_a_dict_or_set():
    m = PartialDfa()
    for text in ("101", "0"):
        m.query(text)
    # The same world keeping its names, by a counter raised by one.
    kept = PartialDfa.from_snapshot(m.snapshot().replace("counter: 5", "counter: 6"))
    for machine in (m, kept):
        for key in ((0, "0"), (None, "0"), 5, None, (), ("q0",), ("q0", "0", "s1")):
            assert key not in machine.transitions
            assert machine.transitions.get(key) is None
            with pytest.raises(KeyError):
                machine.transitions[key]
        for name in (5, 0, None, ("q0",)):
            assert name not in machine.accepting
            assert machine.index(name) is None
        assert ("q0", "1") in machine.transitions and "s3" in machine.accepting


def test_a_fresh_machine_resolves_its_first_grown_state():
    m = PartialDfa()
    m.query("1")
    assert m.index("s1") == 1
    assert (m.index("q0"), m.index("s2"), m.index("s0")) == (0, None, None)


def test_kept_names_resolve_to_their_creation_index():
    # A saturated world with its counter raised by one keeps its names.
    m = PartialDfa()
    for text in binary_strings(4):
        m.query(text)
    counter = m.creation_counter
    kept = PartialDfa.from_snapshot(
        m.snapshot().replace(f"counter: {counter}", f"counter: {counter + 1}"))
    names = list(kept.states)
    assert [kept.index(name) for name in names] == list(range(len(names)))
    for name in ("s0", f"s{counter}", f"s{counter + 1}", "s01", "n1", "S1", "", "q1"):
        assert kept.index(name) is None, name
    kept.query("00000")  # grows s<counter + 1> below 0000
    assert kept.index(f"s{counter + 1}") == len(names)
    assert kept.index(f"s{counter}") is None
    assert f"s{counter + 1}" in kept.accepting and "q1" not in kept.accepting


# The trie's layout and the snapshot format read into it: only trie.py may
# name these.
LAYOUT_NAMES = {"kids0", "kids1", "marks", "_named", "_index_of", "_shift",
                "_decoded_depth", "from_arrays", "int_array", "TRIE_ALPHABET"}


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
    assert m.depth() == m.copy().depth() == walked_depth(m) == longest


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


# 200 examples in tier-1; more under a larger profile, such as `deep`
# (tests/conftest.py).
@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(st.sampled_from([None, OUT_OF_ORDER, OWN_NAMES, UNMARKED_LEAF]),
       st.lists(st.text(alphabet="01", max_size=12), max_size=30))
def test_the_lean_reader_agrees_with_query(start, texts):
    # Fresh worlds, and decoded ones with a child listed before its parent,
    # kept names, a raised counter, a start state not listed first and an
    # unmarked leaf deeper than any accepting state.
    world = PartialDfa() if start is None else PartialDfa.from_snapshot(start)
    lean, reported = world.copy(), world.copy()
    for text in texts:
        states = list(reported.states)
        transitions = dict(reported.transitions)
        accepting = set(reported.accepting)
        outcome = reported.query(text)
        assert lean.answer(text) == (outcome.accepted, outcome.ticks)
        # The report names what was added as the views do, kept names and a
        # raised counter included.
        assert outcome.added_states == tuple(reported.states[len(states):])
        assert outcome.added_transitions == tuple(
            (*key, target) for key, target in reported.transitions.items()
            if key not in transitions)
        assert set(outcome.added_accepting) == set(reported.accepting) - accepting
        assert lean.snapshot() == reported.snapshot()
        assert lean.structure_problems() == []
        assert lean.depth() == walked_depth(lean)


def test_the_lean_reader_rejects_symbols_outside_the_alphabet():
    machine = PartialDfa()
    with pytest.raises(InvalidSymbolError):
        machine.answer("10x")
    assert machine.state_count == 1


# 200 examples in tier-1; more under a larger profile (tests/conftest.py).
@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(queries, queries)
def test_the_trie_agrees_with_a_reference_trie(history, more):
    machine, reference = PartialDfa(), OracleTrie()
    for text in history:
        assert machine.answer(text) == reference.answer(text)
        assert machine.snapshot() == reference.snapshot()
    # The machine, its copy and its decoded snapshot answer on independently.
    forks = [machine, machine.copy(), PartialDfa.from_snapshot(machine.snapshot())]
    for text in more:
        expected = reference.answer(text)
        assert [fork.answer(text) for fork in forks] == [expected] * 3
        depth = max(map(len, reference.created))
        assert [fork.depth() for fork in forks] == [depth] * 3
    assert [fork.snapshot() for fork in forks] == [reference.snapshot()] * 3
