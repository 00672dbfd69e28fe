"""Evolving model: acceptor dispatch, world snapshots."""

import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evosim import (
    BLANK,
    Configuration,
    EvolvingModel,
    Instruction,
    InvalidSymbolError,
    Procedure,
    SnapshotError,
    StandardModel,
    decode_snapshot,
    encode_snapshot,
    fork,
    right_scanner,
    run,
)
from evosim.engine import LOG_LIMIT
from evosim.tape import tape_view
from test_decoder_record import OUT_OF_ORDER, OWN_NAMES

FRESH_SNAPSHOT = """PET1 v1
states: q0
start: q0
accept:
maxaccept: 0
counter: 1
"""

AFTER_101 = """PET1 v1
states: q0 s1 s2 s3
start: q0
accept: s3
trans: q0 1 s1
trans: s1 0 s2
trans: s2 1 s3
maxaccept: 3
counter: 4
"""

histories = st.lists(st.text(alphabet="01", max_size=8), max_size=25)


def right_edge(text):
    """The halting configuration a right-scan of `text` ends in."""
    return Configuration("h", BLANK + text, BLANK, "")


def test_right_edge_halt_consults_and_grows_the_trie():
    model = EvolvingModel()
    assert model.accept(right_edge("101")) is True
    assert model.trie.states == ["q0", "s1", "s2", "s3"]
    assert model.accept(right_edge("10")) is False
    assert [r.text for r in model.invocation_log] == ["101", "10"]


def test_origin_halt_answers_yes_without_evolving():
    model = EvolvingModel()
    assert model.accept(Configuration("h", "", BLANK, "101")) is True
    assert model.acceptor_ticks == 0
    assert not model.invocation_log


def test_fully_blank_tape_takes_the_origin_pattern():
    model = EvolvingModel()
    assert model.accept(Configuration("h", "", BLANK, "")) is True
    assert not model.invocation_log


def test_other_configurations_answer_no():
    model = EvolvingModel()
    assert model.accept(Configuration("q0", "", BLANK, "1")) is False
    assert model.accept(Configuration("h", "1", "0", "")) is False


def test_the_configuration_question_is_written_once():
    assert EvolvingModel.accept is StandardModel.accept


# At the right edge (`left` outside the alphabet, `right` empty) and at the
# origin (`left` empty, `right` outside the alphabet).
@pytest.mark.parametrize("left, right", [
    pytest.param("x", "", id="x"), pytest.param("0x", "", id="0x"),
    pytest.param("", "x", id="origin-x"), pytest.param("", "0x", id="origin-0x")])
@pytest.mark.parametrize("model", [StandardModel, EvolvingModel])
def test_both_models_reject_an_edge_halt_outside_the_alphabet(model, left, right):
    with pytest.raises(InvalidSymbolError):
        model().accept(Configuration("h", left, BLANK, right))


def test_interior_blank_never_reaches_the_trie():
    model = EvolvingModel()
    config = Configuration("h", BLANK + "1" + BLANK + "1", BLANK, "")
    assert model.accept(config) is False
    assert not model.invocation_log


def _walk_on_peak(budget):
    """The traced memory peak of a run that asks at every step: an h that
    walks on over blanks past the last cell is at the right edge on every
    step, so "10", rejected after "101", is asked at every step, each time
    about a tape one blank longer."""
    walk_on = Procedure([*right_scanner(),
                         Instruction("h", BLANK, "h", BLANK, "R")])
    model = EvolvingModel()
    run(model, walk_on, "101")
    tracemalloc.start()
    try:
        result = run(model, walk_on, "10", budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not result.accepted
    assert len(model.invocation_log) == min(budget - 2, LOG_LIMIT)
    return peak


def test_log_memory_is_linear_in_the_budget_when_every_step_is_asked():
    # A log that kept every question would be quadratic in the budget
    # (about 13x from 1k to 4k).
    assert _walk_on_peak(4000) <= 6 * _walk_on_peak(1000)


def test_a_ring_of_tapes_stays_small_when_every_step_is_asked():
    # The ring keeps the last LOG_LIMIT tapes as bytes, one byte a cell:
    # about 1 MB at a budget of 4,000. Configurations kept there, whose
    # strings take 2 bytes a character for the blank symbol, peaked near
    # 2 MB.
    assert _walk_on_peak(4000) < 1.5 * 2 ** 20


# A world grown by a few queries, forked for each example.
GROWN = EvolvingModel()
for _text in ("101", "0", "11011", "", "0110", "111"):
    GROWN.trie.answer(_text)
tapes = st.lists(st.sampled_from(b"01\0"), max_size=8).map(bytes)


@settings(max_examples=300, deadline=None)
@given(tapes, st.booleans())
# At the origin: a blank tape and a tape with content; at the right edge:
# content with an interior blank, a string the world rejects, and one it
# grows for.
@example(b"", True)
@example(b"101", True)
@example(b"\x001\x001", False)
@example(b"\x0010", False)
@example(b"\x00100", False)
def test_the_tape_question_agrees_with_the_config_question(inner, at_origin):
    # The halt state on a blank at the origin or at the right edge, the
    # only places the tape question is asked: model v, and model e on
    # forks of one world.
    tape = b"\0" + inner if at_origin else inner + b"\0"
    cells = bytearray(tape)
    pos = 0 if at_origin else len(cells) - 1
    config = tape_view("h", cells, pos)
    assert StandardModel().accept_tape(cells, pos) is StandardModel().accept(config)
    by_tape, by_config = fork(GROWN), fork(GROWN)
    answer = by_tape.accept_tape(cells, pos)
    assert cells == tape
    assert by_config.accept(config) is answer
    assert by_tape.acceptor_ticks == by_config.acceptor_ticks
    assert by_tape.invocation_log == by_config.invocation_log
    assert [r.config for r in by_tape.invocation_log] in ([], [config])
    assert encode_snapshot(by_tape) == encode_snapshot(by_config)


def test_the_log_is_a_new_list_of_the_ring_each_time_it_is_read():
    model = EvolvingModel()
    for text in ("101", "10", "0110"):
        model.accept(right_edge(text))
    log = model.invocation_log
    assert log == [(right_edge(t), t, a, k) for t, a, k in
                   [("101", True, 7), ("10", False, 2), ("0110", True, 9)]]
    assert log[1:] == list(log)[1:] and log[-1] == list(log)[-1]
    assert len(log) == len(model.ring) == 3
    with pytest.raises(AttributeError):
        model.invocation_log = []
    # Editing the list leaves the ring and the next read as they were.
    log.clear()
    assert len(model.ring) == 3 and len(model.invocation_log) == 3
    assert model.invocation_log is not model.invocation_log
    assert not fork(model).invocation_log
    assert not decode_snapshot(encode_snapshot(model)).invocation_log


def test_fresh_snapshot_text_is_pinned():
    assert encode_snapshot(EvolvingModel()) == FRESH_SNAPSHOT


def test_snapshot_after_growth_is_pinned():
    model = EvolvingModel()
    model.accept(right_edge("101"))
    assert encode_snapshot(model) == AFTER_101


def test_encode_decode_encode_is_identity():
    model = EvolvingModel()
    for text in ("101", "10", "0110"):
        model.accept(right_edge(text))
    text = encode_snapshot(model)
    assert encode_snapshot(decode_snapshot(text)) == text


def test_decoded_world_preserves_answers():
    model = EvolvingModel()
    model.accept(right_edge("101"))
    model.accept(right_edge("10"))
    copy = decode_snapshot(encode_snapshot(model))
    assert copy.accept(right_edge("10")) is False


def test_decode_round_trips_the_fresh_world():
    copy = decode_snapshot(FRESH_SNAPSHOT)
    assert encode_snapshot(copy) == FRESH_SNAPSHOT


def test_decode_rejects_bad_header():
    with pytest.raises(SnapshotError):
        decode_snapshot("PET9 v1\nstates: q0\n")


def test_decode_rejects_duplicate_transition_keys():
    text = (
        "PET1 v1\nstates: q0 s1 s2\nstart: q0\naccept: s1\n"
        "trans: q0 1 s1\ntrans: q0 1 s2\nmaxaccept: 1\ncounter: 3\n"
    )
    with pytest.raises(SnapshotError) as excinfo:
        decode_snapshot(text)
    assert excinfo.value.line_no == 6


@pytest.mark.parametrize("key", ["zz 0", "q0 2"], ids=["unknown-source", "foreign-symbol"])
def test_decode_reports_a_repeated_unslotted_key_at_its_second_line(key):
    text = (
        "PET1 v1\nstates: q0 s1\nstart: q0\naccept: s1\ntrans: q0 1 s1\n"
        f"trans: {key} s1\ntrans: {key} s1\nmaxaccept: 1\ncounter: 2\n"
    )
    with pytest.raises(SnapshotError) as excinfo:
        decode_snapshot(text)
    assert excinfo.value.line_no == 7


def world(states, accept, transitions, maxaccept):
    """Snapshot text of a hand-written world rooted at q0."""
    rows = "".join(f"trans: {t}\n" for t in transitions)
    return (f"PET1 v1\nstates: {states}\nstart: q0\naccept: {accept}\n"
            f"{rows}maxaccept: {maxaccept}\ncounter: {len(states.split())}\n")


# A trie's grandchild listed first: a child's transition read before its
# parent's.
GRANDCHILD_FIRST = ("s2 0 s3", "q0 1 s1", "s1 0 s2")


@pytest.mark.parametrize("text", [
    world("q0 s1", "", ["q0 1 s1", "s1 0 s1"], 0),
    # The transition count is a trie's; only the walk finds s2 unreached.
    world("q0 s1 s2", "", ["q0 0 s1", "q0 1 s1"], 0),
    world("q0 s1 s2", "", ["q0 0 s1", "s1 0 s2", "s2 0 s1"], 0),
    world("q0 s1 s2", "", ["s1 0 s2", "s2 0 s1"], 0),
    world("q0 s1 s2 s3", "s3", GRANDCHILD_FIRST, 2),  # s3 is at depth 3
], ids=["self-loop", "two-parents-one-unreached", "reachable-cycle",
        "unreachable-cycle", "grandchild-first-maxaccept-off"])
def test_decode_rejects_non_trie_shapes(text):
    with pytest.raises(SnapshotError) as excinfo:
        decode_snapshot(text)
    assert excinfo.value.line_no is None


def test_decode_takes_a_grandchild_listed_first():
    model = decode_snapshot(world("q0 s1 s2 s3", "s3", GRANDCHILD_FIRST, 3))
    text = encode_snapshot(model)
    assert text == world("q0 s1 s2 s3", "s3", sorted(GRANDCHILD_FIRST), 3)
    again = decode_snapshot(text)
    queries = ["10", "100", "101", "1", "0", "", "1000"]
    answers = [model.accept(right_edge(q)) for q in queries]
    assert [again.accept(right_edge(q)) for q in queries] == answers
    assert answers[:2] == [False, True]  # s3, at depth 3, is one hop away


def test_decode_rejects_counter_collisions():
    text = (
        "PET1 v1\nstates: q0 s1\nstart: q0\naccept: s1\n"
        "trans: q0 1 s1\nmaxaccept: 1\ncounter: 1\n"
    )
    with pytest.raises(SnapshotError):
        decode_snapshot(text)


@pytest.mark.parametrize("maxaccept", [0, 2, 99])
def test_decode_rejects_a_maxaccept_off_the_deepest_accepting_state(maxaccept):
    text = AFTER_101.replace("maxaccept: 3", f"maxaccept: {maxaccept}")
    with pytest.raises(SnapshotError, match="deepest accepting depth 3"):
        decode_snapshot(text)


@pytest.mark.parametrize("line", ["counter: +4", "counter: \u0664",
                                  "maxaccept: 0_3", "maxaccept: \u00b3",
                                  "counter: -4", "maxaccept: "])
def test_decode_takes_only_ascii_decimal_counts(line):
    key = line.split(":")[0]
    text = "".join(line + "\n" if row.startswith(key + ":") else row
                   for row in AFTER_101.splitlines(keepends=True))
    with pytest.raises(SnapshotError) as excinfo:
        decode_snapshot(text)
    # Each count at its own line: maxaccept is line 8, counter line 9.
    assert excinfo.value.line_no == {"maxaccept": 8, "counter": 9}[key]


@pytest.mark.parametrize("text, line, message", [
    ("PET1 v1\nstates: q0\nstart q0\n", 3, "expected 'start:' line"),
    ("PET1 v1\nstates:\nstart: q0\n", 2, "no states listed"),
    # files cut off at the end of a line: after `accept:`, and after the
    # last `trans:` line, where the transitions run to the end of the text
    ("PET1 v1\nstates: q0\nstart: q0\naccept:\n", 5,
     "missing 'maxaccept:' line"),
    ("PET1 v1\nstates: q0 s1\nstart: q0\naccept: s1\ntrans: q0 1 s1\n", 6,
     "missing 'maxaccept:' line"),
    # the fresh world with a counter of more digits than `int` converts
    ("PET1 v1\nstates: q0\nstart: q0\naccept:\nmaxaccept: 0\ncounter: "
     + "1" * 5000 + "\n", 6, "5000-digit numeral too long"),
], ids=["start", "no-states", "cut-after-accept", "cut-after-trans",
        "long-counter"])
def test_decode_reports_parse_error_lines(text, line, message):
    with pytest.raises(SnapshotError) as excinfo:
        decode_snapshot(text)
    assert excinfo.value.line_no == line
    assert str(excinfo.value).startswith(f"line {line}: {message}")


def test_a_world_with_its_own_names_keeps_them_and_grows_fresh_ones():
    text = (
        "PET1 v1\nstates: n1 root n2 s3\nstart: root\naccept: n2 s3\n"
        "trans: n1 1 s3\ntrans: root 0 n1\ntrans: root 1 n2\n"
        "maxaccept: 2\ncounter: 7\n"
    )
    model = decode_snapshot(text)
    trie = model.trie
    assert trie.start == "root" and trie.states == ["n1", "root", "n2", "s3"]
    assert model.accept(right_edge("11")) is True  # grows s7 below n2
    assert trie.states == ["n1", "root", "n2", "s3", "s7"]
    assert trie.transitions[("n2", "1")] == "s7"
    assert ("s7", "0") not in trie.transitions and "s7" in trie.accepting
    assert trie.accepting == {"n2", "s3", "s7"}
    assert (trie.creation_counter, trie.structure_problems()) == (8, [])
    assert decode_snapshot(encode_snapshot(model)).trie.states == trie.states


def test_make_model_builds_both_worlds():
    from evosim import StandardModel, make_model

    assert isinstance(make_model("v"), StandardModel)
    assert isinstance(make_model("e"), EvolvingModel)
    with pytest.raises(ValueError):
        make_model("x")


def test_fork_is_independent():
    model = EvolvingModel()
    model.accept(right_edge("101"))
    copy = fork(model)
    copy.accept(right_edge("0"))
    assert len(model.trie.states) == 4
    assert len(copy.trie.states) == 5


def views(model):
    trie = model.trie
    return (list(trie.states), dict(trie.transitions), set(trie.accepting),
            trie.start, trie.creation_counter, trie.stats())


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([None, OUT_OF_ORDER, OWN_NAMES]), histories, histories)
def test_a_fork_is_the_decoded_snapshot_and_shares_nothing(start, history,
                                                          continuation):
    # Fresh worlds, and decoded ones with a child listed before its parent,
    # kept names, a raised counter and a start state not listed first.
    model = EvolvingModel() if start is None else decode_snapshot(start)
    for text in history:
        model.trie.query(text)
    text = encode_snapshot(model)
    copy = fork(model)
    assert encode_snapshot(copy) == text
    assert copy.trie.structure_problems() == []

    decoded = decode_snapshot(text)
    for query in continuation:
        assert copy.trie.query(query) == decoded.trie.query(query)
        assert views(copy) == views(decoded)
    assert encode_snapshot(copy) == encode_snapshot(decoded)
    assert encode_snapshot(model) == text  # the fork's growth stays its own

    grown = encode_snapshot(copy)
    for query in continuation:
        model.trie.query(query)
    for query in history:
        model.trie.query(query + "1")
    assert encode_snapshot(copy) == grown  # and the world's stays its own


configs = st.builds(
    Configuration,
    state=st.sampled_from(["q0", "h", "p"]),
    left=st.text(alphabet="01" + BLANK, max_size=6),
    head=st.sampled_from(["0", "1", BLANK]),
    right=st.text(alphabet="01" + BLANK, max_size=6),
)


@settings(max_examples=300)
@given(configs)
def test_models_agree_outside_the_right_edge_pattern(config):
    from evosim import halting_accept

    assert StandardModel().accept(config) == halting_accept(config)
    evolving_pattern = (config.state == "h" and config.head == BLANK
                        and config.right == "" and config.left != "")
    if not evolving_pattern:
        model = EvolvingModel()
        assert model.accept(config) == halting_accept(config)
        assert not model.invocation_log


@settings(max_examples=150, deadline=None)
@given(histories, st.lists(st.text(alphabet="01", max_size=8), max_size=10))
def test_round_trip_behaves_identically_forever(history, probes):
    scanner = right_scanner()
    model = EvolvingModel()
    for text in history:
        run(model, scanner, text, 100)
    text = encode_snapshot(model)
    copy = decode_snapshot(text)
    assert encode_snapshot(copy) == text
    for probe in probes:
        assert (run(model, scanner, probe, 100).verdict
                == run(copy, scanner, probe, 100).verdict)
    assert encode_snapshot(copy) == encode_snapshot(model)
