"""Evolving model: acceptor dispatch, world snapshots."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evosim import (
    BLANK,
    Configuration,
    EvolvingModel,
    SnapshotError,
    decode_snapshot,
    encode_snapshot,
    fork,
    right_scanner,
    run,
)

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
    assert model.invocation_log == []


def test_fully_blank_tape_takes_the_origin_pattern():
    model = EvolvingModel()
    assert model.accept(Configuration("h", "", BLANK, "")) is True
    assert model.invocation_log == []


def test_other_configurations_answer_no():
    model = EvolvingModel()
    assert model.accept(Configuration("q0", "", BLANK, "1")) is False
    assert model.accept(Configuration("h", "1", "0", "")) is False


def test_interior_blank_never_reaches_the_trie():
    model = EvolvingModel()
    config = Configuration("h", BLANK + "1" + BLANK + "1", BLANK, "")
    assert model.accept(config) is False
    assert model.invocation_log == []


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


def test_decode_rejects_non_trie_shapes():
    text = (
        "PET1 v1\nstates: q0 s1\nstart: q0\naccept:\n"
        "trans: q0 1 s1\ntrans: s1 0 s1\nmaxaccept: 0\ncounter: 2\n"
    )
    with pytest.raises(SnapshotError):
        decode_snapshot(text)


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


def test_decode_reports_parse_error_lines():
    with pytest.raises(SnapshotError) as excinfo:
        decode_snapshot("PET1 v1\nstates: q0\nstart q0\n")
    assert excinfo.value.line_no == 3


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

    evolving_pattern = (config.state == "h" and config.head == BLANK
                        and config.right == "" and config.left != "")
    if not evolving_pattern:
        model = EvolvingModel()
        assert model.accept(config) == halting_accept(config)
        assert model.invocation_log == []


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
