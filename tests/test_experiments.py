"""Saturation, sibling search, traced runs, the order demo."""

import itertools
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evosim import (
    BLANK,
    Configuration,
    EvolvingModel,
    Instruction,
    Procedure,
    StandardModel,
    Verdict,
    binary_strings,
    check_determination,
    encode_snapshot,
    fork,
    order_demo,
    right_scanner,
    run,
    run_traced,
    saturate,
    sibling_search,
)
from evosim import experiments
from evosim.engine import LOG_LIMIT
from evosim.experiments import Answers
from evosim.tape import start_tape

# The right scanner with an `h` that walks on over blanks past the last
# cell: asked at every step, so a rejected input is asked until the budget.
WALK_ON = Procedure([*right_scanner(), Instruction("h", BLANK, "h", BLANK, "R")])


def test_right_scanner_is_the_three_rule_sweep():
    scanner = right_scanner()
    assert set(scanner) == {
        Instruction("q0", BLANK, "h", BLANK, "R"),
        Instruction("h", "0", "h", "0", "R"),
        Instruction("h", "1", "h", "1", "R"),
    }
    assert check_determination(scanner) == []


def test_right_scanner_accepts_everything_under_the_stateless_model():
    model = StandardModel()
    scanner = right_scanner()
    for n in range(9):
        for text in binary_strings(n):
            assert run(model, scanner, text, 100).accepted


def test_saturate_length_one_by_hand():
    model = EvolvingModel()
    report = saturate(model, 1)
    assert report.precondition_ok
    assert report.fed == 4
    assert [t for t, _ in report.feed_answers] == ["00", "01", "10", "11"]
    assert all(v == "accepted" for _, v in report.feed_answers)
    assert report.probe_answers == (
        ("0", "halted-rejected"), ("1", "halted-rejected"))


@pytest.mark.parametrize("history", [(), ("101", "0", "11011", "")])
def test_saturation_answers_are_the_runs_one_by_one(history):
    scanner = right_scanner()
    model = EvolvingModel()
    for text in history:
        run(model, scanner, text)
    replay = fork(model)
    report = saturate(model, 3)
    expected = [[(text, run(replay, scanner, text).verdict.value)
                 for text in binary_strings(length)] for length in (4, 3)]
    assert report.feed_answers == expected[0]
    assert report.probe_answers == expected[1]
    assert list(report.feed_answers) == expected[0]
    assert [report.probe_answers[i] for i in range(8)] == expected[1]


def test_a_slice_of_the_answers_is_a_list_of_its_entries():
    report = saturate(EvolvingModel(), 3)
    answers = list(report.probe_answers)
    for part in (slice(1, 3), slice(None), slice(-3, None), slice(None, None, -2),
                 slice(6, 2), slice(2, 100, 3)):
        assert report.probe_answers[part] == answers[part]
    assert report.feed_answers[:2] == [("0000", "accepted"), ("0001", "accepted")]


@pytest.mark.parametrize("procedure", [right_scanner(), WALK_ON], ids=["scanner", "walk-on"])
@pytest.mark.parametrize("history", [(), ("101", "0", "11011", "")])
def test_saturate_and_sibling_search_match_a_loop_over_run(procedure, history):
    base = EvolvingModel()
    for text in history:
        run(base, right_scanner(), text)
    world, reference = fork(base), fork(base)
    budget = 60

    report = saturate(world, 3, procedure, budget)
    for length, answers in ((4, report.feed_answers), (3, report.probe_answers)):
        verdicts = [run(reference, procedure, text, budget).verdict
                    for text in binary_strings(length)]
        assert answers == [(text, verdict.value) for text, verdict
                           in zip(binary_strings(length), verdicts)]
        assert answers.codes == bytes(map(list(Verdict).index, verdicts))

    for text in ("10", "101", "0110"):
        result = sibling_search(world, text, procedure, budget)
        used, witness = 0, None
        for candidate in binary_strings(len(text)):
            used += 1
            if run(reference, procedure, candidate, budget).accepted:
                witness = candidate
                break
        assert (result.found, result.queries_used, result.witness) == (
            witness is not None, used, witness)

    assert encode_snapshot(world) == encode_snapshot(reference)
    assert world.acceptor_ticks == reference.acceptor_ticks
    assert list(world.invocation_log) == list(reference.invocation_log)


def test_a_pass_runs_the_start_tapes_of_its_strings_in_order(monkeypatch):
    # The tapes that saturate and sibling_search hand the run loop, built
    # from bits, are those that `start_tape` builds from the strings, in
    # `binary_strings` order, for every length up to 8.
    drive = experiments.walk
    seen = []

    def recording(steps, cells, pos, state, room, applied, ask):
        seen.append((type(cells), bytes(cells)))
        return drive(steps, cells, pos, state, room, applied, ask)

    def expected(*lengths):
        return [(bytearray, bytes(start_tape(text)))
                for length in lengths for text in binary_strings(length)]

    monkeypatch.setattr(experiments, "walk", recording)
    for n in range(8):
        world = EvolvingModel()
        saturate(world, n)
        assert seen == expected(n + 1, n)
        seen.clear()
        sibling_search(world, "1" * (n + 1))
        assert seen == expected(n + 1)[:1]
        seen.clear()
        sibling_search(world, "1" * n)
        assert seen == expected(n)
        seen.clear()


@settings(deadline=None)
@given(st.lists(st.text(alphabet="01", max_size=5), max_size=8),
       st.text(alphabet="01", max_size=4))
@example(["000", "010"], "11")
def test_sibling_search_is_a_run_by_run_search(history, text):
    # On forks of one world, the first accepted candidate in
    # `binary_strings` order, the number of runs it took and the growth;
    # "000" and "010" leave "00" and "01" rejected, so the witness of
    # "11" is the third candidate.
    base = EvolvingModel()
    for query in history:
        run(base, right_scanner(), query)
    world, reference = fork(base), fork(base)
    before = encode_snapshot(reference)
    used, witness = 0, None
    for candidate in binary_strings(len(text)):
        used += 1
        if run(reference, right_scanner(), candidate).accepted:
            witness = candidate
            break
    result = sibling_search(world, text)
    assert (result.found, result.queries_used, result.witness) == (
        witness is not None, used, witness)
    assert result.delta.empty == (encode_snapshot(reference) == before)
    assert encode_snapshot(world) == encode_snapshot(reference)
    assert world.invocation_log == reference.invocation_log


def test_a_pass_with_a_budget_below_one_is_an_error_before_any_run():
    world = EvolvingModel()
    with pytest.raises(ValueError, match="budget"):
        saturate(world, 2, budget=0)
    with pytest.raises(ValueError, match="budget"):
        sibling_search(world, "10", budget=0)
    assert (world.trie.state_count, world.acceptor_ticks, len(world.ring)) == (1, 0, 0)


@pytest.mark.parametrize("budget", [1.5, 2.0, 1e4])
def test_a_pass_with_a_budget_that_is_not_an_integer_is_an_error_before_any_run(budget):
    two_step = Procedure([Instruction("q0", BLANK, "a", BLANK, "R"),
                          Instruction("a", BLANK, "h", BLANK, "R")])
    world = EvolvingModel()
    with pytest.raises(TypeError):
        saturate(world, 1, two_step, budget=budget)
    with pytest.raises(TypeError):
        sibling_search(world, "00", budget=budget)
    assert encode_snapshot(world) == encode_snapshot(EvolvingModel())
    assert (world.acceptor_ticks, len(world.ring)) == (0, 0)


def test_a_negative_probe_length_is_an_error_before_any_run():
    world = EvolvingModel()
    with pytest.raises(ValueError, match="probe length"):
        saturate(world, -1)
    assert encode_snapshot(world) == encode_snapshot(EvolvingModel())
    assert (world.acceptor_ticks, len(world.ring)) == (0, 0)


def test_a_saturation_pass_codes_its_verdicts_in_verdict_order():
    # "1010" leaves "101" one step below an accepting chain end, and a
    # budget of 4 steps cuts every 4-symbol feed run one step short of its
    # edge: the feed ends out of budget, the probes accepted or rejected.
    model = EvolvingModel()
    run(model, right_scanner(), "1010")
    reference = fork(model)
    report = saturate(model, 3, budget=4)
    verdicts = [run(reference, right_scanner(), text, 4).verdict
                for length in (4, 3) for text in binary_strings(length)]
    assert set(verdicts) == set(Verdict)
    order = {Verdict.ACCEPTED: 0, Verdict.HALTED_REJECTED: 1, Verdict.BUDGET_EXCEEDED: 2}
    assert list(order) == list(Verdict)
    codes = report.feed_answers.codes + report.probe_answers.codes
    assert codes == bytes(order[verdict] for verdict in verdicts)


@pytest.mark.parametrize("n", range(11))
def test_binary_strings_are_the_joined_product(n):
    assert list(binary_strings(n)) == ["".join(bits)
                                       for bits in itertools.product("01", repeat=n)]


def test_saturation_answers_are_read_only_sequences():
    report = saturate(EvolvingModel(), 1)
    answers = report.probe_answers
    pairs = (("0", "halted-rejected"), ("1", "halted-rejected"))
    assert len(answers) == 2
    assert answers[-1] == ("1", "halted-rejected")
    assert answers[-2] == answers[0] == ("0", "halted-rejected")
    assert answers == pairs and pairs == answers
    assert answers == list(pairs) and list(pairs) == answers
    assert answers != pairs[:1] and pairs[:1] != answers
    assert report.feed_answers != pairs
    with pytest.raises(IndexError):
        answers[2]
    with pytest.raises(IndexError):
        answers[-3]
    with pytest.raises(TypeError):
        answers[0] = ("0", "accepted")
    assert saturate(EvolvingModel(), 0).probe_answers == (("", "halted-rejected"),)


@st.composite
def answer_views(draw):
    """An `Answers` view of random codes, with the default renderer or a
    line renderer and a head of 0 or 1 entries, and the list it renders."""
    length = draw(st.integers(0, 6))
    codes = bytes(draw(st.lists(st.integers(0, len(Verdict) - 1),
                                min_size=2 ** length, max_size=2 ** length)))
    head = tuple(draw(st.lists(st.text(max_size=3), max_size=1)))
    verdicts = list(Verdict)
    texts = binary_strings(length)
    if draw(st.booleans()):
        view = Answers(length, codes, head=head)
        rendered = [(text, verdicts[code].value) for text, code in zip(texts, codes)]
    else:
        view = Answers(length, codes, lambda text, code: f"{text}:{code}", head)
        rendered = [f"{text}:{code}" for text, code in zip(texts, codes)]
    return view, [*head, *rendered]


@given(answer_views(), st.lists(st.slices(2 ** 6 + 1), max_size=8))
def test_an_answers_view_reads_as_the_list_it_renders(drawn, slices):
    view, expected = drawn
    size = len(expected)
    assert len(view) == size
    assert list(view) == expected and view == expected and view == tuple(expected)
    assert [view[i] for i in range(-size, size)] == expected + expected
    for part in (slice(None), slice(1, 3), slice(-3, None), slice(None, None, -2),
                 *slices):
        assert view[part] == expected[part]
    for index in (size, -size - 1):
        with pytest.raises(IndexError):
            view[index]


def test_a_saturation_that_grows_nothing_retains_next_to_nothing():
    model = EvolvingModel()
    saturate(model, 10)
    tracemalloc.start()
    try:
        report = saturate(model, 10)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert report.fed == 2 ** 11 and len(report.probe_answers) == 2 ** 10
    # One byte per run, and the ring's LOG_LIMIT records in place of older
    # ones; a (text, verdict) pair per run would take over 1 MB.
    assert retained <= 128 * 1024


def test_probe_before_any_feeding_is_accepted():
    model = EvolvingModel()
    assert run(model, right_scanner(), "0", 100).accepted


def test_saturate_length_three_rejects_every_probe():
    report = saturate(EvolvingModel(), 3)
    assert report.fed == 16
    assert len(report.probe_answers) == 8
    assert all(v == "halted-rejected" for _, v in report.probe_answers)


def test_sibling_search_on_a_fresh_world_hits_first():
    model = EvolvingModel()
    result = sibling_search(model, "101")
    assert result.found
    assert result.queries_used == 1
    assert result.witness == "000"
    assert not result.delta.empty
    assert str(result.delta) == "states +3, transitions +3, accepting +1"


def test_sibling_search_after_saturation_exhausts_quietly():
    model = EvolvingModel()
    saturate(model, 3)
    result = sibling_search(model, "101")
    assert not result.found
    assert result.queries_used == 8
    assert result.delta.empty


def test_sibling_search_guards_desk_scale():
    with pytest.raises(ValueError):
        sibling_search(EvolvingModel(), "0" * 21)


def test_traced_scan_collects_the_single_halt():
    model = EvolvingModel()
    result, trace = run_traced(model, right_scanner(), "101")
    assert result.verdict is Verdict.ACCEPTED
    assert trace.fed_strings == ("101",)
    assert trace.halting_configs == (Configuration("h", BLANK + "101", BLANK, ""),)
    assert trace.same_length == ("101",)
    assert trace.longer_by_two == ()


def test_trace_is_empty_when_the_halt_state_is_never_reached():
    sidestep = Procedure([Instruction("q0", BLANK, "x", BLANK, "R")])
    model = EvolvingModel()
    result, trace = run_traced(model, sidestep, "11")
    assert result.verdict is Verdict.HALTED_REJECTED
    assert trace.halting_configs == ()
    assert trace.fed_strings == ()
    assert trace.same_length == ()
    assert trace.longer_by_two == ()


def test_trace_never_outgrows_the_path():
    model = EvolvingModel()
    for text in ("0", "01", "011"):
        result, trace = run_traced(model, right_scanner(), text)
        assert len(trace.fed_strings) <= result.cost.path_length


def test_a_traced_run_keeps_every_record_beyond_the_ring():
    model = EvolvingModel()
    run(model, WALK_ON, "101")
    result, trace = run_traced(model, WALK_ON, "10", 600)
    assert result.verdict is Verdict.BUDGET_EXCEEDED
    # Asked at the right edge on each of the 598 steps after the scan of
    # "10", on a tape one blank longer each time: all distinct.
    assert len(trace.halting_configs) == 598
    assert trace.fed_strings == ("10",)
    assert len(model.invocation_log) == LOG_LIMIT
    last = model.invocation_log[-1]
    assert last.config == trace.halting_configs[-1] == result.path[-1]
    assert last.text == "10" and not last.accepted


def test_trie_traffic_stays_below_two_to_the_input_length():
    # within a budget of 2^|y| steps, a run can feed the trie fewer than
    # 2^|y| distinct strings (|y| >= 1; a length-0 run may feed exactly one)
    from pathlib import Path

    from evosim import load_procedure

    machines = Path(__file__).resolve().parent.parent / "machines"
    procedures = [right_scanner(),
                  load_procedure(machines / "binary_increment.proc"),
                  load_procedure(machines / "palindrome.proc")]
    for procedure in procedures:
        for n in range(1, 9):
            model = EvolvingModel()
            for text in ("0" * n, "1" * n, ("10" * n)[:n]):
                _, trace = run_traced(model, procedure, text, budget=2 ** n)
                assert len(trace.fed_strings) < 2 ** n


def test_eager_acceptance_can_touch_the_trie_mid_run():
    # The palindrome machine decides via the origin pattern, but its final
    # sweep may first park on a blank at the allocated right edge; when it
    # does, the acceptor is consulted with the all-blank tape content (the
    # empty string) and the trie evolves as a side effect. Whether that
    # happens depends on how far right earlier seeks allocated.
    from pathlib import Path

    from evosim import load_procedure

    machines = Path(__file__).resolve().parent.parent / "machines"
    palindrome = load_procedure(machines / "palindrome.proc")
    for text, fed in (("11", ("",)), ("00", ("",)), ("0110", ()),
                      ("010", ()), ("10", ())):
        model = EvolvingModel()
        result, trace = run_traced(model, palindrome, text, 100_000)
        assert result.accepted == (text == text[::-1])
        assert trace.fed_strings == fed, text


def test_order_demo_transcript_is_pinned():
    expected = (
        "order demo: one procedure, two query orders\n"
        "engine A: 101 -> accept, then 10 -> reject\n"
        "engine B: 10 -> accept, then 101 -> accept\n"
        "divergence on 10: A says reject, B says accept\n"
        "final structures: A states 4 accepting [s3]; "
        "B states 4 accepting [s2 s3]\n"
        "structures equal: no\n"
    )
    assert order_demo() == expected
    assert order_demo() == expected
