"""Generic run loop: selection, verdicts, budgets, cost accounting."""

import gc
import random
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

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
    apply_instruction,
    compute_function,
    extract_string,
    halting_accept,
    load_procedure,
    right_scanner,
    run,
    saturate,
    select_instruction,
    sibling_search,
    start_config,
)
from evosim.engine import LOG_LIMIT, encode_snapshot, fork
from evosim.tape import (ALPHABET, NO_STEPS, ONE, START_STATE, SYMBOL, ZERO, start_tape,
                         tape_string, tape_view, walk)
from oracle_tm import TrieAcceptor, oracle_run
from oracle_trie import OracleTrie

V = StandardModel()
SCANNER = right_scanner()

binary = st.text(alphabet="01", max_size=12)


def test_select_picks_the_start_rule():
    inst = select_instruction(SCANNER, start_config("101"))
    assert inst == Instruction("q0", BLANK, "h", BLANK, "R")


def test_select_none_when_no_rule_applies():
    halted = Configuration("h", BLANK + "101", BLANK, "")
    assert select_instruction(SCANNER, halted) is None


def test_select_none_for_empty_procedure():
    assert select_instruction(Procedure([]), start_config("1")) is None


def test_left_edge_makes_the_key_match_inapplicable():
    going_left = Procedure([Instruction("q0", BLANK, "p", BLANK, "L")])
    assert select_instruction(going_left, start_config("1")) is None


def test_run_scanner_hand_trace():
    result = run(V, SCANNER, "101", 100)
    assert result.verdict is Verdict.ACCEPTED
    assert result.cost.path_length == 5
    assert result.final_string == "101"
    assert result.start == start_config("101")
    assert result.path == (
        Configuration("q0", "", BLANK, "101"),
        Configuration("h", BLANK, "1", "01"),
        Configuration("h", BLANK + "1", "0", "1"),
        Configuration("h", BLANK + "10", "1", ""),
        Configuration("h", BLANK + "101", BLANK, ""),
    )


def test_path_replay_takes_exactly_the_applied_instructions():
    result = run(V, SCANNER, "101", 100)
    # Out of order, and the start instruction again where no rule of the
    # replay applies: each replay step must take the next applied one.
    for applied in (result.applied[::-1], result.applied[:1] * 2):
        with pytest.raises(ValueError, match="step"):
            result._replace(applied=applied).path


def test_runaway_memory_is_linear_in_the_budget():
    runaway = Procedure([Instruction("q0", BLANK, "q0", BLANK, "R")])
    budget = 10 ** 5
    tracemalloc.start()
    try:
        result = run(V, runaway, "", budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.verdict is Verdict.BUDGET_EXCEEDED
    assert result.cost.transition_ticks == budget
    # Keeping every configuration would hold about budget**2 / 2 tape cells
    # (gigabytes); the tape, the applied list and its tuple need a few
    # pointers per step.
    assert peak < 16 * 2 ** 20


def test_run_budget_exceeded():
    result = run(V, SCANNER, "10101", 3)
    assert result.verdict is Verdict.BUDGET_EXCEEDED
    assert result.cost.transition_ticks == 3


def test_run_rejects_budget_below_one():
    with pytest.raises(ValueError):
        run(V, SCANNER, "1", 0)
    # The budget is checked before the text.
    with pytest.raises(ValueError, match="budget"):
        run(StandardModel(), right_scanner(), "2", 0)


def test_halted_rejected_when_final_configuration_not_accepted():
    stuck = Procedure([Instruction("q0", BLANK, "dead", BLANK, "R")])
    result = run(V, stuck, "1", 10)
    assert result.verdict is Verdict.HALTED_REJECTED


def test_run_under_the_evolving_model_is_order_dependent():
    world = EvolvingModel()
    assert run(world, SCANNER, "101", 100).verdict is Verdict.ACCEPTED
    assert run(world, SCANNER, "10", 100).verdict is Verdict.HALTED_REJECTED
    fresh = EvolvingModel()
    assert run(fresh, SCANNER, "10", 100).verdict is Verdict.ACCEPTED
    assert run(fresh, SCANNER, "101", 100).verdict is Verdict.ACCEPTED


def test_compute_function_scanner_identity():
    assert compute_function(V, SCANNER, "101") == "101"


def test_compute_function_none_without_acceptance():
    assert compute_function(V, SCANNER, "10", budget=2) is None


@settings(max_examples=200)
@given(binary)
def test_stateless_runs_replay_identically(text):
    assert run(V, SCANNER, text, 100) == run(V, SCANNER, text, 100)


@settings(max_examples=200)
@given(binary)
def test_run_invariants_on_the_scanner(text):
    result = run(V, SCANNER, text, 100)
    # start-string law
    assert extract_string(result.path[0]) == text
    # cost consistency
    assert result.cost.path_length == result.cost.transition_ticks + 1
    assert result.cost.acceptor_ticks == 0
    # path validity
    for before, after, inst in zip(result.path, result.path[1:], result.applied):
        assert select_instruction(SCANNER, before) == inst
        assert apply_instruction(before, inst) == after
    # acceptance gate
    if result.verdict is Verdict.ACCEPTED:
        assert select_instruction(SCANNER, result.path[-1]) is None


MACHINES = Path(__file__).resolve().parent.parent / "machines"
PROCEDURES = {
    "right_scanner": SCANNER,
    "palindrome": load_procedure(MACHINES / "palindrome.proc"),
    "binary_increment": load_procedure(MACHINES / "binary_increment.proc"),
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(PROCEDURES)), st.text(alphabet="01", max_size=10))
def test_only_the_acceptor_varies_between_models(name, text):
    procedure = PROCEDURES[name]
    standard = run(V, procedure, text)
    evolving = run(EvolvingModel(), procedure, text)
    assert evolving.path == standard.path
    assert evolving.applied == standard.applied
    assert evolving.final_string == standard.final_string
    assert evolving.cost.path_length == standard.cost.path_length
    assert evolving.cost.transition_ticks == standard.cost.transition_ticks


def loop_keys(procedure):
    """The (state, symbol) keys of a procedure's loop entries: those the walk
    crosses a run of cells on in one move."""
    return {(state, SYMBOL[code]) for state, row in procedure._steps.items()
            for code, entry in enumerate(row) if entry and entry[5] is not None}


def test_sweep_states_of_the_shipped_machines():
    assert {name: loop_keys(procedure) for name, procedure in PROCEDURES.items()} == {
        "right_scanner": {("h", "0"), ("h", "1")},
        "palindrome": {("seek0", "0"), ("seek0", "1"), ("seek1", "0"),
                       ("seek1", "1"), ("left", "0"), ("left", "1"), ("h", BLANK)},
        "binary_increment": {("scan", "0"), ("scan", "1"),
                             ("ret", "0"), ("ret", "1")}}
    # Every entry links the row of its target, the shared empty row for a
    # target with no instruction (the scanner's h reading a blank).
    for procedure in PROCEDURES.values():
        steps = procedure._steps
        for row in steps.values():
            for entry in filter(None, row):
                assert entry[3] is steps.get(entry[2], NO_STEPS)
    assert SCANNER._steps["h"][0] is None
    # Rewrites are stepped one cell at a time.
    assert not any(state == "carry" for state, _ in loop_keys(PROCEDURES["binary_increment"]))
    # The palindrome machine's final walk left in h loops on blanks alone,
    # so it stops at the nearest 0 or 1, and fills its steps with the one
    # instruction.
    stoppers, _, single = PROCEDURES["palindrome"]._steps["h"][0][5]
    assert stoppers == (ZERO, ONE)
    assert single == Instruction("h", BLANK, "h", BLANK, "L")
    # The runaway's q0 loops on blanks past the end of the tape. h moving
    # right on blanks loops too, but its crossing stops at the last cell,
    # where it is asked about, and from there takes one cell at a time,
    # each asked about: (head, tape length, steps taken) at each question.
    runaway = Procedure([Instruction("q0", BLANK, "q0", BLANK, "R")])
    assert loop_keys(runaway) == {("q0", BLANK)}
    h_right = Procedure([Instruction("h", BLANK, "h", BLANK, "R")])
    assert loop_keys(h_right) == {("h", BLANK)}
    cells, applied, asked = bytearray(3), [], []

    def ask(cells, pos):
        asked.append((pos, len(cells), len(applied)))
        return True

    assert walk(h_right._steps, cells, 0, "h", 10, applied, ask) == 2
    assert asked == [(pos, pos + 1, pos) for pos in range(2, 11)]


STATES = ("q0", "a", "b", "h")
SYMBOLS = ("0", "1", BLANK)

# Small random procedures with instructions out of h (the trie is consulted
# mid-run), left moves at the origin and blank writes (interior blanks).
# Most are laid over a shipped machine, over a scanner that blanks its
# zeros, or over a scanner that rewinds to the origin, so that runs often
# cross runs of cells in a loop (an instruction that writes back what it
# reads and stays in its state: h in the scanner, seek0/seek1, left and h
# in the palindrome machine, scan/ret in the increment machine, a and b in
# the rewinder) and reach h on a right-edge blank; some of those then leave
# it by a random instruction keyed on (h, blank), and the random extras may
# break a loop, make one, or make it loop on one symbol or on blanks.


def table_of(procedure):
    return {(i.state, i.read): (i.target, i.write, i.move) for i in procedure}


SCANNER_TABLE = table_of(SCANNER)
BLANKING_TABLE = {**SCANNER_TABLE, ("h", "0"): ("h", BLANK, "R")}
PALINDROME_TABLE = table_of(PROCEDURES["palindrome"])
INCREMENT_TABLE = table_of(PROCEDURES["binary_increment"])
# The scanner's h sweep state, entered left of a blank that a wrote inside
# the tape: on "101" h must cross that blank (without asking about it)
# before it sweeps on to the right edge.
INTERIOR_BLANK_TABLE = {**SCANNER_TABLE, ("q0", BLANK): ("a", BLANK, "R"),
                        ("a", "1"): ("a", "1", "R"), ("a", "0"): ("b", BLANK, "L"),
                        ("b", "1"): ("h", "1", "L"), ("h", BLANK): ("h", BLANK, "R")}
# Scan right, then sweep left (b) back to the origin blank and step into h.
REWIND_TABLE = {("q0", BLANK): ("a", BLANK, "R"), ("a", "0"): ("a", "0", "R"),
                ("a", "1"): ("a", "1", "R"), ("a", BLANK): ("b", BLANK, "L"),
                ("b", "0"): ("b", "0", "L"), ("b", "1"): ("b", "1", "L"),
                ("b", BLANK): ("h", BLANK, "R")}
# The increment machine, then a left sweep to its origin, where it wrote
# the carry's 1 on "111": with no blank to stop at, the sweep lands on the
# origin and halts there.
INCREMENT_REWIND_TABLE = {**INCREMENT_TABLE, ("ret", BLANK): ("b", BLANK, "L"),
                          ("b", "0"): ("b", "0", "L"), ("b", "1"): ("b", "1", "L")}
# Blank the zeros, then sweep left in h: h must cross every blank that a
# wrote (without being asked about it) and sweep on to the origin.
H_LEFT_TABLE = {("q0", BLANK): ("a", BLANK, "R"), ("a", "0"): ("a", BLANK, "R"),
                ("a", "1"): ("a", "1", "R"), ("a", BLANK): ("h", BLANK, "L"),
                ("h", "0"): ("h", "0", "L"), ("h", "1"): ("h", "1", "L"),
                ("h", BLANK): ("h", BLANK, "L")}
RUNAWAY_TABLE = {("q0", BLANK): ("q0", BLANK, "R")}
# Mark the origin with a 0 and blank the leading zeros, walk back over the
# blanks to the mark, then cross them again in d, which loops on blanks, up
# to the first 1, where no instruction applies: the tape must not grow.
FILL_TABLE = {("q0", BLANK): ("a", "0", "R"), ("a", "0"): ("a", BLANK, "R"),
              ("a", "1"): ("c", "1", "L"), ("c", BLANK): ("c", BLANK, "L"),
              ("c", "0"): ("d", "0", "R"), ("d", BLANK): ("d", BLANK, "R")}
# Loop on 0 alone, rightward: the crossing stops at the first 1.
ZEROS_TABLE = {("q0", BLANK): ("a", BLANK, "R"), ("a", "0"): ("a", "0", "R"),
               ("a", "1"): ("h", "1", "R"), ("h", "0"): ("h", "0", "R"),
               ("h", "1"): ("h", "1", "R")}
# Keep a leading 1 and the zeros, blank the other ones, then loop left in b
# over zeros and blanks (not h, so never asked) to that 1, where b halts.
ZERO_BLANK_LEFT_TABLE = {("q0", BLANK): ("c", BLANK, "R"), ("c", "1"): ("a", "1", "R"),
                         ("a", "0"): ("a", "0", "R"), ("a", "1"): ("a", BLANK, "R"),
                         ("a", BLANK): ("b", BLANK, "L"), ("b", "0"): ("b", "0", "L"),
                         ("b", BLANK): ("b", BLANK, "L")}
# Mark the origin with a 1 and blank the input, loop left over the blanks
# in c to the mark, then loop right over them in d and on past the end.
OFF_THE_END_TABLE = {("q0", BLANK): ("a", "1", "R"), ("a", "0"): ("a", BLANK, "R"),
                     ("a", "1"): ("a", BLANK, "R"), ("a", BLANK): ("c", BLANK, "L"),
                     ("c", BLANK): ("c", BLANK, "L"), ("c", "1"): ("d", "1", "R"),
                     ("d", BLANK): ("d", BLANK, "R")}
# Mark the origin with a 0, blank the zeros, loop left in b over ones and
# blanks to the mark, then loop right in h over ones and blanks to the last
# cell, where h is asked about, and past it, where every step is asked.
H_ONES_BLANKS_TABLE = {("q0", BLANK): ("a", "0", "R"), ("a", "0"): ("a", BLANK, "R"),
                       ("a", "1"): ("a", "1", "R"), ("a", BLANK): ("b", BLANK, "L"),
                       ("b", "1"): ("b", "1", "L"), ("b", BLANK): ("b", BLANK, "L"),
                       ("b", "0"): ("h", "0", "R"), ("h", "1"): ("h", "1", "R"),
                       ("h", BLANK): ("h", BLANK, "R")}
actions = st.tuples(st.sampled_from(STATES), st.sampled_from(SYMBOLS),
                    st.sampled_from(("L", "R")))


def tables(max_size):
    return st.dictionaries(
        st.tuples(st.sampled_from(STATES), st.sampled_from(SYMBOLS)),
        actions, max_size=max_size)


procedures = st.one_of(
    tables(8),
    st.builds(lambda base, out_of_h, extra: {**base, **out_of_h, **extra},
              st.sampled_from((SCANNER_TABLE, BLANKING_TABLE, PALINDROME_TABLE,
                               INCREMENT_TABLE, REWIND_TABLE)),
              st.dictionaries(st.just(("h", BLANK)), actions, max_size=1),
              tables(2)),
)
# Budgets short enough to cut sweeps, and long enough for a 24-bit
# palindrome check to finish.
budgets = st.one_of(st.integers(min_value=1, max_value=40),
                    st.integers(min_value=1, max_value=800))


class SpyModel(EvolvingModel):
    """An evolving model that also records every configuration it is
    asked about, as the run loop asks it: about the tape."""

    def __init__(self):
        super().__init__()
        self.asked = []

    def accept_tape(self, cells, pos):
        self.asked.append(tape_view("h", cells, pos))
        return super().accept_tape(cells, pos)


def test_long_accepted_runs_ask_the_acceptor_once():
    rng = random.Random(0)
    half = "".join(rng.choice("01") for _ in range(100))
    scanned = "".join(rng.choice("01") for _ in range(8000))
    for name, text in (("palindrome", half + half[::-1]), ("right_scanner", scanned)):
        world = SpyModel()
        assert run(world, PROCEDURES[name], text, 100_000).accepted
        assert len(world.asked) == 1, name


# The scanner, and two machines that go on from an edge question: one whose
# h walks on right over blanks, and one whose h, back at the origin, has
# only a left move there, which does not apply.
WALK_ON = Procedure([*SCANNER, Instruction("h", BLANK, "h", BLANK, "R")])
LEFT_AT_ORIGIN = Procedure([Instruction("q0", BLANK, "h", BLANK, "R"),
                            Instruction("h", "0", "h", "0", "L"),
                            Instruction("h", BLANK, "q1", BLANK, "L")])


@pytest.mark.parametrize("procedure, text, budget, expected", [
    (SCANNER, "101", 4, (Verdict.ACCEPTED, 4, 1)),
    (SCANNER, "101", 3, (Verdict.BUDGET_EXCEEDED, 3, 0)),
    (WALK_ON, "101", 4, (Verdict.BUDGET_EXCEEDED, 4, 1)),
    (WALK_ON, "101", 5, (Verdict.BUDGET_EXCEEDED, 5, 2)),
    (LEFT_AT_ORIGIN, "0", 2, (Verdict.ACCEPTED, 2, 1)),
    (LEFT_AT_ORIGIN, "0", 1, (Verdict.BUDGET_EXCEEDED, 1, 0)),
])
def test_the_budget_ends_a_run_only_where_an_instruction_applies(
        procedure, text, budget, expected):
    # (verdict, applied steps, questions asked): a run whose budget is used
    # up on an edge question is still asked there, and it ends with the
    # answer when no instruction applies there, out of budget otherwise.
    world = SpyModel()
    result = run(world, procedure, text, budget)
    assert (result.verdict, len(result.applied), len(world.asked)) == expected
    world = SpyModel()
    applied = []
    code = walk(procedure._steps, start_tape(text), 0, START_STATE, budget, applied,
                world.accept_tape)
    assert (list(Verdict)[code], len(applied), len(world.asked)) == expected



def _python_frames(function, *args):
    """The Python functions that `function(*args)` enters, by name, with
    the number of times each is entered (C calls are not counted).

    The cyclic collector is off meanwhile: a collection would run the
    `gc.callbacks` that Hypothesis installs, whose frames are not the
    function's."""
    frames = Counter()

    def profile(frame, event, arg):
        if event == "call":
            frames[frame.f_code.co_name] += 1

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return frames


@pytest.mark.parametrize("driver", [run, walk])
# Model e on a fresh world and on one the run's string has grown, and model
# v, which has no trie to grow (None).
@pytest.mark.parametrize("first_time", [True, False, None],
                         ids=["True", "False", "StandardModel"])
def test_a_scanner_run_enters_only_the_run_paths_own_frames(driver, first_time):
    # A run of the scanner enters each function of its path once, whether
    # the trie grows or not: either model is asked about the tape, in place
    # by the walk, with no configuration built (no `tape_view`, `accept` or
    # `halting_accept`), the trie is asked with no second symbol check (no
    # `answer`), and the value types the run builds (for `run` a cost meter
    # and a report) take no Python frame, where a named tuple's generated
    # `__new__` takes one per build. `walk` is handed its start tape and
    # the tape question, and `run` builds the tape from the text.
    expected = Counter(["walk", "accept_tape"])
    if first_time is None:
        world = StandardModel()
    else:
        world = EvolvingModel()
        if not first_time:
            run(world, SCANNER, "1011")
        expected.update(["_walk_and_grow"])
    if driver is run:
        expected.update(["run", "start_tape", "tape_string"])
        args = (world, SCANNER, "1011", 100)
    else:
        args = (SCANNER._steps, start_tape("1011"), 0, START_STATE, 100, None,
                world.accept_tape)
    assert _python_frames(driver, *args) == expected


@pytest.mark.parametrize("search", [False, True], ids=["saturate", "sibling_search"])
def test_a_pass_enters_only_the_run_paths_own_frames_per_run(search):
    # A pass enters its own frames (the pass, the trie's depth, its reports)
    # as often at 3 bits as at 2, so the frames of the 3-bit pass beyond
    # those of the 2-bit one are those of its extra runs: 12 for saturate
    # (3 x 2^n runs), whose feeding pass grows the trie on 8 more, and 4
    # for a search of n bits on a world saturated at n, all rejected. Each
    # run enters the scanner's run path alone, one walk that asks the tape
    # question in place, whether the trie grows or not: no string per run,
    # so no `start_tape` and no generator frame.
    def frames(n):
        world = EvolvingModel()
        if search:
            saturate(world, n, SCANNER)
            return _python_frames(sibling_search, world, "0" * n, SCANNER)
        return _python_frames(saturate, world, n, SCANNER)

    runs = 4 if search else 12
    expected = Counter(dict.fromkeys(["walk", "accept_tape", "_walk_and_grow"], runs))
    assert frames(3) - frames(2) == expected


def test_views_share_the_symbols_of_the_alphabet():
    # Every configuration a reader renders holds its head, every record of
    # the evolving model's log among them; a fresh string per view would
    # grow what a reader keeps.
    cells = start_tape("01")
    heads = [tape_view("h", cells, pos).head for pos in (1, 2, 0)]
    assert all(head is symbol for head, symbol in zip(heads, ALPHABET))


# 400 examples in tier-1; more under a larger profile, such as `deep`
# (tests/conftest.py).
@settings(max_examples=max(400, settings.default.max_examples), deadline=None)
@given(procedures, st.text(alphabet="01", max_size=24), budgets)
# Sweeps that end on the right-edge blank exactly at the budget (the
# scanner's h), one cell short of that blank, on the right-edge blank inside
# the budget (seek0, scan, ret), cut by the budget (seek0, scan), and on a
# blank that the palindrome machine wrote inside the tape (its second seek0,
# and every left sweep), and on a blank inside the tape in h. Left sweeps
# cut by the budget (the rewinder's b, the palindrome machine's left), one
# that lands on a non-blank origin, and one in h that stops on each blank.
# The runaway's blank loop past the end of the tape, under budgets that
# leave it 0, 1 and 36 steps, and a blank loop over blanks inside the tape
# that ends at a 1. The
# palindrome machine's final blank walk of h, cut by the budget on a blank
# inside the tape: not asked about, and out of budget. Loops cut by the
# budget: on 0 alone, rightward; on 0 and blank, leftward; on blank in a
# state other than h, inside the tape and on past its end; and h on 1 and
# blank, rightward to the last cell and past it.
@example(ZEROS_TABLE, "0000001", 4)
@example(ZERO_BLANK_LEFT_TABLE, "1011001", 12)
@example(OFF_THE_END_TABLE, "0110", 20)
@example(H_ONES_BLANKS_TABLE, "1011", 18)
@example(REWIND_TABLE, "0110110", 12)
@example(REWIND_TABLE, "0110110", 40)
@example(PALINDROME_TABLE, "0110", 8)
@example(INCREMENT_REWIND_TABLE, "111", 40)
@example(H_LEFT_TABLE, "1101001", 40)
@example(RUNAWAY_TABLE, "", 1)
@example(RUNAWAY_TABLE, "", 2)
@example(RUNAWAY_TABLE, "", 37)
@example(FILL_TABLE, "0001", 40)
@example(PALINDROME_TABLE, "0110", 18)
@example(INTERIOR_BLANK_TABLE, "101", 40)
@example(SCANNER_TABLE, "0110", 5)
@example(SCANNER_TABLE, "0110", 4)
@example(PALINDROME_TABLE, "0110", 6)
@example(PALINDROME_TABLE, "0110", 5)
@example(PALINDROME_TABLE, "10101", 100)
@example(INCREMENT_TABLE, "1011", 40)
@example(INCREMENT_TABLE, "1011", 5)
def test_run_loop_agrees_with_the_replayed_path_and_the_oracle(table, text, budget):
    procedure = Procedure(Instruction(s, r, t, w, m)
                          for (s, r), (t, w, m) in table.items())

    world = SpyModel()
    result = run(world, procedure, text, budget)
    path = result.path
    halts = [c for c in path if c.state == "h" and c.head == BLANK]
    assert world.asked == [c for c in halts if not c.left or not c.right]
    consulted = [c for c in halts
                 if c.left and not c.right and BLANK not in c.left.strip(BLANK)]
    # The ring keeps the last LOG_LIMIT consultations; world.asked holds
    # every question.
    consulted = consulted[-LOG_LIMIT:]
    assert [r.config for r in world.invocation_log] == consulted
    assert [r.text for r in world.invocation_log] == [c.left.strip(BLANK) for c in consulted]
    assert result.final_string == extract_string(path[-1])

    standard = run(V, procedure, text, budget)
    assert standard.path == path
    if standard.verdict is not Verdict.BUDGET_EXCEEDED:
        assert standard.accepted == halting_accept(path[-1])
        assert select_instruction(procedure, path[-1]) is None
    verdict, steps, final = oracle_run(table, text, budget)
    assert (standard.verdict.value, standard.cost.transition_ticks,
            standard.final_string) == (verdict, steps, final)


# A world grown by a few scanner queries, forked for each example: "10" and
# "1101" are rejected in it, one step below an accepting chain end.
GROWN = EvolvingModel()
for _text in ("101", "0", "11011", "", "0110", "111"):
    run(GROWN, SCANNER, _text)


# 400 examples in tier-1; more under a larger profile, such as `deep`
# (tests/conftest.py).
@settings(max_examples=max(400, settings.default.max_examples), deadline=None)
@given(procedures, st.text(alphabet="01", max_size=24), budgets)
@example(SCANNER_TABLE, "10", 40)
@example(H_ONES_BLANKS_TABLE, "1011", 18)
@example(PALINDROME_TABLE, "0110", 18)
@example(RUNAWAY_TABLE, "", 37)
def test_the_run_driver_agrees_with_run(table, text, budget):
    procedure = Procedure(Instruction(s, r, t, w, m)
                          for (s, r), (t, w, m) in table.items())
    for make in (SpyModel, lambda: fork(GROWN)):
        # A walk that records the applied instructions, one that records
        # none, and `run`, each on a world of its own.
        driven, bare, reported = make(), make(), make()
        applied = []
        cells, bare_cells = start_tape(text), start_tape(text)
        code = walk(procedure._steps, cells, 0, START_STATE, budget, applied,
                    driven.accept_tape)
        bare_code = walk(procedure._steps, bare_cells, 0, START_STATE, budget, None,
                         bare.accept_tape)
        result = run(reported, procedure, text, budget)
        assert list(Verdict)[code] is list(Verdict)[bare_code] is result.verdict
        assert tuple(applied) == result.applied
        assert cells == bare_cells
        assert tape_string(cells) == result.final_string
        # The worlds start at 0 ticks, so the counters are the deltas.
        for world in (driven, bare):
            assert world.acceptor_ticks == result.cost.acceptor_ticks
            assert list(world.invocation_log) == list(reported.invocation_log)
            assert encode_snapshot(world) == encode_snapshot(reported)
            if isinstance(world, SpyModel):
                assert world.asked == reported.asked


class ConfigQuestion:
    """A model with the README's protocol alone, `accept` and
    `acceptor_ticks`, over a world of either model: the run loop asks it
    about each configuration, where it asks the world itself about the
    tape."""

    def __init__(self, world):
        self.world = world

    def accept(self, config):
        return self.world.accept(config)

    @property
    def acceptor_ticks(self):
        return self.world.acceptor_ticks


# 200 examples in tier-1; more under a larger profile, such as `deep`.
@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(procedures, st.text(alphabet="01", max_size=24), budgets)
@example(SCANNER_TABLE, "10", 40)
@example(SCANNER_TABLE, "", 40)
@example(H_ONES_BLANKS_TABLE, "1011", 18)
@example(INTERIOR_BLANK_TABLE, "101", 40)
@example(PALINDROME_TABLE, "0110", 18)
def test_the_config_question_agrees_with_the_tape_question(table, text, budget):
    procedure = Procedure(Instruction(s, r, t, w, m)
                          for (s, r), (t, w, m) in table.items())
    # Model v, and model e on forks of one world.
    for by_tape, world in ((StandardModel(), StandardModel()),
                           (fork(GROWN), fork(GROWN))):
        by_config = ConfigQuestion(world)
        result = run(by_tape, procedure, text, budget)
        assert run(by_config, procedure, text, budget) == result
        if isinstance(world, EvolvingModel):
            assert world.invocation_log == by_tape.invocation_log
            assert encode_snapshot(world) == encode_snapshot(by_tape)


# 200 examples in tier-1; more under a larger profile, such as `deep`.
@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(procedures, st.text(alphabet="01", max_size=7), budgets,
       st.lists(st.text(alphabet="01", max_size=7), max_size=7))
@example(SCANNER_TABLE, "10", 40, ["101"])
@example(H_ONES_BLANKS_TABLE, "1011", 18, ["1", "10110"])
@example(INTERIOR_BLANK_TABLE, "101", 40, [])
@example(PALINDROME_TABLE, "0110", 18, ["", "0110"])
def test_model_e_agrees_with_the_reference_acceptor(table, text, budget, history):
    # The reference simulator, asking the paper's acceptor over the
    # reference trie (tests/oracle_trie.py), from a world that both tries
    # grew by the same history of queries.
    procedure = Procedure(Instruction(s, r, t, w, m)
                          for (s, r), (t, w, m) in table.items())
    world, trie = EvolvingModel(), OracleTrie()
    for query in history:
        world.trie.answer(query)
        trie.answer(query)
    acceptor = TrieAcceptor(trie)
    result = run(world, procedure, text, budget)
    assert (result.verdict.value, result.cost.transition_ticks,
            result.final_string) == oracle_run(table, text, budget, acceptor)
    assert result.cost.acceptor_ticks == acceptor.ticks
    assert [r.text for r in world.invocation_log] == acceptor.fed[-LOG_LIMIT:]
    assert encode_snapshot(world) == trie.snapshot()


MIRROR = str.maketrans("01", "10")


def mirrored(text):
    """The string with 0 and 1 swapped (blanks stay)."""
    return text.translate(MIRROR)


def mirrored_instruction(inst):
    return inst._replace(read=mirrored(inst.read), write=mirrored(inst.write))


# 200 examples in tier-1; more under a larger profile, such as `deep`.
@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(procedures, st.text(alphabet="01", max_size=7), budgets,
       st.lists(st.text(alphabet="01", max_size=7), max_size=7))
# Loops on 0 alone (mirrored, on 1 alone), on 0 and blank leftward, and h
# on 1 and blank rightward; a sweep over both symbols, and a rewrite.
@example(ZEROS_TABLE, "0000001", 4, ["0"])
@example(ZERO_BLANK_LEFT_TABLE, "1011001", 12, [])
@example(H_ONES_BLANKS_TABLE, "1011", 18, ["1", "10110"])
@example(SCANNER_TABLE, "10", 40, ["101", "11"])
@example(INCREMENT_TABLE, "1011", 40, ["1100"])
def test_the_mirrored_run_agrees_with_the_run(table, text, budget, history):
    # Swap 0 and 1 in the procedure, the input and the world: under either
    # model each run maps to one with the same verdict, cost and record of
    # steps (mirrored) and the mirrored final string, the trie answers the
    # mirrored queries alike, and the two worlds' arrays match index for
    # index with the sides swapped. No oracle gives this relation: it sets
    # the walk's per-code stopper search and the trie's per-side slots
    # against themselves.
    instructions = [Instruction(s, r, t, w, m) for (s, r), (t, w, m) in table.items()]
    procedure = Procedure(instructions)
    mirror = Procedure(map(mirrored_instruction, instructions))
    world, twin = EvolvingModel(), EvolvingModel()
    for query in history:
        assert twin.trie.answer(mirrored(query)) == world.trie.answer(query)
    for model, image_model in ((StandardModel(), StandardModel()), (world, twin)):
        result = run(model, procedure, text, budget)
        image = run(image_model, mirror, mirrored(text), budget)
        assert (image.verdict, image.cost) == (result.verdict, result.cost)
        assert image.applied == tuple(map(mirrored_instruction, result.applied))
        assert image.final_string == mirrored(result.final_string)
    assert twin.trie.answer(mirrored(text)) == world.trie.answer(text)
    assert [r.text for r in twin.invocation_log] == [
        mirrored(r.text) for r in world.invocation_log]
    assert (twin.trie.kids0, twin.trie.kids1, twin.trie.marks) == (
        world.trie.kids1, world.trie.kids0, world.trie.marks)


# 400 examples in tier-1; more under a larger profile, such as `deep`.
@settings(max_examples=max(400, settings.default.max_examples), deadline=None)
@given(procedures, st.text(alphabet=SYMBOLS, min_size=1, max_size=24),
       st.integers(min_value=0, max_value=23), st.sampled_from(STATES),
       st.integers(min_value=0, max_value=60))
# Crossings: rightward to the edge in h, leftward back to the origin, and
# past the end of the tape.
@example(SCANNER_TABLE, BLANK + "0110", 0, "q0", 40)
@example(REWIND_TABLE, BLANK + "0110110", 0, "q0", 30)
@example(RUNAWAY_TABLE, BLANK, 0, "q0", 37)
def test_a_walk_without_a_record_agrees_with_a_recorded_one(table, tape, pos, state, room):
    # From any state, head cell and room: the same verdict code, the same
    # questions (each answered by the head's place) and the same tape
    # whether the applied instructions are recorded or not; a walk out of
    # budget took exactly `room` steps, any other at most `room`.
    steps = Procedure(Instruction(s, r, t, w, m)
                      for (s, r), (t, w, m) in table.items())._steps
    pos %= len(tape)
    recorded = bytearray(tape.replace(BLANK, "\0"), "ascii")
    bare = bytearray(recorded)
    applied, asked, bare_asked = [], [], []

    def asker(questions):
        def ask(cells, pos):
            questions.append((bytes(cells), pos))
            return pos % 3 != 1
        return ask

    code = walk(steps, recorded, pos, state, room, applied, asker(asked))
    assert walk(steps, bare, pos, state, room, None, asker(bare_asked)) == code
    assert (bare, bare_asked) == (recorded, asked)
    if code == 2:
        assert len(applied) == room
    else:
        assert len(applied) <= room
