"""Generic run loop: selection, verdicts, budgets, cost accounting."""

import random
import tracemalloc
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
    select_instruction,
    start_config,
)
from evosim.tape import ALPHABET, start_tape, tape_view
from oracle_tm import oracle_run

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


def test_sweep_states_of_the_shipped_machines():
    runaway = Procedure([Instruction("q0", BLANK, "q0", BLANK, "R")])
    sweeps = {name: set(procedure._sweeps) for name, procedure in PROCEDURES.items()}
    assert sweeps == {"right_scanner": {"h"},
                      "palindrome": {"seek0", "seek1", "left"},
                      "binary_increment": {"scan", "ret"}}
    assert all(not procedure._blank_sweeps for procedure in PROCEDURES.values())
    assert (runaway._sweeps, set(runaway._blank_sweeps)) == ({}, {"q0"})
    # Rewrites are stepped one cell at a time. The halt state is in neither
    # table: its blank walks inside the tape are crossed apart, either way,
    # and past the last cell each of its blank steps is asked about.
    assert "carry" not in sweeps["binary_increment"]
    assert "h" not in sweeps["palindrome"]
    h_right = Procedure([Instruction("h", BLANK, "h", BLANK, "R")])
    assert (h_right._sweeps, h_right._blank_sweeps) == ({}, {})


STATES = ("q0", "a", "b", "h")
SYMBOLS = ("0", "1", BLANK)

# Small random procedures with instructions out of h (the trie is consulted
# mid-run), left moves at the origin and blank writes (interior blanks).
# Most are laid over a shipped machine, over a scanner that blanks its
# zeros, or over a scanner that rewinds to the origin, so that runs often
# sweep (h in the scanner, seek0/seek1 and left in the palindrome machine,
# scan/ret in the increment machine, a and b in the rewinder) and reach h
# on a right-edge blank; some of those then leave it by a random
# instruction keyed on (h, blank), and the random extras may break or make
# a sweep.


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
# blanks to the mark, then cross them again in the blank-sweep state d up to
# the first 1, where no instruction applies: the tape must not grow.
FILL_TABLE = {("q0", BLANK): ("a", "0", "R"), ("a", "0"): ("a", BLANK, "R"),
              ("a", "1"): ("c", "1", "L"), ("c", BLANK): ("c", BLANK, "L"),
              ("c", "0"): ("d", "0", "R"), ("d", BLANK): ("d", BLANK, "R")}
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
    asked about."""

    def __init__(self):
        super().__init__()
        self.asked = []

    def accept(self, config):
        self.asked.append(config)
        return super().accept(config)


def test_long_accepted_runs_ask_the_acceptor_once():
    rng = random.Random(0)
    half = "".join(rng.choice("01") for _ in range(100))
    scanned = "".join(rng.choice("01") for _ in range(8000))
    for name, text in (("palindrome", half + half[::-1]), ("right_scanner", scanned)):
        world = SpyModel()
        assert run(world, PROCEDURES[name], text, 100_000).accepted
        assert len(world.asked) == 1, name


def test_views_share_the_symbols_of_the_alphabet():
    # Every configuration the acceptor keeps holds its head; a fresh string
    # per view would grow the evolving model's log.
    cells = start_tape("01")
    heads = [tape_view("h", cells, pos).head for pos in (1, 2, 0)]
    assert all(head is symbol for head, symbol in zip(heads, ALPHABET))


@settings(max_examples=400, deadline=None)
@given(procedures, st.text(alphabet="01", max_size=24), budgets)
# Sweeps that end on the right-edge blank exactly at the budget (the
# scanner's h), one cell short of that blank, on the right-edge blank inside
# the budget (seek0, scan, ret), cut by the budget (seek0, scan), and on a
# blank that the palindrome machine wrote inside the tape (its second seek0,
# and every left sweep), and on a blank inside the tape in h. Left sweeps
# cut by the budget (the rewinder's b, the palindrome machine's left), one
# that lands on a non-blank origin, and one in h that stops on each blank.
# The runaway's end-of-tape blank sweep, under budgets that leave it 0, 1
# and 36 steps, and a blank-sweep state over blanks inside the tape. The
# palindrome machine's final blank walk of h, cut by the budget on a blank
# inside the tape: not asked about, and out of budget.
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
