"""Generic run loop: selection, verdicts, budgets, cost accounting."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evosim import (
    BLANK,
    Configuration,
    DeterminationError,
    EvolvingModel,
    Instruction,
    Procedure,
    StandardModel,
    Verdict,
    apply_instruction,
    compute_function,
    extract_string,
    load_procedure,
    right_scanner,
    run,
    select_instruction,
    start_config,
)

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


def test_select_flags_bypassed_collisions():
    clashing = Procedure.unchecked([
        Instruction("h", "1", "h", "1", "R"),
        Instruction("h", "1", "h", "0", "L"),
    ])
    config = Configuration("h", "0", "1", "0")
    with pytest.raises(DeterminationError):
        select_instruction(clashing, config)


def test_left_edge_makes_the_key_match_inapplicable():
    going_left = Procedure([Instruction("q0", BLANK, "p", BLANK, "L")])
    assert select_instruction(going_left, start_config("1")) is None


def test_run_scanner_hand_trace():
    result = run(V, SCANNER, "101", 100)
    assert result.verdict is Verdict.ACCEPTED
    assert result.cost.path_length == 5
    assert result.final_string == "101"
    assert result.path == (
        Configuration("q0", "", BLANK, "101"),
        Configuration("h", BLANK, "1", "01"),
        Configuration("h", BLANK + "1", "0", "1"),
        Configuration("h", BLANK + "10", "1", ""),
        Configuration("h", BLANK + "101", BLANK, ""),
    )


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
