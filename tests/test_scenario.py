"""Scenario grammar and execution semantics."""

from pathlib import Path

import pytest

from evosim import ScenarioError
from evosim.scenario import execute_scenario, parse_scenario

MACHINES = Path(__file__).resolve().parent.parent / "machines"

WORKED_EXAMPLE = """\
model e
proc right_scanner.proc
query 101
expect accept
query 10
expect reject
"""

SWAPPED = """\
model e
proc right_scanner.proc
query 10
expect accept
query 101
expect reject
"""


def test_parse_counts_commands():
    scenario = parse_scenario(WORKED_EXAMPLE)
    assert len(scenario) == 6
    assert [c.kind for c in scenario.commands] == [
        "model", "proc", "query", "expect", "query", "expect"]


def test_parse_empty_text_is_a_noop_scenario():
    scenario = parse_scenario("")
    assert len(scenario) == 0
    transcript, passed = execute_scenario(scenario)
    assert passed
    assert transcript == "scenario: pass (0 expectations)\n"


def test_parse_rejects_unknown_commands():
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario("query 1\nwarp 9\n")
    assert excinfo.value.line_no == 2


def test_parse_rejects_bad_expectation_word():
    with pytest.raises(ScenarioError):
        parse_scenario("query 1\nexpect maybe\n")


def test_parse_rejects_dangling_expect():
    with pytest.raises(ScenarioError):
        parse_scenario("model e\nexpect accept\n")


def test_parse_rejects_expect_after_stats():
    with pytest.raises(ScenarioError):
        parse_scenario("query 1\nstats\nexpect accept\n")


def test_parse_rejects_loading_an_unsaved_snapshot():
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario("model e\nsnapshot load ghost\n")
    assert excinfo.value.line_no == 2


@pytest.mark.parametrize("line, message", [
    ("snapshot save a/b", "bad snapshot name 'a/b'"),
    ("stats 1", "stats takes no argument"),
])
def test_parse_errors_name_their_line(line, message):
    with pytest.raises(ScenarioError, match=message) as excinfo:
        parse_scenario(f"model e\n{line}\n")
    assert excinfo.value.line_no == 2


def test_parse_rejects_nonbinary_query_strings():
    with pytest.raises(ScenarioError):
        parse_scenario("query 12\n")


@pytest.mark.parametrize("arg", ["\u00b2", "\u0663", "-1", "1.5", "21"])
def test_parse_rejects_saturate_beyond_ascii_desk_scale_numerals(arg):
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario(f"model e\nsaturate {arg}\n")
    assert excinfo.value.line_no == 2


def test_parse_accepts_saturate_up_to_the_limit():
    assert parse_scenario("model e\nsaturate 20\n").commands[1].arg == "20"


def test_parse_rejects_brute_strings_beyond_the_limit():
    assert len(parse_scenario("model e\nbrute " + "0" * 20 + "\n")) == 2
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario("model e\nbrute " + "0" * 21 + "\n")
    assert excinfo.value.line_no == 2


def test_worked_example_passes_with_pinned_transcript():
    scenario = parse_scenario(WORKED_EXAMPLE)
    transcript, passed = execute_scenario(scenario, base_dir=MACHINES)
    assert passed
    assert transcript == (
        "model e\n"
        "proc right_scanner.proc (3 instructions)\n"
        "query 101 -> accept (path 5, transitions 4, acceptor-ticks 7)\n"
        "expect accept -> ok\n"
        "query 10 -> reject (path 4, transitions 3, acceptor-ticks 2)\n"
        "expect reject -> ok\n"
        "scenario: pass (2 expectations)\n"
    )


def test_swapped_order_fails_the_reject_expectation_but_continues():
    scenario = parse_scenario(SWAPPED)
    transcript, passed = execute_scenario(scenario, base_dir=MACHINES)
    assert not passed
    assert "query 10 -> accept" in transcript
    assert "query 101 -> accept" in transcript
    assert "expect reject -> FAIL (got accept)" in transcript
    assert transcript.endswith("scenario: FAIL (1 of 2 expectations failed)\n")


def test_transcripts_replay_byte_identically():
    scenario = parse_scenario(WORKED_EXAMPLE)
    first, _ = execute_scenario(scenario, base_dir=MACHINES)
    second, _ = execute_scenario(scenario, base_dir=MACHINES)
    assert first == second


def test_budget_exhaustion_fails_expectations_explicitly():
    scenario = parse_scenario("query 10101\nexpect accept\n")
    transcript, passed = execute_scenario(scenario, budget=3,
                                          base_dir=MACHINES)
    assert not passed
    assert "query 10101 -> budget-exceeded" in transcript
    assert "FAIL (got budget-exceeded)" in transcript


def test_saturate_probes_show_budget_exhaustion_as_such():
    scenario = parse_scenario("model e\nsaturate 1\n")
    transcript, _ = execute_scenario(scenario, budget=1, base_dir=MACHINES)
    assert "fed 4 length-2 strings (0 accepted)" in transcript
    assert "  probe 0 -> budget-exceeded\n" in transcript
    assert "  probe 1 -> budget-exceeded\n" in transcript


def test_stats_needs_the_evolving_world():
    scenario = parse_scenario("model v\nstats\n")
    with pytest.raises(ScenarioError) as excinfo:
        execute_scenario(scenario, base_dir=MACHINES)
    assert excinfo.value.line_no == 2


def test_empty_query_string_is_allowed():
    scenario = parse_scenario("model e\nquery\nexpect accept\n")
    transcript, passed = execute_scenario(scenario, base_dir=MACHINES)
    assert passed
    assert 'query "" -> accept' in transcript


def test_snapshot_fork_restores_the_earlier_world():
    text = (
        "model e\n"
        "query 101\n"
        "snapshot save before\n"
        "query 10\n"
        "expect reject\n"
        "saturate 1\n"
        "snapshot load before\n"
        "query 10\n"
        "expect reject\n"
        "stats\n"
    )
    transcript, passed = execute_scenario(parse_scenario(text),
                                          base_dir=MACHINES)
    assert passed
    assert transcript.count("-> 4 states") == 2
    assert "stats -> maxaccept 3, depth 3, states 4, accepting 1" in transcript


def test_brute_reports_a_search_that_finds_nothing():
    # After `saturate 2` every length-3 string is accepted, so each length-2
    # string is rejected one step above acceptance and the trie does not grow.
    scenario = parse_scenario("model e\nsaturate 2\nbrute 10\nexpect reject\n")
    transcript, passed = execute_scenario(scenario)
    assert passed
    assert ("brute 10 -> not found after 4 queries "
            "(states +0, transitions +0, accepting +0)\n") in transcript
