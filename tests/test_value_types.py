"""The package's value types: named tuples with the reprs, immutability
and hashes they had as frozen dataclasses, and a round trip through
pickle. `Scenario` is a tuple of its commands. `Instruction` checks its
fields however it is built, and `MachineStats`, the one dataclass left,
defined on first use, looks as it did when `evosim.trie` defined it at
import."""

import copy
import dataclasses
import pickle

import pytest

import evosim
from evosim import (EvolvingModel, Instruction, InvalidSymbolError, PartialDfa,
                    StructureDelta, right_scanner, run, run_traced, saturate,
                    sibling_search, start_config)
from evosim.scenario import Command, Scenario, parse_scenario
from test_imports import _modules_added

RUN_10 = ("RunResult(verdict=<Verdict.ACCEPTED: 'accepted'>, text='10', "
          "applied=(Instruction(state='q0', read='△', target='h', write='△', "
          "move='R'), Instruction(state='h', read='1', target='h', write='1', "
          "move='R'), Instruction(state='h', read='0', target='h', write='0', "
          "move='R')), cost=CostMeter(path_length=4, transition_ticks=3, "
          "acceptor_ticks=5), final_string='10')")

EXAMPLES = {
    "Configuration": (
        lambda: start_config("10"),
        "Configuration(state='q0', left='', head='△', right='10')"),
    "QueryOutcome": (
        lambda: PartialDfa().query("10"),
        "QueryOutcome(accepted=True, case=<QueryCase.GREW_CHAIN: "
        "'grew-chain'>, added_states=('s1', 's2'), added_transitions=(('q0', "
        "'1', 's1'), ('s1', '0', 's2')), added_accepting=('s2',), ticks=5)"),
    "InvocationRecord": (
        lambda: _scanner_run("10")[0].invocation_log[0],
        "InvocationRecord(config=Configuration(state='h', left='△10', "
        "head='△', right=''), text='10', accepted=True, ticks=5)"),
    "CostMeter": (
        lambda: _scanner_run("10")[1].cost,
        "CostMeter(path_length=4, transition_ticks=3, acceptor_ticks=5)"),
    "RunResult": (lambda: _scanner_run("10")[1], RUN_10),
    "Instruction": (
        lambda: right_scanner().instructions[0],
        "Instruction(state='q0', read='△', target='h', write='△', move='R')"),
    "Command": (
        lambda: Command(3, "query", "101"),
        "Command(line_no=3, kind='query', arg='101')"),
    "StructureDelta": (
        lambda: StructureDelta(1, 2, 3),
        "StructureDelta(states=1, transitions=2, accepting=3)"),
    "SiblingSearchResult": (
        lambda: sibling_search(EvolvingModel(), "10"),
        "SiblingSearchResult(found=True, queries_used=1, witness='00', "
        "delta=StructureDelta(states=2, transitions=2, accepting=1))"),
    "TraceRecord": (
        lambda: run_traced(EvolvingModel(), right_scanner(), "10")[1],
        "TraceRecord(halting_configs=(Configuration(state='h', left='△10', "
        "head='△', right=''),), fed_strings=('10',), same_length=('10',), "
        "longer_by_two=())"),
}


def _scanner_run(text):
    world = EvolvingModel()
    return world, run(world, right_scanner(), text)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_a_per_run_value_is_an_immutable_hashable_tuple(name):
    build, text = EXAMPLES[name]
    value, again = build(), build()
    assert type(value).__name__ == name and isinstance(value, tuple)
    assert repr(value) == text
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)
    assert value == again and hash(value) == hash(again)
    twin = pickle.loads(pickle.dumps(value))
    assert type(twin) is type(value) and twin == value


def test_a_saturation_report_is_an_immutable_tuple():
    # Unhashable, as it was as a dataclass: its answers are `Answers` views.
    report = saturate(EvolvingModel(), 1)
    assert repr(report) == (
        "SaturationReport(probe_length=1, precondition_ok=True, fed=4, "
        "feed_answers=Answers([('00', 'accepted'), ('01', 'accepted'), "
        "('10', 'accepted'), ('11', 'accepted')]), probe_answers=Answers(["
        "('0', 'halted-rejected'), ('1', 'halted-rejected')]))")
    with pytest.raises(AttributeError):
        report.fed = 0
    assert report == tuple(report) == saturate(EvolvingModel(), 1)
    assert report == (1, True, 4, [("00", "accepted"), ("01", "accepted"),
                                   ("10", "accepted"), ("11", "accepted")],
                      [("0", "halted-rejected"), ("1", "halted-rejected")])
    twin = pickle.loads(pickle.dumps(report))
    assert type(twin) is type(report) and twin == report


def test_a_scenario_is_the_tuple_of_its_commands():
    scenario = parse_scenario("model e\n# a comment\nquery 10\n")
    commands = (Command(1, "model", "e"), Command(3, "query", "10"))
    assert scenario == commands and tuple(scenario) == commands
    assert type(scenario.commands) is tuple and scenario.commands == commands
    assert len(scenario) == len(list(scenario)) == 2
    assert repr(scenario) == ("Scenario(commands=(Command(line_no=1, kind='model', "
                              "arg='e'), Command(line_no=3, kind='query', arg='10')))")
    assert repr(parse_scenario("")) == "Scenario(commands=())"
    with pytest.raises(AttributeError):
        scenario.commands = ()
    with pytest.raises(AttributeError):
        scenario.extra = 1
    twin = pickle.loads(pickle.dumps(scenario))
    assert type(twin) is Scenario and twin == scenario
    assert hash(twin) == hash(scenario)


# Fields that the constructor rejects, with the error it raises.
BAD_FIELDS = [
    pytest.param({"read": "x"}, InvalidSymbolError, "symbol outside alphabet in "
                 "Instruction\\(state='h', read='x', target='h', write='1', "
                 "move='R'\\)", id="foreign read"),
    pytest.param({"write": "2"}, InvalidSymbolError, "symbol outside alphabet",
                 id="foreign write"),
    pytest.param({"move": "U"}, ValueError, "move must be L or R, got 'U'",
                 id="bad move"),
    pytest.param({"state": ""}, ValueError, "state names must be nonempty",
                 id="empty state"),
    pytest.param({"target": ""}, ValueError, "state names must be nonempty",
                 id="empty target"),
    # Names that procedure text cannot spell.
    pytest.param({"state": "a#b"}, ValueError, "state name 'a#b' holds whitespace "
                 "or one of \\( \\) , #", id="hash in state"),
    pytest.param({"target": "q 1"}, ValueError, "state name 'q 1'", id="space in target"),
    pytest.param({"state": "(h"}, ValueError, "state name", id="paren in state"),
    pytest.param({"target": "h,"}, ValueError, "state name", id="comma in target"),
    pytest.param({"state": "h\n"}, ValueError, "state name", id="newline in state"),
    pytest.param({"target": 1}, TypeError, "state names must be str, not int",
                 id="int target"),
]


@pytest.mark.parametrize("change, error, message", BAD_FIELDS)
def test_every_way_to_build_an_instruction_checks_its_fields(change, error, message):
    inst = Instruction("h", "1", "h", "1", "R")
    fields = {**inst._asdict(), **change}
    for build in (lambda: Instruction(**fields),
                  lambda: Instruction(*fields.values()),
                  lambda: inst._replace(**change),
                  lambda: Instruction._make(fields.values())):
        with pytest.raises(error, match=message):
            build()


def test_an_instruction_is_a_plain_tuple_of_its_fields():
    inst = Instruction(state="h", read="1", target="h", write="1", move="R")
    assert inst == Instruction("h", "1", "h", "1", "R") == ("h", "1", "h", "1", "R")
    assert hash(inst) == hash(tuple(inst))
    assert inst.key() == ("h", "1")
    assert inst._replace(move="L") == ("h", "1", "h", "1", "L")
    assert Instruction._make(tuple(inst)) == inst
    for twin in (pickle.loads(pickle.dumps(inst)), copy.copy(inst), copy.deepcopy(inst)):
        assert type(twin) is Instruction and twin == inst
    with pytest.raises(AttributeError):
        inst.move = "L"
    with pytest.raises(AttributeError):
        inst.extra = 1


def test_machine_stats_stays_a_dataclass():
    # The benchmark digests it with dataclasses.astuple.
    stats = PartialDfa().stats()
    assert dataclasses.is_dataclass(stats)
    assert dataclasses.astuple(stats) == (0, 0, 1, 0)
    assert repr(stats) == ("MachineStats(max_accepted_length=0, depth=0, "
                           "state_count=1, accepting_count=0)")
    assert pickle.loads(pickle.dumps(stats)) == stats
    assert type(stats) is evosim.MachineStats is evosim.trie.MachineStats
    assert type(PartialDfa().stats()) is type(stats)
    with pytest.raises(AttributeError):
        getattr(evosim.trie, "nonesuch")


@pytest.mark.parametrize("first", ["PartialDfa().stats()", "evosim.MachineStats",
                                   "evosim.trie.MachineStats"])
def test_machine_stats_is_one_class_whichever_use_defines_it(first):
    # In a fresh interpreter, where `first` is the first use of the class.
    code = (f"import pickle, evosim, evosim.trie\nfrom evosim import PartialDfa\n{first}\n"
            "stats = PartialDfa().stats()\n"
            "assert type(stats) is evosim.MachineStats is evosim.trie.MachineStats\n"
            "assert type(PartialDfa().stats()) is type(stats)\n"
            "assert pickle.loads(pickle.dumps(stats)) == stats\n"
            "assert type(stats).__qualname__ == 'MachineStats'\n")
    _modules_added(code)  # fails on an exit status other than 0
