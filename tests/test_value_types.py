"""The value types a run builds: tuples with the reprs, immutability and
hashes they had as frozen dataclasses. `Instruction` checks its fields
however it is built, and `MachineStats`, defined on first use, looks as it
did when `evosim.trie` defined it at import."""

import copy
import dataclasses
import pickle

import pytest

import evosim
from evosim import (EvolvingModel, Instruction, InvalidSymbolError, PartialDfa,
                    right_scanner, run, start_config)
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
