"""The value types a run builds: tuples with the reprs, immutability and
hashes they had as frozen dataclasses."""

import dataclasses

import pytest

from evosim import EvolvingModel, PartialDfa, right_scanner, run, start_config

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


def test_machine_stats_stays_a_dataclass():
    # The benchmark digests it with dataclasses.astuple.
    assert dataclasses.is_dataclass(PartialDfa().stats())
