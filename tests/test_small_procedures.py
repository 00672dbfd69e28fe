"""Every small procedure, checked exhaustively against the reference.

The procedures are every set of at most two instructions over the states
{q0, a, h}: a key is one of the 9 (state, symbol) pairs, an action one of
the 18 (target, write, move) triples, and no key is taken twice, so there
are 1 + 9 * 18 + 36 * 18**2 = 11,827 of them. Each runs on every input of
at most a few symbols, and `run` must agree with the reference simulator
of tests/oracle_tm.py on the verdict, the steps and the final string:
under model v with the halting pattern, and under model E with the paper's
acceptor over the reference trie of tests/oracle_trie.py
(`TrieAcceptor`), on the acceptor's ticks, the strings it was fed and the
grown world's snapshot as well. Each model-E run starts from its own copy
of one world: a fresh one, on which almost every first answer is YES, or
one grown by earlier queries, on which NO answers occur.

A third check needs no reference: the 0/1 mirror of each run, under model
v and under model E from a fresh world (0 and 1 swapped in every read and
write of the procedure and in the input, and a fresh world is its own
mirror), must end with the same verdict and costs and the mirrored final
string.

Tier-1 runs model v on inputs of at most 3 symbols, model E on inputs of
at most 1, and model E on engine B's world and the mirrors on the empty
input, at budget 6. The full enumeration, both models and the mirrors on
inputs of at most 3 symbols at every budget from 1 to 6, and model E also
on engine A's and engine B's worlds of `order_demo()`, runs as

    PYTHONPATH=src:tests python3 -c \\
        "from test_small_procedures import check_all; print(check_all())"

The test shares no code with `evosim` beyond its public API.
"""

import itertools

from evosim import (
    BLANK,
    EvolvingModel,
    Instruction,
    Procedure,
    StandardModel,
    binary_strings,
    encode_snapshot,
    fork,
    right_scanner,
    run,
)
from oracle_tm import TrieAcceptor, oracle_run
from oracle_trie import OracleTrie

STATES = ("q0", "a", "h")
KEYS = tuple(itertools.product(STATES, ("0", "1", BLANK)))
ACTIONS = tuple(itertools.product(STATES, ("0", "1", BLANK), "LR"))

# Engine A's queries in `order_demo()`: the world they grow answers NO on
# "10". Engine B asks the same two in the other order, and its world
# answers NO on "1" instead, one symbol short of its accepting "10".
ENGINE_A = ("101", "10")
ENGINE_B = ("10", "101")

# The mirror image of a string: 0 and 1 swapped (blanks stay).
MIRROR = str.maketrans("01", "10")


def small_tables(max_instructions):
    """Every procedure of at most `max_instructions` instructions over
    `STATES`, as a (state, symbol) -> (target, write, move) table."""
    for count in range(max_instructions + 1):
        for keys in itertools.combinations(KEYS, count):
            for actions in itertools.product(ACTIONS, repeat=count):
                yield dict(zip(keys, actions))


def small_procedures(max_instructions):
    """Each table of `small_tables`, with its `Procedure`."""
    for table in small_tables(max_instructions):
        yield table, Procedure(Instruction(s, r, t, w, m)
                               for (s, r), (t, w, m) in table.items())


def inputs_up_to(length):
    return [text for n in range(length + 1) for text in binary_strings(n)]


def check_model_v(max_input, budgets):
    """Every small procedure on every input of at most `max_input` symbols
    at each budget, under model v against the reference simulator; the
    number of runs compared."""
    model = StandardModel()
    texts = inputs_up_to(max_input)
    runs = 0
    for table, procedure in small_procedures(2):
        for text, budget in itertools.product(texts, budgets):
            result = run(model, procedure, text, budget)
            expected = oracle_run(table, text, budget)
            assert (result.verdict.value, result.cost.transition_ticks,
                    result.final_string) == expected, (table, text, budget)
            assert result.cost.acceptor_ticks == 0
            runs += 1
    return runs


def check_model_e(max_input, budgets, history=()):
    """Every small procedure on every input of at most `max_input` symbols
    at each budget, under model E on a copy of the world that the right
    scanner's runs on `history` grow, against the reference simulator
    asking the paper's acceptor over a copy of the reference trie fed the
    same history; the number of runs compared."""
    world, fed = EvolvingModel(), OracleTrie()
    for text in history:
        run(world, right_scanner(), text)
        fed.answer(text)
    assert encode_snapshot(world) == fed.snapshot(), history
    texts = inputs_up_to(max_input)
    runs = 0
    for table, procedure in small_procedures(2):
        for text, budget in itertools.product(texts, budgets):
            model = fork(world)
            trie = OracleTrie()
            trie.created, trie.accepting = dict(fed.created), set(fed.accepting)
            acceptor = TrieAcceptor(trie)
            result = run(model, procedure, text, budget)
            where = (table, text, budget, history)
            assert (result.verdict.value, result.cost.transition_ticks,
                    result.final_string) == oracle_run(table, text, budget, acceptor), where
            assert result.cost.acceptor_ticks == acceptor.ticks, where
            assert [r.text for r in model.invocation_log] == acceptor.fed, where
            assert encode_snapshot(model) == trie.snapshot(), where
            runs += 1
    return runs


def check_mirrors(max_input, budgets):
    """Every small procedure on every input of at most `max_input` symbols
    at each budget against its 0/1 mirror on the mirrored input, under
    model v and under model E from a fresh world: the same verdict and
    costs, and the mirrored final string; the number of runs compared, two
    per pair."""
    model = StandardModel()
    texts = inputs_up_to(max_input)
    runs = 0
    for table, procedure in small_procedures(2):
        mirror = Procedure(Instruction(s, r.translate(MIRROR), t, w.translate(MIRROR), m)
                           for (s, r), (t, w, m) in table.items())
        for text, budget in itertools.product(texts, budgets):
            image_text = text.translate(MIRROR)
            for world, image_world in ((model, model), (EvolvingModel(), EvolvingModel())):
                result = run(world, procedure, text, budget)
                image = run(image_world, mirror, image_text, budget)
                assert (image.verdict, image.cost, image.final_string) == (
                    result.verdict, result.cost, result.final_string.translate(MIRROR)), (
                        table, text, budget, type(world).__name__)
                runs += 2
    return runs


def check_all():
    """The full enumeration: both models on inputs of at most 3 symbols at
    every budget from 1 to 6, model E on a fresh world and on engine A's
    and engine B's, and each model-v and fresh-world model-E run against
    its mirror; the number of runs compared."""
    budgets = range(1, 7)
    return (check_model_v(3, budgets) + check_model_e(3, budgets)
            + check_model_e(3, budgets, ENGINE_A) + check_model_e(3, budgets, ENGINE_B)
            + check_mirrors(3, budgets))


def test_the_enumeration_counts_every_small_procedure():
    assert (len(KEYS), len(ACTIONS)) == (9, 18)
    assert sum(1 for _ in small_tables(2)) == 1 + 9 * 18 + 36 * 18 ** 2 == 11_827
    assert [len(inputs_up_to(n)) for n in (1, 3)] == [3, 15]


def test_every_small_procedure_agrees_with_the_reference_under_model_v():
    assert check_model_v(3, [6]) == 11_827 * 15 == 177_405


def test_every_small_procedure_agrees_with_the_reference_acceptor_under_model_e():
    assert check_model_e(1, [6]) == 11_827 * 3 == 35_481


def test_every_small_procedure_agrees_with_the_reference_acceptor_on_engine_b():
    assert check_model_e(0, [6], ENGINE_B) == 11_827


def test_every_small_procedure_agrees_with_its_mirror_under_both_models():
    assert check_mirrors(0, [6]) == 11_827 * 4 == 47_308
