"""Every small world, checked exhaustively.

Histories of queries of at most `max_length` symbols reach finitely many
worlds. `small_worlds` finds them breadth first, each grown from the last
by `copy().answer(q)` and told apart by snapshot text, with a shortest
history to each; a failure message prints that history. `check_worlds`
makes every check on every world, as tier-1 does for the two-symbol closure
and CI does deeper. One check is the mirror image: 0 and 1 swapped in every
query grow a trie whose two child arrays are the world's, swapped index for
index, with the same marks. The checks run as:

    PYTHONPATH=src:tests python3 -c \
        "from test_small_worlds import check_worlds; print(check_worlds(3, 4))"

The small-scope hypothesis (D. Jackson, "Software Abstractions", 2006):
most faults show on some small instance, so all of the small ones are
checked, not a sample.
"""

from evosim import (
    EvolvingModel,
    PartialDfa,
    QueryCase,
    binary_strings,
    right_scanner,
    run,
)
from oracle_trie import OracleTrie


def strings_up_to(length):
    return [text for n in range(length + 1) for text in binary_strings(n)]


def small_worlds(max_length, max_depth=None):
    """Each world that at most `max_depth` queries (no limit if None) of at
    most `max_length` symbols reach, once, as (world, history), breadth
    first, so the history is a shortest one."""
    queries = strings_up_to(max_length)
    fresh = PartialDfa()
    seen = {fresh.snapshot()}
    level = [(fresh, ())]
    depth = 0
    while level:
        yield from level
        if depth == max_depth:
            return
        below = []
        for world, history in level:
            for text in queries:
                grown = world.copy()
                grown.answer(text)
                snapshot = grown.snapshot()
                if snapshot not in seen:
                    seen.add(snapshot)
                    below.append((grown, history + (text,)))
        level = below
        depth += 1


# The mirror image of a string: 0 and 1 swapped.
MIRROR = str.maketrans("01", "10")


def check_world(world, history):
    """The world is a well-formed trie, the one the reference trie grows
    from the same history, and its copy and decoded snapshot equal it; the
    trie grown from the mirrored history is its mirror image, the two
    child arrays swapped index for index."""
    where = f"world after {list(history)}"
    snapshot = world.snapshot()
    assert world.structure_problems() == [], where
    reference = OracleTrie()
    image = PartialDfa()
    for text in history:
        reference.answer(text)
        image.answer(text.translate(MIRROR))
    assert reference.snapshot() == snapshot, where
    assert (image.kids0, image.kids1, image.marks) == (
        world.kids1, world.kids0, world.marks), where
    assert world.copy().snapshot() == snapshot, where
    assert PartialDfa.from_snapshot(snapshot).snapshot() == snapshot, where


def check_strings(world, history):
    """Every string up to two symbols past the world's depth, asked of a
    copy: `query` answers as `answer` does and reports what it added, a
    second ask repeats the answer, and a run of the right scanner accepts
    exactly when the answer does."""
    states = list(world.states)
    transitions = dict(world.transitions)
    accepting = set(world.accepting)
    scanner = right_scanner()
    for text in strings_up_to(world.depth() + 2):
        try:
            reported = world.copy()
            outcome = reported.query(text)
            assert (outcome.accepted, outcome.ticks) == world.copy().answer(text)
            after = list(reported.states)
            assert after[:len(states)] == states
            assert outcome.added_states == tuple(after[len(states):])
            grown = reported.transitions
            assert outcome.added_transitions == tuple(
                (*key, grown[key]) for key in grown if key not in transitions)
            assert outcome.added_accepting == tuple(
                name for name in reported.accepting_in_creation_order()
                if name not in accepting)
            case = (QueryCase.NEAR_ACCEPTING if not outcome.accepted
                    else QueryCase.GREW_CHAIN if outcome.added_states
                    else QueryCase.MARKED_ACCEPTING if outcome.added_accepting
                    else QueryCase.AT_ACCEPTING)
            assert outcome.case is case
            assert reported.answer(text) == (outcome.accepted, len(text))
            verdict = run(EvolvingModel(world.copy()), scanner, text)
            assert verdict.accepted == outcome.accepted
        except AssertionError as failure:
            where = f"{text!r} on the world after {list(history)}"
            raise AssertionError(where) from failure


def check_worlds(max_length, max_depth=None):
    """Every check on every world of `small_worlds(max_length, max_depth)`;
    the number of worlds."""
    count = 0
    for world, history in small_worlds(max_length, max_depth):
        check_world(world, history)
        check_strings(world, history)
        count += 1
    return count


def test_every_world_of_queries_up_to_two_symbols():
    # The closure: no history of such queries reaches another world.
    assert check_worlds(2) == 986


def test_every_world_of_three_queries_up_to_three_symbols():
    count = 0
    for world, history in small_worlds(3, 3):
        check_world(world, history)
        count += 1
    assert count == 1_902
