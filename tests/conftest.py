"""Hypothesis profiles for the test suite.

`deep` runs a property at 20,000 examples where it takes its count from
the profile, as the run loop's properties with "agrees" in their names
do (against the replayed path and the reference simulator, the driver
against `run`, the two acceptor paths against each other, model E
against the reference simulator with the paper's acceptor over the
reference trie of tests/oracle_trie.py, and a run against its 0/1
mirror), and as the trie's lean-reader
and reference-trie properties and the mutated-text property of all three
parsers (procedures, scenarios and snapshots) do:

    pytest tests/test_runner.py -k agrees --hypothesis-profile=deep
    pytest tests/test_trie.py -k "lean_reader_agrees or reference_trie" \
        --hypothesis-profile=deep
    pytest tests/test_parsers.py -k only_package_errors_escape \
        --hypothesis-profile=deep

The exhaustive check of tests/test_small_worlds.py goes deeper by its
arguments, not by a profile; CI calls it as

    PYTHONPATH=src:tests python3 -c \
        "from test_small_worlds import check_worlds; check_worlds(3, 4)"
"""

from hypothesis import settings

settings.register_profile("deep", max_examples=20_000)
