"""Acceptance suite: the exit criteria, one test per criterion.

Each test prints one pass/fail line (visible with `pytest -s`); the
criteria with time bounds measure and enforce them. Criteria 2, 3 and 4
share one 10,000-sequence random corpus, built once per module.
"""

import random
import time
from pathlib import Path

import pytest

from evosim import (
    ArrivalNumbering,
    EvolvingModel,
    PartialDfa,
    QueryCase,
    StandardModel,
    Verdict,
    binary_strings,
    decode_snapshot,
    encode_snapshot,
    import_tm,
    load_procedure,
    right_scanner,
    run,
    saturate,
    sibling_search,
)
from evosim.scenario import execute_scenario, parse_scenario
from oracle_tm import oracle_run

ROOT = Path(__file__).resolve().parent.parent
MACHINES = ROOT / "machines"
SCENARIOS = ROOT / "scenarios"

SEQUENCES = 10_000
CORPUS_SEED = 9406301


def _report(number, label, violations, detail):
    ok = not violations
    word = "PASS" if violations == 0 or violations is False else "FAIL"
    print(f"criterion {number} [{label}]: {word} ({detail})")
    assert ok, f"criterion {number} [{label}]: {detail}"


class CorpusResults:
    def __init__(self):
        self.total_queries = 0
        self.persistence_violations = 0
        self.engine_persistence_violations = 0
        self.agreement_violations = 0
        self.structure_violations = 0
        self.clock_violations = 0
        self.engine_clock_violations = 0
        self.elapsed = 0.0


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(CORPUS_SEED)
    scanner = right_scanner()
    results = CorpusResults()
    started = time.perf_counter()
    for index in range(SEQUENCES):
        count = 200 if index % 100 == 99 else rng.randint(1, 40)
        pool = [
            "".join(rng.choice("01") for _ in range(rng.randint(0, 12)))
            for _ in range(rng.randint(1, 12))
        ]
        machine = PartialDfa()
        engine = EvolvingModel()
        first_machine = {}
        first_engine = {}
        longest = 0
        previous = (1, 0, 0)
        for _ in range(count):
            text = rng.choice(pool)
            was_longer = len(text) > longest
            outcome = machine.query(text)
            if outcome.ticks > 2 * len(text) + 1:
                results.clock_violations += 1
            counts = (len(machine.states), len(machine.transitions),
                      len(machine.accepting))
            if any(c < p for c, p in zip(counts, previous)):
                results.structure_violations += 1
            previous = counts
            if was_longer and not (outcome.accepted
                                   and outcome.case is QueryCase.GREW_CHAIN):
                results.structure_violations += 1
            longest = max(longest, len(text))
            if text in first_machine:
                if first_machine[text] != outcome.accepted:
                    results.persistence_violations += 1
            else:
                first_machine[text] = outcome.accepted

            accepted = run(engine, scanner, text, 100).verdict is Verdict.ACCEPTED
            if text in first_engine:
                if first_engine[text] != accepted:
                    results.engine_persistence_violations += 1
            else:
                first_engine[text] = accepted
            if accepted != outcome.accepted:
                results.agreement_violations += 1
        if machine.structure_problems():
            results.structure_violations += 1
        if machine.depth() != longest:
            results.structure_violations += 1
        for record in engine.invocation_log:
            if record.ticks > 2 * len(record.text) + 1:
                results.engine_clock_violations += 1
        results.total_queries += count
    results.elapsed = time.perf_counter() - started
    return results


def test_criterion_1_worked_example_fidelity():
    started = time.perf_counter()
    g = ArrivalNumbering()
    assert [g.query(n) for n in (7, 9, 1, 11)] == [1, 2, 3, 4]
    assert g.query(7) == 1
    alternate = ArrivalNumbering()
    assert [alternate.query(n) for n in (9, 1, 7, 11)] == [1, 2, 3, 4]

    machine = PartialDfa()
    outcome = machine.query("101")
    assert outcome.accepted and outcome.case is QueryCase.GREW_CHAIN
    assert outcome.added_states == ("s1", "s2", "s3")
    assert outcome.added_transitions == (
        ("q0", "1", "s1"), ("s1", "0", "s2"), ("s2", "1", "s3"))
    assert outcome.added_accepting == ("s3",)
    assert not machine.query("10").accepted

    reversed_order = PartialDfa()
    assert reversed_order.query("10").accepted
    assert reversed_order.query("101").accepted
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(1, "worked examples", 0, f"exact matches in {elapsed:.3f}s")


def test_criterion_2_persistence(corpus):
    violations = (corpus.persistence_violations
                  + corpus.engine_persistence_violations
                  + corpus.agreement_violations)
    assert corpus.elapsed < 60.0
    _report(2, "persistence", violations,
            f"{SEQUENCES} sequences, {corpus.total_queries} queries, "
            f"{violations} violations, {corpus.elapsed:.1f}s")


def test_criterion_3_structural_invariants(corpus):
    _report(3, "structure", corpus.structure_violations,
            f"growth, trie shape, depth law over {corpus.total_queries} "
            f"queries, {corpus.structure_violations} violations")


def test_criterion_4_linear_clock(corpus):
    violations = corpus.clock_violations + corpus.engine_clock_violations
    _report(4, "linear clock", violations,
            f"ticks <= 2|x|+1 on every query and every acceptor "
            f"invocation, {violations} violations")


def test_criterion_5_saturation():
    started = time.perf_counter()
    violations = 0
    for n in range(1, 7):
        untouched = EvolvingModel()
        if run(untouched, right_scanner(), "0" * n, 1000).verdict is not Verdict.ACCEPTED:
            violations += 1
        report = saturate(EvolvingModel(), n)
        if not report.precondition_ok or report.fed != 2 ** (n + 1):
            violations += 1
        violations += sum(1 for _, v in report.feed_answers if v != "accepted")
        violations += sum(
            1 for _, v in report.probe_answers if v != "halted-rejected")
        if len(report.probe_answers) != 2 ** n:
            violations += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(5, "saturation", violations,
            f"n in 1..6 exhaustive, {violations} violations, {elapsed:.1f}s")


def test_criterion_6_observer_effect():
    probes = ["00", "000", "0", "1", "11"]
    live = EvolvingModel()
    control_snapshot = encode_snapshot(live)
    search = sibling_search(live, "101")
    assert search.found and search.queries_used == 1

    control = decode_snapshot(control_snapshot)
    scanner = right_scanner()
    live_answers = [run(live, scanner, p, 100).accepted for p in probes]
    control_answers = [run(control, scanner, p, 100).accepted for p in probes]
    assert live_answers == [False, True, True, True, True]
    assert control_answers == [True, True, False, True, True]
    assert live_answers != control_answers

    saturated = EvolvingModel()
    saturate(saturated, 3)
    exhausted = sibling_search(saturated, "101")
    assert not exhausted.found and exhausted.queries_used == 8
    assert exhausted.delta.empty
    _report(6, "observer effect", 0,
            "1-query hit perturbs later answers vs snapshot control; "
            "saturated search is 8 queries, no hit, no mutation")


CORPUS_TM = ["right_scanner", "binary_increment", "palindrome"]


def test_criterion_7_oracle_agreement():
    started = time.perf_counter()
    mismatches = 0
    total = 0
    for name in CORPUS_TM:
        procedure = load_procedure(MACHINES / f"{name}.proc")
        table = {(i.state, i.read): (i.target, i.write, i.move)
                 for i in procedure}
        imported = import_tm(
            (s, a, t, w, m) for (s, a), (t, w, m) in table.items())
        model_runs = StandardModel()
        for n in range(11):
            for text in binary_strings(n):
                verdict, steps, final = oracle_run(table, text)
                result = run(model_runs, imported, text, 100_000)
                total += 1
                if (result.verdict.value != verdict
                        or result.cost.transition_ticks != steps
                        or result.final_string != final):
                    mismatches += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(7, "oracle agreement", mismatches,
            f"{len(CORPUS_TM)} machines x {total // len(CORPUS_TM)} inputs, "
            f"verdict, step count and final string, "
            f"{mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_8_snapshot_round_trip():
    rng = random.Random(CORPUS_SEED + 8)
    scanner = right_scanner()
    mismatches = 0
    for _ in range(1000):
        model = EvolvingModel()
        for _ in range(rng.randint(0, 25)):
            text = "".join(rng.choice("01") for _ in range(rng.randint(0, 10)))
            run(model, scanner, text, 100)
        text = encode_snapshot(model)
        copy = decode_snapshot(text)
        if encode_snapshot(copy) != text:
            mismatches += 1
            continue
        for _ in range(50):
            probe = "".join(rng.choice("01") for _ in range(rng.randint(0, 10)))
            if (run(model, scanner, probe, 100).verdict
                    != run(copy, scanner, probe, 100).verdict):
                mismatches += 1
                break
    _report(8, "snapshot round trip", mismatches,
            f"1000 evolved worlds, re-encoding and 50-probe behavior, "
            f"{mismatches} mismatches")


def test_criterion_9_transcript_determinism():
    files = sorted(SCENARIOS.glob("*.scn"))
    assert files, "scenario corpus missing"
    diffs = 0
    for path in files:
        scenario = parse_scenario(path.read_text(encoding="utf-8"))
        first, ok_first = execute_scenario(scenario, base_dir=path.parent)
        second, ok_second = execute_scenario(scenario, base_dir=path.parent)
        if first != second or ok_first is not ok_second:
            diffs += 1
        if not ok_first:
            diffs += 1
    _report(9, "transcript determinism", diffs,
            f"{len(files)} scenarios replayed twice, byte-identical, "
            f"{diffs} differences")
