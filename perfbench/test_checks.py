"""The benchmark's own output checks catch wrong answers.

    python3 -m pytest perfbench/test_checks.py

Each test measures for zero seconds, so only the untimed first pass over
the workload's inputs runs, then corrupts one output the way a defect in
evosim would and checks that the failure is counted.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from evosim import cli  # noqa: E402


def _measured(cls, tmp_path):
    workload = cls(tmp_path)
    workload.in_process = True
    workload.setup(seed=1)
    return workload, workload.measure(0)


def test_clean_outputs_pass(tmp_path):
    for cls in workloads.WORKLOADS.values():
        workload, tally = _measured(cls, tmp_path)
        workload.check(tally)
        assert tally.failed == 0, (cls.name, tally.errors)
        assert tally.attempted > 0


def test_flipped_verdict_on_a_long_tape_is_counted(tmp_path):
    workload, tally = _measured(workloads.LongTapes, tmp_path)
    verdict, steps, final = tally.first[0]
    flipped = "halted-rejected" if verdict == "accepted" else "accepted"
    tally.first[0] = (flipped, steps, final)
    workload.check(tally)
    assert tally.failed == 1 and tally.failed / tally.attempted > 0


def test_wrong_step_count_on_a_long_tape_is_counted(tmp_path):
    workload, tally = _measured(workloads.LongTapes, tmp_path)
    verdict, steps, final = tally.first[-1]
    tally.first[-1] = (verdict, steps + 1, final)
    workload.check(tally)
    assert tally.failed == 1


def test_flipped_verdict_in_a_world_is_counted(tmp_path):
    workload, tally = _measured(workloads.WorldQueries, tmp_path)
    outputs = tally.first[0]
    verdict, *cost = outputs[0]
    outputs[0] = ("halted-rejected" if verdict == "accepted" else "accepted", *cost)
    workload.check(tally)
    assert tally.failed >= 1


def test_failed_expectation_in_a_scenario_is_counted(tmp_path):
    workload, tally = _measured(workloads.SaturateObserve, tmp_path)
    transcript = tally.first[0]
    index = transcript.index("expect reject -> ok")
    transcript[index] = "expect reject -> FAIL (got accept)"
    workload.check(tally)
    assert tally.failed >= 1


def test_divergent_state_file_is_counted(tmp_path):
    workload = workloads.CliState(tmp_path)
    workload.in_process = True
    workload.setup(seed=1)
    honest = workload._query
    calls = []

    def query_with_a_second_writer(text):
        result = honest(text)
        calls.append(text)
        if len(calls) == 10:  # another process queries the same world file
            honest("1" * 20)
        return result

    workload._query = query_with_a_second_writer
    tally = workload.measure(0)
    workload.check(tally)
    assert tally.failed >= 1
    assert any("differs from the replay" in e for e in tally.errors)


def test_failing_cli_call_is_counted(tmp_path, monkeypatch):
    workload = workloads.CliState(tmp_path)
    workload.in_process = True
    workload.setup(seed=1)
    monkeypatch.setattr(cli, "main", lambda argv: 2)
    tally = workload.measure(0)
    assert tally.failed == tally.attempted == workload.QUERIES
