"""Command-line surface: subcommands, exit codes, state persistence."""

import io
import itertools
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from evosim import (EvolvingModel, decode_snapshot, encode_snapshot,
                    right_scanner, run)
from evosim import cli
from evosim.cli import main

MACHINES = Path(__file__).resolve().parent.parent / "machines"
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_query_answers_and_exits_zero(capsys):
    assert main(["query", "101"]) == 0
    assert capsys.readouterr().out == "accept\n"


def test_run_reports_the_full_result(capsys):
    code = main(["run", "011",
                 "--proc", str(MACHINES / "binary_increment.proc")])
    assert code == 0
    out = capsys.readouterr().out
    assert out == ("run 011 -> accepted (path 12, transitions 11, "
                   "acceptor-ticks 0) final 100\n")


def test_query_rejects_bad_input_with_usage_exit(capsys):
    assert main(["query", "102"]) == 2
    assert "error" in capsys.readouterr().err


def test_scenario_pass_and_fail_exit_codes(tmp_path, capsys):
    passing = tmp_path / "ok.scn"
    passing.write_text("model e\nquery 1\nexpect accept\n")
    assert main(["scenario", str(passing)]) == 0
    capsys.readouterr()
    failing = tmp_path / "bad.scn"
    failing.write_text("model e\nquery 1\nexpect reject\n")
    assert main(["scenario", str(failing)]) == 1


def test_scenario_parse_error_exits_two(tmp_path, capsys):
    broken = tmp_path / "broken.scn"
    broken.write_text("model e\nwarp 9\n")
    assert main(["scenario", str(broken)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_scenario_missing_file_exits_two(capsys):
    assert main(["scenario", "/no/such/file.scn"]) == 2


def test_scenario_resolves_proc_relative_to_the_file(capsys):
    assert main(["scenario", str(SCENARIOS / "order_dependence.scn")]) == 0


def test_snapshot_prints_the_fresh_world(capsys):
    assert main(["snapshot", "--model", "e"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PET1 v1\nstates: q0\n")


def test_snapshot_needs_the_evolving_world(capsys):
    assert main(["snapshot"]) == 2


def test_state_file_carries_evolution_across_invocations(tmp_path, capsys):
    state = tmp_path / "world.pet"
    assert main(["snapshot", "--model", "e", "--out", str(state)]) == 0
    assert main(["query", "101", "--model", "e", "--state", str(state)]) == 0
    assert capsys.readouterr().out == "accept\n"
    assert main(["query", "10", "--model", "e", "--state", str(state)]) == 0
    assert capsys.readouterr().out == "reject\n"
    # and the rejection is permanent in the stored world
    assert main(["query", "10", "--model", "e", "--state", str(state)]) == 0
    assert capsys.readouterr().out == "reject\n"
    assert "s3" in state.read_text()


def test_state_with_stateless_model_is_a_usage_error(tmp_path, capsys):
    state = tmp_path / "world.pet"
    main(["snapshot", "--model", "e", "--out", str(state)])
    assert main(["query", "1", "--state", str(state)]) == 2


def test_parallel_state_queries_serialize_into_one_history(tmp_path):
    # 000..111 is prefix-free, so every query grows the trie: a lost update
    # or a torn read shows as a missing string or an exit 2.
    state = tmp_path / "world.pet"
    assert main(["snapshot", "--model", "e", "--out", str(state)]) == 0
    strings = ["".join(bits) for bits in itertools.product("01", repeat=3)]
    procs = [subprocess.Popen(
        [sys.executable, "-m", "evosim.cli", "query", text,
         "--model", "e", "--state", str(state)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for text in strings]
    try:
        outputs = [p.communicate(timeout=60) for p in procs]
    finally:
        for p in procs:
            p.kill()
    assert ([(p.returncode, *out) for p, out in zip(procs, outputs)]
            == [(0, "accept\n", "")] * len(strings))

    stored = state.read_text()
    trie = decode_snapshot(stored).trie
    created = {name: i for i, name in enumerate(trie.states)}

    def chain_end(text):
        node = trie.start
        for symbol in text:
            node = trie.transitions[(node, symbol)]
        return node

    replay = EvolvingModel()
    for text in sorted(strings, key=lambda t: created[chain_end(t)]):
        run(replay, right_scanner(), text)
    assert encode_snapshot(replay) == stored


def test_write_back_fails_whole_or_is_skipped_when_unchanged(tmp_path, capsys,
                                                             monkeypatch):
    state = tmp_path / "world.pet"
    assert main(["snapshot", "--model", "e", "--out", str(state)]) == 0
    state.chmod(0o640)
    assert main(["query", "101", "--model", "e", "--state", str(state)]) == 0
    assert state.stat().st_mode & 0o777 == 0o640
    before = state.read_bytes()

    def broken_fsync(fd):
        raise OSError("fsync failed")

    monkeypatch.setattr(os, "fsync", broken_fsync)
    # 101 is already in the world, so nothing is written
    assert main(["query", "101", "--model", "e", "--state", str(state)]) == 0
    # 0 grows the world, and the failed write leaves the old file whole
    assert main(["query", "0", "--model", "e", "--state", str(state)]) == 2
    assert "fsync failed" in capsys.readouterr().err
    assert state.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["world.pet",
                                                         "world.pet.lock"]


def test_running_out_of_memory_exits_two_and_writes_nothing_back(tmp_path, capsys,
                                                                monkeypatch):
    state = tmp_path / "world.pet"
    assert main(["snapshot", "--model", "e", "--out", str(state)]) == 0
    assert main(["query", "101", "--model", "e", "--state", str(state)]) == 0
    lock = tmp_path / "world.pet.lock"
    before = (state.read_bytes(), lock.read_bytes())
    capsys.readouterr()

    def half_grown(runner, args):
        runner.model.trie.query("0110")  # the world has grown
        raise MemoryError

    monkeypatch.setitem(cli._COMMANDS, "query", half_grown)
    assert main(["query", "0110", "--model", "e", "--state", str(state)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("evosim: error: ") and "Traceback" not in err
    assert (state.read_bytes(), lock.read_bytes()) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["world.pet",
                                                         "world.pet.lock"]


def test_write_back_fsyncs_the_directory_after_the_rename(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["snapshot", "--model", "e", "--out", "world.pet"]) == 0
    before = (tmp_path / "world.pet").read_bytes()
    synced = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        info = os.fstat(fd)
        renamed = (tmp_path / "world.pet").read_bytes() != before
        synced.append((stat.S_ISDIR(info.st_mode), info.st_ino, renamed))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    # a relative --state path: its directory is the working directory
    assert main(["query", "101", "--model", "e", "--state", "world.pet"]) == 0
    directory = os.stat(tmp_path).st_ino
    # the temp file before the rename, then the directory after it
    assert [(d, r) for d, _, r in synced] == [(False, False), (True, True)]
    assert synced[-1][1] == directory


def test_the_world_is_opened_before_the_subcommand_runs(tmp_path, capsys):
    state = tmp_path / "world.pet"
    state.write_text("PET9 v1\n")
    scenario = tmp_path / "broken.scn"
    scenario.write_text("warp 9\n")
    assert main(["scenario", str(scenario), "--model", "e",
                 "--state", str(state)]) == 2
    assert "bad header" in capsys.readouterr().err
    missing = tmp_path / "missing.proc"
    assert main(["snapshot", "--model", "e", "--proc", str(missing)]) == 2
    assert "missing.proc" in capsys.readouterr().err


def test_trace_reports_trie_traffic(capsys):
    assert main(["trace", "11", "--model", "e"]) == 0
    out = capsys.readouterr().out
    assert "trace: halts 1, fed [11], same-length [11], longer-by-two []" in out
    assert "halt (h, _11[_])" in out


def test_trace_needs_the_evolving_world(capsys):
    assert main(["trace", "11"]) == 2


def test_repl_executes_commands_line_by_line():
    script = "model e\nquery 101\nquery 10\nexpect reject\nbogus\nexit\n"
    proc = subprocess.run(
        [sys.executable, "-m", "evosim.cli", "repl"],
        input=script, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "query 101 -> accept" in proc.stdout
    assert "query 10 -> reject" in proc.stdout
    assert "expect reject -> ok" in proc.stdout
    assert "error:" in proc.stdout


def test_repl_expect_after_a_failed_command_sees_no_answer(capsys,
                                                          monkeypatch):
    script = "model v\nquery 1\nbrute 0\nexpect accept\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(script))
    assert main(["repl"]) == 1
    out = capsys.readouterr().out
    assert "error: line 3: brute needs an evolving world (model e)" in out
    assert "expect accept -> FAIL (got None)" in out


@pytest.mark.parametrize("bad", ["saturate \u00b2", "brute " + "0" * 21])
def test_repl_survives_out_of_range_lines_and_writes_back(bad, tmp_path,
                                                          capsys, monkeypatch):
    state = tmp_path / "world.pet"
    assert main(["snapshot", "--model", "e", "--out", str(state)]) == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(f"query 101\n{bad}\n"))
    assert main(["repl", "--model", "e", "--state", str(state)]) == 0
    out = capsys.readouterr().out
    assert "query 101 -> accept" in out
    assert "error: line 2" in out
    # the query before the bad line is in the stored world
    assert "accept: s3" in state.read_text()


def test_repl_survives_a_proc_file_that_is_not_utf8(tmp_path, capsys,
                                                    monkeypatch):
    state = tmp_path / "world.pet"
    assert main(["snapshot", "--model", "e", "--out", str(state)]) == 0
    bad = tmp_path / "bad.proc"
    bad.write_bytes(b"\xff\xfe")
    monkeypatch.setattr(sys, "stdin", io.StringIO(f"proc {bad}\nquery 101\n"))
    assert main(["repl", "--model", "e", "--state", str(state)]) == 0
    out = capsys.readouterr().out
    assert "error: 'utf-8' codec can't decode" in out
    assert "query 101 -> accept" in out
    assert "accept: s3" in state.read_text()


@pytest.mark.parametrize("budget", ["0", "-3", "abc"])
def test_budget_below_one_is_a_usage_error_before_loading(budget, tmp_path,
                                                          capsys):
    missing = tmp_path / "no-such-world.pet"
    with pytest.raises(SystemExit) as excinfo:
        main(["repl", "--model", "e", "--budget", budget,
              "--state", str(missing)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: evosim repl")
    assert "argument --budget: expected a positive integer" in err


@pytest.mark.parametrize("name", ["order_dependence", "saturation",
                                  "observer_effect", "traced_run"])
def test_shipped_scenarios_pass(name, capsys):
    assert main(["scenario", str(SCENARIOS / f"{name}.scn")]) == 0


@pytest.mark.parametrize("script, replay", [
    # the world at `a`, saved before `query 0` grew it
    ("query 101\nsnapshot save a\nquery 0\nsnapshot load a\n", ["1", "101"]),
    # a fresh world, in place of the loaded one that `query 0` grew
    ("query 0\nmodel e\n", []),
])
@pytest.mark.parametrize("command", ["scenario", "repl"])
def test_write_back_stores_the_world_the_script_ended_with(command, script,
                                                          replay, tmp_path,
                                                          capsys, monkeypatch):
    state = tmp_path / "world.pet"
    loaded = EvolvingModel()
    run(loaded, right_scanner(), "1")
    state.write_text(encode_snapshot(loaded))
    if command == "scenario":
        path = tmp_path / "script.scn"
        path.write_text(script)
        argv = ["scenario", str(path)]
    else:
        monkeypatch.setattr(sys, "stdin", io.StringIO(script))
        argv = ["repl"]
    assert main([*argv, "--model", "e", "--state", str(state)]) == 0
    expected = EvolvingModel()
    for text in replay:
        run(expected, right_scanner(), text)
    assert state.read_text() == encode_snapshot(expected)
