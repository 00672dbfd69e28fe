"""What a process imports: `import evosim` loads none of its modules, the
package still exports every name it did when it imported them all, and a
one-shot `query --state` or `run --state` loads only the modules that it
runs; a one-shot `trace --state` loads `experiments` for its report, but
not the scenario grammar. A one-shot `query`, `run`, `snapshot` or `trace
--state`, and a `scenario --state` without `stats`, load no `dataclasses`,
nor the modules that it drags in.

The import checks run in a fresh interpreter, one child at a time, since
this test process has long since imported everything.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import evosim
from evosim import EvolvingModel, encode_snapshot

SRC = Path(__file__).resolve().parent.parent / "src"

# The package's exports, by the module each was imported from when the
# package root imported every module eagerly.
EXPORTED_FROM = {
    "errors": ("DeterminationError", "EvosimError", "InvalidSymbolError",
               "ProcedureSyntaxError", "ScenarioError", "SnapshotError"),
    "runner": ("BLANK", "CostMeter", "Instruction", "Procedure", "RunResult",
               "Verdict", "answer_word", "check_determination",
               "compute_function", "run", "select_instruction"),
    "tape": ("Configuration", "StandardModel", "apply_instruction",
             "extract_string", "halting_accept", "start_config"),
    "trie": ("MachineStats", "PartialDfa", "QueryCase", "QueryOutcome"),
    "numbering": ("ArrivalNumbering",),
    "engine": ("EvolvingModel", "InvocationRecord", "decode_snapshot",
               "encode_snapshot", "fork", "make_model"),
    "experiments": ("SaturationReport", "SiblingSearchResult",
                    "StructureDelta", "TraceRecord", "binary_strings",
                    "order_demo", "right_scanner", "run_traced", "saturate",
                    "sibling_search"),
    "procfile": ("import_tm", "load_procedure", "parse_procedure",
                 "render_procedure"),
}


# Modules a one-shot --state command must not load: `dataclasses` and the
# heaviest of what it imports, about 12-15 ms of a fresh process.
NOT_ON_THE_STATE_PATH = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def _modules_added(code, *argv):
    """Run `code` in a fresh interpreter with `argv` as sys.argv[1:]; the
    lines it printed, and the modules it added to those that interpreter
    start-up had loaded."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(SRC), path] if path else [str(SRC)]))
    start = "import sys\n_startup = set(sys.modules)\n"
    report = ("\n_added = sorted(set(sys.modules) - _startup)"
              "\nimport json\nprint(json.dumps(_added))")
    proc = subprocess.run([sys.executable, "-c", start + code + report, *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    *out, added = proc.stdout.splitlines()
    return out, json.loads(added)


def _evosim_modules(modules):
    return [m for m in modules if m == "evosim" or m.startswith("evosim.")]


def test_import_evosim_loads_no_submodule():
    assert _evosim_modules(_modules_added("import evosim")[1]) == ["evosim"]


def test_a_state_query_loads_only_the_modules_it_runs(tmp_path):
    # `run` prints a full report line, from the same modules as `query`.
    for command, printed in (("query", "accept"), ("run", "run 101 -> accepted "
                             "(path 5, transitions 4, acceptor-ticks 7) final 101")):
        state = tmp_path / f"{command}.pet"
        state.write_text(encode_snapshot(EvolvingModel()), encoding="utf-8")
        code = ("from evosim.cli import main\n"
                "assert main([sys.argv[2], '101', '--model', 'e', '--state', sys.argv[1]]) == 0")
        out, added = _modules_added(code, str(state), command)
        assert out == [printed]
        assert "accept: s3" in state.read_text(encoding="utf-8")
        assert _evosim_modules(added) == ["evosim", "evosim.cli", "evosim.engine",
                                          "evosim.errors", "evosim.runner",
                                          "evosim.tape", "evosim.trie"]


def test_a_state_trace_loads_experiments_but_not_the_scenario_grammar(tmp_path):
    state = tmp_path / "world.pet"
    state.write_text(encode_snapshot(EvolvingModel()), encoding="utf-8")
    code = ("from evosim.cli import main\n"
            "assert main(['trace', '101', '--model', 'e', '--state', sys.argv[1]]) == 0")
    out, added = _modules_added(code, str(state))
    assert out == ["run 101 -> accepted (path 5, transitions 4, "
                   "acceptor-ticks 7) final 101",
                   "trace: halts 1, fed [101], same-length [101], "
                   "longer-by-two []",
                   "  halt (h, _101[_])"]
    assert _evosim_modules(added) == ["evosim", "evosim.cli", "evosim.engine",
                                      "evosim.errors", "evosim.experiments",
                                      "evosim.runner", "evosim.tape",
                                      "evosim.trie"]


# A scenario that uses every command but `stats`, which alone measures a
# machine as a `MachineStats` dataclass.
NO_STATS = """\
model e
query 101
expect accept
trace on
run 10
trace off
saturate 2
brute 11
snapshot save a
snapshot load a
"""


@pytest.mark.parametrize("command", ["query", "run", "snapshot", "scenario", "trace"])
def test_a_state_command_loads_no_dataclasses(tmp_path, command):
    state = tmp_path / "world.pet"
    world = EvolvingModel()
    world.trie.query("0110")
    state.write_text(encode_snapshot(world), encoding="utf-8")
    script = tmp_path / "no_stats.scn"
    script.write_text(NO_STATS, encoding="utf-8")
    operand = {"snapshot": [], "scenario": [str(script)]}.get(command, ["101"])
    argv = [command, *operand, "--model", "e", "--state", str(state)]
    code = "from evosim.cli import main\nassert main(sys.argv[1:]) == 0"
    out, added = _modules_added(code, *argv)
    assert out and "evosim.trie" in added
    assert NOT_ON_THE_STATE_PATH.isdisjoint(added), sorted(
        NOT_ON_THE_STATE_PATH.intersection(added))


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in EXPORTED_FROM.items() for name in names])
def test_every_export_is_the_defining_modules_object(module, name):
    assert name in evosim.__all__
    assert name in dir(evosim)
    defined = getattr(importlib.import_module(f"evosim.{module}"), name)
    assert getattr(evosim, name) is defined
    namespace = {}
    exec(f"from evosim import {name}", namespace)
    assert namespace[name] is defined


def test_all_lists_the_exports_and_nothing_else():
    assert sorted(evosim.__all__) == sorted(
        name for names in EXPORTED_FROM.values() for name in names)
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        getattr(evosim, "nonesuch")
