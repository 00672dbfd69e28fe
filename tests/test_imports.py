"""What a process imports: `import evosim` loads none of its modules, the
package still exports every name it did when it imported them all, and a
one-shot `query --state` loads only the modules that query runs.

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


def _evosim_modules_after(code, *argv):
    """Run `code` in a fresh interpreter with `argv` as sys.argv[1:]; the
    evosim modules it left in sys.modules."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(SRC), path] if path else [str(SRC)]))
    report = ("\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules"
              " if m == 'evosim' or m.startswith('evosim.'))))")
    proc = subprocess.run([sys.executable, "-c", code + report, *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_import_evosim_loads_no_submodule():
    assert json.loads(_evosim_modules_after("import evosim")[-1]) == ["evosim"]


def test_a_state_query_loads_only_the_modules_it_runs(tmp_path):
    state = tmp_path / "world.pet"
    state.write_text(encode_snapshot(EvolvingModel()), encoding="utf-8")
    code = ("import sys\nfrom evosim.cli import main\n"
            "assert main(['query', '101', '--model', 'e', '--state', sys.argv[1]]) == 0")
    *out, loaded = _evosim_modules_after(code, str(state))
    assert out == ["accept"]
    assert "accept: s3" in state.read_text(encoding="utf-8")
    assert json.loads(loaded) == ["evosim", "evosim.cli", "evosim.engine",
                                  "evosim.errors", "evosim.runner",
                                  "evosim.tape", "evosim.trie"]


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
