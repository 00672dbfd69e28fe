"""evosim: tape machines with fixed or evolving acceptance.

The stateless model runs ordinary single-tape machines. The evolving model
keeps the same transitions but answers acceptance through a growing trie,
so the language a procedure decides depends on the order the world was
queried in. The package makes that observable, replayable, and testable
at desk scale.

`import evosim` loads none of its modules: each name below is imported
from its module on first use (PEP 562), so a one-shot `evosim query`
process pays only for the modules it runs.
"""

import importlib

# The exported names of each module, imported from it on first use.
_NAMES = {
    "errors": ("DeterminationError", "EvosimError", "InvalidSymbolError",
               "ProcedureSyntaxError", "ScenarioError", "SnapshotError"),
    "runner": ("BLANK", "CostMeter", "Instruction", "Procedure", "RunResult",
               "Verdict", "answer_word", "check_determination",
               "compute_function", "right_scanner", "run",
               "select_instruction"),
    "tape": ("Configuration", "StandardModel", "apply_instruction",
             "extract_string", "halting_accept", "start_config"),
    "trie": ("MachineStats", "PartialDfa", "QueryCase", "QueryOutcome"),
    "numbering": ("ArrivalNumbering",),
    "engine": ("EvolvingModel", "InvocationRecord", "decode_snapshot",
               "encode_snapshot", "fork", "make_model"),
    "experiments": ("SaturationReport", "SiblingSearchResult",
                    "StructureDelta", "TraceRecord", "binary_strings",
                    "order_demo", "run_traced", "saturate", "sibling_search"),
    "procfile": ("import_tm", "load_procedure", "parse_procedure",
                 "render_procedure"),
}
_MODULE_OF = {name: module for module, names in _NAMES.items()
              for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    # Not cached in the package namespace: each lookup reads the defining
    # module, so the name always is that module's current object.
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
