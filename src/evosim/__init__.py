"""evosim: tape machines with fixed or evolving acceptance.

The stateless model runs ordinary single-tape machines. The evolving model
keeps the same transitions but answers acceptance through a growing trie,
so the language a procedure decides depends on the order the world was
queried in. The package makes that observable, replayable, and testable
at desk scale.
"""

from .errors import (
    DeterminationError,
    EvosimError,
    InvalidSymbolError,
    ProcedureSyntaxError,
    ScenarioError,
    SnapshotError,
)
from .runner import (
    BLANK,
    CostMeter,
    Instruction,
    Procedure,
    RunResult,
    Verdict,
    answer_word,
    check_determination,
    compute_function,
    run,
    select_instruction,
)
from .tape import (
    Configuration,
    StandardModel,
    apply_instruction,
    extract_string,
    halting_accept,
    start_config,
)
from .trie import MachineStats, PartialDfa, QueryCase, QueryOutcome
from .numbering import ArrivalNumbering
from .engine import (EvolvingModel, InvocationRecord, decode_snapshot, encode_snapshot,
                     fork, make_model)
from .experiments import (
    SaturationReport,
    SiblingSearchResult,
    StructureDelta,
    TraceRecord,
    binary_strings,
    order_demo,
    right_scanner,
    run_traced,
    saturate,
    sibling_search,
)
from .procfile import import_tm, load_procedure, parse_procedure, render_procedure

__version__ = "0.1.0"
