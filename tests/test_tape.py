"""Standard model: configurations, both engines, the machine importer."""

import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evosim import (
    BLANK,
    Configuration,
    DeterminationError,
    Instruction,
    InvalidSymbolError,
    Procedure,
    StandardModel,
    apply_instruction,
    binary_strings,
    check_determination,
    compute_function,
    extract_string,
    halting_accept,
    import_tm,
    load_procedure,
    right_scanner,
    run,
    select_instruction,
    start_config,
)
from evosim.tape import step_table, tape_view, walk
from oracle_tm import oracle_run

MACHINES = Path(__file__).resolve().parent.parent / "machines"

binary = st.text(alphabet="01", max_size=12)


def test_start_config_places_head_on_origin_blank():
    assert start_config("101") == Configuration("q0", "", BLANK, "101")
    assert start_config("") == Configuration("q0", "", BLANK, "")


def test_start_config_rejects_foreign_symbols():
    with pytest.raises(InvalidSymbolError):
        start_config("2")


RIGHT_RULE = Instruction("h", "1", "h", "1", "R")


def test_apply_moves_right_within_the_tape():
    before = Configuration("h", BLANK, "1", "01")
    assert apply_instruction(before, RIGHT_RULE) == Configuration("h", BLANK + "1", "0", "1")


def test_apply_extends_the_tape_moving_right_off_the_end():
    before = Configuration("h", BLANK + "10", "1", "")
    assert apply_instruction(before, RIGHT_RULE) == Configuration("h", BLANK + "101", BLANK, "")


def test_apply_requires_matching_state_and_symbol():
    assert apply_instruction(start_config("101"), RIGHT_RULE) is None


def test_apply_left_at_the_origin_is_undefined():
    rule = Instruction("q0", BLANK, "p", BLANK, "L")
    assert apply_instruction(start_config("101"), rule) is None


def test_apply_moves_left_within_the_tape():
    rule = Instruction("p", "0", "q", "1", "L")
    before = Configuration("p", "10", "0", "11")
    assert apply_instruction(before, rule) == Configuration("q", "1", "0", "111")


@pytest.mark.parametrize("config", [
    Configuration("p", "€x", "0", "y"),
    Configuration("p", "1\0", "0", ""),
    Configuration("p", "", "\0", "1"),
    Configuration("p", "1", "01", ""),
    Configuration("p", "1", "", "0"),
])
def test_steps_reject_configurations_outside_the_alphabet(config):
    inst = Instruction("p", "0", "q", "1", "R")
    with pytest.raises(InvalidSymbolError):
        apply_instruction(config, inst)
    with pytest.raises(InvalidSymbolError):
        select_instruction(Procedure([inst]), config)


def test_halting_accept_patterns():
    assert halting_accept(Configuration("h", "", BLANK, "101"))
    assert halting_accept(Configuration("h", BLANK + "101", BLANK, ""))
    assert halting_accept(Configuration("h", "", BLANK, ""))
    assert not halting_accept(Configuration("q0", "", BLANK, "1"))
    assert not halting_accept(Configuration("h", "1", "0", ""))
    assert not halting_accept(Configuration("h", "1", BLANK, "1"))


def test_extract_string_strips_end_blanks_only():
    assert extract_string(Configuration("q0", "", BLANK, "101")) == "101"
    assert extract_string(Configuration("h", BLANK + "101", BLANK, "")) == "101"
    interior = Configuration("h", BLANK + "1" + BLANK, "1", "")
    assert extract_string(interior) == "1" + BLANK + "1"


def test_import_tm_is_the_identity_embedding():
    rows = [
        ("q0", BLANK, "h", BLANK, "R"),
        ("h", "0", "h", "0", "R"),
        ("h", "1", "h", "1", "R"),
    ]
    assert import_tm(rows) == right_scanner()


def test_import_tm_rejects_duplicate_keys():
    clash = [("h", "1", "h", "1", "R"), ("h", "1", "h", "0", "L")]
    # Only one of these can apply at the origin, where a left move does
    # not, but both claim the key (q0, blank).
    half_clash = [("q0", BLANK, "h", BLANK, "L"), ("q0", BLANK, "h", "1", "R")]
    for rows in (clash, half_clash):
        with pytest.raises(DeterminationError):
            import_tm(rows)


def test_import_tm_rejects_foreign_symbols():
    with pytest.raises(InvalidSymbolError):
        import_tm([("q0", "x", "h", "0", "R")])


def test_instruction_checks_its_fields_where_it_is_built():
    for read, write in (("x", "0"), ("0", "_")):
        with pytest.raises(InvalidSymbolError):
            Instruction("q0", read, "h", write, "R")
    for state, target, move in (("q0", "h", "N"), ("", "h", "R"), ("q0", "", "L")):
        with pytest.raises(ValueError):
            Instruction(state, "0", target, "0", move)


def test_check_determination():
    ok = right_scanner().instructions
    assert check_determination(ok) == []
    assert check_determination([]) == []
    clash = [Instruction("h", "1", "h", "1", "R"),
             Instruction("h", "1", "h", "0", "L")]
    assert check_determination(clash) == [("h", "1")]


@settings(max_examples=200)
@given(binary)
def test_extract_inverts_start(text):
    assert extract_string(start_config(text)) == text


@given(st.sampled_from(["0", "1", BLANK]), binary, binary)
def test_applicable_transitions_match_the_key(head, left, right):
    config = Configuration("p", left, head, right)
    for read in ("0", "1", BLANK):
        inst = Instruction("p", read, "q", "0", "R")
        result = apply_instruction(config, inst)
        if result is not None:
            assert (inst.state, inst.read) == (config.state, config.head)


tape_text = st.text(alphabet="01" + BLANK, max_size=8)


@given(st.sampled_from(["0", "1", BLANK]), tape_text, tape_text,
       st.sampled_from(["0", "1", BLANK]), st.sampled_from(["L", "R"]))
def test_transition_rewrites_only_the_head_cell(head, left, right, write, move):
    config = Configuration("p", left, head, right)
    result = apply_instruction(config, Instruction("p", head, "q", write, move))
    if result is None:
        assert move == "L" and left == ""
        return
    before = left + head + right
    after = result.left + result.head + result.right
    rewritten = left + write + right
    # one blank gets allocated when a right move runs off the end
    assert after in (rewritten, rewritten + BLANK)
    assert len(after) >= len(before)



def byte_tape(text):
    """The mutable tape of a string: blank 0, "0" and "1" their ASCII codes."""
    return bytearray({"0": 0x30, "1": 0x31, BLANK: 0}[symbol] for symbol in text)


@given(st.sampled_from(["0", "1", BLANK]), tape_text, tape_text,
       st.sampled_from(["0", "1", BLANK]), st.sampled_from(["L", "R"]))
def test_mutable_tape_steps_like_the_pure_engine(head, left, right, write, move):
    inst = Instruction("p", head, "q", write, move)
    expected = apply_instruction(Configuration("p", left, head, right), inst)
    steps, sweeps, blank_sweeps = step_table([inst])
    assert sweeps == blank_sweeps == {}
    cells = byte_tape(left + head + right)
    applied = []
    state, pos, halted = walk(steps, sweeps, blank_sweeps, cells, len(left), "p", 1,
                              applied)
    # No instruction is keyed on q, so the walk ends halted either way.
    assert halted
    # The two tape rules, stated apart from the code that applies them.
    if move == "L" and not left:
        assert (applied, expected) == ([], None)
        assert (state, pos, cells) == ("p", 0, byte_tape(head + right))
        return
    grown = BLANK if move == "R" and not right else ""
    assert applied == [inst]
    assert cells == byte_tape(left + write + right + grown)
    assert (state, pos) == ("q", len(left) + (1 if move == "R" else -1))
    assert tape_view(state, cells, pos) == expected


# Importing `evosim.tape` normally runs the package __init__, which loads
# every module; the probe installs a bare package object so only the
# imports of tape.py itself are followed.
LAYER_PROBE = """
import importlib.util, sys, types
spec = importlib.util.find_spec("evosim")
package = types.ModuleType("evosim")
package.__path__ = list(spec.submodule_search_locations)
sys.modules["evosim"] = package
import evosim.tape
print(" ".join(sorted(name for name in sys.modules if name.startswith("evosim."))))
"""


def test_tape_loads_no_evosim_module_but_errors():
    proc = subprocess.run([sys.executable, "-c", LAYER_PROBE],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["evosim.errors", "evosim.tape"]


# --- oracle corpus: the reference simulator must agree with the model ---

# The corpus machines, restated as literal tables so agreement with the
# .proc files is itself a check on the parser.
SCANNER_TABLE = {
    ("q0", BLANK): ("h", BLANK, "R"),
    ("h", "0"): ("h", "0", "R"),
    ("h", "1"): ("h", "1", "R"),
}

INCREMENT_TABLE = {
    ("q0", BLANK): ("scan", BLANK, "R"),
    ("scan", "0"): ("scan", "0", "R"),
    ("scan", "1"): ("scan", "1", "R"),
    ("scan", BLANK): ("carry", BLANK, "L"),
    ("carry", "1"): ("carry", "0", "L"),
    ("carry", "0"): ("ret", "1", "R"),
    ("carry", BLANK): ("ret", "1", "R"),
    ("ret", "0"): ("ret", "0", "R"),
    ("ret", "1"): ("ret", "1", "R"),
    ("ret", BLANK): ("h", BLANK, "R"),
}

PALINDROME_TABLE = {
    ("q0", BLANK): ("pick", BLANK, "R"),
    ("pick", "0"): ("seek0", BLANK, "R"),
    ("pick", "1"): ("seek1", BLANK, "R"),
    ("pick", BLANK): ("h", BLANK, "R"),
    ("seek0", "0"): ("seek0", "0", "R"),
    ("seek0", "1"): ("seek0", "1", "R"),
    ("seek0", BLANK): ("back0", BLANK, "L"),
    ("seek1", "0"): ("seek1", "0", "R"),
    ("seek1", "1"): ("seek1", "1", "R"),
    ("seek1", BLANK): ("back1", BLANK, "L"),
    ("back0", "0"): ("left", BLANK, "L"),
    ("back1", "1"): ("left", BLANK, "L"),
    ("back0", BLANK): ("h", BLANK, "L"),
    ("back1", BLANK): ("h", BLANK, "L"),
    ("left", "0"): ("left", "0", "L"),
    ("left", "1"): ("left", "1", "L"),
    ("left", BLANK): ("pick", BLANK, "R"),
    ("h", BLANK): ("h", BLANK, "L"),
}

CORPUS = {
    "right_scanner": SCANNER_TABLE,
    "binary_increment": INCREMENT_TABLE,
    "palindrome": PALINDROME_TABLE,
}


def table_of(procedure):
    return {(i.state, i.read): (i.target, i.write, i.move) for i in procedure}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_proc_files_match_the_literal_tables(name):
    procedure = load_procedure(MACHINES / f"{name}.proc")
    assert table_of(procedure) == CORPUS[name]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_model_agrees_with_the_oracle(name):
    procedure = import_tm(
        (s, a, t, w, m) for (s, a), (t, w, m) in CORPUS[name].items())
    model = StandardModel()
    for n in range(7):
        for text in binary_strings(n):
            verdict, steps, final = oracle_run(CORPUS[name], text)
            result = run(model, procedure, text, 100_000)
            assert result.verdict.value == verdict, (name, text)
            assert result.cost.transition_ticks == steps, (name, text)
            assert result.final_string == final, (name, text)


def test_increment_computes_plus_one():
    procedure = load_procedure(MACHINES / "binary_increment.proc")
    model = StandardModel()
    assert compute_function(model, procedure, "011") == "100"
    for n in range(7):
        for text in binary_strings(n):
            got = compute_function(model, procedure, text)
            assert got is not None
            assert int(got, 2) == (int(text, 2) if text else 0) + 1


def test_palindrome_decides_palindromes():
    procedure = load_procedure(MACHINES / "palindrome.proc")
    model = StandardModel()
    for n in range(8):
        for text in binary_strings(n):
            accepted = run(model, procedure, text, 100_000).accepted
            assert accepted == (text == text[::-1]), text
