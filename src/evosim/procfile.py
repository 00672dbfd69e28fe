"""Procedure file grammar and machine-table import.

One instruction per line:

    (<state>,<symbol>) -> (<state>,<symbol>,<L|R>)

with symbol tokens 0, 1 and _ for the blank. Lines starting with # and
blank lines are ignored; a trailing # comment is stripped. The same grammar
serves imported machine tables.
"""

from __future__ import annotations

import re

from .errors import ProcedureSyntaxError
from .runner import Instruction, Procedure
from .tape import BLANK

_LINE = re.compile(
    r"^\(\s*([^\s(),#]+)\s*,\s*([01_])\s*\)\s*->\s*"
    r"\(\s*([^\s(),#]+)\s*,\s*([01_])\s*,\s*([LR])\s*\)$"
)


def _symbol_in(token):
    return BLANK if token == "_" else token


def _symbol_out(symbol):
    return "_" if symbol == BLANK else symbol


def parse_procedure(text):
    """Parse procedure text into a checked Procedure.

    Raises ProcedureSyntaxError with the offending line number, or
    DeterminationError listing duplicated (state, symbol) keys.
    """
    instructions = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        match = _LINE.match(line)
        if match is None:
            raise ProcedureSyntaxError(
                f"expected '(<state>,<sym>) -> (<state>,<sym>,<L|R>)', "
                f"got {raw.strip()!r}", line_no)
        state, read, target, write, move = match.groups()
        instructions.append(
            Instruction(state, _symbol_in(read), target, _symbol_in(write), move))
    return Procedure(instructions)


def import_tm(rows):
    """Embed a deterministic single-tape transition table as a Procedure.

    `rows` are Instruction objects or (state, read, target, write, move)
    tuples; the embedding is the identity. `Instruction` rejects foreign
    symbols (InvalidSymbolError) and `Procedure` duplicate keys
    (DeterminationError).
    """
    return Procedure(row if isinstance(row, Instruction) else Instruction(*row)
                     for row in rows)


def render_procedure(procedure):
    """Canonical text for a procedure; parse_procedure inverts it.

    Instructions are sorted by state name, then symbol in the order
    0, 1, blank.
    """
    rank = {"0": 0, "1": 1, BLANK: 2}
    insts = sorted(procedure, key=lambda i: (i.state, rank[i.read]))
    lines = [
        f"({i.state},{_symbol_out(i.read)}) -> "
        f"({i.target},{_symbol_out(i.write)},{i.move})"
        for i in insts
    ]
    return "\n".join(lines) + "\n" if lines else ""


def load_procedure(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_procedure(fh.read())
