"""Exception types shared across the package, and `excerpt` and `summary`,
which their messages use to name a piece of the input they reject and to
list the problems they found."""


def excerpt(text, limit=40, show=repr):
    """`show(text)` for a text of at most `limit` characters; for a longer
    one, `show` of its first `limit` characters and its length, so that a
    message never echoes a whole input line."""
    if len(text) <= limit:
        return show(text)
    return f"{show(text[:limit])}… ({len(text)} characters)"


def summary(parts, sep="; ", limit=160):
    """The parts joined by `sep`, as many as fit in `limit` characters (at
    least one), then the count of the rest, so that a message never lists
    every problem of a large input."""
    shown = parts[0]
    for count, part in enumerate(parts[1:], 1):
        if len(shown) + len(sep) + len(part) > limit:
            return f"{shown}{sep}and {len(parts) - count} more"
        shown += sep + part
    return shown


class EvosimError(Exception):
    """Base class for all package errors."""


class InvalidSymbolError(EvosimError):
    """An input string contains characters outside the machine alphabet."""


class DeterminationError(EvosimError):
    """Two instructions compete for the same configuration.

    Carries every colliding (state, symbol) key in `collisions`; the
    message names as many as fit (`summary`).
    """

    def __init__(self, collisions):
        self.collisions = tuple(collisions)
        # 140 characters of keys, the prefix and the count stay within 200.
        keys = summary([f"({excerpt(s, 20, str)},{a})" for s, a in self.collisions],
                       ", ", 140)
        super().__init__(f"conflicting instructions for key(s): {keys}")


class _LineError(EvosimError):
    """A package error that may point at a line of the text it rejects:
    `line_no`, 1-based, or None when no one line is at fault."""

    def __init__(self, message, line_no=None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class SnapshotError(_LineError):
    """A snapshot text is malformed or violates machine invariants."""


class ProcedureSyntaxError(_LineError):
    """A procedure file line does not match the instruction grammar."""


class ScenarioError(_LineError):
    """A scenario is malformed or misuses a command."""
