"""Exception types shared across the package, and `excerpt`, which their
messages use to name a piece of the input they reject."""


def excerpt(text, limit=40, show=repr):
    """`show(text)` for a text of at most `limit` characters; for a longer
    one, `show` of its first `limit` characters and its length, so that a
    message never echoes a whole input line."""
    if len(text) <= limit:
        return show(text)
    return f"{show(text[:limit])}… ({len(text)} characters)"


class EvosimError(Exception):
    """Base class for all package errors."""


class InvalidSymbolError(EvosimError):
    """An input string contains characters outside the machine alphabet."""


class DeterminationError(EvosimError):
    """Two instructions compete for the same configuration.

    Carries the colliding (state, symbol) keys in `collisions`.
    """

    def __init__(self, collisions):
        self.collisions = tuple(collisions)
        keys = ", ".join(f"({excerpt(s, 20, str)},{a})" for s, a in self.collisions)
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
