"""Query ledgers and their replay check, for the trie's permanence tests.

A ledger records the (query, answer) pairs one machine gave; `replay_check`
replays it on fresh machines to test that every answer is permanent and
that equal histories build equal machines.
"""


class QueryLedger:
    """Append-only record of (query, answer) pairs from one machine."""

    def __init__(self, entries=()):
        self.entries = list(entries)

    def record(self, text, accepted):
        self.entries.append((text, accepted))

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def replay_check(fresh_machine, ledger):
    """Check a ledger for permanence and determinism of answers.

    `fresh_machine` is a zero-argument constructor. Three checks run in
    order: the full history replayed on a fresh machine must reproduce
    every recorded answer; with the history in place, re-asking every
    entry must reproduce it again; and a second fresh replay must land on
    the identical structure, state names included. Returns None when all
    pass, else a string pinpointing the first divergence.
    """
    machine = fresh_machine()
    for i, (text, recorded) in enumerate(ledger, start=1):
        got = machine.query(text).accepted
        if got != recorded:
            return (f"entry {i}: replay of {text!r} answered "
                    f"{got}, ledger says {recorded}")
    for i, (text, recorded) in enumerate(ledger, start=1):
        got = machine.query(text).accepted
        if got != recorded:
            return (f"entry {i}: re-asking {text!r} after the full history "
                    f"answered {got}, ledger says {recorded}")
    twin = fresh_machine()
    for i, (text, recorded) in enumerate(ledger, start=1):
        got = twin.query(text).accepted
        if got != recorded:
            return (f"entry {i}: second replay of {text!r} answered "
                    f"{got}, ledger says {recorded}")
    same = (machine.states == twin.states
            and machine.transitions == twin.transitions
            and machine.accepting == twin.accepting
            and machine.max_accepted_length == twin.max_accepted_length
            and machine.creation_counter == twin.creation_counter)
    if not same:
        return "replayed machines diverge in structure"
    return None
