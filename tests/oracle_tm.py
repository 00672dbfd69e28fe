"""Reference single-tape Turing machine simulator.

Written against integer tape positions and a plain (state, symbol) -> action
dict, on purpose: it shares no code or data representation with the package's
paired-string configurations, so agreement on verdicts and step counts is a
real cross-check rather than a tautology.

Semantics mirrored here:
  * the tape is blank at position 0, the input occupies positions 1..n,
    and cells are allocated rightward on demand;
  * a left move at position 0 never applies (the table entry is ignored,
    as if no instruction matched);
  * the machine halts when no table entry applies; it accepts iff it halts
    in state "h" reading a blank at either the left edge (position 0) or
    the right edge (the highest allocated cell);
  * with an acceptor, the evolving model's: it is asked at every
    configuration in "h" on a blank at an edge, in order, and its answer
    at the halting configuration replaces the pattern's. `TrieAcceptor`
    is the paper's model E over a reference trie.
"""

BLANK = "△"

ACCEPTED = "accepted"
HALTED_REJECTED = "halted-rejected"
BUDGET_EXCEEDED = "budget-exceeded"


class TrieAcceptor:
    """Model E's acceptor over `trie`, any object whose `answer(text)`
    gives (accepted, ticks): YES at the origin without a consultation; at
    the right edge NO when the content, stripped of its end blanks, holds
    a blank, and otherwise the trie's answer on it. `fed` lists the
    consulted strings in order, and `ticks` sums their ticks."""

    def __init__(self, trie):
        self.trie = trie
        self.fed = []
        self.ticks = 0

    def __call__(self, head, content):
        if head == 0:
            return True
        content = content.strip(BLANK)
        if BLANK in content:
            return False
        accepted, ticks = self.trie.answer(content)
        self.fed.append(content)
        self.ticks += ticks
        return accepted


def oracle_run(table, text, budget=100_000, acceptor=None):
    """Run `table` on `text`; return (verdict, steps, final_string).

    `table` maps (state, read_symbol) to (next_state, write_symbol, move)
    with move in {"L", "R"}. `steps` counts applied transitions. The final
    string is the allocated tape with blank ends stripped. `acceptor`, when
    given, is called as acceptor(head, content) on every configuration in
    "h" on a blank at an edge, in order, `content` being the allocated
    tape; None keeps the halting pattern.
    """
    tape = {i + 1: ch for i, ch in enumerate(text)}
    head = 0
    rightmost = len(text)
    state = "q0"
    steps = 0
    while True:
        symbol = tape.get(head, BLANK)
        at_edge = head == 0 or head == rightmost
        answer = state == "h" and symbol == BLANK and at_edge
        if answer and acceptor is not None:
            content = "".join(tape.get(i, BLANK) for i in range(rightmost + 1))
            answer = acceptor(head, content)
        action = table.get((state, symbol))
        if action is not None and action[2] == "L" and head == 0:
            action = None
        if action is None:
            verdict = ACCEPTED if answer else HALTED_REJECTED
            break
        if steps >= budget:
            verdict = BUDGET_EXCEEDED
            break
        next_state, write, move = action
        tape[head] = write
        head += 1 if move == "R" else -1
        if head > rightmost:
            rightmost = head
        state = next_state
        steps += 1
    content = "".join(tape.get(i, BLANK) for i in range(rightmost + 1))
    return verdict, steps, content.strip(BLANK)


def oracle_accepts(table, text, budget=100_000):
    return oracle_run(table, text, budget)[0] == ACCEPTED
