"""A reference for the growing trie acceptor, written from the paper's
four query cases and sharing no code with `evosim.trie`.

The trie is a dict from each prefix string it holds to that state's
creation index (the empty string is the start state, 0), and the accepting
states are a set of prefixes. `answer` gives (accepted, ticks) as the
acceptor does, and `snapshot` the canonical text of a machine with fresh
names (q0, s1, s2, ... by creation index).
"""


class OracleTrie:
    def __init__(self):
        self.created = {"": 0}
        self.accepting = set()

    def answer(self, text):
        # The prefixes form a trie, so the walk reads the longest one held.
        read = max(n for n in range(len(text) + 1) if text[:n] in self.created)
        if read == len(text):
            if text in self.accepting:
                return True, read
            if {text + "0", text + "1"} & self.accepting:
                return False, read
            self.accepting.add(text)
            return True, read + 1
        for n in range(read + 1, len(text) + 1):
            self.created[text[:n]] = len(self.created)
        self.accepting.add(text)
        return True, 2 * len(text) - read + 1

    def snapshot(self):
        order = sorted(self.created, key=self.created.get)
        name = {prefix: f"s{self.created[prefix]}" if prefix else "q0"
                for prefix in order}
        accept = " ".join(name[p] for p in order if p in self.accepting)
        lines = ["PET1 v1", "states: " + " ".join(map(name.get, order)),
                 "start: q0", f"accept: {accept}".rstrip()]
        lines += [f"trans: {name[p]} {symbol} {name[p + symbol]}"
                  for p in order for symbol in "01" if p + symbol in name]
        lines.append(f"maxaccept: {max(map(len, self.accepting), default=0)}")
        lines.append(f"counter: {len(order)}")
        return "\n".join(lines) + "\n"
