"""The snapshot decoder against a recorded verdict on mutated snapshots.

`tests/golden/decoder_record.json` holds a few grown worlds as snapshot
text and, for every mutation of them that `mutations` makes, what the
decoder did: accepted (with a hash of the re-encoded text) or rejected
(with the error class and `line_no`). The record was written by
`python tests/test_decoder_record.py > tests/golden/decoder_record.json`
with the dict-based decoder that preceded the array trie, so any later
decoder must accept and reject exactly what that one did, report the same
line, and re-encode every accepted snapshot to the same bytes. The 40
verdicts on a bad `counter:` value were re-recorded once, when the
decoder began to report it at its own line instead of at `maxaccept:`.
"""

import hashlib
import json
import sys
from pathlib import Path

from evosim import (EvolvingModel, decode_snapshot, encode_snapshot,
                    right_scanner, run, saturate)

RECORD = Path(__file__).resolve().parent / "golden" / "decoder_record.json"

# Worlds that only a hand-written snapshot makes: a child listed before its
# parent, and a root listed after another state, with names of its own
# and a counter past the state count.
OUT_OF_ORDER = """PET1 v1
states: q0 s2 s1
start: q0
accept: s2
trans: q0 1 s1
trans: s1 0 s2
maxaccept: 2
counter: 3
"""

OWN_NAMES = """PET1 v1
states: n1 root n2 s3
start: root
accept: n2 s3
trans: n1 1 s3
trans: root 0 n1
trans: root 1 n2
maxaccept: 2
counter: 7
"""


def grown_worlds():
    """Snapshot texts of a few corpus worlds, by name."""
    ordered = EvolvingModel()
    for text in ("101", "10", "0110"):
        run(ordered, right_scanner(), text)
    empty_first = EvolvingModel()
    for text in ("", "1", "0", "11", "0"):
        run(empty_first, right_scanner(), text)
    saturated = EvolvingModel()
    saturate(saturated, 1)
    return {
        "ordered": encode_snapshot(ordered),
        "empty_first": encode_snapshot(empty_first),
        "saturated": encode_snapshot(saturated),
        "out_of_order": OUT_OF_ORDER,
        "own_names": OWN_NAMES,
    }


def mutations(text):
    """(label, mutated text) for every line deleted, copied or swapped with
    the next, and every word replaced, dropped or doubled."""
    lines = text.split("\n")[:-1]
    out = [("as is", text)]

    def joined(rows):
        return "\n".join(rows) + "\n"

    for i in range(len(lines)):
        out.append((f"del {i}", joined(lines[:i] + lines[i + 1:])))
        out.append((f"dup {i}", joined(lines[:i + 1] + lines[i:])))
        if i + 1 < len(lines):
            swapped = lines[:i] + [lines[i + 1], lines[i]] + lines[i + 2:]
            out.append((f"swap {i}", joined(swapped)))
    names = lines[1].split()[1:]
    pieces = sorted({names[0], names[-1], "x", "s99", "0", "1", "-1"})
    for i, line in enumerate(lines):
        words = line.split(" ")
        for j, word in enumerate(words):
            edits = [(piece, piece) for piece in pieces if piece != word]
            edits += [("<drop>", None), ("<double>", f"{word} {word}")]
            for tag, piece in edits:
                middle = [] if piece is None else [piece]
                changed = words[:j] + middle + words[j + 1:]
                out.append((f"word {i}.{j}={tag}",
                            joined(lines[:i] + [" ".join(changed)] + lines[i + 1:])))
    return out


def verdict(text):
    """What the decoder does with `text`, as one line of the record."""
    try:
        model = decode_snapshot(text)
    except Exception as exc:  # the record keeps whatever class escaped
        return f"reject {type(exc).__name__} line {getattr(exc, 'line_no', None)}"
    again = encode_snapshot(model).encode()
    same = "same" if again == text.encode() else "canonical"
    return f"accept {same} {hashlib.sha256(again).hexdigest()[:16]}"


def inputs_digest(worlds):
    digest = hashlib.sha256()
    for name, text in sorted(worlds.items()):
        for label, mutated in mutations(text):
            digest.update(f"{name}|{label}|{mutated}\0".encode())
    return digest.hexdigest()


def verdicts(worlds):
    """{"world: mutation": verdict} over every mutation of every world."""
    return {f"{name}: {label}": verdict(mutated)
            for name, text in sorted(worlds.items())
            for label, mutated in mutations(text)}


def record():
    """The record: the worlds, a digest of the mutated inputs (which pins
    `mutations`), and the verdicts in mutation order."""
    worlds = grown_worlds()
    return {"worlds": worlds, "inputs_sha256": inputs_digest(worlds),
            "verdicts": list(verdicts(worlds).values())}


def test_the_corpus_worlds_encode_as_recorded():
    assert grown_worlds() == json.loads(RECORD.read_text())["worlds"]


def test_the_decoder_matches_the_record():
    recorded = json.loads(RECORD.read_text())
    worlds = recorded["worlds"]
    assert inputs_digest(worlds) == recorded["inputs_sha256"]
    got = verdicts(worlds)
    assert len(got) == len(recorded["verdicts"])
    wrong = {case: (was, now) for (case, now), was
             in zip(got.items(), recorded["verdicts"]) if was != now}
    assert wrong == {}


def test_a_child_listed_before_its_parent_decodes_and_re_encodes():
    assert encode_snapshot(decode_snapshot(OUT_OF_ORDER)) == OUT_OF_ORDER
    assert encode_snapshot(decode_snapshot(OWN_NAMES)) == OWN_NAMES


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=0, sort_keys=True)
    sys.stdout.write("\n")
