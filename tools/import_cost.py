"""What a fresh evosim process pays for its imports, command by command.
Standard library only.

    python3 tools/import_cost.py [ROUNDS]    # default: 15 rounds
    python3 tools/import_cost.py [ROUNDS] --src A/src --src B/src

Every case runs in a fresh interpreter, one process at a time, and the
cases take turns round by round (in a rotated order), so that drift on
the host spreads over all of them:

    pass                 the bare interpreter: the baseline
    import evosim.cli    the CLI module and what it imports
    query --state        `evosim query` against a world file
    run --state          `evosim run` against the same world
    snapshot --state     `evosim snapshot` of the same world
    scenario FILE        `evosim scenario` of a short script without `stats`
    trace INPUT          `evosim trace` of one input in a fresh world

The commands go through the console script's entry point (`main()` from
`evosim.cli`) with the package from this checkout's `src`, or from the
`src` directory each `--src` names. Given two, the script compares two
trees (say, two `git archive` copies of two commits): each round runs
every case once per tree, the tree that goes first alternating from round
to round, so that the drift of the host falls on both alike. The world is
the 4,095-state trie that `saturate 10` grows, written once to a temporary
directory and restored before every process, so each round does the same
work: the query and the run ask a first-time string, grow the world and
write it back. The script (`SCRIPT`) and the trace start from a fresh
world and keep none.

Each tree is timed from a byte-compiled copy. Before the first round it
is copied without its `__pycache__` into the temporary directory, beside
the other tree's copy under a name of equal length, and compiled there
with `python -m compileall -q`, as `tools/bench_pairs.py` does. Every
process imports the copy, the import that grows the world included, so
both trees start from an up-to-date cache whatever
`PYTHONDONTWRITEBYTECODE` says, and no tree given is written to; `--src
X --src X` compares two copies of one tree.

Prints, per case, its wall time in ms above `pass`, over the rounds of
its process less that round's `pass`: the min, and the median with its
first and third quartiles (inclusive method, as `tools/bench_pairs.py`
takes them). A one-off median on this kind of host can move by 10-20%
between runs of the same code, so read it against its quartiles. The
table has one column group per tree, A and B in the order given, each
measured against its own `pass`, and with two trees B's median over A's:
printed only from two rounds on, and where both medians stand above the
wider of the two trees' interquartile ranges, `-` otherwise.
Then the standard-library modules each case has in `sys.modules` at exit
that `pass` did not (taken from one more, untimed process per case and
tree).
"""

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
ENTRY = "import sys; from evosim.cli import main; sys.exit(main())"
QUERY = "1011001110001111"  # first-time in the world: the walk falls off it
# A scenario of the commands that need the scenario and experiment modules,
# but not `stats`, which alone loads `dataclasses` (for `MachineStats`).
SCRIPT = "model e\nquery 101\nexpect accept\nsaturate 4\nbrute 110\n"
# Wrapped around a case's one-line code for the module listing, written at
# exit; `os` and `sys` are loaded by interpreter start-up, so the listing
# adds no module of its own.
LISTING = ("try:\n    {}\nfinally:\n    import os, sys\n"
           "    with open(os.environ['IMPORT_COST_OUT'], 'w') as out:\n"
           "        out.write('\\n'.join(sys.modules))\n")


def _cases(world, script):
    state = ["--model", "e", "--state", str(world)]
    return {
        "pass": ("pass", []),
        "import evosim.cli": ("import evosim.cli", []),
        "query --state": (ENTRY, ["query", QUERY, *state]),
        "run --state": (ENTRY, ["run", QUERY, *state]),
        "snapshot --state": (ENTRY, ["snapshot", *state]),
        "scenario FILE": (ENTRY, ["scenario", str(script)]),
        "trace INPUT": (ENTRY, ["trace", QUERY, "--model", "e"]),
    }


def _grow_world(path, src):
    sys.path.insert(0, str(src))
    from evosim import EvolvingModel, encode_snapshot, saturate
    model = EvolvingModel()
    saturate(model, 10)
    path.write_text(encode_snapshot(model), encoding="utf-8")


def _launch(code, argv, env):
    """Run `code` with `argv` in a fresh interpreter; its wall seconds."""
    started = perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    elapsed = perf_counter() - started
    if proc.returncode != 0:
        sys.exit(f"{code!r} {argv} exited {proc.returncode}: {proc.stderr.decode()}")
    return elapsed


def _stdlib(modules):
    return {name for name in modules
            if name.partition(".")[0] in sys.stdlib_module_names}


def _compiled_copies(trees, scratch):
    """A byte-compiled copy of each tree in `scratch`, without its
    `__pycache__`, in sibling directories whose names have equal length."""
    copies = []
    for label, src in zip("ab", trees):
        copy = scratch / f"src_{label}"
        shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(copy)],
                       check=True, stdout=subprocess.DEVNULL)
        copies.append(copy)
    return copies


def _env(src):
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), path] if path else [str(src)]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rounds", type=int, nargs="?", default=15)
    parser.add_argument("--src", type=Path, action="append",
                        help="a src directory holding the evosim package; "
                             "give it twice to compare two trees")
    args = parser.parse_args(argv)
    trees = [src.resolve() for src in args.src or [SRC]]
    if len(trees) > 2:
        parser.error("--src may be given at most twice")
    for src in trees:
        if not (src / "evosim" / "__init__.py").is_file():
            parser.error(f"{src} holds no evosim package")
    rounds = args.rounds
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        master = scratch / "master.pet"
        world = scratch / "world.pet"
        copies = _compiled_copies(trees, scratch)
        envs = [_env(copy) for copy in copies]
        _grow_world(master, copies[0])
        script = scratch / "script.scn"
        script.write_text(SCRIPT, encoding="utf-8")
        cases = _cases(world, script)
        names = list(cases)
        times = [{name: [] for name in names} for _ in trees]
        for turn in range(rounds):
            shift = turn % len(names)
            order = list(range(len(trees)))
            if turn % 2:
                order.reverse()
            for name in names[shift:] + names[:shift]:
                for tree in order:
                    shutil.copyfile(master, world)
                    times[tree][name].append(_launch(*cases[name], envs[tree]))
        listing = scratch / "modules.txt"
        added = [{} for _ in trees]
        for tree, env in enumerate(envs):
            for name in names:
                shutil.copyfile(master, world)
                code, case_args = cases[name]
                _launch(LISTING.format(code), case_args,
                        dict(env, IMPORT_COST_OUT=str(listing)))
                added[tree][name] = _stdlib(listing.read_text().split("\n"))
    _print_table(trees, times, added, names, rounds)


def _above_pass(times, name):
    """(min, q1, median, q3) ms of a case above `pass`, as the docstring
    says; one round gives its one value for each quartile."""
    paired = [1000 * (t - b) for t, b in zip(times[name], times["pass"])]
    quartiles = (statistics.quantiles(paired, n=4, method="inclusive")
                 if len(paired) > 1 else paired * 3)
    return min(paired), *quartiles


def _median_ratio(a, b, rounds):
    """B's median over A's, from the (min, q1, median, q3) rows of the two
    trees; None with one round, or where either median is not above the
    wider of the two interquartile ranges (so not above 0 either)."""
    spread = max(a[3] - a[1], b[3] - b[1])
    if rounds < 2 or min(a[2], b[2]) <= spread:
        return None
    return b[2] / a[2]


def _print_table(trees, times, added, names, rounds):
    labels = "AB"[:len(trees)]
    for label, src, runs in zip(labels, trees, times):
        base = runs["pass"]
        print(f"{label} = {src}: pass {1000 * min(base):.1f} ms min, "
              f"{1000 * statistics.median(base):.1f} ms median")
    print(f"({rounds} rounds, Python {sys.version.split()[0]}, "
          "each tree timed from a byte-compiled copy)")
    columns = ("min", "q1", "median", "q3")
    header = f"{'ms above pass':<20}" + "".join(
        f"{label + ' ' + column:>10}" for label in labels for column in columns)
    print(header + (f"{'B/A median':>12}" if len(trees) == 2 else ""))
    for name in names[1:]:
        figures = [_above_pass(runs, name) for runs in times]
        row = f"{name:<20}" + "".join(
            f"{value:>10.1f}" for values in figures for value in values)
        if len(trees) == 2:
            ratio = _median_ratio(*figures, rounds)
            row += f"{'-':>12}" if ratio is None else f"{ratio:>12.2f}"
        print(row)
    for label, modules in zip(labels, added):
        print(f"stdlib modules each case adds to pass ({label}):")
        for name in names[1:]:
            print(f"  {name}: {' '.join(sorted(modules[name] - modules['pass']))}")


if __name__ == "__main__":
    main()
