"""What a fresh evosim process pays for its imports, command by command.
Standard library only.

    python3 tools/import_cost.py [ROUNDS]    # default: 15 rounds

Every case runs in a fresh interpreter, one process at a time, and the
cases take turns round by round (in a rotated order), so that drift on
the host spreads over all of them:

    pass                 the bare interpreter: the baseline
    import evosim.cli    the CLI module and what it imports
    query --state        `evosim query` against a world file
    run --state          `evosim run` against the same world
    snapshot --state     `evosim snapshot` of the same world

The commands go through the console script's entry point (`main()` from
`evosim.cli`) with the package from this checkout's `src`. The world is
the 4,095-state trie that `saturate 10` grows, written once to a temporary
directory and restored before every process, so each round does the same
work: the query and the run ask a first-time string, grow the world and
write it back.

Prints, per case, its wall time in ms above `pass`: the min is its
fastest process less the fastest `pass`, the median is over the rounds of
its process less that round's `pass`. Then the standard-library modules
each case has in `sys.modules` at exit that `pass` did not (taken from
one more, untimed process per case).
"""

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
# Wrapped around a case's one-line code for the module listing, written at
# exit; `os` and `sys` are loaded by interpreter start-up, so the listing
# adds no module of its own.
LISTING = ("try:\n    {}\nfinally:\n    import os, sys\n"
           "    with open(os.environ['IMPORT_COST_OUT'], 'w') as out:\n"
           "        out.write('\\n'.join(sys.modules))\n")


def _cases(world):
    state = ["--model", "e", "--state", str(world)]
    return {
        "pass": ("pass", []),
        "import evosim.cli": ("import evosim.cli", []),
        "query --state": (ENTRY, ["query", QUERY, *state]),
        "run --state": (ENTRY, ["run", QUERY, *state]),
        "snapshot --state": (ENTRY, ["snapshot", *state]),
    }


def _grow_world(path):
    sys.path.insert(0, str(SRC))
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


def main(argv):
    rounds = int(argv[1]) if len(argv) > 1 else 15
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        master = scratch / "master.pet"
        world = scratch / "world.pet"
        _grow_world(master)
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC), path] if path else [str(SRC)]))
        cases = _cases(world)
        names = list(cases)
        times = {name: [] for name in names}
        for turn in range(rounds):
            shift = turn % len(names)
            for name in names[shift:] + names[:shift]:
                shutil.copyfile(master, world)
                times[name].append(_launch(*cases[name], env))
        listing = scratch / "modules.txt"
        added = {}
        for name in names:
            shutil.copyfile(master, world)
            code, args = cases[name]
            _launch(LISTING.format(code), args, dict(env, IMPORT_COST_OUT=str(listing)))
            added[name] = _stdlib(listing.read_text().split("\n"))
    base = times["pass"]
    print(f"pass: {1000 * min(base):.1f} ms min, "
          f"{1000 * statistics.median(base):.1f} ms median "
          f"({rounds} rounds, Python {sys.version.split()[0]})")
    print(f"{'ms above pass':<20}{'min':>8}{'median':>8}")
    for name in names[1:]:
        paired = [t - b for t, b in zip(times[name], base)]
        print(f"{name:<20}{1000 * (min(times[name]) - min(base)):>8.1f}"
              f"{1000 * statistics.median(paired):>8.1f}")
    print("stdlib modules each case adds to pass:")
    for name in names[1:]:
        print(f"  {name}: {' '.join(sorted(added[name] - added['pass']))}")


if __name__ == "__main__":
    main(sys.argv)
