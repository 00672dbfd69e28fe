"""The benchmark's workloads: seeded inputs, one closed-loop client, checks.

Each workload turns the seed into a list of input units and runs them in
order, wrapping around, until its time is up. One client waits for every
operation before sending the next (a closed loop; the machine has two
cores, so there is no second client). The outputs of the first pass over
all units are kept; if the time runs out before the first pass ends, the
rest of it runs untimed, so that every run checks and digests the same
units. Later passes must repeat the first pass exactly. The first pass is
checked against a reference outside the timed region, and a unit whose
output is wrong counts every operation it ran as failed.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import os
import random
import re
import statistics
import subprocess
import sys
from array import array
from dataclasses import astuple, dataclass, field
from pathlib import Path
from time import perf_counter

from evosim import cli
from evosim.engine import EvolvingModel, encode_snapshot
from evosim.experiments import right_scanner
from evosim.procfile import load_procedure
from evosim.runner import BLANK, Instruction, Procedure, run
from evosim.scenario import ScenarioRunner, answer_word, parse_scenario
from evosim.tape import StandardModel
from evosim.trie import PartialDfa

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MACHINES = ROOT / "machines"


def _load_oracle():
    """The reference simulator from the test suite, imported read-only."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_oracle_tm", ROOT / "tests" / "oracle_tm.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bits(rng, length):
    return "".join(rng.choice("01") for _ in range(length))


# Host speed drifts on a shared machine: in consecutive one-second windows
# a fixed pure-Python loop ran anywhere from 690 to 1130 times. Every timed
# window is therefore followed by a short slice of a fixed calibration
# kernel, and host time is reported rescaled to the time the window would
# have taken at the kernel speed CAL_REF ("reference seconds"). The speed
# used for a window is the median of the last CAL_SLICES slices, so that a
# slice hit by a momentary stall does not skew it. A change to evosim moves
# reference time exactly as it moves host time; a change in the host's
# speed mostly cancels out. Raw host seconds are recorded too.
CAL_REF = 4500.0  # kernel calls per host second that define reference speed
CAL_SLICE_S = 0.02
CAL_SLICES = 5
WINDOW_S = 0.25


def _kernel():
    """Fixed work resembling evosim's: small tuples as dict keys, and string
    slicing and concatenation with a non-ASCII symbol in the string."""
    counts = {}
    for i in range(300):
        key = ("s%d" % (i % 97), "01"[i & 1])
        counts[key] = counts.get(key, 0) + 1
    tape = "01" * 512 + BLANK
    for _ in range(10):
        tape = tape[1:] + tape[0]


def calibrate():
    """Kernel calls per host second over one short slice."""
    calls = 0
    started = perf_counter()
    while True:
        _kernel()
        calls += 1
        elapsed = perf_counter() - started
        if elapsed >= CAL_SLICE_S:
            return calls / elapsed


def reference_seconds(fn):
    """Run fn() between calibration slices; (host seconds, reference seconds)."""
    speeds = [calibrate() for _ in range(CAL_SLICES // 2)]
    started = perf_counter()
    fn()
    host_s = perf_counter() - started
    speeds += [calibrate() for _ in range(CAL_SLICES - len(speeds))]
    return host_s, host_s * statistics.median(speeds) / CAL_REF


@dataclass
class Tally:
    """What one measured loop, or one window of it, did. `wall_s` is in
    reference seconds, `host_s` in host seconds; a window's latencies are
    host seconds, the loop's `timed` executions reference seconds."""

    wall_s: float = 0.0
    host_s: float = 0.0
    # Unboxed, so that the harness's own memory barely moves peak RSS.
    latencies: array = field(default_factory=lambda: array("d"))
    runs: int = 0
    steps: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    first: list = field(default_factory=list)
    kept: list = field(default_factory=list)
    executions: list = field(default_factory=list)
    unit_log: list = field(default_factory=list)  # (unit, host s, runs, steps, latency slice)
    timed: dict = field(default_factory=dict)  # unit -> [(seconds, latencies)] per execution
    unit_work: dict = field(default_factory=dict)  # unit -> (runs, steps)

    def fail(self, count, message):
        self.failed += count
        if len(self.errors) < 10:
            self.errors.append(message)

    def add_window(self, window, host_s, scale):
        self.host_s += host_s
        self.wall_s += host_s * scale
        self.runs += window.runs
        self.steps += window.steps
        self.attempted += window.attempted
        for j, unit_s, runs, steps, ops in window.unit_log:
            latencies = array("d", (t * scale for t in window.latencies[ops]))
            self.timed.setdefault(j, []).append((unit_s * scale, latencies))
            self.unit_work[j] = (runs, steps)

    def rates(self):
        """Runs and steps per reference second over one pass of the units
        timed, each unit timed by the median of its executions, so that a
        stall during one execution and the units a run ends between do not
        move the figures."""
        pass_s = sum(statistics.median(t for t, _ in runs) for runs in self.timed.values())
        runs = sum(r for r, _ in self.unit_work.values())
        steps = sum(s for _, s in self.unit_work.values())
        return runs / pass_s, steps / pass_s

    def op_latencies(self):
        """Each timed operation's latency, as the median over the executions
        of its unit (an operation is the k-th of its unit)."""
        return [statistics.median(column) for runs in self.timed.values()
                for column in zip(*(latencies for _, latencies in runs))]


class Workload:
    """Base: subclasses set `units` in `setup` and define `execute`."""

    name = ""
    peak_units = 1  # units replayed under tracemalloc in the traced pass
    in_process = False  # cli_state: run the CLI's main() in this process

    def __init__(self, workdir):
        self.workdir = workdir
        self.units = []

    def setup(self, seed):
        raise NotImplementedError

    def execute(self, unit, tally):
        """Run one unit; append each operation's host latency to the tally
        and count its runs and steps. Returns (comparable output, kept object)."""
        raise NotImplementedError

    def check(self, tally):
        raise NotImplementedError

    def digest_payload(self, tally):
        return tally.first

    def peak_run(self):
        """Replay the first units, untimed, for a tracemalloc peak."""
        for unit in self.units[:self.peak_units]:
            self.execute(unit, Tally())

    def measure(self, seconds):
        """Windows of about WINDOW_S host seconds, each followed by a
        calibration slice, until `seconds` have passed."""
        n = len(self.units)
        tally = Tally(first=[None] * n, kept=[None] * n, executions=[0] * n)
        deadline = perf_counter() + seconds
        speeds = [calibrate() for _ in range(CAL_SLICES - 1)]
        done = 0
        while perf_counter() < deadline:
            window = Tally()
            started = perf_counter()
            while True:
                self._step(done % n, tally, window)
                done += 1
                if perf_counter() - started >= WINDOW_S:
                    break
            host_s = perf_counter() - started
            speeds.append(calibrate())
            tally.add_window(window, host_s, statistics.median(speeds[-CAL_SLICES:]) / CAL_REF)
        rest = Tally()
        for j in range(done, n):
            self._step(j, tally, rest)
        tally.attempted += rest.attempted
        return tally

    def _step(self, j, tally, sink):
        tally.executions[j] += 1
        before = sink.attempted, sink.runs, sink.steps, len(sink.latencies)
        started = perf_counter()
        try:
            output, kept = self.execute(self.units[j], sink)
        except Exception as exc:  # a crash is a failed operation, not an abort
            sink.attempted = max(sink.attempted, before[0] + 1)
            tally.fail(1, f"unit {j}: {type(exc).__name__}: {exc}")
            output, kept = ("exception", repr(exc)), None
        sink.unit_log.append((j, perf_counter() - started, sink.runs - before[1],
                              sink.steps - before[2], slice(before[3], len(sink.latencies))))
        if tally.first[j] is None:
            tally.first[j], tally.kept[j] = output, kept
        elif output != tally.first[j]:
            tally.fail(1, f"unit {j}: a later pass differs from the first")


class WorldQueries(Workload):
    """Model e, the right scanner, a fresh world per query sequence."""

    name = "world_queries"
    peak_units = 50
    SEQUENCES = 1500
    BUDGET = 100

    def setup(self, seed):
        # Shaped like the criterion-2 corpus: 1-40 queries per sequence, drawn
        # from a pool of at most 12 strings of 0-12 bits each.
        rng = random.Random(seed)
        self.scanner = right_scanner()
        self.units = []
        for _ in range(self.SEQUENCES):
            count = rng.randint(1, 40)
            pool = [bits(rng, rng.randint(0, 12)) for _ in range(rng.randint(1, 12))]
            self.units.append([rng.choice(pool) for _ in range(count)])

    def execute(self, sequence, tally):
        world = EvolvingModel()
        outputs = []
        for text in sequence:
            started = perf_counter()
            result = run(world, self.scanner, text, self.BUDGET)
            tally.latencies.append(perf_counter() - started)
            cost = result.cost
            outputs.append((result.verdict.value, cost.path_length,
                            cost.transition_ticks, cost.acceptor_ticks))
            tally.steps += cost.transition_ticks
        tally.runs += len(sequence)
        tally.attempted += len(sequence)
        return outputs, world

    def check(self, tally):
        """Each answer equals a bare trie's fed the same strings, a repeated
        string gets its first answer again, the scanner takes |x|+1 steps, and
        the world's trie is the bare trie, state names included."""
        for j, sequence in enumerate(self.units):
            outputs, world = tally.first[j], tally.kept[j]
            if world is None:
                continue
            bare = PartialDfa()
            first_answer = {}
            wrong = 0
            for text, (verdict, _, steps, _) in zip(sequence, outputs):
                accepted = verdict == "accepted"
                if (accepted != bare.query(text).accepted
                        or first_answer.setdefault(text, accepted) != accepted
                        or steps != len(text) + 1):
                    wrong += 1
            if encode_snapshot(world) != encode_snapshot(EvolvingModel(bare)):
                wrong += 1
            if wrong:
                tally.fail(wrong * tally.executions[j],
                           f"sequence {j}: {wrong} answers differ from a bare trie")

    def digest_payload(self, tally):
        return [(outputs, astuple(world.trie.stats()) if world else None,
                 encode_snapshot(world) if world else None)
                for outputs, world in zip(tally.first, tally.kept)]


class LongTapes(Workload):
    """Model v on long inputs: scanner, palindromes, increment, runaway."""

    name = "long_tapes"
    peak_units = 16
    SCANNER = (1000, 2000, 4000, 8000)
    PALINDROME = (48, 100, 150, 200)
    INCREMENT = (256, 512, 1024)
    RUNAWAY_BUDGET = 4000
    BUDGET = 100_000

    def setup(self, seed):
        rng = random.Random(seed)
        self.model = StandardModel()
        self.procedures = {
            name: load_procedure(MACHINES / f"{name}.proc")
            for name in ("right_scanner", "palindrome", "binary_increment")
        }
        # One instruction: keep moving right over blanks; never halts.
        self.procedures["runaway"] = Procedure([Instruction("q0", BLANK, "q0", BLANK, "R")])
        units = [("right_scanner", bits(rng, n), self.BUDGET) for n in self.SCANNER]
        for n in self.PALINDROME:
            half = bits(rng, n // 2)
            palindrome = half + half[::-1]
            units.append(("palindrome", palindrome, self.BUDGET))
            # One flipped symbol near the middle: rejected after most of the
            # work, so the step count varies little between seeds.
            k = n // 2 - 1 - rng.randrange(max(1, n // 16))
            flipped = palindrome[:k] + ("1" if palindrome[k] == "0" else "0") + palindrome[k + 1:]
            units.append(("palindrome", flipped, self.BUDGET))
        units.extend(("binary_increment", bits(rng, n), self.BUDGET) for n in self.INCREMENT)
        units.append(("runaway", "", self.RUNAWAY_BUDGET))
        self.units = units

    def execute(self, job, tally):
        name, text, budget = job
        started = perf_counter()
        result = run(self.model, self.procedures[name], text, budget)
        tally.latencies.append(perf_counter() - started)
        tally.runs += 1
        tally.steps += result.cost.transition_ticks
        tally.attempted += 1
        return (result.verdict.value, result.cost.transition_ticks, result.final_string), None

    def check(self, tally):
        """Verdict, step count and final string agree with the reference
        simulator in tests/oracle_tm.py."""
        oracle = _load_oracle()
        for j, (name, text, budget) in enumerate(self.units):
            table = {(i.state, i.read): (i.target, i.write, i.move)
                     for i in self.procedures[name]}
            expected = oracle.oracle_run(table, text, budget)
            if tuple(tally.first[j]) != tuple(expected):
                tally.fail(tally.executions[j],
                           f"{name} on {len(text)} symbols: got {tally.first[j][:2]}, "
                           f"reference {expected[:2]}")


_QUERY_LINE = re.compile(r"^query ([01]+) -> \w+ \(path \d+, transitions (\d+),", re.M)


class SaturateObserve(Workload):
    """Generated scenario blocks: saturation and observer-effect laws."""

    name = "saturate_observe"
    SIZES = (10, 11, 12, 10, 11, 12)
    PROBES = 60
    EXPECT_EVERY = 6

    def setup(self, seed):
        rng = random.Random(seed)
        self.units = [self._block(rng, k, n) for k, n in enumerate(self.SIZES)]

    def _block(self, rng, k, n):
        """Scenario text, the transcript line prefixes the laws predict, and
        the runs and transition steps the block makes (the scanner takes
        |x|+1 steps on x)."""
        lines, laws = [], []
        runs = steps = 0

        def query(text, expect=None):
            nonlocal runs, steps
            lines.append(f"query {text}")
            runs += 1
            steps += len(text) + 1
            if expect:
                lines.append(f"expect {expect}")

        # Observer effect: on a fresh world a brute-force search accepts its
        # first candidate, 0^L, which turns 0^(L-1) into a reject; the control
        # fork saved before the search still accepts 0^(L-1).
        length = rng.randint(3, 8)
        target = bits(rng, length)
        lines += ["model e", f"snapshot save c{k}", f"brute {target}", "expect accept"]
        laws.append(f"brute {target} -> found {'0' * length} after 1 query "
                    f"(states +{length}, transitions +{length}, accepting +1)")
        runs += 1
        steps += length + 1
        query("0" * (length - 1), "reject")
        lines.append(f"snapshot load c{k}")
        query("0" * (length - 1), "accept")

        # Saturation: feeding every (n+1)-bit string makes every n-bit string
        # a permanent reject; the search over n bits then finds nothing and
        # changes nothing. (n-1)-bit strings are accepted, n+1 bits too.
        states = 2 ** (n + 2) - 1
        fed = 2 ** (n + 1)
        lines += ["model e", f"saturate {n}", "stats", f"snapshot save s{k}"]
        laws += [f"saturate {n} -> fed {fed} length-{n + 1} strings ({fed} accepted)",
                 f"stats -> maxaccept {n + 1}, depth {n + 1}, states {states}, "
                 f"accepting {fed}",
                 f"snapshot save s{k} -> {states} states",
                 f"snapshot load s{k} -> {states} states"]
        runs += fed + 2 ** n
        steps += fed * (n + 2) + 2 ** n * (n + 1)
        search, longer = bits(rng, n), bits(rng, n + 1)
        lines += [f"brute {search}", "expect reject", f"brute {longer}", "expect accept"]
        laws += [f"brute {search} -> not found after {2 ** n} queries "
                 f"(states +0, transitions +0, accepting +0)",
                 f"brute {longer} -> found {'0' * (n + 1)} after 1 query "
                 f"(states +0, transitions +0, accepting +0)"]
        runs += 2 ** n + 1
        steps += 2 ** n * (n + 1) + n + 2
        for half in range(2):
            if half:
                lines.append(f"snapshot load s{k}")
            for i in range(self.PROBES):
                size = rng.choice((n - 1, n, n + 1))
                expect = "reject" if size == n else "accept"
                query(bits(rng, size), expect if i % self.EXPECT_EVERY == 0 else None)
        return "\n".join(lines) + "\n", n, tuple(laws), runs, steps

    def execute(self, block, tally):
        """One operation: parse the block and execute every command."""
        text, _, _, runs, steps = block
        started = perf_counter()
        scenario = parse_scenario(text)
        runner = ScenarioRunner()
        transcript = []
        for command in scenario.commands:
            transcript.extend(runner.execute(command))
        transcript.append(runner.summary())
        tally.latencies.append(perf_counter() - started)
        tally.attempted += 1
        tally.runs += runs
        tally.steps += steps
        return transcript, None

    def check(self, tally):
        """Every expect passes, every saturation probe is rejected, the
        law-predicted lines appear, and each query takes |x|+1 steps."""
        for j, (_, n, laws, _, _) in enumerate(self.units):
            transcript = tally.first[j]
            wrong = sum(1 for line in transcript if "FAIL" in line)
            for text, steps in _QUERY_LINE.findall("\n".join(transcript)):
                wrong += int(steps) != len(text) + 1
            probes = [line for line in transcript if line.startswith("  probe ")]
            wrong += sum(1 for line in probes if not line.endswith("-> reject"))
            wrong += len(probes) != 2 ** n
            wrong += sum(1 for law in laws
                         if not any(line.startswith(law) for line in transcript))
            if not transcript[-1].startswith("scenario: pass"):
                wrong += 1
            if wrong:
                tally.fail(tally.executions[j], f"block {j} (n={n}): {wrong} law violations")


class CliState(Workload):
    """`evosim query --model e --state FILE`, one process at a time.

    Query j runs against the world that queries 0..j-1 grew from the
    pre-grown world, so the world evolves along the sequence. Each execution
    of query j first writes that world to the state file, which makes every
    query repeatable: the loop cycles through the sequence and times each
    query by the median of its executions, so that one stalled process does
    not set the figure. The expected answers and worlds come from an
    in-process serial replay of the same queries, made during set-up.
    """

    name = "cli_state"
    peak_units = 5
    GROW = 250
    QUERIES = 20
    BUDGET = 10_000
    ENTRY = "import sys; from evosim.cli import main; sys.exit(main())"

    def setup(self, seed):
        rng = random.Random(seed)
        world = EvolvingModel()
        scanner = right_scanner()
        for _ in range(self.GROW):
            run(world, scanner, bits(rng, rng.randint(8, 16)), self.BUDGET)
        self.state_file = self.workdir / "world.pet"
        self.units = []
        before = encode_snapshot(world)
        for i in range(self.QUERIES):
            text = bits(rng, i % 17)  # every run asks the same mix of lengths
            result = run(world, scanner, text, self.BUDGET)
            after = encode_snapshot(world)
            self.units.append((text, before, answer_word(result.verdict), after,
                               result.cost.transition_ticks))
            before = after

    def _query(self, text):
        argv = ["query", text, "--model", "e", "--state", str(self.state_file)]
        if self.in_process:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            return code, out.getvalue().strip()
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", self.ENTRY, *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        return proc.returncode, proc.stdout.strip()

    def execute(self, unit, tally):
        text, before, _, _, steps = unit
        self.state_file.write_text(before, encoding="utf-8")
        started = perf_counter()
        code, answer = self._query(text)
        tally.latencies.append(perf_counter() - started)
        tally.runs += 1
        tally.steps += steps
        tally.attempted += 1
        if code != 0:
            raise RuntimeError(f"query {text!r} exited {code}")
        return (answer, self.state_file.read_text(encoding="utf-8")), None

    def check(self, tally):
        """Each answer and each written-back state file equal the replay's."""
        for j, (text, _, answer, after, _) in enumerate(self.units):
            if tally.first[j] != (answer, after):
                tally.fail(tally.executions[j],
                           f"query {j} {text!r}: answered {tally.first[j][0]!r}, replay "
                           f"says {answer!r}, or the state file differs from the replay")


WORKLOADS = {cls.name: cls for cls in (WorldQueries, LongTapes, SaturateObserve, CliState)}
