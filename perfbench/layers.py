"""Per-layer tracing and the layer scaling series.

The tracer wraps evosim's public functions from outside the package: it
replaces each function object wherever a module holds a reference to it
(the defining module, every module that imported it by name, and the
benchmark's own modules), and each method on its class. A wrapper records
one span per call into per-name aggregates (calls, total time, self time)
rather than keeping every span, because the long-tape workload makes
millions of calls. A span's self time is its duration minus the time of the
spans it directly encloses, so the self times of all spans opened inside
`Tracer.root` add up to the root's wall time exactly.
"""

from __future__ import annotations

import math
import random
import statistics
import sys
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

from evosim import cli, engine, experiments, runner, scenario, tape, trie
from evosim.procfile import load_procedure
from evosim.runner import BLANK, Instruction, Procedure


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


# (span name, owner, attribute). Owners that are classes get the wrapper as
# a method; owners that are modules get it wherever the function is bound.
SPANS = (
    ("trie.query", trie.PartialDfa, "query"),
    ("engine.accept", engine.EvolvingModel, "accept"),
    ("engine.encode", engine, "encode_snapshot"),
    ("engine.decode", engine, "decode_snapshot"),
    ("engine.fork", engine, "fork"),
    ("tape.apply", tape, "apply_instruction"),
    ("tape.halting_accept", tape, "halting_accept"),
    ("tape.start_config", tape, "start_config"),
    ("runner.run", runner, "run"),
    ("experiments.saturate", experiments, "saturate"),
    ("experiments.sibling_search", experiments, "sibling_search"),
    ("experiments.run_traced", experiments, "run_traced"),
    ("scenario.parse", scenario, "parse_scenario"),
    ("scenario.execute", scenario.ScenarioRunner, "execute"),
    ("cli.main", cli, "main"),
)


class Tracer:
    """Installs span wrappers around evosim's layers; single-threaded."""

    def __init__(self, extra_modules=()):
        self.modules = [m for name, m in sorted(sys.modules.items())
                        if name == "evosim" or name.startswith("evosim.")]
        self.modules.extend(extra_modules)
        self.spans = {name: SpanStats() for name, _, _ in SPANS}
        self.stack = []
        self.cases = Counter()
        self.consults = 0
        self.trie_states_max = 0
        self.apply_hits = 0
        self.run_steps = 0
        self.run_path_len = 0
        self.snapshot_bytes_max = 0
        self.sibling_queries = 0
        self.root_s = 0.0
        self.harness_s = 0.0
        self._undo = []

    def _on_result(self, name, args, result, parent):
        if name == "trie.query":
            self.cases[result.case.name.lower()] += 1
            self.trie_states_max = max(self.trie_states_max, len(args[0].states))
            if parent == "engine.accept":
                self.consults += 1
        elif name == "tape.apply":
            self.apply_hits += result is not None
        elif name == "runner.run":
            self.run_steps += result.cost.transition_ticks
            self.run_path_len += result.cost.path_length
        elif name == "engine.encode":
            self.snapshot_bytes_max = max(self.snapshot_bytes_max, len(result))
        elif name == "experiments.sibling_search":
            self.sibling_queries += result.queries_used

    def _wrap(self, name, fn):
        stats = self.spans[name]
        stack = self.stack
        on_result = self._on_result

        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            on_result(name, args, result, parent)
            return result

        return span

    def install(self):
        for name, owner, attr in SPANS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in self.modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def root(self, fn):
        """Call fn() inside the root span; its self time is the harness's."""
        frame = ["harness", 0.0]
        self.stack.append(frame)
        started = perf_counter()
        try:
            return fn()
        finally:
            elapsed = perf_counter() - started
            self.stack.pop()
            self.root_s += elapsed
            self.harness_s += elapsed - frame[1]

    def metrics(self):
        s = self.spans
        queries = s["trie.query"].calls
        writes = self.cases["marked_accepting"] + self.cases["grew_chain"]
        runs = s["runner.run"].calls
        out = {
            "trie.query.calls": queries,
            "trie.query.self_s": s["trie.query"].self_s,
            "trie.write_share": writes / queries if queries else 0.0,
            "trie.states_final": self.trie_states_max,
            "engine.accept.calls": s["engine.accept"].calls,
            "engine.accept.self_s": s["engine.accept"].self_s,
            "engine.accept.consult_ratio": (self.consults / s["engine.accept"].calls
                                            if s["engine.accept"].calls else 0.0),
            "tape.apply.calls": s["tape.apply"].calls,
            "tape.apply.self_s": s["tape.apply"].self_s,
            "tape.apply.hit_ratio": (self.apply_hits / s["tape.apply"].calls
                                     if s["tape.apply"].calls else 0.0),
            "runner.run.calls": runs,
            "runner.run.self_s": s["runner.run"].self_s,
            "runner.steps": self.run_steps,
            "runner.path_len_mean": self.run_path_len / runs if runs else 0.0,
            "engine.encode.calls": s["engine.encode"].calls,
            "engine.encode.s": s["engine.encode"].total_s,
            "engine.decode.calls": s["engine.decode"].calls,
            "engine.decode.s": s["engine.decode"].total_s,
            "engine.snapshot_bytes": self.snapshot_bytes_max,
            "cli.main.self_s": s["cli.main"].self_s,
            "experiments.saturate.s": s["experiments.saturate"].total_s,
            "experiments.sibling_search.s": s["experiments.sibling_search"].total_s,
            "experiments.sibling_search.queries_used": self.sibling_queries,
            "scenario.parse.s": s["scenario.parse"].total_s,
            "scenario.execute.self_s": s["scenario.execute"].self_s,
            "harness.self_s": self.harness_s,
            "trace.wall_s": self.root_s,
        }
        for case in ("at_accepting", "near_accepting", "marked_accepting", "grew_chain"):
            out[f"trie.case.{case}"] = self.cases[case]
        return out

    def span_table(self):
        return {name: {"calls": st.calls, "total_s": st.total_s, "self_s": st.self_s}
                for name, st in self.spans.items()}

    def unaccounted_s(self):
        """Root wall time not covered by span self times plus the harness's."""
        return self.root_s - self.harness_s - sum(st.self_s for st in self.spans.values())


def _median_s(fn, repeats):
    times = []
    for _ in range(repeats):
        started = perf_counter()
        fn()
        times.append(perf_counter() - started)
    return statistics.median(times)


def _exponent(sizes, values):
    """Slope of log(value) against log(size) from the first to the last point:
    1 for linear growth, 2 for quadratic."""
    return math.log(values[-1] / values[0]) / math.log(sizes[-1] / sizes[0])


def _full_trie(depth):
    """The trie grown by querying every string of one length: 2^(d+1)-1 states."""
    machine = trie.PartialDfa()
    for text in experiments.binary_strings(depth):
        machine.query(text)
    return machine


def scaling_series(machines_dir, repeats=3):
    """Host time and memory of single layers against input size.

    Inputs are fixed, not seeded: the series characterises the layers, not
    a workload. Runs use the stateless model so the trie stays out of the
    tape and runner series.
    """
    out = {}
    model = tape.StandardModel()
    scanner = experiments.right_scanner()
    sizes = (1000, 4000, 8000)
    times = [_median_s(lambda n=n: runner.run(model, scanner, "01" * (n // 2), n + 1), repeats)
             for n in sizes]
    for n, t in zip(sizes, times):
        out[f"series.scanner.{n // 1000}k_ms"] = t * 1e3
    out["series.scanner.time_exp"] = _exponent(sizes, times)

    palindrome = load_procedure(machines_dir / "palindrome.proc")
    rng = random.Random(0)
    sizes = (48, 100, 200)
    times = []
    for n in sizes:
        half = "".join(rng.choice("01") for _ in range(n // 2))
        palindrome_text = half + half[::-1]
        times.append(_median_s(
            lambda t=palindrome_text: runner.run(model, palindrome, t, 10 ** 6), repeats))
    for n, t in zip(sizes, times):
        out[f"series.palindrome.{n}_ms"] = t * 1e3
    out["series.palindrome.time_exp"] = _exponent(sizes, times)

    runaway = Procedure([Instruction("q0", BLANK, "q0", BLANK, "R")])
    sizes = (2000, 4000, 8000)
    peaks = []
    for steps in sizes:
        out[f"series.runaway.{steps // 1000}k_ms"] = 1e3 * _median_s(
            lambda b=steps: runner.run(model, runaway, "", b), repeats)
        tracemalloc.start()
        runner.run(model, runaway, "", steps)
        peaks.append(tracemalloc.get_traced_memory()[1] / 2 ** 20)
        tracemalloc.stop()
        out[f"series.runaway.{steps // 1000}k_peak_mb"] = peaks[-1]
    out["series.runaway.mem_exp"] = _exponent(sizes, peaks)

    depths = (9, 12, 15)  # 1023, 8191 and 65535 states
    states, per_query, encode, decode = [], [], [], []
    for depth in depths:
        machine = _full_trie(depth)
        states.append(len(machine.states))
        probes = ["".join(rng.choice("01") for _ in range(depth)) for _ in range(4096)]
        per_query.append(_median_s(lambda m=machine, p=probes: [m.query(t) for t in p],
                                   repeats) / len(probes))
        world = engine.EvolvingModel(machine)
        text = engine.encode_snapshot(world)
        encode.append(_median_s(lambda w=world: engine.encode_snapshot(w), repeats))
        decode.append(_median_s(lambda t=text: engine.decode_snapshot(t), repeats))
    for n, q, e, d in zip(states, per_query, encode, decode):
        label = f"{round(n / 1024)}k"
        out[f"series.trie.{label}_query_us"] = q * 1e6
        out[f"series.trie.{label}_encode_ms"] = e * 1e3
        out[f"series.trie.{label}_decode_ms"] = d * 1e3
    out["series.trie.query_exp"] = _exponent(states, per_query)
    out["series.trie.encode_exp"] = _exponent(states, encode)
    out["series.trie.decode_exp"] = _exponent(states, decode)
    return out
