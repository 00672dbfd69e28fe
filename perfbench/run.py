"""Layered host-time benchmark for evosim.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; evosim is imported from the
checkout's src/. Workloads (see BENCHMARK.json for why each was chosen):
world_queries, long_tapes, saturate_observe, cli_state.

--trace 0 measures the end-to-end metrics for S seconds. Their times are
reference seconds: host seconds rescaled by a calibration kernel timed
between measurement windows (see workloads.py), which cancels most of the
host's speed drift; host-second figures are in the record. --trace 1
measures S/2 seconds untraced and S/2 seconds with every layer wrapped in
spans, reports the per-layer metrics (span times in host seconds), the
tracing overhead (the traced run rate against the untraced one) and the
layer scaling series. Both modes check every output outside the timed
region and digest the simulated results (verdicts, costs, trie statistics,
snapshots and transcripts) of a fixed set of inputs, so the digest is
identical across runs of one seed and between the two modes.

The end-to-end metrics are the same on every workload. An operation
(op_p50_ms, op_p90_ms) is one `run` call on world_queries and long_tapes,
one generated scenario block on saturate_observe and one CLI process on
cli_state; runs_per_s and steps_per_s count simulated runs and transition
steps over one pass of the inputs, and the percentiles are taken over the
operations of that pass: each input and each operation is timed by the
median of its executions in the run.

Standard output ends with two lines: a JSON record with provenance, sample
counts, digest and every figure measured, then the result line with the
keys correct, attempted, failed and metrics. The metric names and units are
those listed in BENCHMARK.json.

Seeds 1-10 were used while the benchmark was written; seed 9173 is held
out: later performance claims should also hold on it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HELD_OUT_SEED = 9173
SETUP_REPEATS = 5
PROBE_REPEATS = 5


def quantile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_commit(root):
    """The checked-out commit, read from .git without running git; None when
    the checkout is not a git repository."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def process_ms(code):
    """Median wall time of a fresh interpreter running `code`."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(PROBE_REPEATS):
        started = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, env=env,
                       stdout=subprocess.DEVNULL, timeout=60)
        times.append(perf_counter() - started)
    return statistics.median(times) * 1e3


def digest(workload, tally):
    payload = json.dumps(workload.digest_payload(tally), sort_keys=True, default=list)
    return hashlib.sha256(payload.encode()).hexdigest()


def end_to_end(workload, tally, setup_s):
    runs_per_s, steps_per_s = tally.rates()
    usage = resource.RUSAGE_CHILDREN if workload.name == "cli_state" else resource.RUSAGE_SELF
    latencies = tally.op_latencies()
    return {
        "setup_s": setup_s,
        "runs_per_s": runs_per_s,
        "steps_per_s": steps_per_s,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": quantile(latencies, 90) * 1e3,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
    }


def traced(workload, seconds, workloads_module, layers):
    """Untraced half, traced half, tracemalloc replay, process probes and
    scaling series. Returns (tallies, per-layer metrics, span table)."""
    workload.in_process = True
    plain = workload.measure(seconds / 2)
    tracer = layers.Tracer(extra_modules=[workloads_module])
    tracer.install()
    try:
        spanned = tracer.root(lambda: workload.measure(seconds / 2))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    plain_runs, plain_steps = plain.rates()
    traced_runs, traced_steps = spanned.rates()
    metrics["tracing.overhead.runs_pct"] = 100 * (1 - traced_runs / plain_runs)
    metrics["tracing.overhead.steps_pct"] = 100 * (1 - traced_steps / plain_steps)
    metrics["trace.unaccounted_s"] = tracer.unaccounted_s()

    tracemalloc.start()
    workload.peak_run()
    metrics["runner.peak_traced_mb"] = tracemalloc.get_traced_memory()[1] / 2 ** 20
    tracemalloc.stop()

    interp = process_ms("pass")
    metrics["cli.interp_ms"] = interp
    metrics["cli.import_ms"] = process_ms("import evosim.cli") - interp
    metrics.update(layers.scaling_series(ROOT / "machines"))
    return plain, spanned, metrics, tracer.span_table()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "evosim").is_dir() or not (ROOT / "tests" / "oracle_tm.py").is_file():
        sys.exit(f"perfbench: no evosim sources under {ROOT}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    load_start = os.getloadavg()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        workload = workloads.WORKLOADS[args.workload](workdir)
        setup_times = [workloads.reference_seconds(lambda: workload.setup(args.seed))
                       for _ in range(SETUP_REPEATS)]
        setup_s = statistics.median(ref for _, ref in setup_times)

        record = {}
        if args.trace:
            plain, tally, values, spans = traced(workload, args.seconds, workloads, layers)
            record["spans"] = spans
            checked = [plain, tally]
        else:
            tally = workload.measure(args.seconds)
            values = end_to_end(workload, tally, setup_s)
            checked = [tally]
        digests = []
        for t in checked:
            workload.check(t)
            digests.append(digest(workload, t))
        if len(set(digests)) != 1:
            tally.fail(1, "traced and untraced passes digest differently")
        if args.trace and abs(values["trace.unaccounted_s"]) > 1e-6 * values["trace.wall_s"]:
            tally.fail(1, "span self times do not add up to the traced wall time")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(t.attempted for t in checked)
    failed = sum(t.failed for t in checked)
    kind = "per_layer" if args.trace else "end_to_end"
    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "held_out_seed": HELD_OUT_SEED,
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "loadavg_start": load_start, "commit": git_commit(ROOT),
        "setup_repeats": SETUP_REPEATS, "setup_times_s": setup_times,
        "operations": len(tally.op_latencies()),
        "samples": sum(len(lat) for runs in tally.timed.values() for _, lat in runs),
        "runs": tally.runs, "steps": tally.steps,
        "timed_executions_per_unit": statistics.median(
            len(runs) for runs in tally.timed.values()) if tally.timed else 0,
        "wall_ref_s": tally.wall_s, "wall_host_s": tally.host_s,
        "loop_runs_per_ref_s": tally.runs / tally.wall_s if tally.wall_s else None,
        "loop_runs_per_host_s": tally.runs / tally.host_s if tally.host_s else None,
        "digest": digests[0],
        "error_rate": failed / attempted, "errors": [e for t in checked for e in t.errors],
        "values": values,
    })
    print(json.dumps(record, sort_keys=True))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
