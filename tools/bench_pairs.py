"""Run the benchmark on two commits in alternating pairs and write one
BENCH file. Standard library only.

    python3 tools/bench_pairs.py PARENT CHANGE --pr N --claim WORKLOAD:METRIC
        [--workloads NAME ...] [--seeds 1 9173] [--pairs 5] [--seconds S]

PARENT and CHANGE are git refs of this repository. Each is exported with
`git archive` into a temporary directory, beside a second export of PARENT
for an A/A comparison; the three directories are siblings with names of
equal length, so that no side runs from a longer path than another. Every
`.py` file of each copy is byte-compiled before the first run, so that no
side pays for compiling in its first run.

For every workload and seed, `perfbench/run.py --workload W --seed S
--seconds T` runs PAIRS times on each side, one process at a time: the two
runs of a pair follow each other, and the side that goes first alternates
from pair to pair. The claimed workload is then run the same way on the
two copies of PARENT (the A/A block), which shows how far two copies of
one commit read apart on this host. T defaults to BENCHMARK.json's
`run_seconds`.

Writes BENCH_<N>.json at the root of this repository, in one schema:

    pr, claim, argv, host, parent, change, bench_files_equal, seconds,
    pairs, seeds, workloads, started, finished, loadavg_end
    runs      every run in the order it ran: order, block, workload, seed,
              pair, side, first, wall_s, exit, record, result (the last two
              output lines of run.py, parsed; null when the run failed)
    blocks    per "<workload>_<seed>" and per "aa_<workload>_<seed>": the
              two sides compared (parent first), the digests seen, and per
              end-to-end metric: better, bound, each side's values in pair
              order and their quartiles (q1, median, q3), ratio (the
              second side's median over the parent's), pairs_won (pairs
              the second side read better, ties counting for neither) and
              parent_iqr (q3 - q1); and under `rates` each side's median
              loop_runs_per_host_s beside its loop_runs_per_ref_s
    claim_result  per seed, for the claimed metric: ratio, pairs_won,
              pairs, the medians' distance against the parent's IQR, the
              A/A block's ratio and IQR, and `holds`: the change won at
              least nine tenths of the pairs, its median is better by
              more than the parent's IQR, and its ratio lies further from
              1 than the A/A block's (when both ratios are known)
    failures  one line per run that was not correct or did not finish, and
              per block whose sides' digests differ

Exits 1 when `failures` is not empty (the BENCH file is written first),
and 2 on a usage error. Other metrics are reported, not gated.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The directory of each side: names of equal length, so equal path lengths.
COPIES = {"parent": "a_parent", "change": "b_change", "parent_copy": "c_parent"}
BENCH_FILES = ("perfbench", "BENCHMARK.json")


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(commit, target):
    """A `git archive` copy of `commit` in `target`, byte-compiled."""
    target.mkdir()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive, check=True)
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(target)],
                   check=True, stdout=subprocess.DEVNULL)


def quartiles(values):
    """(q1, median, q3) of the values, inclusive method; one value gives
    itself three times."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(values, sides, better):
    """One metric of a block: `values` maps each of the two `sides` to its
    values in pair order; `better` is "higher" or "lower"."""
    base, other = sides
    sign = 1 if better == "higher" else -1
    q = {side: quartiles(values[side]) for side in sides}
    return {
        "values": values, "quartiles": q,
        "ratio": q[other][1] / q[base][1] if q[base][1] else None,
        "pairs_won": sum(sign * (b - a) > 0 for a, b in zip(values[base], values[other])),
        "parent_iqr": q[base][2] - q[base][0],
    }


def run_once(copy, workload, seed, seconds):
    """One benchmark process in `copy`: (wall s, exit status, record, result,
    stderr tail)."""
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=copy, capture_output=True, text=True)
    wall = time.perf_counter() - started
    record = result = None
    lines = done.stdout.splitlines()
    if done.returncode == 0 and len(lines) >= 2:
        try:
            record, result = json.loads(lines[-2]), json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return wall, done.returncode, record, result, done.stderr[-2000:]


def run_block(name, sides, copies, workload, seed, args, runs, failures):
    """PAIRS pairs of the two sides, alternating which goes first. Appends
    each run to `runs`; returns {side: [run, ...]} in pair order."""
    by_side = {side: [] for side in sides}
    for pair in range(1, args.pairs + 1):
        order = sides if pair % 2 else sides[::-1]
        for side in order:
            wall, status, record, result, err = run_once(copies[side], workload,
                                                         seed, args.seconds)
            entry = {"order": len(runs) + 1, "block": name, "workload": workload,
                     "seed": seed, "pair": pair, "side": side,
                     "first": side == order[0], "wall_s": round(wall, 3),
                     "exit": status, "record": record, "result": result}
            runs.append(entry)
            by_side[side].append(entry)
            ok = result is not None and result["correct"] is True and result["failed"] == 0
            if not ok:
                failures.append(f"{name} pair {pair} {side}: not correct "
                                f"(exit {status}) {err.strip()[-300:]}")
            value = result["metrics"][args.claim_metric]["value"] if ok else None
            print(f"[{entry['order']}] {name} pair {pair} {side}: "
                  f"{args.claim_metric} {value} ({wall:.1f} s)",
                  file=sys.stderr, flush=True)
    return by_side


def summarise(name, sides, by_side, spec, failures):
    """The block's digests and per-metric comparison of its two sides."""
    digests = sorted({run["record"]["digest"] for side in sides
                      for run in by_side[side] if run["record"]})
    if len(digests) > 1:
        failures.append(f"{name}: digests differ between sides: {digests}")
    clean = all(run["result"] and run["result"]["correct"] is True
                for side in sides for run in by_side[side])
    block = {"sides": list(sides), "digests": digests, "metrics": {}, "rates": {}}
    if not clean:
        return block
    for metric in spec["end_to_end"]:
        values = {side: [run["result"]["metrics"][metric["name"]]["value"]
                         for run in by_side[side]] for side in sides}
        block["metrics"][metric["name"]] = {
            "better": metric["better"], "bound": metric["bound"],
            **compare(values, sides, metric["better"])}
    for rate in ("loop_runs_per_host_s", "loop_runs_per_ref_s"):
        block["rates"][rate] = {side: statistics.median(
            run["record"][rate] for run in by_side[side]) for side in sides}
    return block


def claim_result(blocks, workload, metric, seeds):
    """Per seed: whether the claimed metric improved by the pairs rule,
    beyond the spread of the A/A block."""
    out = {}
    for seed in seeds:
        found = blocks[f"{workload}_{seed}"]["metrics"].get(metric)
        aa = blocks.get(f"aa_{workload}_{seed}", {}).get("metrics", {}).get(metric)
        if found is None:
            out[str(seed)] = None
            continue
        sign = 1 if found["better"] == "higher" else -1
        gain = sign * (found["quartiles"]["change"][1] - found["quartiles"]["parent"][1])
        pairs = len(found["values"]["parent"])
        ratio, aa_ratio = found["ratio"], aa and aa["ratio"]
        # Two copies of one commit read this far apart: a claim must go further.
        beyond_aa = (ratio is None or aa_ratio is None
                     or abs(ratio - 1) > abs(aa_ratio - 1))
        out[str(seed)] = {
            "ratio": ratio, "pairs_won": found["pairs_won"], "pairs": pairs,
            "median_gain": gain, "parent_iqr": found["parent_iqr"],
            "aa_ratio": aa_ratio, "aa_parent_iqr": aa and aa["parent_iqr"],
            "holds": (found["pairs_won"] >= 0.9 * pairs
                      and gain > found["parent_iqr"] and beyond_aa),
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--claim", required=True, metavar="WORKLOAD:METRIC")
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 9173])
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)

    try:
        commits = {"parent": git("rev-parse", "--verify", args.parent + "^{commit}"),
                   "change": git("rev-parse", "--verify", args.change + "^{commit}")}
    except subprocess.CalledProcessError as exc:
        parser.error(exc.stderr.strip())
    spec = json.loads(git("show", f"{commits['parent']}:BENCHMARK.json"))
    known = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    args.claim_workload, _, args.claim_metric = args.claim.partition(":")
    if args.claim_workload not in known or args.claim_metric not in metrics:
        parser.error(f"--claim must be WORKLOAD:METRIC with a workload of "
                     f"{known} and a metric of {metrics}")
    workloads = args.workloads or known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        parser.error(f"unknown workloads {unknown}; choose from {known}")
    if args.claim_workload not in workloads:
        workloads.append(args.claim_workload)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    equal = subprocess.run(["git", "diff", "--quiet", commits["parent"], commits["change"],
                            "--", *BENCH_FILES], cwd=ROOT).returncode == 0
    if not equal:
        print("bench_pairs: the benchmark files differ between the two commits",
              file=sys.stderr)
    report = {
        "pr": args.pr, "claim": args.claim, "argv": sys.argv[1:] if argv is None else argv,
        "host": {"platform": platform.platform(), "python": platform.python_version(),
                 "nproc": os.cpu_count(), "loadavg_start": os.getloadavg()},
        "parent": commits["parent"], "change": commits["change"],
        "bench_files_equal": equal, "seconds": args.seconds, "pairs": args.pairs,
        "seeds": args.seeds, "workloads": workloads,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    runs, blocks, failures = [], {}, []
    base = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        copies = {}
        for side, directory in COPIES.items():
            copies[side] = base / directory
            export(commits["change" if side == "change" else "parent"], copies[side])
        plan = [(f"{w}_{s}", ("parent", "change"), w, s)
                for w in workloads for s in args.seeds]
        plan += [(f"aa_{args.claim_workload}_{s}", ("parent", "parent_copy"),
                  args.claim_workload, s) for s in args.seeds]
        for name, sides, workload, seed in plan:
            by_side = run_block(name, sides, copies, workload, seed, args, runs, failures)
            blocks[name] = summarise(name, sides, by_side, spec, failures)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    report.update({
        "finished": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "loadavg_end": os.getloadavg(),
        "claim_result": claim_result(blocks, args.claim_workload, args.claim_metric,
                                     args.seeds),
        "failures": failures, "blocks": blocks, "runs": runs,
    })
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    for seed, found in report["claim_result"].items():
        print(f"{args.claim} seed {seed}: {json.dumps(found)}", file=sys.stderr)
    for line in failures:
        print(f"bench_pairs: {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
