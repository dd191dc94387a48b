"""Alternating pairs of benchmark runs on two checkouts.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs N \
        --seconds S [--workload W2 ...] [--seed-base B] [--out BENCH.json]

PARENT and CHANGE are the roots of two checkouts of the repository, for
example a ``git archive`` of the parent commit and a copy of the working
tree. For each workload, pair i runs ``perfbench/run.py --workload W
--seed B+i --seconds S --trace 0`` once in each checkout, one run at a
time; the parent goes first in even pairs and the change in odd ones, so a
drift of the machine's speed during a pair falls on both sides alike.

The tool reads only what ``perfbench/run.py`` prints: the report line
(machine facts, the exact block, failed checks) and the result line
(end-to-end metrics, attempted and failed ops). It prints, per workload and
end-to-end metric, the median and quartiles of each side and in how many
pairs the change's value is lower than the parent's, and per workload and
side how many distinct ``diagnostics.csv`` digests its runs gave, and
whether the two sides gave the same ones, i.e. were step-identical. It
writes every run's metrics and exact block (the digest and the step count)
with the machine facts, the seeds and the fail ratios as JSON to ``--out``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True, action="append",
                    help="a perfbench workload; repeat for several")
    ap.add_argument("--pairs", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--seed-base", type=int, default=1,
                    help="pair i of every workload runs seed SEED_BASE + i")
    ap.add_argument("--out", type=Path, default=Path("BENCH.json"))
    args = ap.parse_args(argv)
    for side in SIDES:
        if not (getattr(args, side) / "perfbench" / "run.py").is_file():
            ap.error(f"{getattr(args, side)} has no perfbench/run.py")
    if args.pairs < 1 or not args.seconds > 0:
        ap.error("--pairs must be at least 1 and --seconds positive")
    return args


def run_once(checkout, workload, seed, seconds):
    """One perfbench run; (report, result) from its last two output lines."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"perfbench failed in {checkout} (exit "
                         f"{proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def quartiles(values):
    """(q1, median, q3), inclusive method."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs):
    """Per end-to-end metric: each side's median and quartiles, and the
    number of pairs where the change reads lower."""
    by_side = {side: [r for r in runs if r["side"] == side] for side in SIDES}
    out = {}
    for name in by_side["parent"][0]["metrics"]:
        entry = {}
        for side in SIDES:
            vals = [r["metrics"][name] for r in by_side[side]]
            q1, med, q3 = quartiles(vals)
            entry[side] = {"median": med, "q1": q1, "q3": q3}
        pairs = zip(by_side["parent"], by_side["change"])
        entry["lower_in"] = sum(c["metrics"][name] < p["metrics"][name]
                                for p, c in pairs)
        entry["n"] = len(by_side["parent"])
        out[name] = entry
    return out


def distinct_digests(runs):
    """Per side, the distinct diagnostics.csv digests of its runs' exact
    blocks, sorted (None, a run whose first op failed, sorts as a string)."""
    return {side: sorted({r["exact"]["digest"] for r in runs
                          if r["side"] == side}, key=str)
            for side in SIDES}


def bench_workload(args, workload):
    runs, machine = [], None
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for position, side in enumerate(order):
            report, result = run_once(getattr(args, side), workload, seed,
                                      args.seconds)
            machine = machine or report["machine"]
            runs.append({
                "pair": i, "seed": seed, "side": side, "position": position,
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                "attempted": result["attempted"], "failed": result["failed"],
                "correct": result["correct"], "exact": report["exact"],
                "failures": report["failures"]})
            print(f"{workload} pair {i} seed {seed} {side}: "
                  + ", ".join(f"{k}={v:.6g}" for k, v in runs[-1]["metrics"].items())
                  + f", failed {result['failed']}/{result['attempted']}",
                  file=sys.stderr, flush=True)
    fail = {side: {"failed": sum(r["failed"] for r in runs if r["side"] == side),
                   "attempted": sum(r["attempted"] for r in runs if r["side"] == side)}
            for side in SIDES}
    for counts in fail.values():
        counts["ratio"] = counts["failed"] / counts["attempted"]
    return {"workload": workload, "machine": machine, "runs": runs,
            "fail_ratio": fail, "digests": distinct_digests(runs),
            "summary": summarize(runs)}


def main(argv=None):
    args = parse_args(argv)
    results = []
    for workload in args.workload:
        res = bench_workload(args, workload)
        results.append(res)
        print(f"{workload}: {args.pairs} pairs, --seconds {args.seconds:g}, "
              f"seeds {args.seed_base}..{args.seed_base + args.pairs - 1}")
        for name, e in res["summary"].items():
            p, c = e["parent"], e["change"]
            print(f"  {name}: parent {p['median']:.6g} ({p['q1']:.6g}/{p['q3']:.6g})"
                  f" -> change {c['median']:.6g} ({c['q1']:.6g}/{c['q3']:.6g}),"
                  f" lower in {e['lower_in']} of {e['n']}")
        for side, f in res["fail_ratio"].items():
            print(f"  fail ratio {side}: {f['failed']} of {f['attempted']}")
        digests = res["digests"]
        same = digests["parent"] == digests["change"]
        print("  distinct digests: "
              + ", ".join(f"{side} {len(d)}" for side, d in digests.items())
              + (", the same on both sides" if same else ", not the same"))
    payload = {"command": "perfbench/run.py --trace 0", "pairs": args.pairs,
               "seconds": args.seconds, "seed_base": args.seed_base,
               "workloads": results}
    args.out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
