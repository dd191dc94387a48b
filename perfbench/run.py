"""Benchmark of the otflow laboratory.

Run from the root of a checkout:

    python3 perfbench/run.py --workload perturbed_converge --seed 1 --seconds 40 --trace 0

or, for every workload in turn,

    for w in perturbed_converge replay_audit; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 40 --trace 0; done

One process, single-threaded, with BLAS pinned to one thread before numpy
is imported. The run sets up (import, scenario load, problem build, the
first initialize and, for ``replay_audit``, the fixture run; ``setup_s`` is
the median import time over fresh interpreters, plus the median of the
repeated load/build/initialize, plus the fixture run), then repeats
the workload's op in a closed loop for ``--seconds`` (at least one op, and
another only while it is expected to end within them), checking every op's
outputs. It prints a report line (JSON: machine facts, op times,
exact counts, failed checks) and, as the last line, the result object:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones, measured untraced.
With ``--trace 1`` one untraced op runs first, then the ops run with the
outside-in hooks of ``tracing.py`` installed, and the metrics are per-layer
medians per op plus the tracing overhead.

Exact values (the diagnostics.csv digest, the trajectory's step count, which
on ``replay_audit`` is the fixture's, and, when traced, the stepper's counts
and the serialized bytes) must repeat across the ops of a run
and across runs of the same code in the same checkout; earlier runs' values
are kept in ``.perfbench_out/exact.json``.
"""

import os

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"      # before the first numpy import

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("perturbed_converge", "replay_audit")
#: the import and the light part of set-up are repeated and their medians
#: reported
SETUP_REPEATS = 3
#: per-op values that must repeat exactly across ops and runs when traced
EXACT_COUNTS = ("flow.step.calls", "flow.build_state.calls", "flow.halvings",
                "flow.newton_iters", "flow.lu_refreshes",
                "serialize.bytes_written", "serialize.bytes_read")
END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "mass_err_max": "1",
                    "peak_rss_mb": "MiB"}
#: a tail percentile needs this many ops beyond it
TAIL_SAMPLES = 10


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def import_program():
    """Import otflow from this checkout's src."""
    if not (SRC / "otflow" / "__init__.py").is_file():
        sys.exit(f"perfbench: no otflow package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import otflow.runner  # noqa: F401


def import_seconds():
    """Median time to import the package, each time in a fresh interpreter
    (the import happens once per process, so it is repeated in children)."""
    code = ("import sys, time; start = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import otflow.runner; print(time.perf_counter() - start)")
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code, str(SRC)], check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(SETUP_REPEATS))


def machine_facts():
    import numpy
    import scipy
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}_{kind}"] = size
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "caches": caches, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS}}


def fingerprint():
    """Digest of the program and benchmark sources, so that exact values
    are compared only between runs of the same code."""
    h = hashlib.sha256()
    files = sorted(p for base in (SRC / "otflow", HERE)
                   for p in base.rglob("*") if p.suffix in (".py", ".json"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def cross_run_check(workload, size, exact):
    """Compare exact values with earlier runs of the same code, workload and
    size in this checkout and remember new ones; returns the keys that
    differ."""
    path = OUT / "exact.json"
    state = json.loads(path.read_text()) if path.exists() else {}
    key = hashlib.sha256(json.dumps([fingerprint(), size], sort_keys=True).encode())
    seen = state.setdefault(f"{workload}:{key.hexdigest()[:16]}", {})
    mismatched = sorted(k for k, v in exact.items() if k in seen and seen[k] != v)
    for k, v in exact.items():
        seen.setdefault(k, v)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return mismatched


def run_setup(wl, seed, workdir):
    import_s = import_seconds()
    prepare = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl.prepare(seed)
        prepare.append(time.perf_counter() - start)
    start = time.perf_counter()
    wl.make_fixture(workdir)
    fixture_s = time.perf_counter() - start
    prepare_s = statistics.median(prepare)
    return {"setup_s": import_s + prepare_s + fixture_s, "import_s": import_s,
            "prepare_s": prepare_s, "fixture_s": fixture_s}


def run_op(wl, opdir, tracer):
    """One timed op and its untimed output checks."""
    before = tracer.snapshot() if tracer else None
    start = time.perf_counter()
    try:
        result = wl.op(opdir)
        seconds = time.perf_counter() - start
        after = tracer.snapshot() if tracer else None
        outcome = wl.collect(result, opdir)
        failures = wl.check(outcome)
    except Exception:       # an op that raises is a failed op; keep measuring
        seconds = time.perf_counter() - start
        after = tracer.snapshot() if tracer else None
        outcome = {}
        failures = [traceback.format_exc(limit=4)]
    finally:
        shutil.rmtree(opdir, ignore_errors=True)
    records = outcome.get("records")
    op = {"seconds": seconds, "failures": failures, "digest": outcome.get("digest"),
          "steps": None if records is None else int(records.shape[0]),
          "mass_err": None if records is None or not len(records)
          else float(records[:, 4].max())}
    if tracer:
        op["layers"] = tracing.layer_metrics({k: after[k] - before[k] for k in after})
    return op


def tail(times):
    """The highest percentile with TAIL_SAMPLES op times beyond it."""
    ordered = sorted(times)
    i = len(ordered) - 1 - TAIL_SAMPLES
    if i < 0:
        return {"value": None, "percentile": None, "n": len(ordered)}
    return {"value": ordered[i], "percentile": 100.0 * i / (len(ordered) - 1),
            "n": len(ordered)}


def check_repeats(ops, keys):
    """Add a failure to every op whose exact values differ from the first
    op's; returns the first op's values."""
    first = ops[0]
    for op in ops[1:]:
        for key in keys:
            if op[key] != first[key]:
                op["failures"].append(f"{key} {op[key]!r} differs from the "
                                      f"first op's {first[key]!r}")
    return {key: first[key] for key in keys}


def main(argv=None, workloads_table=None):
    args = parse_args(argv)
    import_program()
    import workloads
    wl = (workloads_table or workloads.WORKLOADS)[args.workload]()
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    tracer = tracing.Tracer() if args.trace else None
    try:
        setup = run_setup(wl, args.seed, workdir)
        baseline = None
        if tracer:
            baseline = run_op(wl, os.path.join(workdir, "baseline"), None)
            tracer.install()
        ops = []
        start = time.perf_counter()
        while True:        # another op only if it is expected to end in time
            ops.append(run_op(wl, os.path.join(workdir, f"op{len(ops)}"), tracer))
            elapsed = time.perf_counter() - start
            if elapsed * (len(ops) + 1) / len(ops) > args.seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    checked = ops if baseline is None else [baseline] + ops
    exact = check_repeats(checked, ("digest", "steps"))
    if tracer:
        absent = tracer.absent_metrics()
        for op in ops:
            for key in EXACT_COUNTS:
                op[key] = op["layers"][key]
        exact.update({k: v for k, v in check_repeats(ops, EXACT_COUNTS).items()
                      if k not in absent})
    mismatched = cross_run_check(args.workload, wl.describe(), exact)
    failed = sum(1 for op in checked if op["failures"])
    times = [op["seconds"] for op in ops]
    gated = {"setup_s": setup["setup_s"], "op_s": statistics.median(times),
             "mass_err_max": max((op["mass_err"] for op in checked
                                  if op["mass_err"] is not None), default=0.0),
             "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    op_name = "replay_s" if args.workload == "replay_audit" else "solve_s"
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_facts(), "size": wl.describe(),
        "setup": setup, "op_times": times,
        "end_to_end": {
            "setup_s": {"value": gated["setup_s"], "unit": "s"},
            op_name: {"value": gated["op_s"], "unit": "s", "n": len(times)},
            f"{op_name}_tail": {**tail(times), "unit": "s"},
            "fail_ratio": {"value": failed / len(checked), "unit": "1"},
            "mass_err_max": {"value": gated["mass_err_max"], "unit": "1"},
            "peak_rss_mb": {"value": gated["peak_rss_mb"], "unit": "MiB"}},
        "exact": exact, "exact_mismatched_across_runs": mismatched,
        "failures": [f for op in checked for f in op["failures"]][:10],
    }
    if tracer:
        units = {**tracing.metric_units(), "flow.trajectory_steps": "count",
                 "trace.overhead_s": "s"}
        values = {name: 0 if name in absent else
                  statistics.median(op["layers"][name] for op in ops)
                  for name in tracing.metric_units()}
        values["flow.trajectory_steps"] = exact["steps"] or 0
        values["trace.overhead_s"] = gated["op_s"] - baseline["seconds"]
        report["trace"] = {"absent": sorted(absent & set(units)),
                           "untraced_op_s": baseline["seconds"],
                           "overhead_s": values["trace.overhead_s"]}
    else:
        units, values = END_TO_END_UNITS, gated
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0 and not mismatched,
                      "attempted": len(checked), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
