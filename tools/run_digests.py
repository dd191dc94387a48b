"""One sha256 per run directory of the bundled scenarios.

Runs every bundled scenario that declares an initial potential at 16x32,
and ``disk_cosine_perturbed`` also at 32x64, each through
``runner.run_scenario`` into a temporary directory, and prints for each run

    <sha256>  <sha256 outside audits/>  <scenario> <n_r>x<n_s> exit=<status>

The first digest covers every file the run writes (manifest, snapshot
fields, diagnostics.csv, summary.json, audits, or error.json), with its
path relative to the run directory; the second covers the same files except
those under ``audits/``. Two checkouts that print the same lines produced
byte-identical run directories; two that differ only in the first digest
differ only in their audit files.

It then prints, for every bundled scenario (those without an initial
potential too), one sha256 of its convexity audit,

    <sha256>  <scenario> convexity

over the JSON that ``otflow audit-convexity <scenario>`` prints. Last, it
replays the Harnack audit on the ``offset_disks_sqrt`` 16x32 run, the
bundled run on a cost with non-vanishing mixed thirds, into a directory
outside that run, and prints

    <sha256 harnack.csv>  <sha256 harnack_summary.json>  offset_disks_sqrt 16x32 harnack

and, from that run's own curvature-identity audit,

    <sha256 km.jsonl>  offset_disks_sqrt 16x32 km

Last, it runs each script under ``demos/`` as a subprocess, in a fresh
temporary working directory with the checkout's ``src`` on PYTHONPATH and
BLAS on one thread, and prints one sha256 of the script's stdout,

    <sha256 stdout>  <demo file> exit=<status>

Run from the root of a checkout:

    python3 tools/run_digests.py

BLAS is pinned to one thread before numpy is imported, as in the benchmark.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from otflow import config, runner, serialize  # noqa: E402

SMALL = (16, 32)
EXTRA = (("disk_cosine_perturbed", (32, 64)),)
HARNACK_RUN = KM_RUN = ("offset_disks_sqrt", SMALL)


def runs():
    """(scenario, grid) pairs in print order."""
    names = [name for name in config.bundled_scenario_names()
             if config.load_scenario(name).initial is not None]
    return [(name, SMALL) for name in names] + list(EXTRA)


def directory_digest(root, skip_audits=False):
    """sha256 over the sorted relative paths and the bytes of every file,
    leaving out those under ``audits/`` when ``skip_audits`` is set."""
    digest = hashlib.sha256()
    root = Path(root)
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root)
        if skip_audits and rel.parts[0] == "audits":
            continue
        data = path.read_bytes()
        digest.update(f"{rel.as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def convexity_digest(name):
    """sha256 of the bytes ``otflow audit-convexity name`` prints, without
    its trailing newline."""
    cfg = config.load_scenario(name)
    spec, _ = cfg.build_problem()
    report = runner.convexity_audit(spec, seed=cfg.seed)
    text = serialize.dumps(report)
    return hashlib.sha256(text.encode()).hexdigest()


def harnack_digests(run_dir, audit_dir):
    """sha256 of harnack.csv and of harnack_summary.json from the Harnack
    audit of the trajectory in run_dir, written to audit_dir."""
    trajectory, _ = serialize.load_trajectory(run_dir)
    os.makedirs(audit_dir)
    runner.harnack_audit(trajectory, audit_dir)
    return [hashlib.sha256(Path(audit_dir, name).read_bytes()).hexdigest()
            for name in ("harnack.csv", "harnack_summary.json")]


def demo_digest(script):
    """(sha256 of the stdout, exit status) of the demo ``script``, run in a
    temporary working directory (so the files it writes go there)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as cwd:
        done = subprocess.run([sys.executable, str(script)], cwd=cwd, env=env,
                              stdout=subprocess.PIPE)
    return hashlib.sha256(done.stdout).hexdigest(), done.returncode


def main():
    with tempfile.TemporaryDirectory() as scratch:
        outdirs = {}
        for name, grid in runs():
            cfg = config.load_scenario(name).with_overrides(grid=grid)
            out_root = os.path.join(scratch, f"{name}_{grid[0]}x{grid[1]}")
            result = runner.run_scenario(cfg, output_root=out_root)
            outdirs[name, grid] = result.outdir
            print(f"{directory_digest(result.outdir)}  "
                  f"{directory_digest(result.outdir, skip_audits=True)}  {name} "
                  f"{grid[0]}x{grid[1]} exit={result.status}", flush=True)
        for name in config.bundled_scenario_names():
            print(f"{convexity_digest(name)}  {name} convexity", flush=True)
        name, grid = HARNACK_RUN
        csv_sha, summary_sha = harnack_digests(
            outdirs[HARNACK_RUN], os.path.join(scratch, "harnack_replay"))
        print(f"{csv_sha}  {summary_sha}  {name} {grid[0]}x{grid[1]} harnack",
              flush=True)
        name, grid = KM_RUN
        km_sha = hashlib.sha256(
            Path(outdirs[KM_RUN], "audits", "km.jsonl").read_bytes()).hexdigest()
        print(f"{km_sha}  {name} {grid[0]}x{grid[1]} km", flush=True)
    for script in sorted((ROOT / "demos").glob("*.py")):
        sha, status = demo_digest(script)
        print(f"{sha}  {script.name} exit={status}", flush=True)


if __name__ == "__main__":
    main()
