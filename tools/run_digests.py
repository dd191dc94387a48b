"""One sha256 per run directory of the bundled scenarios.

Runs every bundled scenario that declares an initial potential at 16x32,
and ``disk_cosine_perturbed`` also at 32x64, each through
``runner.run_scenario`` into a temporary directory, and prints for each run

    <sha256>  <scenario> <n_r>x<n_s> exit=<status>

The digest covers every file the run writes (manifest, snapshot fields,
diagnostics.csv, summary.json, audits, or error.json), with its path
relative to the run directory. Two checkouts that print the same lines
produced byte-identical run directories. Run from the root of a checkout:

    python3 tools/run_digests.py

BLAS is pinned to one thread before numpy is imported, as in the benchmark.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from otflow import config, runner  # noqa: E402

SMALL = (16, 32)
EXTRA = (("disk_cosine_perturbed", (32, 64)),)


def runs():
    """(scenario, grid) pairs in print order."""
    names = [name for name in config.bundled_scenario_names()
             if config.load_scenario(name).initial is not None]
    return [(name, SMALL) for name in names] + list(EXTRA)


def directory_digest(root):
    """sha256 over the sorted relative paths and the bytes of every file."""
    digest = hashlib.sha256()
    root = Path(root)
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def main():
    with tempfile.TemporaryDirectory() as scratch:
        for name, grid in runs():
            cfg = config.load_scenario(name).with_overrides(grid=grid)
            out_root = os.path.join(scratch, f"{name}_{grid[0]}x{grid[1]}")
            result = runner.run_scenario(cfg, output_root=out_root)
            print(f"{directory_digest(result.outdir)}  {name} "
                  f"{grid[0]}x{grid[1]} exit={result.status}", flush=True)


if __name__ == "__main__":
    main()
