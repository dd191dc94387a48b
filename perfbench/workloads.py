"""The benchmark's workloads: what one op does, and how its outputs are
checked.

Every workload drives the package through its public API in process. An op
is split into the timed call (``op``) and an untimed read of what it wrote
(``collect``); ``check`` turns the collected outcome into a list of failed
output checks, using the acceptance suite's own tolerances. The seed reaches
the program only as the scenario ``seed``, which drives the
``validate_spec`` sweep and the convexity-audit sampling; the trajectory,
and so ``diagnostics.csv``, does not depend on it.
"""

import hashlib
import json
import os

import numpy as np

from otflow import config, flow, runner, serialize

#: worst accepted-step mass error allowed, as a multiple of dr^2 (criterion 3)
MASS_ERR_PER_DR2 = 0.05
#: R^2 of the exponential decay fit a converged run must reach (criterion 2)
MIN_R2 = 0.99


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _harnack_failures(harnack):
    osc = harnack.get("oscillation")
    if osc is None:
        return [f"harnack audit has no oscillation report: {harnack}"]
    out = []
    if osc["violations"] != 0:
        out.append(f"harnack audit: {osc['violations']} oscillation violations")
    if not osc["contractive"]:
        out.append("harnack audit: envelope not contractive")
    return out


class Workload:
    """Shared set-up of a workload on one bundled scenario."""

    def __init__(self, scenario, grid):
        self.scenario = scenario
        self.grid = grid
        self.cfg = None
        self.dr = None

    def prepare(self, seed):
        """Load and build the problem and take its first initialize; this is
        the set-up a user pays before the first op."""
        cfg = config.load_scenario(self.scenario).with_overrides(grid=self.grid,
                                                                 seed=seed)
        spec, grid = cfg.build_problem()
        flow.initialize(spec, grid, cfg.build_initial(spec, grid),
                        cfg.build_schedule())
        self.cfg, self.dr = cfg, grid.dr

    def make_fixture(self, workdir):
        """Extra set-up that runs once; none by default."""

    def describe(self):
        """The scenario, grid and horizon the ops run."""
        return {"scenario": self.scenario, "grid": self.cfg.grid,
                "time": self.cfg.time}


class Converge(Workload):
    """An op is runner.run_scenario on the scenario, run to its own stopping
    rule, with save, summary and the scenario's audits; its outputs are
    checked against criteria 2, 3 and 8."""

    def op(self, opdir):
        return runner.run_scenario(self.cfg, output_root=opdir)

    def collect(self, result, opdir):
        out = {"status": result.status, "error": result.error,
               "summary": result.summary, "dr": self.dr}
        if result.status != 0:
            return out
        run_dir = result.outdir
        diag = os.path.join(run_dir, "diagnostics.csv")
        out["manifest"] = _read_json(os.path.join(run_dir, "manifest.json"))
        out["records"] = serialize.read_diagnostics_csv(diag)
        out["digest"] = file_digest(diag)
        harnack = os.path.join(run_dir, "audits", "harnack_summary.json")
        if os.path.exists(harnack):
            out["harnack"] = _read_json(harnack)
        return out

    def check(self, outcome):
        if outcome["status"] != 0:
            return [f"status {outcome['status']}: {outcome['error']}"]
        out = []
        if not outcome["manifest"]["converged"]:
            out.append(f"not converged: {outcome['manifest']['reason']}")
        r2 = outcome["summary"]["R2"]
        if r2 is None or not r2 >= MIN_R2:
            out.append(f"R2 = {r2} < {MIN_R2}")
        worst = float(np.max(outcome["records"][:, 4]))
        limit = MASS_ERR_PER_DR2 * outcome["dr"] ** 2
        if not worst <= limit:
            out.append(f"mass error {worst:.3e} > {limit:.3e} = 0.05 dr^2")
        if "harnack" not in outcome:
            out.append("no harnack audit written")
        else:
            out.extend(_harnack_failures(outcome["harnack"]))
        return out


class Replay(Workload):
    """Set-up solves the scenario once into a fixture directory; an op
    replays the post-run path on it: load, summary, the Harnack, KM and
    convexity audits, and a save into a fresh directory."""

    def make_fixture(self, workdir):
        result = runner.run_scenario(self.cfg, output_root=os.path.join(workdir, "fixture"))
        if result.status != 0:
            raise RuntimeError(f"replay fixture run failed: {result.error}")
        self.fixture = result.outdir
        with open(os.path.join(self.fixture, "summary.json"), "rb") as fh:
            self.fixture_summary = fh.read()
        self.fixture_digest = file_digest(os.path.join(self.fixture, "diagnostics.csv"))

    def op(self, opdir):
        trajectory, manifest = serialize.load_trajectory(self.fixture)
        cfg = config.ScenarioConfig.from_dict(manifest["config"])
        audit_dir = os.path.join(opdir, "audits")
        os.makedirs(audit_dir)
        summary = runner.build_summary(trajectory, cfg)
        runner.harnack_audit(trajectory, audit_dir)
        runner.km_audit(trajectory, audit_dir)
        runner.convexity_audit(trajectory.spec, seed=cfg.seed)
        copy_dir = os.path.join(opdir, "copy")
        serialize.save_trajectory(copy_dir, trajectory, manifest["config"])
        return trajectory, summary, copy_dir

    def collect(self, result, opdir):
        trajectory, summary, copy_dir = result
        summary_path = os.path.join(opdir, "summary.json")
        serialize.write_json(summary_path, summary)
        with open(summary_path, "rb") as fh:
            summary_bytes = fh.read()
        reloaded, _ = serialize.load_trajectory(copy_dir)
        return {"summary_bytes": summary_bytes,
                "harnack": _read_json(os.path.join(opdir, "audits",
                                                   "harnack_summary.json")),
                "records": trajectory.step_records,
                "arrays": _arrays(trajectory), "reloaded": _arrays(reloaded),
                "digest": file_digest(os.path.join(copy_dir, "diagnostics.csv"))}

    def check(self, outcome):
        out = []
        if outcome["summary_bytes"] != self.fixture_summary:
            out.append("replayed summary differs from the fixture's summary.json")
        if outcome["digest"] != self.fixture_digest:
            out.append("saved diagnostics.csv differs from the fixture's")
        loaded, reloaded = outcome["arrays"], outcome["reloaded"]
        if len(loaded) != len(reloaded) or any(
                a.shape != b.shape or a.tobytes() != b.tobytes()
                for a, b in zip(loaded, reloaded)):
            out.append("saved copy does not reload to bitwise equal arrays")
        out.extend(_harnack_failures(outcome["harnack"]))
        return out


def _arrays(trajectory):
    """Every array a trajectory directory stores, in file order."""
    arrays = [trajectory.step_records]
    for snap in trajectory.snapshots:
        arrays.extend((np.array([snap.t]), snap.u, snap.rate))
    return arrays


#: name -> workload at the benchmark's size; the 32x64 grid is the
#: acceptance suite's run32 configuration
WORKLOADS = {
    "perturbed_converge": lambda: Converge("disk_cosine_perturbed", grid=(32, 64)),
    "replay_audit": lambda: Replay("disk_cosine_perturbed", grid=(32, 64)),
}
