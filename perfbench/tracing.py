"""Outside-in tracing of the otflow package for the benchmark.

The tracer wraps public names of the package where their callers look them
up, times every call, and keeps per-name aggregates in memory: the number of
calls and the self time (a span's duration minus the part covered by hooked
spans it caused). A few post-hooks read counters off return values. Nothing
under ``src/otflow`` is edited; ``uninstall`` puts every original back.

A hook whose target no longer exists is recorded as absent and skipped, so a
refactor that moves or renames a function degrades the trace, never the run.
"""

import functools
import importlib
import os
import time
from collections import defaultdict


def _count_halvings(tracer, result, args, kwargs):
    report = result[1] if isinstance(result, tuple) and len(result) == 2 else None
    if isinstance(getattr(report, "halvings", None), int):
        tracer.counters["flow.halvings"] += report.halvings
    else:
        tracer.absent.add("flow.halvings")


def _count_newton(tracer, result, args, kwargs):
    if isinstance(result, int):
        tracer.counters["flow.newton_iters"] += result
    else:
        tracer.absent.add("flow.newton_iters")


def _payload_bytes(outdir, manifest):
    """Bytes of the snapshot fields and diagnostics.csv of one trajectory
    directory, computed from file sizes. manifest.json is left out: it
    echoes the config, so its size depends on the seed."""
    names = [entry[key] for entry in manifest["snapshots"] for key in ("u", "rate")]
    names.append("diagnostics.csv")
    return sum(os.path.getsize(os.path.join(outdir, name)) for name in names)


def _count_written(tracer, result, args, kwargs):
    try:
        tracer.counters["serialize.bytes_written"] += _payload_bytes(args[0], result)
    except (IndexError, KeyError, TypeError, OSError):
        tracer.absent.add("serialize.bytes_written")


def _count_read(tracer, result, args, kwargs):
    try:
        tracer.counters["serialize.bytes_read"] += _payload_bytes(args[0], result[1])
    except (IndexError, KeyError, TypeError, OSError):
        tracer.absent.add("serialize.bytes_read")


#: (metric prefix, module, attribute path, post-hook). The attribute path is
#: a module-level name, ``Class.method``, or ``*.method`` for every class of
#: the module that defines the method itself. Each is hooked where its caller
#: looks it up: runner imports run_to_convergence by name, and
#: _project_boundary imports lu_factor from scipy.linalg when it is called.
HOOKS = (
    ("grid.scalar_calculus", "otflow.grid", "CurvilinearGrid.scalar_calculus", None),
    ("grid.apply_pole_projection", "otflow.grid",
     "CurvilinearGrid.apply_pole_projection", None),
    ("flow.step", "otflow.flow", "step", _count_halvings),
    ("flow.build_state", "otflow.flow", "build_state", None),
    ("flow._project_boundary", "otflow.flow", "_project_boundary", _count_newton),
    ("flow.initialize", "otflow.flow", "initialize", None),
    ("flow.run_to_convergence", "otflow.runner", "run_to_convergence", None),
    ("scipy.linalg.lu_factor", "scipy.linalg", "lu_factor", None),
    ("costs.invert_Y", "otflow.costs", "CostModel.invert_Y", None),
    ("costs.cross_hessian", "otflow.costs", "CostModel.cross_hessian", None),
    ("costs.hess_xx", "otflow.costs", "CostModel.hess_xx", None),
    ("domains.h", "otflow.domains", "*.h", None),
    ("domains.validate_spec", "otflow.domains", "validate_spec", None),
    ("domains.check_c_convexity", "otflow.domains", "check_c_convexity", None),
    ("domains.check_cstar_convexity", "otflow.domains", "check_cstar_convexity", None),
    ("domains.check_bitwist", "otflow.domains", "check_bitwist", None),
    ("serialize.save_trajectory", "otflow.serialize", "save_trajectory", _count_written),
    ("serialize.load_trajectory", "otflow.serialize", "load_trajectory", _count_read),
    ("linearized.theta_special", "otflow.linearized", "theta_special", None),
    ("linearized.dbetaF_direct", "otflow.linearized", "dbetaF_direct", None),
    ("linearized.dbetaF_closed", "otflow.linearized", "dbetaF_closed", None),
    ("km_geometry.verify_II_identity", "otflow.km_geometry", "verify_II_identity", None),
    ("diagnostics.run_summary", "otflow.diagnostics", "run_summary", None),
    ("diagnostics.harnack_ratio_series", "otflow.diagnostics",
     "harnack_ratio_series", None),
    ("diagnostics.oscillation_decay", "otflow.diagnostics", "oscillation_decay", None),
    ("runner.build_summary", "otflow.runner", "build_summary", None),
    ("runner.harnack_audit", "otflow.runner", "harnack_audit", None),
    ("runner.km_audit", "otflow.runner", "km_audit", None),
    ("runner.convexity_audit", "otflow.runner", "convexity_audit", None),
    ("config.build_problem", "otflow.config", "ScenarioConfig.build_problem", None),
)

#: counters fed by the post-hooks, with their units
COUNTERS = (("flow.halvings", "count"), ("flow.newton_iters", "count"),
            ("serialize.bytes_written", "bytes"), ("serialize.bytes_read", "bytes"))

#: the hook or counter that feeds each counter or derived metric, which is
#: absent with it (a source is listed before the metrics that depend on it)
_SOURCE = {"flow.halvings": "flow.step",
           "flow.accept_ratio": "flow.halvings",
           "flow.newton_iters": "flow._project_boundary",
           "flow.lu_refreshes": "scipy.linalg.lu_factor",
           "serialize.bytes_written": "serialize.save_trajectory",
           "serialize.bytes_read": "serialize.load_trajectory"}


def _resolve(module_name, path):
    """[(owner, attribute)] pairs that ``path`` names in the module; empty
    when the target does not exist."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return []
    owner_name, _, attr = path.rpartition(".")
    if not owner_name:
        return [(module, attr)] if callable(getattr(module, attr, None)) else []
    if owner_name == "*":
        return [(cls, attr) for cls in vars(module).values()
                if isinstance(cls, type) and cls.__module__ == module_name
                and callable(cls.__dict__.get(attr))]
    owner = getattr(module, owner_name, None)
    if isinstance(owner, type) and callable(owner.__dict__.get(attr)):
        return [(owner, attr)]
    return []


class Tracer:
    """Per-name call counts, self times and counters of hooked calls."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.absent = set()
        self._stack = []
        self._originals = []

    def _wrap(self, name, fn, post):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += span
                calls[name] += 1
                self_s[name] += span - children[0]
            if post is not None:
                post(self, result, args, kwargs)
            return result

        return wrapper

    def install(self):
        for name, module_name, path, post in self.hooks:
            targets = _resolve(module_name, path)
            if not targets:
                self.absent.add(name)
                continue
            for owner, attr in targets:
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
                self._originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, post))

    def uninstall(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def snapshot(self):
        """Current totals as one flat {metric: value} mapping."""
        out = {}
        for name, *_ in self.hooks:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for name, _ in COUNTERS:
            out[name] = self.counters[name]
        return out

    def absent_metrics(self):
        """Metric names whose hook had no target or whose counter could not
        be read off the hooked call's result."""
        names = set(self.absent)
        for name in self.absent:
            names.update({f"{name}.calls", f"{name}.self_s"})
        for metric, source in _SOURCE.items():
            if source in names:
                names.add(metric)
        return names


def layer_metrics(per_op):
    """Per-layer metrics of one op from the difference of two snapshots,
    with the metrics derived from them: the stepper's acceptance ratio
    (steps / (steps + halvings)) and the chord-LU refreshes."""
    out = dict(per_op)
    out["flow.lu_refreshes"] = out["scipy.linalg.lu_factor.calls"]
    steps = out["flow.step.calls"]
    tried = steps + out["flow.halvings"]
    out["flow.accept_ratio"] = steps / tried if tried else 1.0
    return out


def metric_units():
    """{metric name: unit} for every metric the tracer produces."""
    units = {}
    for name, *_ in HOOKS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTERS)
    units["flow.accept_ratio"] = "1"
    units["flow.lu_refreshes"] = "count"
    return units
