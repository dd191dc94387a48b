"""Declarative scenario configuration.

A scenario is a single JSON document with a versioned schema; parsing is
strict (unknown keys are rejected at every level) so configs stay
reproducible and diffable. Bundled scenarios live in the package's
``scenarios/`` directory and are addressable by name. A config sets the
problem, the grid and the run's :class:`~otflow.flow.Schedule`; the
numerical tolerances are module constants of ``flow``, ``costs`` and
``domains``.
"""

import json
from dataclasses import dataclass, field
from importlib import resources

from .costs import available_costs, make_cost
from .domains import (ProblemSpec, available_densities, available_domains,
                      make_density, make_domain)
from .errors import ConfigError, ScenarioNotFound
from .flow import INITIAL_POTENTIALS, MIN_SNAPSHOT_DT, Schedule
from .grid import MIN_N_R, MIN_N_S, CurvilinearGrid

SCHEMA_VERSION = 1

_TOP_KEYS = {"schema_version", "name", "cost", "source", "target",
             "source_density", "target_density", "initial", "grid", "time",
             "tolerances", "audits", "fit", "seed", "output_dir"}
_COST_KEYS = {"name"}
_DOMAIN_KEYS = {"kind", "radius", "center", "a", "b", "eps", "k"}
_DENSITY_KEYS = {"name", "eps", "k", "scale"}
_GRID_KEYS = {"n_r", "n_s"}
_TIME_KEYS = {"stop_tol", "t_max", "snapshot_dt"}
_AUDIT_KEYS = {"convexity", "harnack", "km"}
_FIT_KEYS = {"window", "u_tail_trim", "min_samples"}
_INITIAL_KEYS = {"kind"}


def _check_keys(section, mapping, allowed):
    if not isinstance(mapping, dict):
        raise ConfigError(f"section '{section}' must be an object")
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)} in section '{section}' "
            f"(allowed: {sorted(allowed)})")


def _check_choice(section, mapping, key, known):
    """mapping[key] must name one of ``known``."""
    value = mapping.get(key)
    if value is None:
        raise ConfigError(f"section '{section}' needs '{key}' (one of {known})")
    if value not in known:
        raise ConfigError(f"unknown {key} {value!r} in section '{section}' "
                          f"(known: {known})")


def _is_finite_number(value):
    """A number, not a bool, that converts to a finite float (a JSON
    integer can be too large to)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return -float("inf") < float(value) < float("inf")
    except OverflowError:
        return False


#: most snapshots a run may take: a run keeps every snapshot in memory and
#: writes two field files for each (the bundled maximum is 64)
MAX_SNAPSHOTS = 10_000


def _check_time(time):
    for key, value in time.items():
        if not (_is_finite_number(value) and value > 0.0):
            raise ConfigError(f"time '{key}' must be a positive number, "
                              f"got {value!r}")
    t_max = time.get("t_max", Schedule.t_max)
    snapshot_dt = time.get("snapshot_dt", Schedule.snapshot_dt)
    if snapshot_dt <= MIN_SNAPSHOT_DT:
        raise ConfigError(f"time 'snapshot_dt' = {snapshot_dt:g} must exceed "
                          f"{MIN_SNAPSHOT_DT:g} (flow.MIN_SNAPSHOT_DT)")
    if t_max / snapshot_dt > MAX_SNAPSHOTS:
        raise ConfigError(f"time 't_max' / 'snapshot_dt' = {t_max:g} / "
                          f"{snapshot_dt:g} exceeds {MAX_SNAPSHOTS} snapshots")


def _check_grid(grid):
    for key in ("n_r", "n_s"):
        if not (isinstance(grid.get(key), int) and not isinstance(grid[key], bool)):
            raise ConfigError(f"grid '{key}' must be an integer, got {grid.get(key)!r}")
    if grid["n_r"] < MIN_N_R:
        raise ConfigError(f"grid n_r = {grid['n_r']} is below the minimum {MIN_N_R}")
    if grid["n_s"] < MIN_N_S or grid["n_s"] % 2:
        raise ConfigError(f"grid n_s = {grid['n_s']} must be even and at least "
                          f"{MIN_N_S}")


def _check_fit(fit):
    window = fit.get("window")
    if window is not None and not (
            isinstance(window, (list, tuple)) and len(window) == 2
            and all(_is_finite_number(v) for v in window)):
        raise ConfigError(f"fit 'window' must be null or two finite numbers, "
                          f"got {window!r}")
    if "u_tail_trim" in fit and not _is_finite_number(fit["u_tail_trim"]):
        raise ConfigError(f"fit 'u_tail_trim' must be a finite number, "
                          f"got {fit['u_tail_trim']!r}")
    min_samples = fit.get("min_samples", 10)
    if not isinstance(min_samples, int) or isinstance(min_samples, bool):
        raise ConfigError(f"fit 'min_samples' must be an integer, "
                          f"got {min_samples!r}")


def _check_scalars(raw):
    """The top-level scalars and the audit toggles."""
    if not isinstance(raw["name"], str):
        raise ConfigError(f"'name' must be a string, got {raw['name']!r}")
    output_dir = raw.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError(f"'output_dir' must be a string or null, "
                          f"got {output_dir!r}")
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError(f"'seed' must be an integer, got {seed!r}")
    for key, value in raw.get("audits", {}).items():
        if not isinstance(value, bool):
            raise ConfigError(f"audits '{key}' must be true or false, "
                              f"got {value!r}")


@dataclass
class ScenarioConfig:
    name: str
    cost: dict
    source: dict
    target: dict
    source_density: dict
    target_density: dict
    initial: dict | None
    grid: dict
    time: dict
    audits: dict = field(default_factory=dict)
    fit: dict = field(default_factory=dict)
    seed: int = 0
    output_dir: str | None = None

    @classmethod
    def from_dict(cls, raw):
        _check_keys("<top>", raw, _TOP_KEYS)
        version = raw.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {version!r} "
                              f"(expected {SCHEMA_VERSION})")
        for req in ("name", "cost", "source", "target", "source_density",
                    "target_density", "grid", "time"):
            if req not in raw:
                raise ConfigError(f"missing required section '{req}'")
        _check_keys("cost", raw["cost"], _COST_KEYS)
        _check_choice("cost", raw["cost"], "name", available_costs())
        for section in ("source", "target"):
            _check_keys(section, raw[section], _DOMAIN_KEYS)
            _check_choice(section, raw[section], "kind", available_domains())
        for section in ("source_density", "target_density"):
            _check_keys(section, raw[section], _DENSITY_KEYS)
            _check_choice(section, raw[section], "name", available_densities())
        if raw.get("initial") is not None:
            _check_keys("initial", raw["initial"], _INITIAL_KEYS)
            kind = raw["initial"].get("kind")
            if kind not in INITIAL_POTENTIALS:
                raise ConfigError(f"unknown initial potential '{kind}' "
                                  f"(known: {sorted(INITIAL_POTENTIALS)})")
        _check_keys("grid", raw["grid"], _GRID_KEYS)
        _check_grid(raw["grid"])
        _check_keys("time", raw["time"], _TIME_KEYS)
        _check_time(raw["time"])
        # manifests written when the section held tolerances echo
        # "tolerances": {}; an empty section still loads
        _check_keys("tolerances", raw.get("tolerances", {}), set())
        _check_keys("audits", raw.get("audits", {}), _AUDIT_KEYS)
        _check_keys("fit", raw.get("fit", {}), _FIT_KEYS)
        _check_fit(raw.get("fit", {}))
        _check_scalars(raw)
        return cls(name=raw["name"], cost=dict(raw["cost"]),
                   source=dict(raw["source"]), target=dict(raw["target"]),
                   source_density=dict(raw["source_density"]),
                   target_density=dict(raw["target_density"]),
                   initial=None if raw.get("initial") is None
                   else dict(raw["initial"]),
                   grid=dict(raw["grid"]), time=dict(raw["time"]),
                   audits=dict(raw.get("audits", {})),
                   fit=dict(raw.get("fit", {})),
                   seed=int(raw.get("seed", 0)),
                   output_dir=raw.get("output_dir"))

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    def to_dict(self):
        return {
            "schema_version": SCHEMA_VERSION, "name": self.name,
            "cost": self.cost, "source": self.source, "target": self.target,
            "source_density": self.source_density,
            "target_density": self.target_density, "initial": self.initial,
            "grid": self.grid, "time": self.time, "audits": self.audits,
            "fit": self.fit, "seed": self.seed, "output_dir": self.output_dir,
        }

    # -- builders ---------------------------------------------------------

    def build_problem(self):
        cost = make_cost(self.cost["name"])
        src_params = dict(self.source)
        tgt_params = dict(self.target)
        sd = dict(self.source_density)
        td = dict(self.target_density)
        try:
            source = make_domain(src_params.pop("kind"), **src_params)
            target = make_domain(tgt_params.pop("kind"), **tgt_params)
            rho = make_density(sd.pop("name"), source, **sd)
            rho_star = make_density(td.pop("name"), target, **td)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid domain or density parameters: {exc}") from exc
        spec = ProblemSpec(source, target, cost, rho, rho_star)
        grid = CurvilinearGrid(source, int(self.grid["n_r"]), int(self.grid["n_s"]))
        return spec, grid

    def build_schedule(self):
        """The run's Schedule from the ``time`` section; a key it does not
        set keeps its ``Schedule`` default."""
        return Schedule(**{k: float(v) for k, v in self.time.items()})

    def build_initial(self, spec, grid):
        if self.initial is None:
            raise ConfigError(
                f"scenario '{self.name}' declares no initial potential; "
                "it supports audits only")
        try:
            return INITIAL_POTENTIALS[self.initial["kind"]](spec, grid)
        except ValueError as exc:
            raise ConfigError(f"invalid initial potential: {exc}") from exc

    def with_overrides(self, grid=None, seed=None, stop_tol=None):
        """A validated copy with the given fields replaced."""
        raw = self.to_dict()
        if grid is not None:
            raw["grid"] = {"n_r": int(grid[0]), "n_s": int(grid[1])}
        if seed is not None:
            raw["seed"] = int(seed)
        if stop_tol is not None:
            raw["time"] = dict(raw["time"], stop_tol=float(stop_tol))
        return ScenarioConfig.from_dict(raw)


def bundled_scenario_names():
    root = resources.files("otflow") / "scenarios"
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def load_scenario(name_or_path):
    """A bundled scenario by name, or any config by file path."""
    if str(name_or_path).endswith(".json"):
        try:
            return ScenarioConfig.from_file(name_or_path)
        except FileNotFoundError as exc:
            raise ScenarioNotFound(f"no config file '{name_or_path}'") from exc
    root = resources.files("otflow") / "scenarios"
    candidate = root / f"{name_or_path}.json"
    try:
        raw = json.loads(candidate.read_text())
    except FileNotFoundError:
        raise ScenarioNotFound(
            f"no bundled scenario '{name_or_path}' "
            f"(known: {bundled_scenario_names()})") from None
    return ScenarioConfig.from_dict(raw)
