"""Declarative scenario configuration.

A scenario is a single JSON document with a versioned schema; parsing is
strict (unknown keys are rejected at every level) so configs stay
reproducible and diffable. Bundled scenarios live in the package's
``scenarios/`` directory and are addressable by name.
"""

import json
from dataclasses import dataclass, field, fields
from importlib import resources

from .costs import available_costs, make_cost
from .domains import (ProblemSpec, available_densities, available_domains,
                      make_density, make_domain)
from .errors import ConfigError, ScenarioNotFound
from .flow import INITIAL_POTENTIALS, Schedule
from .grid import MIN_N_R, MIN_N_S, CurvilinearGrid

SCHEMA_VERSION = 1

_TOP_KEYS = {"schema_version", "name", "cost", "source", "target",
             "source_density", "target_density", "initial", "grid", "time",
             "tolerances", "audits", "fit", "seed", "output_dir"}
_COST_KEYS = {"name", "newton_tol", "h_fd"}
_DOMAIN_KEYS = {"kind", "radius", "center", "a", "b", "eps", "k"}
_DENSITY_KEYS = {"name", "eps", "k", "scale"}
_GRID_KEYS = {"n_r", "n_s"}
_TIME_KEYS = {"stop_tol", "t_max", "snapshot_dt", "c_stab", "max_halvings"}
_TOL_KEYS = {"boundary_tol", "mass_tol", "obliqueness_floor", "image_tol",
             "init_boundary_tol"}
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


def _check_cost(cost):
    _check_choice("cost", cost, "name", available_costs())
    for key in [k for k in ("newton_tol", "h_fd") if k in cost]:
        value = cost[key]
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not 0.0 < value < float("inf")):
            raise ConfigError(f"cost '{key}' must be a positive number, "
                              f"got {value!r}")


def _check_grid(grid):
    for key in ("n_r", "n_s"):
        if not (isinstance(grid.get(key), int) and not isinstance(grid[key], bool)):
            raise ConfigError(f"grid '{key}' must be an integer, got {grid.get(key)!r}")
    if grid["n_r"] < MIN_N_R:
        raise ConfigError(f"grid n_r = {grid['n_r']} is below the minimum {MIN_N_R}")
    if grid["n_s"] < MIN_N_S or grid["n_s"] % 2:
        raise ConfigError(f"grid n_s = {grid['n_s']} must be even and at least "
                          f"{MIN_N_S}")


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
    tolerances: dict = field(default_factory=dict)
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
        _check_cost(raw["cost"])
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
        _check_keys("tolerances", raw.get("tolerances", {}), _TOL_KEYS)
        _check_keys("audits", raw.get("audits", {}), _AUDIT_KEYS)
        _check_keys("fit", raw.get("fit", {}), _FIT_KEYS)
        return cls(name=raw["name"], cost=dict(raw["cost"]),
                   source=dict(raw["source"]), target=dict(raw["target"]),
                   source_density=dict(raw["source_density"]),
                   target_density=dict(raw["target_density"]),
                   initial=None if raw.get("initial") is None
                   else dict(raw["initial"]),
                   grid=dict(raw["grid"]), time=dict(raw["time"]),
                   tolerances=dict(raw.get("tolerances", {})),
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
            "grid": self.grid, "time": self.time,
            "tolerances": self.tolerances, "audits": self.audits,
            "fit": self.fit, "seed": self.seed, "output_dir": self.output_dir,
        }

    # -- builders ---------------------------------------------------------

    def build_problem(self):
        cost_params = dict(self.cost)
        cost_name = cost_params.pop("name")
        cost = make_cost(cost_name, **{k: float(v) for k, v in cost_params.items()})
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
        spec = ProblemSpec(source, target, cost, rho, rho_star,
                           mass_tol=float(self.tolerances.get("mass_tol", 1e-3)))
        grid = CurvilinearGrid(source, int(self.grid["n_r"]), int(self.grid["n_s"]))
        return spec, grid

    def build_schedule(self):
        """The run's Schedule from the ``time`` and ``tolerances`` sections;
        a field that neither section sets keeps its ``Schedule`` default."""
        given = {**self.time, **self.tolerances}
        kwargs = {}
        for f in fields(Schedule):
            if f.name in given:
                # an optional field (default None) holds a float when set
                kind = float if f.default is None else type(f.default)
                value = given[f.name]
                kwargs[f.name] = None if value is None else kind(value)
        return Schedule(**kwargs)

    def build_initial(self, spec, grid):
        if self.initial is None:
            raise ConfigError(
                f"scenario '{self.name}' declares no initial potential; "
                "it supports audits only")
        return INITIAL_POTENTIALS[self.initial["kind"]](spec, grid)

    def with_overrides(self, grid=None, seed=None, stop_tol=None,
                       output_dir=None):
        """A validated copy with the given fields replaced."""
        raw = self.to_dict()
        if grid is not None:
            raw["grid"] = {"n_r": int(grid[0]), "n_s": int(grid[1])}
        if seed is not None:
            raw["seed"] = int(seed)
        if stop_tol is not None:
            raw["time"] = dict(raw["time"], stop_tol=float(stop_tol))
        if output_dir is not None:
            raw["output_dir"] = output_dir
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
