"""Run configuration: a single YAML file describing the system, the grid,
the specification and all phase settings. Every invariant violation is
reported with the offending field path."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Optional, Union

import yaml

from .dynamics import GENERAL, STRUCTURES, DynamicsModel, parse_dynamics
from .errors import InputError, ParseError, StructureError
from .geometry import Box
from .noise import Mixture, NoiseComponent, NoiseModel, TruncatedGaussian, Uniform


@dataclass
class MonteCarloConfig:
    trajectories: int = 1000
    seed: int = 0
    confidence: float = 0.99
    horizon: int = 200
    cells: Union[str, int, list[int]] = "stride"
    cell_stride: int = 0  # 0 = auto (about 20 cells)
    export_trajectories: int = 20
    enabled: bool = True


@dataclass
class RunConfig:
    domain: Box
    grid: tuple[int, ...]
    expressions: tuple[str, ...]
    structure: str
    noise: NoiseModel
    labels: dict[str, tuple[Box, ...]]
    threshold: float = 0.9
    horizon: Optional[int] = None
    convergence_tol: float = 1e-6
    max_iterations: int = 10**5
    noise_grid: Optional[tuple[int, ...]] = None
    cluster_passes: int = 0
    monte_carlo: MonteCarloConfig = field(default_factory=MonteCarloConfig)
    posterior_table: Optional[Path] = None
    output_dir: Path = Path("out")

    def dynamics_model(self) -> DynamicsModel:
        return parse_dynamics(list(self.expressions), len(self.grid), self.structure)


def _fail(path: str, reason: str) -> None:
    raise InputError(f"{path}: {reason}")


def _need(mapping: dict, key: str, path: str) -> Any:
    if not isinstance(mapping, dict) or key not in mapping:
        _fail(f"{path}.{key}" if path else key, "missing required field")
    return mapping[key]


def _is_int(value: Any) -> bool:
    """A YAML integer; ``true``/``false`` load as bool, a subclass of int,
    and are not accepted as counts."""
    return isinstance(value, int) and not isinstance(value, bool)


def _integer(raw: dict, key: str, default: int, path: str, minimum: int) -> int:
    value = raw.get(key, default)
    if not _is_int(value) or value < minimum:
        _fail(f"{path}.{key}", f"must be an integer >= {minimum}, got {value!r}")
    return value


def _counts(value: Any, n: int, path: str) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)) or len(value) != n:
        _fail(path, f"expected {n} per-dimension cell counts")
    for i, r in enumerate(value):
        if not _is_int(r) or r < 1:
            _fail(f"{path}[{i}]", f"must be a positive integer, got {r!r}")
    return tuple(value)


def _number(value: Any, path: str) -> float:
    """A YAML int or float as a float; booleans and strings are rejected."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        _fail(path, f"must be a number, got {value!r}")
    return float(value)


def _known_keys(mapping: Any, allowed: tuple[str, ...], path: str) -> None:
    """Reject keys outside ``allowed`` so that a typo cannot silently fall
    back to a default."""
    if not isinstance(mapping, dict):
        _fail(path, "expected a mapping")
    for key in mapping:
        if key not in allowed:
            _fail(f"{path}.{key}" if path else str(key), "unknown field")


def _as_box(value: Any, path: str) -> Box:
    if not isinstance(value, (list, tuple)) or not value:
        _fail(path, "expected a list of [lo, hi] pairs")
    for i, pair in enumerate(value):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            _fail(f"{path}[{i}]", "expected a [lo, hi] pair")
        lo, hi = (_number(v, f"{path}[{i}]") for v in pair)
        if not lo < hi:
            _fail(f"{path}[{i}]", f"requires lo < hi, got [{lo}, {hi}]")
    return Box.from_bounds(value)


_TOP_FIELDS = (
    "domain", "grid", "dynamics", "noise", "labels", "spec", "cluster",
    "monte_carlo", "posterior_table", "output_dir",
)
_SPEC_FIELDS = ("threshold", "horizon", "convergence_tolerance", "max_iterations")
# constructor and its parameters, in argument order
_DISTRIBUTIONS = {
    "uniform": (Uniform, ("lo", "hi")),
    "truncated_gaussian": (TruncatedGaussian, ("mean", "std", "lo", "hi")),
    "mixture": (Mixture, ("weights", "components")),
}


def _parse_noise_component(entry: Any, path: str) -> NoiseComponent:
    if not isinstance(entry, dict) or "type" not in entry:
        _fail(path, "expected a mapping with a 'type' field")
    kind = entry["type"]
    if kind not in _DISTRIBUTIONS:
        _fail(f"{path}.type", f"unknown distribution type {kind!r}")
    cls, params = _DISTRIBUTIONS[kind]
    _known_keys(entry, ("type",) + params, path)
    for key in params:
        value = _need(entry, key, path)
        if kind == "mixture" and not isinstance(value, list):
            _fail(f"{path}.{key}", "expected a list")
    if kind == "mixture":
        args = (
            tuple(_number(w, f"{path}.weights[{i}]") for i, w in enumerate(entry["weights"])),
            tuple(
                _parse_noise_component(p, f"{path}.components[{i}]")
                for i, p in enumerate(entry["components"])
            ),
        )
    else:
        args = tuple(_number(entry[key], f"{path}.{key}") for key in params)
        if kind == "uniform" and args[0] == args[1]:
            _fail(path, "uniform requires lo < hi: the noise partitions drop a point mass")
    try:
        return cls(*args)
    except ValueError as exc:
        _fail(path, str(exc))
    raise AssertionError  # unreachable


def load_config(path) -> RunConfig:
    """Load and fully validate a YAML run configuration."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"config file does not exist: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise InputError(f"config parse error in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError(f"{path}: top level must be a mapping")
    _known_keys(raw, _TOP_FIELDS, "")

    domain = _as_box(_need(raw, "domain", ""), "domain")
    n = domain.dim

    grid = _counts(_need(raw, "grid", ""), n, "grid")

    dyn = _need(raw, "dynamics", "")
    exprs_raw = _need(dyn, "expressions", "dynamics")
    _known_keys(dyn, ("expressions", "structure"), "dynamics")
    if not isinstance(exprs_raw, (list, tuple)) or len(exprs_raw) != n:
        _fail("dynamics.expressions", f"expected {n} component expressions")
    structure = dyn.get("structure", GENERAL)
    if structure not in STRUCTURES:
        _fail("dynamics.structure", f"must be one of {STRUCTURES}, got {structure!r}")
    try:
        parse_dynamics([str(e) for e in exprs_raw], n, structure)
    except (ParseError, StructureError, ValueError) as exc:
        _fail("dynamics.expressions", str(exc))

    noise_raw = _need(raw, "noise", "")
    comps_raw = _need(noise_raw, "components", "noise")
    _known_keys(noise_raw, ("components", "grid"), "noise")
    if not isinstance(comps_raw, (list, tuple)) or len(comps_raw) != n:
        _fail("noise.components", f"expected {n} noise components")
    noise = NoiseModel(
        tuple(
            _parse_noise_component(c, f"noise.components[{i}]")
            for i, c in enumerate(comps_raw)
        )
    )
    if structure == "multiplicative":
        # Corollary-style multiplicative cut points assume positivity
        for d in range(n):
            if domain.component(d).lo <= 0.0:
                _fail("domain", "multiplicative structure requires a strictly positive domain")
            if noise.components[d].support.lo < 0.0:
                _fail(
                    f"noise.components[{d}]",
                    "multiplicative structure requires non-negative noise support",
                )
    noise_grid = None
    if noise_raw.get("grid") is not None:
        noise_grid = _counts(noise_raw["grid"], n, "noise.grid")
    if structure == GENERAL and noise_grid is None:
        _fail("noise.grid", "required when dynamics.structure is 'general'")

    labels: dict[str, tuple[Box, ...]] = {}
    labels_raw = raw.get("labels", {})
    if not isinstance(labels_raw, dict):
        _fail("labels", "expected a mapping from label name to a list of boxes")
    for name, boxes_raw in labels_raw.items():
        if not isinstance(boxes_raw, (list, tuple)):
            _fail(f"labels.{name}", "expected a list of boxes")
        boxes = tuple(
            _as_box(b, f"labels.{name}[{i}]") for i, b in enumerate(boxes_raw)
        )
        for i, b in enumerate(boxes):
            if b.dim != n:
                _fail(f"labels.{name}[{i}]", "box dimension differs from domain")
            if not domain.contains(b):
                _fail(f"labels.{name}[{i}]", "box is not inside the domain")
        labels[str(name)] = boxes
    if "goal" not in labels:
        _fail("labels.goal", "a goal label with at least one box is required")

    spec_raw = raw.get("spec", {})
    _known_keys(spec_raw, _SPEC_FIELDS, "spec")
    threshold = spec_raw.get("threshold", 0.9)
    if not isinstance(threshold, (int, float)) or not 0.0 < threshold < 1.0:
        _fail("spec.threshold", f"must be in (0, 1), got {threshold!r}")
    horizon = spec_raw.get("horizon", "unbounded")
    if horizon in ("unbounded", None):
        horizon = None
    elif not _is_int(horizon) or horizon < 0:
        _fail("spec.horizon", f"must be 'unbounded' or an integer >= 0, got {horizon!r}")
    convergence_tol = _number(
        spec_raw.get("convergence_tolerance", 1e-6), "spec.convergence_tolerance"
    )
    if convergence_tol <= 0.0:
        _fail("spec.convergence_tolerance", "must be positive")
    max_iterations = _integer(spec_raw, "max_iterations", 10**5, "spec", 1)

    cluster_raw = raw.get("cluster", {})
    _known_keys(cluster_raw, ("passes",), "cluster")
    passes = _integer(cluster_raw, "passes", 0, "cluster", 0)

    mc_raw = raw.get("monte_carlo", {})
    _known_keys(mc_raw, tuple(f.name for f in fields(MonteCarloConfig)), "monte_carlo")
    mc = MonteCarloConfig(
        trajectories=_integer(mc_raw, "trajectories", 1000, "monte_carlo", 1),
        seed=_integer(mc_raw, "seed", 0, "monte_carlo", 0),
        confidence=mc_raw.get("confidence", 0.99),
        horizon=_integer(mc_raw, "horizon", 200, "monte_carlo", 1),
        cells=mc_raw.get("cells", "stride"),
        cell_stride=_integer(mc_raw, "cell_stride", 0, "monte_carlo", 0),
        export_trajectories=_integer(mc_raw, "export_trajectories", 20, "monte_carlo", 0),
        enabled=mc_raw.get("enabled", True),
    )
    if not isinstance(mc.confidence, float) or not 0.0 < mc.confidence < 1.0:
        _fail("monte_carlo.confidence", "must be in (0, 1)")
    if isinstance(mc.cells, list):
        if not mc.cells:
            _fail("monte_carlo.cells", "expected at least one cell index")
        for i, c in enumerate(mc.cells):
            if not _is_int(c) or not 0 <= c < math.prod(grid):
                _fail(f"monte_carlo.cells[{i}]", "cell index out of range")
    elif mc.cells not in ("stride", "all"):
        _fail("monte_carlo.cells", "expected 'stride', 'all' or a list of indices")
    if not isinstance(mc.enabled, bool):
        _fail("monte_carlo.enabled", f"must be true or false, got {mc.enabled!r}")

    table_raw = raw.get("posterior_table")
    posterior_table = Path(table_raw) if table_raw else None
    if posterior_table is not None and not posterior_table.is_absolute():
        posterior_table = path.parent / posterior_table

    output_dir = Path(raw.get("output_dir", "out"))
    if not output_dir.is_absolute():
        output_dir = path.parent / output_dir

    return RunConfig(
        domain=domain,
        grid=grid,
        expressions=tuple(str(e) for e in exprs_raw),
        structure=structure,
        noise=noise,
        labels=labels,
        threshold=float(threshold),
        horizon=horizon,
        convergence_tol=convergence_tol,
        max_iterations=max_iterations,
        noise_grid=noise_grid,
        cluster_passes=passes,
        monte_carlo=mc,
        posterior_table=posterior_table,
        output_dir=output_dir,
    )
