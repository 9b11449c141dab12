"""Run configuration: a single YAML file describing the system, the grid,
the specification and all phase settings. Every invariant violation is
reported with the offending field path."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Optional, Union

import numpy as np
import yaml

from .dynamics import GENERAL, STRUCTURES, DynamicsModel, parse_dynamics
from .errors import InputError, ParseError, StructureError
from .imc import AVOID_LABELS, GOAL_LABEL, UNSAFE_LABEL
from .noise import Mixture, NoiseComponent, NoiseModel, TruncatedGaussian, Uniform
from .verify import DEFAULT_CONVERGENCE_TOL, DEFAULT_MAX_ITERATIONS, DEFAULT_THRESHOLD

# libyaml's safe loader where PyYAML was built with it: each bench config
# parses in 0.6-0.8 ms against 3.1-5.3 ms with the pure-Python loader (2
# vCPU), to equal dicts
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@dataclass
class MonteCarloConfig:
    trajectories: int = 1000
    seed: int = 0
    confidence: float = 0.99
    horizon: int = 200
    cells: Union[str, list[int]] = "stride"  # "stride": about 20 evenly spaced cells
    export_trajectories: int = 20
    enabled: bool = True


@dataclass
class RunConfig:
    domain: tuple[np.ndarray, np.ndarray]  # (lo, hi), each of shape (n,)
    grid: tuple[int, ...]
    model: DynamicsModel
    noise: NoiseModel
    labels: dict[str, tuple[np.ndarray, np.ndarray]]  # (lo, hi), each of shape (boxes, n)
    threshold: float = DEFAULT_THRESHOLD
    horizon: Optional[int] = None
    convergence_tol: float = DEFAULT_CONVERGENCE_TOL
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    noise_grid: Optional[tuple[int, ...]] = None
    cluster_passes: int = 0
    monte_carlo: MonteCarloConfig = field(default_factory=MonteCarloConfig)
    posterior_table: Optional[Path] = None
    output_dir: Path = Path("out")
    # the config file's bytes, set by load_config; dropped by dataclasses.replace and by
    # assigning any field but output_dir, after which the config may describe another system
    source: Optional[bytes] = field(default=None, init=False)

    def __setattr__(self, name, value):
        object.__setattr__(self, name, value)
        if name not in ("output_dir", "source"):
            object.__setattr__(self, "source", None)


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


def _integer(value: Any, path: str, minimum: int) -> int:
    if not _is_int(value) or value < minimum:
        _fail(path, f"must be an integer >= {minimum}, got {value!r}")
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


def _path(value: Any, path: str) -> Path:
    """A non-empty YAML string as a Path; other values, null included, are rejected."""
    if not isinstance(value, str) or not value:
        _fail(path, f"must be a non-empty path string, got {value!r}")
    return Path(value)


def _known_keys(mapping: Any, allowed: tuple[str, ...], path: str) -> None:
    """Reject keys outside ``allowed`` so that a typo cannot silently fall
    back to a default."""
    if not isinstance(mapping, dict):
        _fail(path, "expected a mapping")
    for key in mapping:
        if key not in allowed:
            _fail(f"{path}.{key}" if path else str(key), "unknown field")


def _as_box(value: Any, path: str) -> tuple[np.ndarray, np.ndarray]:
    """A list of finite [lo, hi] pairs as the arrays of its lower and upper ends."""
    if not isinstance(value, (list, tuple)) or not value:
        _fail(path, "expected a list of [lo, hi] pairs")
    for i, pair in enumerate(value):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            _fail(f"{path}[{i}]", "expected a [lo, hi] pair")
        lo, hi = (_number(v, f"{path}[{i}]") for v in pair)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            _fail(f"{path}[{i}]", f"requires finite endpoints, got [{lo}, {hi}]")
        if not lo < hi:
            _fail(f"{path}[{i}]", f"requires lo < hi, got [{lo}, {hi}]")
    lo, hi = np.array(value, dtype=float).T.copy()
    return lo, hi


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
    try:
        return cls(*args)
    except ValueError as exc:
        _fail(path, str(exc))
    raise AssertionError  # unreachable


def load_config(path) -> RunConfig:
    """Load and fully validate a YAML run configuration."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise InputError(f"config file does not exist: {path}") from None
    except OSError as exc:  # a directory, no permission, ...
        raise InputError(f"config file {path}: {exc.strerror}") from None
    try:
        raw = yaml.load(data, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise InputError(f"config parse error in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError(f"{path}: top level must be a mapping")
    _known_keys(raw, _TOP_FIELDS, "")

    domain = _as_box(_need(raw, "domain", ""), "domain")
    n = len(domain[0])

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
        model = parse_dynamics([str(e) for e in exprs_raw], n, structure)
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
            if domain[0][d] <= 0.0:
                _fail("domain", "multiplicative structure requires a strictly positive domain")
            if noise.components[d].support[0] < 0.0:
                _fail(
                    f"noise.components[{d}]",
                    "multiplicative structure requires non-negative noise support",
                )
    noise_grid = None
    if noise_raw.get("grid") is not None:
        noise_grid = _counts(noise_raw["grid"], n, "noise.grid")
    if structure == GENERAL and noise_grid is None:
        _fail("noise.grid", "required when dynamics.structure is 'general'")
    if structure != GENERAL and noise_grid is not None:
        # only general systems bound transitions over a noise grid
        _fail("noise.grid", f"only read for dynamics.structure 'general', not {structure!r}")

    labels: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    labels_raw = raw.get("labels", {})
    if not isinstance(labels_raw, dict):
        _fail("labels", "expected a mapping from label name to a list of boxes")
    for name, boxes_raw in labels_raw.items():
        name = str(name)
        if name in labels:  # YAML keys 1 and "1" are one name
            _fail(f"labels.{name}", "the name is given twice")
        if name == UNSAFE_LABEL:
            _fail(f"labels.{name}", "the name is reserved for the state outside the domain")
        if not name or set(name) & set(',"\r\n'):  # labels.csv writes it as a bare field
            _fail(f"labels.{name}", "must be non-empty, with no comma, double quote or line break")
        if not isinstance(boxes_raw, (list, tuple)):
            _fail(f"labels.{name}", "expected a list of boxes")
        boxes = [_as_box(b, f"labels.{name}[{i}]") for i, b in enumerate(boxes_raw)]
        for i, (lo, hi) in enumerate(boxes):
            if len(lo) != n:
                _fail(f"labels.{name}[{i}]", "box dimension differs from domain")
            if not ((domain[0] <= lo) & (hi <= domain[1])).all():
                _fail(f"labels.{name}[{i}]", "box is not inside the domain")
        labels[name] = tuple(np.array([b[k] for b in boxes]).reshape(-1, n) for k in (0, 1))
    if GOAL_LABEL not in labels or not len(labels[GOAL_LABEL][0]):
        _fail(f"labels.{GOAL_LABEL}", "a goal label with at least one box is required")
    # a goal box may share a face with an avoid box, but no interior point
    avoid = [
        (f"labels.{m}[{j}]", lo, hi)
        for m in AVOID_LABELS for j, (lo, hi) in enumerate(zip(*labels.get(m, ())))
    ]
    for i, (goal_lo, goal_hi) in enumerate(zip(*labels[GOAL_LABEL])):
        for where, lo, hi in avoid:
            if ((goal_lo < hi) & (lo < goal_hi)).all():
                _fail(f"labels.{GOAL_LABEL}[{i}]", f"overlaps {where}; they may share only a face")

    spec_raw = raw.get("spec", {})
    _known_keys(spec_raw, _SPEC_FIELDS, "spec")
    threshold = spec_raw.get("threshold", RunConfig.threshold)
    if not isinstance(threshold, (int, float)) or not 0.0 < threshold < 1.0:
        _fail("spec.threshold", f"must be in (0, 1), got {threshold!r}")
    horizon = spec_raw.get("horizon", RunConfig.horizon)
    if horizon in ("unbounded", None):
        horizon = None
    elif not _is_int(horizon) or horizon < 0:
        _fail("spec.horizon", f"must be 'unbounded' or an integer >= 0, got {horizon!r}")
    convergence_tol = _number(
        spec_raw.get("convergence_tolerance", RunConfig.convergence_tol),
        "spec.convergence_tolerance",
    )
    if not 0.0 < convergence_tol < math.inf:
        _fail("spec.convergence_tolerance", f"must be finite and positive, got {convergence_tol!r}")
    max_iterations = _integer(
        spec_raw.get("max_iterations", RunConfig.max_iterations), "spec.max_iterations", 1
    )

    cluster_raw = raw.get("cluster", {})
    _known_keys(cluster_raw, ("passes",), "cluster")
    passes = cluster_raw.get("passes", RunConfig.cluster_passes)
    if not _is_int(passes) or passes not in (0, 1):  # a second pass over a fixpoint changes nothing
        _fail("cluster.passes", f"must be 0 or 1, got {passes!r}")

    mc_raw = raw.get("monte_carlo", {})
    _known_keys(mc_raw, tuple(f.name for f in fields(MonteCarloConfig)), "monte_carlo")
    mc = MonteCarloConfig(**mc_raw)  # a field the file leaves out keeps its default
    for key, least in ("trajectories", 1), ("seed", 0), ("horizon", 1), ("export_trajectories", 0):
        _integer(getattr(mc, key), f"monte_carlo.{key}", least)
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
    posterior_table = None if table_raw is None else _path(table_raw, "posterior_table")
    if posterior_table is not None and not posterior_table.is_absolute():
        posterior_table = path.parent / posterior_table
    if posterior_table is not None and structure == GENERAL:
        _fail("posterior_table", "requires an additive or multiplicative dynamics.structure")

    output_dir = _path(raw.get("output_dir", str(RunConfig.output_dir)), "output_dir")
    if not output_dir.is_absolute():
        output_dir = path.parent / output_dir

    config = RunConfig(
        domain=domain,
        grid=grid,
        model=model,
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
    config.source = data
    return config
