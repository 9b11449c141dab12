"""Robust interval value iteration for reach-avoid specifications.

Satisfaction bounds follow the standard interval dynamic program: the lower
bound iterates the minimizing adversary and the upper bound the maximizing
one, both starting from the goal indicator. Goal states stay pinned at 1 and
avoid states (obstacles and the unsafe state) at 0, which collapses the
reach-avoid product onto the labels: the IMC's ``GOAL_LABEL`` mask and the
union of its ``AVOID_LABELS`` masks (``imc._goal_avoid_sets``).

The extreme one-step expectation over all adversaries is attained by the
ordering construction (Givan, Leach & Dean, 2000): sort successors by value,
give every successor its lower bound, then saturate the remaining mass in
sorted order up to each upper bound. The feasible set is a transportation
polytope and this greedy walk reaches its extreme points. A sweep ranks the
states once for one bound (``_rank``); ``RowLayout.walk`` (``imc.py``, the
owner of the row layout) then sorts every row of one block of the layout
at a time by that rank and walks each row sequentially, so each row gets
the bits of a walk over that row alone. Value iteration lays its rows out and
checks them once, takes the pre-fixpoint residual from the same layout, and
stops sweeping a bound whose sweep returns its own bits; cluster
improvement walks its own layout, then only the rows whose reads changed
(``RowLayout.part``).
Value iteration alone decides whether an unbounded ``p_upper`` may be
trusted, so a result is its two bound arrays: its classes are derived from
them where they are written or counted, by ``classify_arrays``.
A result table is reloaded only if its stamp, the SHA-256 of a key (the
config and posterior table bytes) followed by the table, matches; it is
then this program's own output for the key, and is read unchecked.
"""

from __future__ import annotations

import logging
from pathlib import Path
from typing import Optional

import numpy as np

from ._csv import csv_lines, write_columns
from .errors import Frozen, InputError, InvalidModelError
from .geometry import StatePartition
from .imc import Imc, RowLayout, _goal_avoid_sets

log = logging.getLogger("imcverify")


_CLASSES = ("satisfies", "violates", "undetermined")  # classify_arrays' codes 0, 1, 2

DEFAULT_THRESHOLD = 0.9
DEFAULT_CONVERGENCE_TOL = 1e-6
DEFAULT_MAX_ITERATIONS = 10**5


class ReachAvoidSpec(Frozen):
    """Reach a goal-labeled region while never entering avoid-labeled ones.

    ``horizon`` is a step count, or None for the unbounded horizon.
    """

    def __init__(self, horizon: Optional[int] = None, threshold: float = DEFAULT_THRESHOLD):
        if not 0.0 < threshold < 1.0:
            raise ValueError(f"threshold must be in (0, 1), got {threshold}")
        if horizon is not None and horizon < 0:
            raise ValueError(f"finite horizon must be >= 0, got {horizon}")
        vars(self).update(horizon=horizon, threshold=threshold)


class VerificationResult(Frozen):
    """Per-state satisfaction interval [p_lower, p_upper]; the rest is value
    iteration's report, None for a reloaded result or a cluster pass:
    ``fixpoints`` holds per bound (lower, upper) the first sweep that
    returned its input bits, and ``upper_residual`` the ``_residual`` of the
    unbounded upper iterate from the goal indicator (None: finite horizon)."""

    def __init__(self, p_lower: np.ndarray, p_upper: np.ndarray, iterations: Optional[int] = None,
                 converged: Optional[bool] = None, fixpoints: tuple = (None, None),
                 upper_residual: Optional[float] = None):
        vars(self).update(p_lower=np.asarray(p_lower, dtype=float),
                          p_upper=np.asarray(p_upper, dtype=float), iterations=iterations,
                          converged=converged, fixpoints=fixpoints, upper_residual=upper_residual)


def _rank(values, sign: float, ties=None) -> np.ndarray:
    """Per state, its place in walk order: by ``values``, ascending for the
    minimum (``sign`` 1.0) and descending for the maximum (-1.0), ties in
    the order of the permutation ``ties`` (default: the state index), by
    one stable sort; the expectation is tie-invariant."""
    values = sign * values
    order = np.argsort(values, kind="stable") if ties is None else (
        ties[np.argsort(values[ties], kind="stable")])
    rank = np.empty(len(values), dtype=np.int64)
    rank[order] = np.arange(len(values))
    return rank


def _sweep(layout: RowLayout, bounds: list, signs, pinned, done: int, sweeps: int, tol):
    """Sweep ``bounds`` in place with the adversaries of ``signs`` (1.0
    minimises, -1.0 maximises), ``pinned`` held, from sweep ``done + 1`` up
    to ``sweeps``; a bound whose sweep returns its own bits is not swept
    again. Returns the last sweep (``sweeps`` once every bound is settled:
    the sweeps left would return these bits), whether the change fell below
    ``tol`` (None: never) and per bound the sweep that returned its bits."""
    fixpoints = [None] * len(bounds)
    for done in range(done + 1, sweeps + 1):
        delta = 0.0
        for b in [b for b, f in enumerate(fixpoints) if f is None]:
            new = layout.walk(_rank(bounds[b], signs[b]), bounds[b])
            new[pinned] = bounds[b][pinned]
            if tol is not None:  # only the unbounded horizon stops on the change
                delta = max(delta, float(np.max(np.abs(new - bounds[b]))))
            # bitwise, so that -0.0 and 0.0 differ: each later sweep would return these bits
            if np.array_equal(new.view(np.int64), bounds[b].view(np.int64)):
                fixpoints[b] = done
            bounds[b] = new
        if tol is not None and delta < tol:
            return done, True, fixpoints
        if None not in fixpoints:
            break
    return sweeps, False, fixpoints


def robust_value_iteration(
    imc: Imc,
    spec: ReachAvoidSpec,
    *,
    convergence_tol: float = DEFAULT_CONVERGENCE_TOL,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> VerificationResult:
    """Compute [p_lower, p_upper] per state for the reach-avoid property.

    A finite horizon runs exactly that many iterations. The unbounded
    horizon iterates until the largest per-state change in either bound is
    below ``convergence_tol`` or the iteration cap is hit; the result
    reports which happened. A bound is final once a sweep returns its bits;
    ``iterations`` counts every sweep the result stands for.

    A sweep ranks the states once per bound, then sorts and walks the
    layout's blocks of at most ``_BLOCK_SLOTS`` (2**18) slots one at a time,
    so its scratch arrays do not grow with nnz.

    An unbounded ``p_upper`` rises from the goal indicator and may stop below
    the least fixpoint; one more maximising walk of the same layout checks it
    (``upper_residual``; 0.0 with no walk after a bitwise fixpoint). Above 0,
    a WARNING gives it, and the sweeps left sweep the upper bound again from
    1 (0 on avoid states): ``T_max`` is monotone and that start lies above
    the least fixpoint, so every iterate is an upper bound (Haddad & Monmege,
    TCS 735, 2018). With no sweep left, ``p_upper`` is that start.
    """
    goal, avoid = _goal_avoid_sets(imc.labels, imc.n_states)
    pinned = goal | avoid
    # the rows do not change between sweeps: lay them out and check them once
    layout = RowLayout(imc.indptr, imc.dst, imc.lower, imc.upper, InvalidModelError)

    bounds = [goal.astype(float), goal.astype(float)]  # lower, upper
    tol = None if spec.horizon is not None else convergence_tol
    sweeps = spec.horizon if spec.horizon is not None else max_iterations
    iterations, stopped, fixpoints = _sweep(layout, bounds, (1.0, -1.0), pinned, 0, sweeps, tol)
    residual = None  # finite horizons need no check; a bitwise fixpoint needs no sweep
    if spec.horizon is None:
        residual = 0.0 if fixpoints[1] else _residual(layout, bounds[1], pinned)
    if residual:
        log.warning("the upper bound is not a pre-fixpoint (residual %g): "
                    "iterating it down from 1", residual)
        upper = [(~avoid).astype(float)]
        iterations, stopped, (fixpoints[1],) = _sweep(
            layout, upper, (-1.0,), pinned, iterations, sweeps, tol)
        bounds[1] = upper[0]
    log.debug("value iteration: bitwise fixpoint from sweep %s (lower), %s (upper)", *fixpoints)
    converged = spec.horizon is not None or bool(pinned.all()) or stopped
    if not converged:
        log.warning(
            "value iteration hit max_iterations=%d before the change per sweep fell "
            "below %g; the bounds are not a fixpoint", max_iterations, convergence_tol
        )

    return VerificationResult(
        p_lower=np.minimum(*bounds),
        p_upper=bounds[1],
        iterations=iterations,
        converged=converged,
        fixpoints=tuple(fixpoints),
        upper_residual=residual,
    )


def _residual(layout: RowLayout, p_upper: np.ndarray, pinned: np.ndarray) -> float:
    """max(T_max(p_upper) - p_upper, 0) over the states that are not
    ``pinned``, by one maximising walk of the layout of the IMC's rows: 0
    certifies ``p_upper`` as an upper bound of the unbounded reach-avoid
    probability."""
    swept = layout.walk(_rank(p_upper, -1.0), p_upper)
    return float(np.max(swept - p_upper, where=~pinned, initial=0.0))


def classify_arrays(p_lower, p_upper, threshold: float) -> np.ndarray:
    """Each state's class at ``threshold`` as an index into ``_CLASSES``:
    satisfies if p_lower >= threshold, else violates if p_upper < threshold."""
    below = np.where(np.asarray(p_upper) < threshold, 1, 2)
    return np.where(np.asarray(p_lower) >= threshold, 0, below)


# --- result export --------------------------------------------------------------


def _sha256_hex(data: bytes) -> str:
    """The hex SHA-256 of ``data`` from the interpreter's builtin module where
    it has one: hashlib's OpenSSL adds about 2 MB to a run's RSS."""
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


def stamp_path(path) -> Path:
    """The stamp of the result table ``path``: ``<name>.stamp`` next to it."""
    return Path(f"{path}.stamp")


def _results_header(dim: int) -> str:
    return ",".join(
        ["state"]
        + [f"lo{d + 1},hi{d + 1}" for d in range(dim)]
        + ["p_lower", "p_upper", "class"]
    )


def write_results(result: VerificationResult, partition: StatePartition, threshold, path,
                  key=None) -> None:
    """One row per state: index, cell bounds, p_lower, p_upper, class at
    ``threshold``; then, unless ``key`` is None, the table's stamp: one line,
    the hex SHA-256 of ``key`` followed by the table.

    A cell bound is its grid edge, formatted once per edge and written as a
    string column indexed by the cell's multi-index. The unsafe state has no
    box; its bound fields stay empty.
    """
    dim, cells = len(partition.resolution), partition.n_cells
    p_lower, p_upper = result.p_lower, result.p_upper
    classes = classify_arrays(p_lower, p_upper, threshold)
    edges = [csv_lines(e).decode().splitlines() for e in partition.edges]

    def cell_rows(a, b):
        multi = np.unravel_index(np.arange(a, b), partition.resolution)
        bounds = [(text, m + k) for text, m in zip(edges, multi) for k in (0, 1)]
        return np.arange(a, b), *bounds, p_lower[a:b], p_upper[a:b], (_CLASSES, classes[a:b])

    empty = ("",), np.zeros(1, np.intp)
    unsafe = (np.array([cells]), *[empty] * (2 * dim), p_lower[cells:], p_upper[cells:],
              (_CLASSES, classes[cells:]))
    write_columns(path, _results_header(dim), (cells, cell_rows), (1, lambda a, b: unsafe))
    if key is not None:
        stamp_path(path).write_text(_sha256_hex(key + Path(path).read_bytes()) + "\n")


def read_results(path, partition: StatePartition, key) -> VerificationResult:
    """Reload the bounds of a result table that ``write_results`` stamped
    with ``key``, which is then this program's own bytes: only its p_lower
    and p_upper columns are read, unchecked. Any other table (no stamp, a
    key of None, other key bytes or an edit since) is an InputError naming
    ``path``."""
    try:
        data, stamp = Path(path).read_bytes(), stamp_path(path).read_bytes()
    except FileNotFoundError:
        data = None
    if key is None or data is None or stamp != f"{_sha256_hex(key + data)}\n".encode():
        raise InputError(f"{path}: missing, or its stamp does not match the config and "
                         "posterior table; run verify again")
    dim = len(partition.resolution)
    lines = data.decode("ascii").splitlines()[1:]
    p_lower, p_upper = np.loadtxt(lines, delimiter=",", usecols=(2 * dim + 1, 2 * dim + 2),
                                  unpack=True, comments=None)
    return VerificationResult(p_lower, p_upper)
