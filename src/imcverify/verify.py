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
the bits of a walk over that row alone. Value iteration checks every row
once, lays out only the rows of the states it does not pin, takes the
pre-fixpoint residual from the same layout, and stops sweeping a bound
whose sweep returns its own bits. As in interval iteration (Baier et al.,
CAV 2017) each iterate is kept monotone (``_sweep``): a bounded monotone
sequence of floats settles, and no ``p_upper`` exceeds 1. A row whose
successors kept their bits returns its own bits, so after a bound's first
sweep each sweep walks only the rows that read a state the bound's last
sweep moved (Wingate & Seppi, JMLR 6, 2005): where at most ``_FULL_SWEEP``
of the free states moved, ``RowLayout.reading`` finds them in the layout's
own blocks, one gather of the moved mask over their targets, and
``RowLayout.part`` gathers them where they are at most that share of the
free rows; no reverse index is built. Cluster improvement walks its own
layout, then only the rows whose reads changed, found the same way.
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
# A sweep walks the whole layout, not only the rows that read a moved state,
# once more than this share of the free states moved in the bound's last
# sweep, or more than this share of the free rows read one: a part of
# nearly every row costs more to gather than it saves, and a part of at
# most this share holds at most this share of the layout's memory. On
# paper-mult-40, whose lower bound moves 1,387-1,489 of the 1,528 free
# states in each sweep from its sixth on, value iteration took 106-117 ms
# with a part on every sweep after the first against 50-54 ms under this
# rule; 1/4 and 1/16 were as fast as 1/8 there and on additive-h200-phased
# (in process, medians of 11 runs on one pinned CPU of a 2-vCPU host)
_FULL_SWEEP = 1 / 8


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
    iteration's report, None for a reloaded result: ``fixpoints`` holds per
    bound (lower, upper) the first sweep that returned its input bits,
    ``upper_residual`` the ``_residual`` of the unbounded upper iterate from
    the goal indicator (None: finite horizon) and ``walked_rows`` per bound
    the rows its sweeps walked, summed over the sweeps. A cluster pass
    reports only its rounds as ``iterations`` and its row walks per bound as
    ``walked_rows``."""

    def __init__(self, p_lower: np.ndarray, p_upper: np.ndarray, iterations: Optional[int] = None,
                 converged: Optional[bool] = None, fixpoints: tuple = (None, None),
                 upper_residual: Optional[float] = None, walked_rows: tuple = (None, None)):
        vars(self).update(p_lower=np.asarray(p_lower, dtype=float),
                          p_upper=np.asarray(p_upper, dtype=float), iterations=iterations,
                          converged=converged, fixpoints=fixpoints, upper_residual=upper_residual,
                          walked_rows=walked_rows)


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


def _sweep(layout: RowLayout, free: np.ndarray, bounds: list, signs, done: int, sweeps: int,
           tol, falling: bool = False):
    """Sweep ``bounds`` in place with the adversaries of ``signs`` (1.0
    minimises, -1.0 maximises) on the states of the mask ``free``, whose
    rows ``layout`` lays out, from sweep ``done + 1`` up to ``sweeps``; a
    bound whose sweep returns its own bits is not swept again. Each iterate
    moves the way its exact iterates move: up to min(max(T(v), v), 1) from
    the goal indicator, down to min(T(v), v) when ``falling`` (from 1), so
    round-off alone cannot keep a bound moving. A bound's first sweep walks
    every free row; each later one only the rows that read a state whose
    bits its last sweep changed (``RowLayout.reading``), unless they or the
    states are more than ``_FULL_SWEEP`` of the free ones: any other row
    would return its own bits.
    Returns the last sweep (``sweeps`` once every bound is settled: the
    sweeps left would return these bits), whether the change fell below
    ``tol`` (None: never), per bound the sweep that returned its bits and
    the rows its sweeps walked."""
    share = _FULL_SWEEP * np.count_nonzero(free)
    fixpoints, walked = [None] * len(bounds), [0] * len(bounds)
    dirty = [None] * len(bounds)  # per bound the mask of the rows its next sweep walks; None: free
    for done in range(done + 1, sweeps + 1):
        delta = 0.0
        for b in [b for b, f in enumerate(fixpoints) if f is None]:
            rows = free if dirty[b] is None else dirty[b]
            part = layout if dirty[b] is None else layout.part(rows)
            new, old = part.walk(_rank(bounds[b], signs[b]), bounds[b])[rows], bounds[b][rows]
            new = np.minimum(new, old) if falling else np.minimum(np.maximum(new, old), 1.0)
            if tol is not None:  # only the unbounded horizon stops on the change
                delta = max(delta, float(np.max(np.abs(new - old), initial=0.0)))
            # bitwise, so that -0.0 and 0.0 differ: each later sweep would return these bits
            moved = np.zeros_like(free)
            moved[rows] = new.view(np.int64) != old.view(np.int64)
            bounds[b][rows], walked[b] = new, walked[b] + len(new)
            count = np.count_nonzero(moved)
            if not count:
                fixpoints[b] = done
                continue
            # the rows that read a moved state, unless the states alone are too many
            reads = layout.reading(moved) if count <= share else free
            dirty[b] = reads if np.count_nonzero(reads) <= share else None
        if tol is not None and delta < tol:
            return done, True, fixpoints, walked
        if None not in fixpoints:
            break
    return sweeps, False, fixpoints, walked


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
    so its scratch arrays do not grow with nnz; after a bound's first sweep
    only the rows that read a state its last sweep moved, unless more than
    ``_FULL_SWEEP`` of the free states moved or read one (``walked_rows``).

    Both bounds rise from the goal indicator, each sweep to
    min(max(T(v), v), 1) (``_sweep``): v stays below the exact iterate for
    the lower bound, and above it and the reach probability (at most 1) for
    the upper one. An unbounded ``p_upper`` may stop on the tolerance below
    the least fixpoint; one more maximising walk of the same layout checks
    it (``upper_residual``; 0.0 with no walk after a bitwise fixpoint, which
    has T(v) <= v wherever v < 1). Above 0, a WARNING gives it, and the
    sweeps left sweep the upper bound again down from 1 (0 on avoid states),
    each to min(T(v), v): ``T_max`` is monotone and that start lies above
    the least fixpoint, so every iterate is an upper bound (Haddad &
    Monmege, TCS 735, 2018). With no sweep left, ``p_upper`` is that start.
    """
    goal, avoid = _goal_avoid_sets(imc.labels, imc.n_states)
    pinned = goal | avoid
    free = ~pinned
    # the rows do not change between sweeps: check them all once and lay out
    # those of the free states, the only ones a sweep changes
    layout = RowLayout(imc.indptr, imc.dst, imc.lower, imc.upper, InvalidModelError, walked=free)

    bounds = [goal.astype(float), goal.astype(float)]  # lower, upper
    tol = None if spec.horizon is not None else convergence_tol
    sweeps = spec.horizon if spec.horizon is not None else max_iterations
    iterations, stopped, fixpoints, walked = _sweep(
        layout, free, bounds, (1.0, -1.0), 0, sweeps, tol)
    residual = None  # finite horizons need no check; a bitwise fixpoint needs no sweep
    if spec.horizon is None:
        residual = 0.0 if fixpoints[1] else _residual(layout, bounds[1], pinned)
    if residual:
        log.warning("the upper bound is not a pre-fixpoint (residual %g): "
                    "iterating it down from 1", residual)
        upper = [(~avoid).astype(float)]
        iterations, stopped, (fixpoints[1],), (falling,) = _sweep(
            layout, free, upper, (-1.0,), iterations, sweeps, tol, falling=True)
        bounds[1], walked[1] = upper[0], walked[1] + falling
    log.debug("value iteration: bitwise fixpoint from sweep %s (lower), %s (upper); "
              "%d (lower) and %d (upper) rows walked", *fixpoints, *walked)
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
        walked_rows=tuple(walked),
    )


def _residual(layout: RowLayout, p_upper: np.ndarray, pinned: np.ndarray) -> float:
    """max(min(T_max(p_upper), 1) - p_upper, 0) over the states that are
    not ``pinned``, by one maximising walk of a layout of their rows in
    the IMC: 0 certifies ``p_upper`` as an upper bound of the
    unbounded reach-avoid probability (a bound of 1 needs no certificate)."""
    swept = layout.walk(_rank(p_upper, -1.0), p_upper)
    return float(np.max(np.minimum(swept, 1.0) - p_upper, where=~pinned, initial=0.0))


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
