"""Robust interval value iteration for reach-avoid specifications.

Satisfaction bounds follow the standard interval dynamic program: the lower
bound iterates the minimizing adversary and the upper bound the maximizing
one, both starting from the goal indicator. Goal states stay pinned at 1 and
avoid states (obstacles and the unsafe state) at 0, which collapses the
reach-avoid product onto the labels.

The extreme one-step expectation over all adversaries is attained by the
ordering construction: sort successors by value, give every successor its
lower bound, then saturate the remaining mass in sorted order up to each
upper bound. The feasible set is a transportation polytope and this greedy
walk reaches its extreme points. One kernel, ``_extreme_expectations``,
runs both walks for every row of a CSR block at once, vectorised across
rows and sequential within a row, so each row gets the same bits as a walk
over that row alone; value iteration and cluster improvement both call it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InputError, InvalidModelError, SpecificationError
from .imc import Imc, TransitionBound, UNSAFE_LABEL, _check_rows, _read_csv

log = logging.getLogger("imcverify")


SATISFIES = "satisfies"
VIOLATES = "violates"
UNDETERMINED = "undetermined"
_CLASSES = (SATISFIES, VIOLATES, UNDETERMINED)

DEFAULT_THRESHOLD = 0.9
DEFAULT_CONVERGENCE_TOL = 1e-6
DEFAULT_MAX_ITERATIONS = 10**5


@dataclass(frozen=True)
class ReachAvoidSpec:
    """Reach a goal-labeled region while never entering avoid-labeled ones.

    ``horizon`` is a step count, or None for the unbounded horizon.
    """

    goal_label: str = "goal"
    avoid_labels: frozenset[str] = frozenset({"obstacle", UNSAFE_LABEL})
    horizon: Optional[int] = None
    threshold: float = DEFAULT_THRESHOLD

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must be in (0, 1), got {self.threshold}")
        if self.horizon is not None and self.horizon < 0:
            raise ValueError(f"finite horizon must be >= 0, got {self.horizon}")
        object.__setattr__(self, "avoid_labels", frozenset(self.avoid_labels))


@dataclass(frozen=True)
class VerificationResult:
    """Per-state satisfaction interval [p_lower, p_upper] and classification."""

    p_lower: np.ndarray
    p_upper: np.ndarray
    classification: tuple[str, ...]
    iterations: int
    converged: bool

    def __post_init__(self):
        object.__setattr__(self, "p_lower", np.asarray(self.p_lower, dtype=float))
        object.__setattr__(self, "p_upper", np.asarray(self.p_upper, dtype=float))


def _extreme_expectations(indptr, key, lower, upper, remaining, lo_values, hi_values):
    """The minimum over ``lo_values`` and the maximum over ``hi_values`` of
    the expectation over all adversaries, for every row of a CSR block.

    ``key``, ``lower``, ``upper`` and the values are per-entry arrays: the
    tie-break index (the target), the bounds and the successor's value.
    ``remaining`` is 1 - sum(lower) per row, from ``_check_rows`` on the
    block. Ties in value break by ascending key; the expectations are
    tie-invariant.
    """
    n = len(indptr) - 1
    remaining = np.tile(remaining, 2)
    # every row twice: the minimising walks, then the maximising ones
    indptr = np.concatenate([indptr, indptr[1:] + indptr[-1]])
    key, lower, upper = (np.tile(x, 2) for x in (key, lower, upper))
    values = np.concatenate([lo_values, hi_values])
    lengths = np.diff(indptr)
    rows = np.repeat(np.arange(2 * n), lengths)
    order = np.lexsort((key, np.where(rows < n, values, -values), rows))
    # each row in walk order as a row of a (rows, longest row) block, zero-padded
    cols = np.arange(indptr[-1]) - np.repeat(indptr[:-1], lengths)
    low, slack, value = (np.zeros((2 * n, int(lengths.max(initial=0)))) for _ in range(3))
    low[rows, cols], slack[rows, cols] = lower[order], upper[order] - lower[order]
    value[rows, cols] = values[order]
    # The walk gives each successor its slack while the remaining mass
    # exceeds it, then the rest to the first successor whose slack covers
    # it, then nothing. Before that successor, the remaining mass at each
    # position is the sequential running difference.
    before = np.cumsum(np.column_stack([remaining, -slack]), axis=1)[:, :-1]
    covers = np.column_stack([slack >= before, np.ones(len(low), dtype=bool)])
    last = np.where(remaining > 0.0, covers.argmax(axis=1), -1)[:, None]
    position = np.arange(low.shape[1])
    gamma = np.where(
        position < last, low + slack, np.where(position == last, low + before, low)
    )
    # per-row sums added left to right from 0.0, as a Python ``sum`` would:
    # np.cumsum runs sequentially along a row, np.sum (pairwise) does not
    both = np.cumsum(np.column_stack([np.zeros(len(low)), gamma * value]), axis=1)[:, -1]
    return both[:n], both[n:]


def adversary_extreme_expectation(
    values: np.ndarray, row: Sequence[TransitionBound], mode: str
) -> float:
    """Extreme of sum_q' gamma(q,q') * values(q') over all valid adversaries."""
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    dst = np.array([tb.dst for tb in row], dtype=np.int64)
    lower = np.array([tb.lower for tb in row], dtype=float)
    upper = np.array([tb.upper for tb in row], dtype=float)
    values = np.asarray(values, dtype=float)[dst]
    indptr = np.array([0, len(row)])
    remaining = 1.0 - _check_rows(indptr, lower, upper, InvalidModelError)
    low, high = _extreme_expectations(indptr, dst, lower, upper, remaining, values, values)
    return float((low if mode == "min" else high)[0])


def _goal_avoid_sets(imc: Imc, spec: ReachAvoidSpec) -> tuple[np.ndarray, np.ndarray]:
    n = imc.n_states
    goal = np.zeros(n, dtype=bool)
    avoid = np.zeros(n, dtype=bool)
    for i, labs in enumerate(imc.labels):
        if spec.goal_label in labs:
            goal[i] = True
        if labs & spec.avoid_labels:
            avoid[i] = True
    overlap = goal & avoid
    if overlap.any():
        raise SpecificationError(
            f"goal and avoid label sets overlap on states "
            f"{np.flatnonzero(overlap).tolist()}"
        )
    return goal, avoid


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
    reports which happened.
    """
    goal, avoid = _goal_avoid_sets(imc, spec)
    free = np.flatnonzero(~goal & ~avoid)

    v_lo = goal.astype(float)
    v_hi = goal.astype(float)
    iterations = 0
    converged = spec.horizon is not None or len(free) == 0
    # the rows do not change between sweeps: check them once
    remaining = 1.0 - _check_rows(imc.indptr, imc.lower, imc.upper, InvalidModelError)

    for _ in range(spec.horizon if spec.horizon is not None else max_iterations):
        low, high = _extreme_expectations(
            imc.indptr, imc.dst, imc.lower, imc.upper, remaining, v_lo[imc.dst], v_hi[imc.dst]
        )
        new_lo, new_hi = v_lo.copy(), v_hi.copy()
        new_lo[free], new_hi[free] = low[free], high[free]
        delta = max(
            float(np.max(np.abs(new_lo - v_lo))),
            float(np.max(np.abs(new_hi - v_hi))),
        )
        v_lo, v_hi = new_lo, new_hi
        iterations += 1
        if spec.horizon is None and delta < convergence_tol:
            converged = True
            break
    if not converged:
        log.warning(
            "value iteration hit max_iterations=%d before the change per sweep fell "
            "below %g; the bounds are not a fixpoint", max_iterations, convergence_tol
        )

    v_lo = np.minimum(v_lo, v_hi)
    classification = classify_arrays(v_lo, v_hi, spec.threshold)
    return VerificationResult(
        p_lower=v_lo,
        p_upper=v_hi,
        classification=classification,
        iterations=iterations,
        converged=converged,
    )


def classify_arrays(
    p_lower: np.ndarray, p_upper: np.ndarray, threshold: float
) -> tuple[str, ...]:
    below = np.where(np.asarray(p_upper) < threshold, VIOLATES, UNDETERMINED)
    return tuple(np.where(np.asarray(p_lower) >= threshold, SATISFIES, below).tolist())


def classify(result: VerificationResult, threshold: float) -> tuple[str, ...]:
    """Three-way classification of each state against a threshold."""
    return classify_arrays(result.p_lower, result.p_upper, threshold)


# --- result export --------------------------------------------------------------


def _results_header(dim: int) -> str:
    return ",".join(
        ["state"]
        + [f"lo{d + 1},hi{d + 1}" for d in range(dim)]
        + ["p_lower", "p_upper", "class"]
    )


def write_results(result: VerificationResult, imc: Imc, path) -> None:
    """One row per state: index, box bounds, p_lower, p_upper, class.

    The unsafe state has no box; its bound fields stay empty.
    """
    dim = imc.partition.domain.dim
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_results_header(dim) + "\n")
        for i in range(imc.n_states):
            if i < imc.partition.n_cells:
                cell = imc.partition.cells[i]
                bounds = ",".join(
                    f"{cell.component(d).lo!r},{cell.component(d).hi!r}"
                    for d in range(dim)
                )
            else:
                bounds = ",".join([""] * (2 * dim))
            fh.write(
                f"{i},{bounds},{float(result.p_lower[i])!r},"
                f"{float(result.p_upper[i])!r},{result.classification[i]}\n"
            )


def read_results(path, imc: Imc) -> VerificationResult:
    """Reload an exported result table; iteration metadata is not persisted.

    Every state must appear once, with a known class and p_lower <= p_upper
    (value iteration may leave p_upper a few ulps above 1); anything else
    is an InputError naming ``path:line``.
    """
    n, dim = imc.n_states, imc.partition.domain.dim
    rows: dict[int, tuple[float, float, str]] = {}
    types = (int,) + (str,) * (2 * dim) + (float, float, str)
    for lineno, (state, *_, lo, hi, label) in _read_csv(path, _results_header(dim), *types):
        where = f"{path}:{lineno}"
        if not 0 <= state < n:
            raise InputError(f"{where}: state index out of range")
        if state in rows:
            raise InputError(f"{where}: duplicate state {state}")
        if label not in _CLASSES:
            raise InputError(f"{where}: unknown class {label!r}")
        if not lo <= hi:
            raise InputError(f"{where}: requires p_lower <= p_upper, got [{lo}, {hi}]")
        rows[state] = (lo, hi, label)
    missing = sorted(set(range(n)) - rows.keys())
    if missing:
        raise InputError(f"{path}: result table is missing states {missing}")
    p_lower, p_upper, classification = zip(*(rows[i] for i in range(n)))
    return VerificationResult(p_lower, p_upper, classification, iterations=0, converged=True)
