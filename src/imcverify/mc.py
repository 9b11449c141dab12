"""Monte Carlo validation: sample trajectories of the continuous system and
check empirical satisfaction against the verified intervals.

Sampling is closed form (``NoiseModel.sample``): a step reads one uniform
per noise component, so the draw count per step is fixed and runs are
reproducible from the seed alone.

There is one rollout: ``_rollout`` advances the trajectories of whole cells
in lockstep with one RNG stream per cell. While any of a cell's trajectories
is alive, each step draws one (trajectories, noise.n) block from its stream
and trajectory i reads row i, so a trajectory's noise never depends on
which others have ended or which cells share its batch. A step costs what
the live trajectories cost: each drawing cell writes its block into one
buffer in place, the live states sit in a compact array with one row per
coordinate that drops a trajectory when it ends, only an ending trajectory
writes its termination and length, and only the exported ones, carried as
positions among the live ones, write their states back. A point is judged
by the labels of the grid cell that owns it (``StatePartition.owner``),
the cells the IMC was built on: one gather from a termination code per
state, built once per call.
``estimate_satisfaction`` validates many cells at once in groups of at most
``GROUP_TRAJECTORIES``, logging each group's trajectory-steps at DEBUG, with
one ``clopper_pearson`` call per group (numpy and ``math`` only, no scipy).
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ._csv import write_columns
from .dynamics import DynamicsModel, eval_point
from .geometry import StatePartition
from .imc import _goal_avoid_sets
from .noise import NoiseModel

TERM_HORIZON = "horizon"
TERM_GOAL = "goal-hit"
TERM_AVOID = "avoid-hit"
TERM_LEFT = "left-domain"

# termination codes of the kernel; 0 means the trajectory is still running
_RUNNING, _GOAL, _AVOID, _LEFT, _HORIZON = range(5)
_TERMS = (None, TERM_GOAL, TERM_AVOID, TERM_LEFT, TERM_HORIZON)

log = logging.getLogger("imcverify")

# trajectories per lockstep group (a larger cell is a group of its own)
GROUP_TRAJECTORIES = 2**16


@dataclass(frozen=True)
class Trajectory:
    states: np.ndarray  # shape (length, n)
    termination: str

    @property
    def length(self) -> int:
        return int(self.states.shape[0])


def _termination_codes(partition: StatePartition, labels: Mapping[str, np.ndarray]) -> np.ndarray:
    """The termination code of a point in each state, from the label masks
    ``labels``: goal, else avoid, else running, and left-domain at the
    unsafe state."""
    goal, avoid = _goal_avoid_sets(labels, partition.n_states)
    code = np.where(goal, _GOAL, np.where(avoid, _AVOID, _RUNNING))
    code[partition.unsafe_index] = _LEFT
    return code


def _rollout(
    model: DynamicsModel,
    noise: NoiseModel,
    partition: StatePartition,
    code: np.ndarray,
    starts: Sequence[Sequence[float]],
    rngs: Sequence[np.random.Generator],
    n: int,
    horizon: int,
    keep: int,
) -> tuple[np.ndarray, list[list[Trajectory]], int]:
    """Advance n trajectories from each start (row of ``starts``, one
    generator each) for at most ``horizon`` steps, each stopping at its
    first goal hit, avoid hit or domain exit: a point ends as ``code`` (from
    ``_termination_codes``) says for the state that owns it.

    Returns the termination codes, shape (cells, n), per cell the full
    paths of its first ``keep`` trajectories, and the number of
    trajectory-steps advanced.
    """
    cells, k = len(rngs), min(keep, n)
    x = np.repeat(np.asarray(starts, dtype=float), n, axis=0)
    cause = code[partition.owner(x)]
    length = np.where(cause == _RUNNING, horizon + 1, 1)
    tracked = (n * np.arange(cells)[:, None] + np.arange(k)).ravel()
    history = [x[tracked]]
    u = np.empty((len(x), noise.n))
    alive = np.flatnonzero(cause == _RUNNING)
    live = x.T.take(alive, axis=1)  # the live states, one row per coordinate
    shown = np.flatnonzero(alive % n < k)  # positions in alive of the exported trajectories
    remaining = np.bincount(alive // n, minlength=cells)  # live trajectories per cell
    drawing = np.flatnonzero(remaining).tolist()
    for step in range(horizon):
        if len(alive) == 0:
            break
        for c in drawing:
            rngs[c].random(out=u[c * n : (c + 1) * n])
        live = eval_point(model, live.T, noise.sample(u.take(alive, axis=0))).T
        found = code.take(partition.owner(live.T))
        ended = np.flatnonzero(found)
        if len(shown):
            x[alive.take(shown)] = live.take(shown, axis=1).T
            history.append(x.take(tracked, axis=0))
        if len(ended):
            done = alive.take(ended)
            cause[done], length[done] = found.take(ended), step + 2
            shown = shown.compress(found.take(shown) == _RUNNING)
            shown -= np.searchsorted(ended, shown)  # the ended before each drop out
            running = found == _RUNNING
            alive, live = alive.compress(running), live.compress(running, axis=1)
            remaining -= np.bincount(done // n, minlength=cells)
            drawing = np.flatnonzero(remaining).tolist()
    cause[alive] = _HORIZON
    paths = np.stack(history)
    kept = [
        Trajectory(states=paths[: length[i], j], termination=_TERMS[cause[i]])
        for j, i in enumerate(tracked.tolist())
    ]
    kept_per_cell = [kept[c * k : (c + 1) * k] for c in range(cells)]
    return cause.reshape(cells, n), kept_per_cell, int(length.sum()) - len(length)


def clopper_pearson(
    successes: np.ndarray | int, trials: int, confidence: float
) -> tuple[np.ndarray, np.ndarray]:
    """Exact two-sided binomial confidence intervals (Clopper & Pearson, 1934),
    rounded outward: the arrays of lower and upper ends for an integer array
    of ``successes`` out of ``trials`` (a scalar is a batch of one).

    The ends solve P(X >= s | p) = alpha/2 and P(X <= s | p) = alpha/2, each a
    tail P(Y >= k) of a binomial in q (q = p, k = s, or q = 1 - p, k = trials -
    s), all at once by a safeguarded Newton iteration on logit q. Each end is
    a float p whose tail, plus its rounding error, is at most alpha/2."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)) or trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    s = np.asarray(successes)
    if s.dtype.kind not in "iuf" or np.any((s != np.round(s)) | (s < 0) | (s > trials)):
        raise ValueError(f"successes must be integers in [0, {trials}], got {successes!r}")
    n, target = int(trials), math.log((1.0 - confidence) / 2.0)
    lg = np.fromiter(map(math.lgamma, range(1, n + 2)), float, n + 1)  # log j!
    lc = lg[n] - lg - lg[::-1]  # log C(n, j)
    k = np.concatenate([s.ravel(), n - s.ravel()]).astype(np.int64)
    sign = np.repeat([1.0, -1.0], s.size)  # p = 1 / (1 + exp(-sign * logit q))
    t = math.sqrt(-2.0 * target)  # start: Wilson bound, z by Abramowitz & Stegun 26.2.22
    z, x = t - (2.30753 + 0.27061 * t) / (1 + t * (0.99229 + 0.04481 * t)), np.maximum(k - 0.5, 0.5)
    q0 = (x + z * z / 2 - z * np.sqrt(x * (n - x) / n + z * z / 4)) / (n + z * z)
    u = np.log(q0) - np.log1p(-q0)
    safe = np.where(sign > 0, 0.0, 1.0)  # the tail at q = 0 is 0 for k >= 1
    below, above = np.full(len(k), -750.0), np.full(len(k), 750.0)  # logit q at p = 0 and 1
    live = np.flatnonzero(k > 0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(100):
            if not len(live):
                break
            kl, ul, sl = k[live], u[live], sign[live]
            p = 1.0 / (1.0 + np.exp(-sl * ul))
            # log q, log(1 - q); log 0 as -746 (below any float's) only raises the tail
            lq, lr = np.where(sl > 0, (np.log(p), np.log1p(-p)), (np.log1p(-p), np.log(p)))
            lq, lr = np.maximum(lq, -746.0), np.maximum(lr, -746.0)
            # sum in order (a row's sum is its own) 10 sd + 10 terms either side of the
            # largest; by log-concavity a term outside is at most the edge on its side
            q = np.exp(lq)
            h = (10 * np.sqrt(n * q * (1 - q))).astype(np.int64) + 10
            mode = np.minimum(np.floor((n + 1) * q), n).astype(np.int64)
            first, last = np.maximum(kl, mode - h), np.minimum(np.maximum(kl, mode) + h, n)
            j = first[:, None] + np.arange((last - first).max() + 1)
            terms = lc[np.minimum(j, n)] + j * lq[:, None] + (n - j) * lr[:, None]
            terms[j > last[:, None]] = -np.inf
            top = terms.max(axis=1)
            w, at = np.exp(terms - top[:, None]), (np.arange(len(kl)), last - first)
            log_p = top + np.log(w.cumsum(axis=1)[at] + (first - kl) * w[:, 0] + (n - last) * w[at])
            err = 2.0**-47 * (3 * lg[n] + last * abs(lq) + (n - first) * abs(lr) + last - first + 1)
            ok = log_p + err <= target
            safe[live[ok]] = p[ok]
            below[live[ok]], above[live[~ok]] = ul[ok], ul[~ok]
            # Newton on log P aimed below the check: d P / d logit q is one term
            slope = np.exp(np.log(kl) + lc[kl] + kl * lq + (n - kl + 1) * lr - log_p)
            step = (target - 2 * err - log_p) / slope
            lo, hi = below[live], above[live]
            u[live] = np.where((lo < ul + step) & (ul + step < hi), ul + step, 0.5 * (lo + hi))
            done = (ok & (step <= 1e-10 * (1 + abs(ul)))) | (hi - lo <= 1e-10 * (1 + abs(lo)))
            live = live[~done]
    return tuple(safe.reshape(2, *s.shape))


def estimate_satisfaction(
    model: DynamicsModel,
    noise: NoiseModel,
    partition: StatePartition,
    labels: Mapping[str, np.ndarray],
    starts: Sequence[Sequence[float]],
    n_samples: int,
    horizon: int,
    seeds: Sequence,
    confidence: float = 0.99,
    keep: int = 0,
) -> list[tuple[float, tuple[float, float], list[Trajectory]]]:
    """Per start, the satisfaction frequency of ``n_samples`` trajectories,
    its Clopper-Pearson CI and the paths of the first ``keep`` of them.
    A point ends a trajectory as the label masks ``labels`` (from
    ``assign_labels``) say for the cell of ``partition`` that owns it.

    Start j draws from ``np.random.default_rng(seeds[j])`` (an int or a
    tuple of ints): its trajectory i reads column i of
    ``default_rng(seeds[j]).random((horizon, n_samples, noise.n))``, one
    uniform per noise component and step. A start that is already terminal
    draws nothing.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    if keep < 0:
        raise ValueError(f"keep must be >= 0, got {keep}")
    if len(starts) != len(seeds):
        raise ValueError(f"got {len(starts)} starts but {len(seeds)} seeds")
    shape = np.shape(starts)
    if shape != (len(seeds), model.n) or model.n != len(partition.resolution):
        raise ValueError(f"starts of shape {shape} for a {model.n}-dimensional system "
                         f"on a {len(partition.resolution)}-dimensional grid")
    code = _termination_codes(partition, labels)
    per_group = max(1, GROUP_TRAJECTORIES // n_samples)
    out = []
    for a in range(0, len(seeds), per_group):
        rngs = [np.random.default_rng(s) for s in seeds[a : a + per_group]]
        t0 = time.perf_counter()
        cause, kept, steps = _rollout(
            model, noise, partition, code, starts[a : a + per_group], rngs, n_samples, horizon, keep
        )
        log.debug("monte carlo: %d trajectories, %d trajectory-steps in %.3f s",
                  cause.size, steps, time.perf_counter() - t0)
        successes = np.count_nonzero(cause == _GOAL, axis=1)
        lower, upper = clopper_pearson(successes, n_samples, confidence)
        out.extend(zip((successes / n_samples).tolist(), zip(lower.tolist(), upper.tolist()), kept))
    return out


def write_trajectories(trajectories: Sequence[Trajectory], path, dim: int) -> None:
    """One row per step: trajectory id, step, the ``dim`` state components
    (a header of ``x1..x{dim}`` even without trajectories), termination."""
    columns = ["trajectory", "step"] + [f"x{d + 1}" for d in range(dim)] + ["termination"]
    names = sorted({t.termination for t in trajectories})
    term = np.array([names.index(t.termination) for t in trajectories], np.intp)
    start = np.cumsum([0] + [t.length for t in trajectories])  # each one's first row

    def steps(a, b):
        row = np.arange(a, b)
        tid = np.searchsorted(start, row, side="right") - 1
        states = np.concatenate([trajectories[i].states[max(a - start[i], 0) : b - start[i]]
                                 for i in range(tid[0], tid[-1] + 1)])
        return tid, row - start[tid], *states.T, (names, term[tid])

    write_columns(path, ",".join(columns), (int(start[-1]), steps))
