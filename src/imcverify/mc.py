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
the live trajectories cost: their states sit in a compact array that drops
a trajectory when it ends, only an ending trajectory writes its
termination and length, and only the exported ones write their states
back. ``_inside`` tests a label box one coordinate at a time.
``estimate_satisfaction`` validates many cells at once in groups of at most
``GROUP_TRAJECTORIES``, logging each group's trajectory-steps at DEBUG;
``simulate`` is a one-trajectory call.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import DynamicsModel, eval_point
from .geometry import Box
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
class ReachAvoidRegions:
    """Geometric reach-avoid data for simulation: stay inside ``domain``,
    reach any goal box, never enter an avoid box. Goal and avoid boxes are
    half-open like grid cells (see ``_inside``). Leaving the domain counts
    as a violation, matching the absorbing unsafe state."""

    domain: Box
    goals: tuple[Box, ...]
    avoids: tuple[Box, ...] = ()


@dataclass(frozen=True)
class Trajectory:
    states: np.ndarray  # shape (length, n)
    termination: str

    @property
    def length(self) -> int:
        return int(self.states.shape[0])


def _inside(x: np.ndarray, box: Box, top: np.ndarray) -> np.ndarray:
    """The rows of x in the box as a grid cell owns points: with its lower
    faces, and with its upper faces only where they lie on ``top``, the
    domain's upper corner (so the domain itself is closed)."""
    lo, hi = box.endpoints()
    inside = np.ones(len(x), dtype=bool)
    for d, c in enumerate(x.T):
        inside &= (lo[d] <= c) & ((c <= hi[d]) if hi[d] == top[d] else (c < hi[d]))
    return inside


def _classify(x: np.ndarray, regions: ReachAvoidRegions) -> np.ndarray:
    """Termination code per row of x (shape (m, n)). A goal hit wins over an
    avoid hit, which wins over leaving the domain."""
    top = regions.domain.endpoints()[1]
    cause = np.where(_inside(x, regions.domain, top), _RUNNING, _LEFT)
    for box in regions.avoids:
        cause[_inside(x, box, top)] = _AVOID
    for box in regions.goals:
        cause[_inside(x, box, top)] = _GOAL
    return cause


def _rollout(
    model: DynamicsModel,
    noise: NoiseModel,
    regions: ReachAvoidRegions,
    starts: Sequence[Sequence[float]],
    rngs: Sequence[np.random.Generator],
    n: int,
    horizon: int,
    keep: int,
) -> tuple[np.ndarray, list[list[Trajectory]], int]:
    """Advance n trajectories from each start (row of ``starts``, one
    generator each) for at most ``horizon`` steps, each stopping at its
    first goal hit, avoid hit or domain exit.

    Returns the termination codes, shape (cells, n), per cell the full
    paths of its first ``keep`` trajectories, and the number of
    trajectory-steps advanced.
    """
    cells, k = len(rngs), min(keep, n)
    x = np.repeat(np.asarray(starts, dtype=float), n, axis=0)
    cause = _classify(x, regions)
    length = np.where(cause == _RUNNING, horizon + 1, 1)
    tracked = (n * np.arange(cells)[:, None] + np.arange(k)).ravel()
    history = [x[tracked]]
    tracking = bool(np.any(cause[tracked] == _RUNNING))
    u = np.empty((len(x), noise.n))
    alive = np.flatnonzero(cause == _RUNNING)
    x_alive = x[alive]
    for step in range(horizon):
        if len(alive) == 0:
            break
        for c in np.flatnonzero(np.bincount(alive // n, minlength=cells)).tolist():
            u[c * n : (c + 1) * n] = rngs[c].random((n, noise.n))
        x_alive = eval_point(model, x_alive, noise.sample(u[alive]))
        found = _classify(x_alive, regions)
        ended = np.flatnonzero(found)
        done = alive[ended]
        cause[done], length[done] = found[ended], step + 2
        if tracking:
            shown = alive % n < k
            x[alive[shown]] = x_alive[shown]
            history.append(x[tracked])
            tracking = bool(np.any(cause[tracked] == _RUNNING))
        if len(ended):
            running = found == _RUNNING
            alive, x_alive = alive[running], x_alive[running]
    cause[alive] = _HORIZON
    paths = np.stack(history)
    kept = [
        Trajectory(states=paths[: length[i], j], termination=_TERMS[cause[i]])
        for j, i in enumerate(tracked.tolist())
    ]
    kept_per_cell = [kept[c * k : (c + 1) * k] for c in range(cells)]
    return cause.reshape(cells, n), kept_per_cell, int(length.sum()) - len(length)


def simulate(
    model: DynamicsModel,
    noise: NoiseModel,
    x0: Sequence[float],
    k: int,
    regions: ReachAvoidRegions,
    rng: np.random.Generator,
) -> Trajectory:
    """Roll out at most k steps, stopping at the first goal hit, avoid hit,
    or domain exit. Step t reads ``rng.random((1, noise.n))``, one uniform
    per noise component."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    _, [[trajectory]], _ = _rollout(model, noise, regions, [x0], [rng], 1, k, keep=1)
    return trajectory


def clopper_pearson(
    successes: int, trials: int, confidence: float
) -> tuple[float, float]:
    """Two-sided exact binomial confidence interval from Beta quantiles
    (``betaincinv`` gives ``scipy.stats.beta.ppf``'s values without importing
    ``scipy.stats``; like ``erf``, it is imported where it is used)."""
    from scipy.special import betaincinv

    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    alpha = 1.0 - confidence
    if successes == 0:
        lo = 0.0
    else:
        lo = float(betaincinv(successes, trials - successes + 1, alpha / 2.0))
    if successes == trials:
        hi = 1.0
    else:
        hi = float(betaincinv(successes + 1, trials - successes, 1.0 - alpha / 2.0))
    return lo, hi


def estimate_satisfaction(
    model: DynamicsModel,
    noise: NoiseModel,
    regions: ReachAvoidRegions,
    starts: Sequence[Sequence[float]],
    n_samples: int,
    horizon: int,
    seeds: Sequence,
    confidence: float = 0.99,
    keep: int = 0,
) -> list[tuple[float, tuple[float, float], list[Trajectory]]]:
    """Per start, the satisfaction frequency of ``n_samples`` trajectories,
    its Clopper-Pearson CI and the paths of the first ``keep`` of them.

    Start j draws from ``np.random.default_rng(seeds[j])`` (an int or a
    tuple of ints): its trajectory i is the path simulate() gives when fed
    column i of ``default_rng(seeds[j]).random((horizon, n_samples,
    noise.n))``: one uniform per noise component and step. A start that is
    already terminal draws nothing.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    if keep < 0:
        raise ValueError(f"keep must be >= 0, got {keep}")
    if len(starts) != len(seeds):
        raise ValueError(f"got {len(starts)} starts but {len(seeds)} seeds")
    per_group = max(1, GROUP_TRAJECTORIES // n_samples)
    out = []
    for a in range(0, len(seeds), per_group):
        rngs = [np.random.default_rng(s) for s in seeds[a : a + per_group]]
        t0 = time.perf_counter()
        cause, kept, steps = _rollout(
            model, noise, regions, starts[a : a + per_group], rngs, n_samples, horizon, keep
        )
        log.debug("monte carlo: %d trajectories, %d trajectory-steps in %.3f s",
                  cause.size, steps, time.perf_counter() - t0)
        for successes, paths in zip(np.count_nonzero(cause == _GOAL, axis=1).tolist(), kept):
            ci = clopper_pearson(successes, n_samples, confidence)
            out.append((successes / n_samples, ci, paths))
    return out


def write_trajectories(trajectories: Sequence[Trajectory], path, dim: int) -> None:
    """One row per step: trajectory id, step, the ``dim`` state components
    (a header of ``x1..x{dim}`` even without trajectories), termination."""
    columns = ["trajectory", "step"] + [f"x{d + 1}" for d in range(dim)] + ["termination"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for tid, traj in enumerate(trajectories):
            for step, state in enumerate(traj.states.tolist()):
                fh.write(f"{tid},{step},{','.join(map(repr, state))},{traj.termination}\n")
