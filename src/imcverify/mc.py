"""Monte Carlo validation: sample trajectories of the continuous system and
check empirical satisfaction against the verified intervals.

Sampling is inverse-CDF based (``NoiseModel.sample``), so the draw count
per step is fixed and runs are reproducible from the seed alone.

There is one rollout: ``_rollout`` advances a batch of trajectories in
lockstep, one RNG stream per trajectory (each step, every alive stream fills
its row of one block of uniforms), and returns every termination plus the
full paths of the first ``keep`` trajectories. ``estimate_satisfaction``
seeds trajectory ``i`` from ``(*seed, i)``, so the paths it keeps are the
first trajectories of its own validation batch; ``simulate`` and
``sample_noise`` are one-stream calls into the same kernel and sampler.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class ReachAvoidRegions:
    """Geometric reach-avoid data for simulation: stay inside ``domain``,
    reach any goal box, never touch an avoid box. Leaving the domain counts
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


def _inside(x: np.ndarray, box: Box) -> np.ndarray:
    lo, hi = box.endpoints()
    return np.all((x >= lo) & (x <= hi), axis=1)


def _classify(x: np.ndarray, regions: ReachAvoidRegions) -> np.ndarray:
    """Termination code per row of x (shape (m, n)). A goal hit wins over an
    avoid hit, which wins over leaving the domain."""
    cause = np.where(_inside(x, regions.domain), _RUNNING, _LEFT)
    for box in regions.avoids:
        cause[_inside(x, box)] = _AVOID
    for box in regions.goals:
        cause[_inside(x, box)] = _GOAL
    return cause


def _rollout(
    model: DynamicsModel,
    noise: NoiseModel,
    regions: ReachAvoidRegions,
    x0: Sequence[float],
    rngs: Sequence[np.random.Generator],
    horizon: int,
    keep: int,
) -> tuple[np.ndarray, list[Trajectory]]:
    """Advance one trajectory per stream from x0 for at most ``horizon``
    steps, each stopping at its first goal hit, avoid hit or domain exit.

    Returns the termination code of every trajectory and the full paths of
    the first ``keep`` of them.
    """
    m = len(rngs)
    u = np.empty((m, noise.draws))
    x = np.tile(np.asarray(x0, dtype=float), (m, 1))
    cause = _classify(x, regions)
    length = np.ones(m, dtype=int)
    history = [x[:keep].copy()]
    alive = np.flatnonzero(cause == _RUNNING)
    for _ in range(horizon):
        if len(alive) == 0:
            break
        for row, i in zip(u, alive.tolist()):
            rngs[i].random(out=row)
        x_alive = eval_point(model, x[alive], noise.sample(u[: len(alive)]))
        x[alive] = x_alive
        cause[alive] = _classify(x_alive, regions)
        length[alive] += 1
        if alive[0] < keep:
            history.append(x[:keep].copy())
        alive = alive[cause[alive] == _RUNNING]
    cause[alive] = _HORIZON
    paths = np.stack(history)
    kept = [
        Trajectory(states=paths[: length[i], i], termination=_TERMS[cause[i]])
        for i in range(min(keep, m))
    ]
    return cause, kept


def sample_noise(noise: NoiseModel, rng: np.random.Generator) -> np.ndarray:
    """One noise vector via inverse-CDF sampling."""
    return noise.sample(rng.random((1, noise.draws)))[0]


def simulate(
    model: DynamicsModel,
    noise: NoiseModel,
    x0: Sequence[float],
    k: int,
    regions: ReachAvoidRegions,
    rng: np.random.Generator,
) -> Trajectory:
    """Roll out at most k steps, stopping at the first goal hit, avoid hit,
    or domain exit."""
    _, (trajectory,) = _rollout(model, noise, regions, x0, [rng], k, keep=1)
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
    x0: Sequence[float],
    n_samples: int,
    horizon: int,
    seed,
    confidence: float = 0.99,
    keep: int = 0,
) -> tuple[float, tuple[float, float], list[Trajectory]]:
    """Empirical satisfaction frequency from x0 with a Clopper-Pearson CI,
    and the paths of the first ``keep`` trajectories.

    Trajectory i consumes the RNG stream seeded from (*seed, i), so it is
    the path simulate() gives with that rng. ``seed`` is an int or a tuple
    of ints.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if keep < 0:
        raise ValueError(f"keep must be >= 0, got {keep}")
    base = (seed,) if isinstance(seed, (int, np.integer)) else tuple(seed)
    rngs = [np.random.default_rng([*base, i]) for i in range(n_samples)]
    cause, kept = _rollout(model, noise, regions, x0, rngs, horizon, keep)
    successes = int(np.count_nonzero(cause == _GOAL))
    estimate = successes / n_samples
    return estimate, clopper_pearson(successes, n_samples, confidence), kept


def write_trajectories(trajectories: Sequence[Trajectory], path, dim: int) -> None:
    """One row per step: trajectory id, step, the ``dim`` state components
    (a header of ``x1..x{dim}`` even without trajectories), termination."""
    columns = ["trajectory", "step"] + [f"x{d + 1}" for d in range(dim)] + ["termination"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for tid, traj in enumerate(trajectories):
            for step, state in enumerate(traj.states.tolist()):
                fh.write(f"{tid},{step},{','.join(map(repr, state))},{traj.termination}\n")
