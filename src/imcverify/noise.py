"""Noise distributions with exact CDFs, the uniform noise grid, and the
optimal per-component partition cut points for affine and multiplicative
structures.

CDF evaluation is analytic (error function for truncated Gaussians, weighted
sums for mixtures) so that cell probabilities carry distribution-dependent
soundness. A uniform grid over the support (a ``NoiseGrid``) is the fallback
partition for models without a usable noise structure. Sampling maps blocks
of uniforms to noise: ``NoiseModel.sample``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Box, Interval

_SQRT2 = math.sqrt(2.0)


def _phi(z):
    from scipy.special import erf  # here, not at load: it costs every process ~0.2 s

    return 0.5 * (1.0 + erf(z / _SQRT2))


class NoiseComponent:
    """One independent scalar noise coordinate."""

    draws = 1  # uniforms one sample reads

    @property
    def support(self) -> Interval:
        raise NotImplementedError

    def cdf(self, t):
        """Exact CDF at t (scalar or ndarray), clamped to [0, 1]."""
        raise NotImplementedError

    def inverse_cdf(self, u):
        """Quantile at u in [0, 1] via bracketed bisection on the support.

        The bracket shrinks below 1e-12 in a fixed number of halvings that
        depends only on the support width, so scalar and batched calls give
        bit-identical results. On CDF plateaus any point of the plateau is a
        valid generalized inverse.
        """
        u = np.asarray(u, dtype=float)
        scalar = u.ndim == 0
        u = np.atleast_1d(u)
        sup = self.support
        lo = np.full(u.shape, sup.lo)
        hi = np.full(u.shape, sup.hi)
        width = sup.hi - sup.lo
        steps = 0 if width <= 1e-12 else int(math.ceil(math.log2(width / 1e-12)))
        for _ in range(steps):
            mid = 0.5 * (lo + hi)
            below = np.asarray(self.cdf(mid)) < u
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        out = 0.5 * (lo + hi)
        return float(out[0]) if scalar else out

    def interval_probability(self, lo, hi):
        """Pr(w in [lo, hi]), clamped to [0, 1] and 0 when hi < lo; scalar
        or elementwise over arrays."""
        p = np.minimum(np.maximum(self.cdf(hi) - self.cdf(lo), 0.0), 1.0)
        p = np.where(np.less(hi, lo), 0.0, p)
        return float(p) if p.ndim == 0 else p

    def sample(self, u: np.ndarray) -> np.ndarray:
        """One sample per row of the uniforms ``u``, shape (m, draws)."""
        return self.inverse_cdf(u[:, 0])


@dataclass(frozen=True)
class Uniform(NoiseComponent):
    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("uniform bounds must be finite")
        if self.lo > self.hi:
            raise ValueError(f"uniform requires lo <= hi, got ({self.lo}, {self.hi})")

    @property
    def support(self) -> Interval:
        return Interval(self.lo, self.hi)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        if self.hi == self.lo:
            # point mass at lo
            out = np.where(t >= self.lo, 1.0, 0.0)
        else:
            out = np.clip((t - self.lo) / (self.hi - self.lo), 0.0, 1.0)
        return float(out) if out.ndim == 0 else out

    def inverse_cdf(self, u):
        u = np.asarray(u, dtype=float)
        out = self.lo + u * (self.hi - self.lo)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class TruncatedGaussian(NoiseComponent):
    """N(mean, stddev^2) conditioned on [lo, hi]. Phi(lo) and the mass are set
    once, outside the fields that equality and hashing see."""

    mean: float
    stddev: float
    lo: float
    hi: float

    def __post_init__(self):
        if self.stddev <= 0.0:
            raise ValueError("stddev must be positive")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("truncation bounds must be finite")
        if self.lo >= self.hi:
            raise ValueError("truncation requires lo < hi")
        phi_lo = _phi((self.lo - self.mean) / self.stddev)
        mass = float(_phi((self.hi - self.mean) / self.stddev) - phi_lo)
        if mass <= 0.0:
            raise ValueError("truncation interval has no Gaussian mass")
        object.__setattr__(self, "_phi_lo", phi_lo)
        object.__setattr__(self, "_mass", mass)

    @property
    def support(self) -> Interval:
        return Interval(self.lo, self.hi)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        z = _phi((np.clip(t, self.lo, self.hi) - self.mean) / self.stddev)
        out = np.clip((z - self._phi_lo) / self._mass, 0.0, 1.0)
        out = np.where(t < self.lo, 0.0, np.where(t > self.hi, 1.0, out))
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Mixture(NoiseComponent):
    weights: tuple[float, ...]
    parts: tuple[NoiseComponent, ...]
    draws = 2  # the part selector, then the value

    def __post_init__(self):
        weights = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "parts", tuple(self.parts))
        if len(weights) != len(self.parts) or not self.parts:
            raise ValueError("mixture needs matching, non-empty weights and parts")
        if any(w <= 0.0 for w in weights):
            raise ValueError("mixture weights must be positive")
        if abs(sum(weights) - 1.0) > 1e-12:
            raise ValueError(f"mixture weights sum to {sum(weights)}, expected 1")

    @property
    def support(self) -> Interval:
        # hull of the part supports; gaps are handled exactly by the CDF
        return Interval.hull(p.support for p in self.parts)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        out = sum(w * np.asarray(p.cdf(t)) for w, p in zip(self.weights, self.parts))
        out = np.clip(out, 0.0, 1.0)
        return float(out) if np.ndim(out) == 0 else out

    def sample(self, u: np.ndarray) -> np.ndarray:
        """``u[:, 0]`` picks a part by weight (the last part above the weight
        sum, which may be 1 - 1e-12) and ``u[:, 1]`` is inverted in it."""
        part = np.searchsorted(np.cumsum(self.weights), u[:, 0], side="right")
        part = np.minimum(part, len(self.parts) - 1)
        out = np.empty(len(u))
        for i in np.unique(part).tolist():
            mask = part == i
            out[mask] = self.parts[i].inverse_cdf(u[mask, 1])
        return out


@dataclass(frozen=True)
class NoiseModel:
    """Independent per-component noise; component i drives state coordinate i."""

    components: tuple[NoiseComponent, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise ValueError("noise model requires at least one component")

    @property
    def n(self) -> int:
        return len(self.components)

    def support_box(self) -> Box:
        return Box(tuple(c.support for c in self.components))

    @property
    def draws(self) -> int:
        """Uniforms one noise vector reads: each component's, in order."""
        return sum(c.draws for c in self.components)

    def sample(self, u: np.ndarray) -> np.ndarray:
        """Noise vectors, shape (m, n), from uniforms of shape (m, draws):
        each component reads its ``draws`` columns, in component order."""
        cols = np.cumsum([0] + [c.draws for c in self.components]).tolist()
        parts = zip(self.components, cols, cols[1:])
        return np.stack([c.sample(u[:, a:b]) for c, a, b in parts], axis=-1)


def _point_mass(comp: NoiseComponent) -> bool:
    """Whether ``comp`` has a uniform part with lo == hi: an atom that CDF
    differences over (lo, hi], and so the noise partitions, drop."""
    if isinstance(comp, Mixture):
        return any(_point_mass(p) for p in comp.parts)
    return isinstance(comp, Uniform) and comp.lo == comp.hi


@dataclass(frozen=True, eq=False)
class NoiseGrid:
    """Cells of a uniform grid over the noise support: cell k is the box
    [lo[k], hi[k]] (shape (cells, n) each) of probability mass[k] (shape
    (cells,)), listed row-major with the last component fastest."""

    lo: np.ndarray
    hi: np.ndarray
    mass: np.ndarray


# --- optimal structured partitions -------------------------------------------


@dataclass(frozen=True)
class PartitionPair:
    """Cut points for one noise component.

    The upper-bound partition is {(-inf, eps1], [eps1, eps2], [eps2, inf)}
    and the lower-bound one uses eps3/eps4. Only the middle cells carry the
    bound; ``lower_empty`` marks the degenerate case where no noise value
    keeps the whole posterior inside the target. Given endpoint arrays (one
    posterior and one target interval per pair), the cut point functions
    return arrays in every field.
    """

    eps1: float
    eps2: float
    eps3: float
    eps4: float
    lower_empty: bool

    def upper_cells(self) -> list[Interval]:
        return _three_cells(self.eps1, self.eps2)

    def lower_cells(self) -> list[Interval]:
        if self.lower_empty:
            return [Interval(-math.inf, math.inf)]
        return _three_cells(self.eps3, self.eps4)


def _three_cells(a, b) -> list[Interval]:
    return [Interval(-math.inf, a), Interval(a, b), Interval(b, math.inf)]


def optimal_partition_affine(postf: Interval, target: Interval) -> PartitionPair:
    """Optimal cut points for one component of an additive-noise system.

    With target vertices [A, B] and noise-free posterior vertices [C, D],
    the posterior shifted by w intersects the target exactly for
    w in [A - D, B - C] and is contained in it exactly for w in
    [A - C, B - D]. The case split over relative geometries collapses to
    these two intervals, with the containment interval empty when the
    posterior is wider than the target.
    """
    a, b = target.lo, target.hi
    c, d = postf.lo, postf.hi
    eps1, eps2 = a - d, b - c
    eps3, eps4 = a - c, b - d
    return PartitionPair(eps1, eps2, eps3, eps4, lower_empty=eps3 > eps4)


def optimal_partition_multiplicative(
    postf: Interval, target: Interval
) -> PartitionPair:
    """Optimal cut points for positive multiplicative noise.

    Requires strictly positive vertices; the scaled posterior [C w, D w]
    meets target [A, B] for w in [A/D, B/C] and sits inside it for
    w in [A/C, B/D].
    """
    a, b = target.lo, target.hi
    c, d = postf.lo, postf.hi
    if min(np.min(a), np.min(b), np.min(c), np.min(d)) <= 0.0:
        raise ValueError(
            f"multiplicative partition requires positive vertices, got "
            f"target [{a}, {b}], posterior [{c}, {d}]"
        )
    eps1, eps2 = a / d, b / c
    eps3, eps4 = a / c, b / d
    return PartitionPair(eps1, eps2, eps3, eps4, lower_empty=eps3 > eps4)


def uniform_noise_grid(noise: NoiseModel, resolution: Sequence[int]) -> NoiseGrid:
    """Uniform measure-preserving grid over the (bounded) noise support.

    A cell's mass is the product of its components' interval probabilities
    in component order, from 1.0, clamped to [0, 1]; the masses sum to 1
    because per-component CDF differences telescope across the support.
    """
    if len(resolution) != noise.n:
        raise ValueError(f"resolution length {len(resolution)} != noise dimension {noise.n}")
    edges, probs = [], []
    for d, (comp, r) in enumerate(zip(noise.components, resolution)):
        if int(r) != r or int(r) < 1:
            raise ValueError(f"resolution[{d}] must be a positive integer, got {r}")
        sup = comp.support
        if not sup.is_bounded():
            raise ValueError(
                f"noise component {d} has unbounded support; gridding requires "
                f"a bounded support"
            )
        edges.append(np.linspace(sup.lo, sup.hi, int(r) + 1))
        probs.append(comp.interval_probability(edges[-1][:-1], edges[-1][1:]))
    index = np.indices([len(p) for p in probs]).reshape(noise.n, -1)
    mass = np.ones(index.shape[1])
    for p, i in zip(probs, index):
        mass = mass * p[i]
    lo = np.stack([e[i] for e, i in zip(edges, index)], axis=-1)
    hi = np.stack([e[i + 1] for e, i in zip(edges, index)], axis=-1)
    return NoiseGrid(lo, hi, np.clip(mass, 0.0, 1.0))
