"""Noise distributions with exact CDFs, noise cells, and the optimal
per-component partition cut points for affine and multiplicative structures.

CDF evaluation is analytic (error function for truncated Gaussians, weighted
sums for mixtures) so that cell probabilities carry distribution-dependent
soundness. A uniform grid over the support is the fallback partition for
models without a usable noise structure.
"""

from __future__ import annotations

import itertools
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


@dataclass(frozen=True)
class NoiseCell:
    """A box in noise space together with its exact probability."""

    intervals: tuple[Interval, ...]
    probability: float


def cell_probability(noise: NoiseModel, cell: Sequence[Interval]) -> float:
    """Product over components of CDF(hi) - CDF(lo); intervals may be
    unbounded on either side."""
    if len(cell) != noise.n:
        raise ValueError(f"cell has {len(cell)} components, noise has {noise.n}")
    p = 1.0
    for comp, ival in zip(noise.components, cell):
        p *= comp.interval_probability(ival.lo, ival.hi)
    return min(max(p, 0.0), 1.0)


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
        cells = [
            Interval(-math.inf, self.eps1),
            Interval(self.eps1, self.eps2),
            Interval(self.eps2, math.inf),
        ]
        assert len(cells) <= 3
        return cells

    def lower_cells(self) -> list[Interval]:
        if self.lower_empty:
            cells = [Interval(-math.inf, math.inf)]
        else:
            cells = [
                Interval(-math.inf, self.eps3),
                Interval(self.eps3, self.eps4),
                Interval(self.eps4, math.inf),
            ]
        assert len(cells) <= 3
        return cells


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


def uniform_noise_grid(
    noise: NoiseModel, resolution: Sequence[int]
) -> list[NoiseCell]:
    """Uniform measure-preserving grid over the (bounded) noise support.

    Cells are ordered row-major with the last component varying fastest;
    their probabilities sum to 1 because per-component CDF differences
    telescope across the support.
    """
    if len(resolution) != noise.n:
        raise ValueError(
            f"resolution length {len(resolution)} != noise dimension {noise.n}"
        )
    per_dim: list[list[Interval]] = []
    for d, (comp, r) in enumerate(zip(noise.components, resolution)):
        if int(r) != r or int(r) < 1:
            raise ValueError(f"resolution[{d}] must be a positive integer, got {r}")
        sup = comp.support
        if not sup.is_bounded():
            raise ValueError(
                f"noise component {d} has unbounded support; gridding requires "
                f"a bounded support"
            )
        edges = np.linspace(sup.lo, sup.hi, int(r) + 1).tolist()
        per_dim.append([Interval(a, b) for a, b in zip(edges, edges[1:])])
    return [
        NoiseCell(ivals, cell_probability(noise, ivals))
        for ivals in itertools.product(*per_dim)
    ]
