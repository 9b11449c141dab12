"""Noise distributions with exact CDFs and the optimal per-component
partition cut points for affine and multiplicative structures: each maps
the endpoints of posteriors and targets, scalars or arrays, to the four cut
points (eps1, eps2, eps3, eps4).

CDF evaluation is analytic (error function for truncated Gaussians, weighted
sums for mixtures) so that cell probabilities carry distribution-dependent
soundness. The truncated Gaussian's error function and quantile are numpy
ports of the Cephes routines that scipy runs (``_special``) and return
scipy's bits, so no run imports scipy. Systems without a usable noise
structure partition the noise support into a uniform grid instead
(``imc.cell_posteriors``).
Sampling (``NoiseModel.sample``) is closed form, one uniform per component:
the quantile, or for a mixture the composition method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._special import erf, ndtri

_SQRT2 = math.sqrt(2.0)


def _phi(z):
    # erf has scipy's bits, which set the truncated-Gaussian constants and so
    # the exported bounds
    return 0.5 * (1.0 + erf(z / _SQRT2))


class NoiseComponent:
    """One independent scalar noise coordinate. ``sample`` maps one uniform
    to one sample: by default through the subclass's closed-form quantile
    ``inverse_cdf``."""

    @property
    def support(self) -> tuple[float, float]:
        """The (lo, hi) ends of the closed interval that holds all the mass."""
        raise NotImplementedError

    def cdf(self, t):
        """Exact CDF at t (scalar or ndarray), clamped to [0, 1]."""
        raise NotImplementedError

    def interval_probability(self, lo, hi):
        """Pr(w in [lo, hi]), clamped to [0, 1] and 0 when hi < lo;
        elementwise over arrays."""
        p = np.minimum(np.maximum(self.cdf(hi) - self.cdf(lo), 0.0), 1.0)
        return np.where(np.less(hi, lo), 0.0, p)

    def sample(self, u: np.ndarray) -> np.ndarray:
        """One sample per uniform of ``u``, shape (m,)."""
        return self.inverse_cdf(u)


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
    def support(self) -> tuple[float, float]:
        return self.lo, self.hi

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        if self.hi == self.lo:
            # point mass at lo
            return np.where(t >= self.lo, 1.0, 0.0)
        return np.clip((t - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def inverse_cdf(self, u):
        return self.lo + np.asarray(u, dtype=float) * (self.hi - self.lo)


@dataclass(frozen=True)
class TruncatedGaussian(NoiseComponent):
    """N(mean, stddev^2) conditioned on [lo, hi]. Construction computes
    Phi(lo) and the Gaussian mass of [lo, hi], which must be positive, and
    keeps them outside the fields that equality and hashing see."""

    mean: float
    stddev: float
    lo: float
    hi: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.mean, self.stddev, self.lo, self.hi))):
            raise ValueError("mean, stddev and truncation bounds must be finite")
        if self.stddev <= 0.0:
            raise ValueError("stddev must be positive")
        if self.lo >= self.hi:
            raise ValueError("truncation requires lo < hi")
        phi_lo, phi_hi = _phi((np.array([self.lo, self.hi]) - self.mean) / self.stddev).tolist()
        mass = phi_hi - phi_lo
        if mass <= 0.0:
            raise ValueError("truncation interval has no Gaussian mass")
        object.__setattr__(self, "_phi_lo", phi_lo)
        object.__setattr__(self, "_mass", mass)

    @property
    def support(self) -> tuple[float, float]:
        return self.lo, self.hi

    def cdf(self, t):
        # t clipped to [lo, hi] gives exactly (Phi(lo) - Phi(lo)) / mass = 0.0
        # below the support and mass / mass = 1.0 above it
        z = _phi((np.clip(np.asarray(t, dtype=float), self.lo, self.hi) - self.mean) / self.stddev)
        return np.clip((z - self._phi_lo) / self._mass, 0.0, 1.0)

    def inverse_cdf(self, u):
        """Quantile at u in [0, 1]: the Gaussian quantile of Phi(lo) + u *
        mass, clipped to [lo, hi] against rounding."""
        z = ndtri(self._phi_lo + np.asarray(u, dtype=float) * self._mass)
        return np.clip(self.mean + self.stddev * z, self.lo, self.hi)


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
        if not all(math.isfinite(w) and w > 0.0 for w in weights):
            raise ValueError("mixture weights must be finite and positive")
        if abs(sum(weights) - 1.0) > 1e-12:
            raise ValueError(f"mixture weights sum to {sum(weights)}, expected 1")

    @property
    def support(self) -> tuple[float, float]:
        # hull of the part supports; gaps are handled exactly by the CDF
        lo, hi = zip(*(p.support for p in self.parts))
        return min(lo), max(hi)

    def cdf(self, t):
        return np.clip(sum(w * p.cdf(t) for w, p in zip(self.weights, self.parts)), 0.0, 1.0)

    def sample(self, u: np.ndarray) -> np.ndarray:
        """Composition from one uniform (Devroye 1986, II.4): part i takes
        the u in [c_i, c_i + w_i), c_i the sum of the earlier weights, and
        samples (u - c_i) / w_i; the last part also takes any u above the
        weight sum, which may be 1 - 1e-12. One path for every kind of part."""
        ends = np.cumsum(self.weights)
        part = sum((u >= c for c in ends[:-1].tolist()), np.zeros(len(u), dtype=np.intp))
        v = np.clip((u - np.append(0.0, ends[:-1])[part]) / np.array(self.weights)[part], 0.0, 1.0)
        for i, p in enumerate(self.parts):  # each part overwrites its own elements of v
            mine = np.flatnonzero(part == i)
            v[mine] = p.sample(v[mine])
        return v


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

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """The lower and the upper ends of the component supports, shape (n,) each."""
        lo, hi = np.array([c.support for c in self.components], dtype=float).T.copy()
        return lo, hi

    def sample(self, u: np.ndarray) -> np.ndarray:
        """Noise vectors, shape (m, n), from uniforms of shape (m, n):
        column i drives component i."""
        return np.stack([c.sample(u[:, i]) for i, c in enumerate(self.components)], axis=-1)


def _point_mass(comp: NoiseComponent) -> bool:
    """Whether ``comp`` has a uniform part with lo == hi: an atom that CDF
    differences over (lo, hi], and so the noise partitions, drop."""
    if isinstance(comp, Mixture):
        return any(_point_mass(p) for p in comp.parts)
    return isinstance(comp, Uniform) and comp.lo == comp.hi


# --- optimal structured partitions -------------------------------------------


def optimal_partition_affine(c, d, a, b):
    """Optimal cut points (eps1, eps2, eps3, eps4) for one component of an
    additive-noise system, from the noise-free posterior [c, d] and the
    target [a, b] (scalars, or arrays with one pair per element).

    The upper-bound partition is {(-inf, eps1], [eps1, eps2], [eps2, inf)}
    and the lower-bound one uses eps3/eps4; only the middle cells carry the
    bound. The posterior shifted by w intersects the target exactly for
    w in [a - d, b - c] and is contained in it exactly for w in
    [a - c, b - d]. The case split over relative geometries collapses to
    these two intervals; the containment interval is empty (eps3 > eps4)
    when the posterior is wider than the target.
    """
    return a - d, b - c, a - c, b - d


def optimal_partition_multiplicative(c, d, a, b):
    """Optimal cut points for positive multiplicative noise, in the order of
    ``optimal_partition_affine``.

    Requires strictly positive vertices; the scaled posterior [c w, d w]
    meets the target [a, b] for w in [a/d, b/c] and sits inside it for
    w in [a/c, b/d].
    """
    if min(np.min(a), np.min(b), np.min(c), np.min(d)) <= 0.0:
        raise ValueError(
            f"multiplicative partition requires positive vertices, got "
            f"target [{a}, {b}], posterior [{c}, {d}]"
        )
    return a / d, b / c, a / c, b / d
