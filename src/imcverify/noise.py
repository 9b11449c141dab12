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

import numpy as np

from ._special import erf, ndtri
from .errors import Frozen

_SQRT2 = math.sqrt(2.0)


def _phi(z):
    # erf has scipy's bits, which set the truncated-Gaussian constants and so
    # the exported bounds
    return 0.5 * (1.0 + erf(z / _SQRT2))


class NoiseComponent(Frozen):
    """One independent scalar noise coordinate, an immutable value. ``sample``
    maps one uniform to one sample: by default through the subclass's
    closed-form quantile ``inverse_cdf``."""

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


class Uniform(NoiseComponent):
    def __init__(self, lo: float, hi: float):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("uniform bounds must be finite")
        if not lo < hi:  # the noise partitions measure (lo, hi], which misses a point mass
            raise ValueError(f"uniform requires lo < hi, got ({lo}, {hi}): no point mass")
        vars(self).update(lo=lo, hi=hi)

    @property
    def support(self) -> tuple[float, float]:
        return self.lo, self.hi

    def cdf(self, t):
        return np.clip((np.asarray(t, dtype=float) - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def inverse_cdf(self, u):
        return self.lo + np.asarray(u, dtype=float) * (self.hi - self.lo)


class TruncatedGaussian(NoiseComponent):
    """N(mean, stddev^2) conditioned on [lo, hi]. Construction computes
    Phi(lo) and the Gaussian mass of [lo, hi], which must be positive, and
    keeps them outside the fields that equality and hashing see."""

    def __init__(self, mean: float, stddev: float, lo: float, hi: float):
        if not all(map(math.isfinite, (mean, stddev, lo, hi))):
            raise ValueError("mean, stddev and truncation bounds must be finite")
        if stddev <= 0.0:
            raise ValueError("stddev must be positive")
        if lo >= hi:
            raise ValueError("truncation requires lo < hi")
        phi_lo, phi_hi = _phi((np.array([lo, hi]) - mean) / stddev).tolist()
        mass = phi_hi - phi_lo
        if mass <= 0.0:
            raise ValueError("truncation interval has no Gaussian mass")
        vars(self).update(mean=mean, stddev=stddev, lo=lo, hi=hi, _phi_lo=phi_lo, _mass=mass)

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
        y = np.asarray(u, dtype=float) * self._mass
        y += self._phi_lo
        z = ndtri(y)
        z *= self.stddev
        z += self.mean
        return np.clip(z, self.lo, self.hi)


class Mixture(NoiseComponent):
    def __init__(self, weights: tuple[float, ...], parts: tuple[NoiseComponent, ...]):
        weights, parts = tuple(float(w) for w in weights), tuple(parts)
        if len(weights) != len(parts) or not parts:
            raise ValueError("mixture needs matching, non-empty weights and parts")
        if not all(math.isfinite(w) and w > 0.0 for w in weights):
            raise ValueError("mixture weights must be finite and positive")
        if abs(sum(weights) - 1.0) > 1e-12:
            raise ValueError(f"mixture weights sum to {sum(weights)}, expected 1")
        # c_i, the sum of the weights before part i
        vars(self).update(weights=weights, parts=parts,
                          _starts=(0.0, *np.cumsum(weights)[:-1].tolist()))

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
        # u >= c_i, nested in i: part i takes at[i] ^ at[i + 1], and part 0 also nan
        at = [np.ones(len(u), bool), *(u >= c for c in self._starts[1:]), np.zeros(len(u), bool)]
        out = np.empty(len(u))
        for i, (p, c, w) in enumerate(zip(self.parts, self._starts, self.weights)):
            mine = np.flatnonzero(at[i] ^ at[i + 1])
            v = u.take(mine)
            v -= c
            v /= w
            out[mine] = p.sample(np.minimum(np.maximum(v, 0.0, out=v), 1.0, out=v))
        return out


class NoiseModel(Frozen):
    """Independent per-component noise; component i drives state coordinate i."""

    def __init__(self, components: tuple[NoiseComponent, ...]):
        components = tuple(components)
        if not components:
            raise ValueError("noise model requires at least one component")
        vars(self).update(components=components)

    @property
    def n(self) -> int:
        return len(self.components)

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """The lower and the upper ends of the component supports, shape (n,) each."""
        lo, hi = np.array([c.support for c in self.components], dtype=float).T.copy()
        return lo, hi

    def sample(self, u: np.ndarray) -> np.ndarray:
        """Noise vectors, shape (m, n), from uniforms of shape (m, n):
        column i drives component i. The result is the transpose of an (n, m)
        array, so each component's samples are contiguous."""
        return np.stack([c.sample(u[:, i]) for i, c in enumerate(self.components)]).T


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
