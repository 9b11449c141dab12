import itertools
import math

import numpy as np
import pytest
from scipy.special import erf

from imcverify.geometry import Interval
from imcverify.noise import (
    Mixture,
    NoiseModel,
    TruncatedGaussian,
    Uniform,
    optimal_partition_affine,
    optimal_partition_multiplicative,
    uniform_noise_grid,
)
from oracles import sweep_best_bounds


def paper_mixture():
    return Mixture((0.5, 0.5), (Uniform(-0.05, -0.01), Uniform(0.0, 0.04)))


class TestCdf:
    def test_uniform_midpoint(self):
        assert Uniform(0, 1).cdf(0.5) == 0.5

    def test_truncated_gaussian_symmetric(self):
        assert TruncatedGaussian(1, 0.1, 0.9, 1.1).cdf(1.0) == pytest.approx(0.5)

    def test_mixture_at_gap(self):
        assert paper_mixture().cdf(0.0) == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "comp",
        [
            Uniform(-0.4, 0.3),
            TruncatedGaussian(0.2, 0.5, -1.0, 1.5),
            Mixture((0.5, 0.5), (Uniform(-0.05, -0.01), Uniform(0.0, 0.04))),
            Mixture(
                (0.3, 0.7),
                (TruncatedGaussian(0, 1, -2, 0), Uniform(0.5, 1.0)),
            ),
        ],
    )
    def test_monotone_and_support_limits(self, comp):
        sup = comp.support
        ts = np.linspace(sup.lo, sup.hi, 500)
        vals = np.asarray(comp.cdf(ts))
        assert np.all(np.diff(vals) >= -1e-15)
        assert abs(float(comp.cdf(sup.lo))) <= 1e-12
        assert abs(float(comp.cdf(sup.hi)) - 1.0) <= 1e-12
        assert float(comp.cdf(float("-inf"))) == 0.0
        assert float(comp.cdf(float("inf"))) == 1.0

    def test_truncated_gaussian_cached_constants_exact(self):
        # the CDF at lo and the mass are computed once at construction; the
        # result must equal the formula that recomputes them on every call
        comp = TruncatedGaussian(1.0, 0.1, 0.9, 1.1)
        ts = np.random.default_rng(4).uniform(0.85, 1.15, 1000)

        def phi(z):
            return 0.5 * (1.0 + erf(z / math.sqrt(2.0)))

        a = phi((comp.lo - comp.mean) / comp.stddev)
        mass = float(phi((comp.hi - comp.mean) / comp.stddev) - a)
        z = phi((np.clip(ts, comp.lo, comp.hi) - comp.mean) / comp.stddev)
        expected = np.clip((z - a) / mass, 0.0, 1.0)
        expected = np.where(ts < comp.lo, 0.0, np.where(ts > comp.hi, 1.0, expected))
        assert np.array_equal(comp.cdf(ts), expected)
        assert comp == TruncatedGaussian(1.0, 0.1, 0.9, 1.1)
        assert hash(comp) == hash(TruncatedGaussian(1.0, 0.1, 0.9, 1.1))

    def test_invariants_rejected(self):
        with pytest.raises(ValueError):
            TruncatedGaussian(0, -1, -1, 1)
        with pytest.raises(ValueError):
            TruncatedGaussian(0, 1, 1, -1)
        with pytest.raises(ValueError):
            Mixture((0.5, 0.6), (Uniform(0, 1), Uniform(1, 2)))


class TestOptimalPartitionAffine:
    def test_wide_posterior_empty_lower(self):
        cuts = optimal_partition_affine(Interval(0, 2), Interval(0, 1))
        assert cuts.lower_empty
        assert (cuts.eps1, cuts.eps2) == (-2.0, 1.0)

    def test_disjoint_geometry(self):
        cuts = optimal_partition_affine(Interval(0, 0.2), Interval(1, 2))
        assert (cuts.eps1, cuts.eps2, cuts.eps3, cuts.eps4) == (0.8, 2.0, 1.0, 1.8)
        assert not cuts.lower_empty

    def test_equal_intervals_point_lower_cell(self):
        cuts = optimal_partition_affine(Interval(0, 1), Interval(0, 1))
        assert (cuts.eps1, cuts.eps2, cuts.eps3, cuts.eps4) == (-1.0, 1.0, 0.0, 0.0)
        assert not cuts.lower_empty


class TestOptimalPartitionMultiplicative:
    def test_point_posterior(self):
        cuts = optimal_partition_multiplicative(Interval(1, 1), Interval(0.9, 1.1))
        assert (cuts.eps1, cuts.eps3) == (0.9, 0.9)
        assert (cuts.eps2, cuts.eps4) == pytest.approx((1.1, 1.1))

    def test_containment_algebra(self):
        cuts = optimal_partition_multiplicative(Interval(0.5, 1), Interval(1, 2))
        assert (cuts.eps1, cuts.eps2, cuts.eps3, cuts.eps4) == (1.0, 4.0, 2.0, 2.0)

    def test_empty_lower(self):
        cuts = optimal_partition_multiplicative(Interval(0.5, 2), Interval(1, 1.5))
        assert cuts.lower_empty
        assert (cuts.eps3, cuts.eps4) == (2.0, 0.75)

    def test_positivity_required(self):
        with pytest.raises(ValueError):
            optimal_partition_multiplicative(Interval(-0.5, 1), Interval(1, 2))


def random_noise_grids(seed):
    """(noise, resolution) pairs of 1-2 random uniform, truncated Gaussian
    and mixture components."""
    rng = np.random.default_rng(seed)
    for _ in range(20):
        comps = []
        for _ in range(int(rng.integers(1, 3))):
            kind = rng.integers(0, 3)
            if kind == 0:
                lo = rng.uniform(-1, 0)
                comps.append(Uniform(lo, lo + rng.uniform(0.1, 1)))
            elif kind == 1:
                comps.append(
                    TruncatedGaussian(
                        rng.uniform(-0.5, 0.5), rng.uniform(0.05, 0.5), -1, 1
                    )
                )
            else:
                comps.append(paper_mixture())
        yield NoiseModel(tuple(comps)), [int(r) for r in rng.integers(1, 6, len(comps))]


def scalar_grid(noise, resolution):
    """Per-cell reference: every cell of the product of per-component
    intervals, its mass a scalar product of interval probabilities."""
    per_dim = []
    for comp, r in zip(noise.components, resolution):
        edges = np.linspace(comp.support.lo, comp.support.hi, r + 1).tolist()
        per_dim.append([Interval(a, b) for a, b in zip(edges, edges[1:])])
    lo, hi, mass = [], [], []
    for cell in itertools.product(*per_dim):
        p = 1.0
        for comp, ival in zip(noise.components, cell):
            p *= comp.interval_probability(ival.lo, ival.hi)
        lo.append([ival.lo for ival in cell])
        hi.append([ival.hi for ival in cell])
        mass.append(min(max(p, 0.0), 1.0))
    return np.array(lo), np.array(hi), np.array(mass)


class TestUniformNoiseGrid:
    def test_uniform_four_cells(self):
        grid = uniform_noise_grid(NoiseModel((Uniform(0, 1),)), [4])
        assert grid.mass.shape == (4,)
        assert grid.mass == pytest.approx([0.25] * 4)

    def test_truncated_gaussian_symmetry(self):
        grid = uniform_noise_grid(
            NoiseModel((TruncatedGaussian(1, 0.1, 0.9, 1.1),)), [2]
        )
        assert grid.lo[:, 0] == pytest.approx([0.9, 1.0])
        assert grid.mass == pytest.approx([0.5, 0.5])

    def test_mixture_hull(self):
        grid = uniform_noise_grid(NoiseModel((paper_mixture(),)), [3])
        assert grid.lo[0, 0] == pytest.approx(-0.05)
        assert grid.hi[-1, 0] == pytest.approx(0.04)
        assert grid.mass.sum() == pytest.approx(1.0, abs=1e-9)

    def test_measure_preservation_random(self):
        for noise, res in random_noise_grids(5):
            grid = uniform_noise_grid(noise, res)
            assert grid.mass.shape == (int(np.prod(res)),)
            assert grid.mass.sum() == pytest.approx(1.0, abs=1e-9)

    def test_matches_scalar_reference(self):
        for noise, res in random_noise_grids(5):
            grid = uniform_noise_grid(noise, res)
            lo, hi, mass = scalar_grid(noise, res)
            assert np.array_equal(grid.lo, lo)
            assert np.array_equal(grid.hi, hi)
            assert np.array_equal(grid.mass, mass)

    def test_multidimensional_product(self):
        noise = NoiseModel((Uniform(0, 1), Uniform(0, 1)))
        grid = uniform_noise_grid(noise, [4, 4])
        assert grid.lo.shape == grid.hi.shape == (16, 2)
        assert grid.mass.sum() == pytest.approx(1.0)

    def test_product_rule(self):
        noise = NoiseModel((Uniform(0, 1), Uniform(0, 1)))
        grid = uniform_noise_grid(noise, [2, 2])
        # row-major, the last component fastest
        assert grid.lo.tolist() == [[0, 0], [0, 0.5], [0.5, 0], [0.5, 0.5]]
        assert grid.mass == pytest.approx([0.25] * 4)

    def test_full_support(self):
        noise = NoiseModel((TruncatedGaussian(1, 0.1, 0.9, 1.1),))
        assert uniform_noise_grid(noise, [1]).mass == pytest.approx([1.0])

    def test_mixture_gap_has_zero_mass(self):
        # cell 4 of 9 over [-0.05, 0.04] is the gap [-0.01, 0.0]
        grid = uniform_noise_grid(NoiseModel((paper_mixture(),)), [9])
        assert (grid.lo[4, 0], grid.hi[4, 0]) == pytest.approx((-0.01, 0.0))
        assert grid.mass[4] == pytest.approx(0.0)


class TestPartitionOptimality:
    """The corollary cut points must beat or match every 3-interval
    partition found by a brute-force sweep (small version of the acceptance
    criterion)."""

    def _distributions(self, rng):
        kind = rng.integers(0, 3)
        if kind == 0:
            lo = rng.uniform(-1.0, 0.0)
            return Uniform(lo, lo + rng.uniform(0.2, 1.0))
        if kind == 1:
            return TruncatedGaussian(
                rng.uniform(-0.3, 0.3), rng.uniform(0.1, 0.4), -1.0, 1.0
            )
        return paper_mixture()

    def test_affine_beats_sweep(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            comp = self._distributions(rng)
            c = rng.uniform(-1.0, 1.0)
            d = c + rng.uniform(0.0, 1.5)
            a = rng.uniform(-1.5, 1.0)
            b = a + rng.uniform(0.05, 1.5)
            cuts = optimal_partition_affine(Interval(c, d), Interval(a, b))
            ours_lower = (
                0.0
                if cuts.lower_empty
                else comp.interval_probability(cuts.eps3, cuts.eps4)
            )
            ours_upper = comp.interval_probability(cuts.eps1, cuts.eps2)
            best_lower, best_upper = sweep_best_bounds(
                "additive", (c, d), (a, b), comp
            )
            assert ours_lower >= best_lower - 1e-9
            assert ours_upper <= best_upper + 1e-9

    def test_multiplicative_beats_sweep(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            lo = rng.uniform(0.5, 1.0)
            comp = Uniform(lo, lo + rng.uniform(0.1, 0.6))
            c = rng.uniform(0.3, 1.5)
            d = c + rng.uniform(0.0, 1.0)
            a = rng.uniform(0.3, 1.5)
            b = a + rng.uniform(0.05, 1.0)
            cuts = optimal_partition_multiplicative(Interval(c, d), Interval(a, b))
            ours_lower = (
                0.0
                if cuts.lower_empty
                else comp.interval_probability(cuts.eps3, cuts.eps4)
            )
            ours_upper = comp.interval_probability(cuts.eps1, cuts.eps2)
            best_lower, best_upper = sweep_best_bounds(
                "multiplicative", (c, d), (a, b), comp
            )
            assert ours_lower >= best_lower - 1e-9
            assert ours_upper <= best_upper + 1e-9


def test_cell_budget_is_three_per_component():
    cuts = optimal_partition_affine(Interval(0, 1), Interval(0.2, 0.9))
    assert len(cuts.upper_cells()) <= 3
    assert len(cuts.lower_cells()) <= 3
    cuts2 = optimal_partition_multiplicative(Interval(0.5, 2), Interval(1, 1.5))
    assert len(cuts2.upper_cells()) <= 3
    assert len(cuts2.lower_cells()) <= 3


def test_inverse_cdf_tolerance():
    comp = TruncatedGaussian(1, 0.1, 0.9, 1.1)
    us = np.linspace(0.001, 0.999, 101)
    ts = comp.inverse_cdf(us)
    back = np.asarray(comp.cdf(ts))
    assert np.max(np.abs(back - us)) < 1e-9
    assert float(comp.inverse_cdf(0.5)) == pytest.approx(1.0, abs=1e-12)
