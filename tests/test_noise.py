import itertools
import math

import numpy as np
import pytest
import scipy.special
from scipy.special import erf

from imcverify import _special, noise
from imcverify.dynamics import parse_dynamics
from imcverify.geometry import partition_domain
from imcverify.imc import CellPosteriors, cell_posteriors, pair_bounds
from imcverify.noise import (
    Mixture,
    NoiseModel,
    TruncatedGaussian,
    Uniform,
    optimal_partition_affine,
    optimal_partition_multiplicative,
)
from oracles import noise_grid_cells, sweep_best_bounds


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
        sup_lo, sup_hi = comp.support
        ts = np.linspace(sup_lo, sup_hi, 500)
        vals = np.asarray(comp.cdf(ts))
        assert np.all(np.diff(vals) >= -1e-15)
        assert abs(float(comp.cdf(sup_lo))) <= 1e-12
        assert abs(float(comp.cdf(sup_hi)) - 1.0) <= 1e-12
        assert float(comp.cdf(float("-inf"))) == 0.0
        assert float(comp.cdf(float("inf"))) == 1.0

    def test_truncated_gaussian_cached_constants_exact(self):
        # the CDF at lo and the mass are computed once, at construction; the
        # result must equal the formula, in scipy's erf, that recomputes them
        # on every call
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

    def test_truncated_gaussian_accepted_exactly_with_scipy_mass(self):
        # construction must accept exactly the truncations whose mass by
        # scipy's erf is positive, also with both bounds in a tail beyond
        # 8 sigma
        zs = np.unique(np.concatenate([
            np.linspace(-40.0, 40.0, 161), np.linspace(-9.0, -7.0, 41), np.linspace(7.0, 9.0, 41)
        ]))

        def phi(z):
            return 0.5 * (1.0 + erf(z / math.sqrt(2.0)))

        outcomes = set()
        for mean, std in ((0.0, 1.0), (1.0, 0.1), (-3.0, 2.5)):
            for lo, hi in itertools.combinations((mean + std * zs).tolist(), 2):
                if not lo < hi:
                    continue
                positive = float(phi((hi - mean) / std) - phi((lo - mean) / std)) > 0.0
                try:
                    TruncatedGaussian(mean, std, lo, hi)
                except ValueError as exc:
                    assert "no Gaussian mass" in str(exc)
                    assert not positive, (mean, std, lo, hi)
                else:
                    assert positive, (mean, std, lo, hi)
                outcomes.add(positive)
        assert outcomes == {True, False}

    def test_truncated_gaussian_mass_checked_at_construction(self, monkeypatch):
        # Phi(lo) and the mass come from _phi, the function the CDF uses, when
        # the component is built: a mass that is not positive by _phi is
        # rejected there, and a built component keeps its constants
        comp = TruncatedGaussian(0.0, 1.0, -1.0, 1.0)
        monkeypatch.setattr(noise, "_phi", lambda z: np.full(np.shape(z), 0.5))
        with pytest.raises(ValueError, match="no Gaussian mass"):
            TruncatedGaussian(0.0, 1.0, -1.0, 1.0)
        assert comp.inverse_cdf(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_invariants_rejected(self):
        with pytest.raises(ValueError):
            TruncatedGaussian(0, -1, -1, 1)
        with pytest.raises(ValueError):
            TruncatedGaussian(0, 1, 1, -1)
        with pytest.raises(ValueError):
            Mixture((0.5, 0.6), (Uniform(0, 1), Uniform(1, 2)))


@pytest.mark.parametrize("make", [
    lambda: Uniform(-0.05, 0.05),
    paper_mixture,
    lambda: NoiseModel((TruncatedGaussian(1.0, 0.1, 0.9, 1.1), paper_mixture())),
], ids=["uniform", "mixture", "noise-model"])
def test_equal_noise_is_equal_and_hashes_alike(make):
    # as TruncatedGaussian in TestCdf: value equality and hashing
    assert make() == make() and make() is not make()
    assert hash(make()) == hash(make())


def test_noise_equality_reads_type_and_fields():
    assert Uniform(0.0, 1.0) != Uniform(0.0, 2.0)
    assert Uniform(0.0, 1.0) != (0.0, 1.0)
    assert Mixture((1.0,), (Uniform(0.0, 1.0),)) != Mixture((1.0,), (Uniform(0.0, 2.0),))
    assert NoiseModel((Uniform(0.0, 1.0),)) != NoiseModel((Uniform(0.0, 1.0),) * 2)


class TestOptimalPartitionAffine:
    # arguments: posterior [c, d], then target [a, b]
    def test_wide_posterior_empty_lower(self):
        eps1, eps2, eps3, eps4 = optimal_partition_affine(0, 2, 0, 1)
        assert eps3 > eps4
        assert (eps1, eps2) == (-2.0, 1.0)

    def test_disjoint_geometry(self):
        cuts = optimal_partition_affine(0, 0.2, 1, 2)
        assert cuts == (0.8, 2.0, 1.0, 1.8)
        assert not cuts[2] > cuts[3]

    def test_equal_intervals_point_lower_cell(self):
        cuts = optimal_partition_affine(0, 1, 0, 1)
        assert cuts == (-1.0, 1.0, 0.0, 0.0)
        assert not cuts[2] > cuts[3]


class TestOptimalPartitionMultiplicative:
    def test_point_posterior(self):
        eps1, eps2, eps3, eps4 = optimal_partition_multiplicative(1, 1, 0.9, 1.1)
        assert (eps1, eps3) == (0.9, 0.9)
        assert (eps2, eps4) == pytest.approx((1.1, 1.1))

    def test_containment_algebra(self):
        assert optimal_partition_multiplicative(0.5, 1, 1, 2) == (1.0, 4.0, 2.0, 2.0)

    def test_empty_lower(self):
        _, _, eps3, eps4 = optimal_partition_multiplicative(0.5, 2, 1, 1.5)
        assert eps3 > eps4
        assert (eps3, eps4) == (2.0, 0.75)

    def test_positivity_required(self):
        with pytest.raises(ValueError):
            optimal_partition_multiplicative(-0.5, 1, 1, 2)


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


def grid_posteriors(noise, resolution, separable=True):
    """``cell_posteriors`` of the general system x' = w over one state cell,
    whose images are the noise cells themselves: component d reads w_d
    alone, or if not ``separable`` component 1 reads every w_d (as 0*w_d),
    which takes the tensor noise cells."""
    exprs = [f"w{d}" for d in range(1, noise.n + 1)]
    if not separable:
        exprs[0] += "".join(f" + 0*w{d}" for d in range(2, noise.n + 1))
    model = parse_dynamics(exprs, noise.n, "general")
    assert model.noise_separable == separable
    part = partition_domain(np.zeros(noise.n), np.ones(noise.n), (1,) * noise.n)
    return cell_posteriors(part, model, noise, noise_grid=resolution)


class TestNoiseGridWeights:
    """The noise cells and masses that ``cell_posteriors`` images every
    cell under: per component for a separable system, the tensor cells for
    any other general one."""

    def test_uniform_four_cells(self):
        posts = grid_posteriors(NoiseModel((Uniform(0, 1),)), [4])
        assert posts.weights.shape == (4, 1)
        assert posts.weights[:, 0] == pytest.approx([0.25] * 4)

    def test_truncated_gaussian_symmetry(self):
        posts = grid_posteriors(NoiseModel((TruncatedGaussian(1, 0.1, 0.9, 1.1),)), [2])
        assert posts.lo[0, :, 0] == pytest.approx([0.9, 1.0])
        assert posts.weights[:, 0] == pytest.approx([0.5, 0.5])

    def test_mixture_hull(self):
        posts = grid_posteriors(NoiseModel((paper_mixture(),)), [3])
        assert posts.lo[0, 0, 0] == pytest.approx(-0.05)
        assert posts.hi[0, -1, 0] == pytest.approx(0.04)
        assert posts.weights.sum() == pytest.approx(1.0, abs=1e-9)

    def test_measure_preservation_random(self):
        for noise, res in random_noise_grids(5):
            separable = grid_posteriors(noise, res)
            assert separable.weights.sum(axis=0) == pytest.approx([1.0] * noise.n, abs=1e-9)
            if noise.n > 1:
                tensor = grid_posteriors(noise, res, separable=False)
                assert tensor.weights.shape == (int(np.prod(res)),)
                assert tensor.weights.sum() == pytest.approx(1.0, abs=1e-9)

    def test_tensor_matches_scalar_reference(self):
        """The tensor cells and their masses, the products of the
        components' probabilities in component order, clamped."""
        for noise, res in random_noise_grids(5):
            if noise.n > 1:
                posts = grid_posteriors(noise, res, separable=False)
                _, (lo, hi, mass) = noise_grid_cells(noise, res)
                assert np.array_equal(posts.lo[0], lo)
                assert np.array_equal(posts.hi[0], hi)
                assert np.array_equal(posts.weights, mass)

    def test_separable_columns_match_scalar_reference(self):
        """Column d holds component d's own cells and probabilities, then
        its last cell again with mass 0."""
        for noise, res in random_noise_grids(5):
            posts = grid_posteriors(noise, res)
            own, _ = noise_grid_cells(noise, res)
            assert posts.weights.shape == (max(res), noise.n)
            for d, (cells, r) in enumerate(zip(own, res)):
                lo, hi, mass = (np.array(x) for x in zip(*cells))
                assert np.array_equal(posts.lo[0, :r, d], lo)
                assert np.array_equal(posts.hi[0, :r, d], hi)
                assert np.array_equal(posts.weights[:r, d], mass)
                assert np.all(posts.lo[0, r:, d] == lo[-1])
                assert np.all(posts.hi[0, r:, d] == hi[-1])
                assert np.all(posts.weights[r:, d] == 0.0)

    def test_component_cells_form_the_tensor(self):
        """The tensor's cells are the products of the separable columns'
        cells, its masses their products in component order from 1.0,
        clamped."""
        for noise, res in random_noise_grids(5):
            if noise.n == 1:
                continue
            separable = grid_posteriors(noise, res)
            tensor = grid_posteriors(noise, res, separable=False)
            index = np.indices(res).reshape(len(res), -1)
            mass = np.ones(index.shape[1])
            for d, i in enumerate(index):
                assert np.array_equal(separable.lo[0, i, d], tensor.lo[0, :, d])
                assert np.array_equal(separable.hi[0, i, d], tensor.hi[0, :, d])
                mass = mass * separable.weights[i, d]
            assert np.array_equal(np.clip(mass, 0.0, 1.0), tensor.weights)

    def test_multidimensional_product(self):
        noise = NoiseModel((Uniform(0, 1), Uniform(0, 1)))
        posts = grid_posteriors(noise, [4, 4], separable=False)
        assert posts.lo.shape == posts.hi.shape == (1, 16, 2)
        assert posts.weights.sum() == pytest.approx(1.0)

    def test_product_rule(self):
        noise = NoiseModel((Uniform(0, 1), Uniform(0, 1)))
        posts = grid_posteriors(noise, [2, 2], separable=False)
        # row-major, the last component fastest
        assert posts.lo[0].tolist() == [[0, 0], [0, 0.5], [0.5, 0], [0.5, 0.5]]
        assert posts.weights == pytest.approx([0.25] * 4)

    def test_full_support(self):
        noise = NoiseModel((TruncatedGaussian(1, 0.1, 0.9, 1.1),))
        assert grid_posteriors(noise, [1]).weights[:, 0] == pytest.approx([1.0])

    def test_mixture_gap_has_zero_mass(self):
        # cell 4 of 9 over [-0.05, 0.04] is the gap [-0.01, 0.0]
        posts = grid_posteriors(NoiseModel((paper_mixture(),)), [9])
        assert (posts.lo[0, 4, 0], posts.hi[0, 4, 0]) == pytest.approx((-0.01, 0.0))
        assert posts.weights[4, 0] == pytest.approx(0.0)


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
            eps1, eps2, eps3, eps4 = optimal_partition_affine(c, d, a, b)
            ours_lower = 0.0 if eps3 > eps4 else comp.interval_probability(eps3, eps4)
            ours_upper = comp.interval_probability(eps1, eps2)
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
            eps1, eps2, eps3, eps4 = optimal_partition_multiplicative(c, d, a, b)
            ours_lower = 0.0 if eps3 > eps4 else comp.interval_probability(eps3, eps4)
            ours_upper = comp.interval_probability(eps1, eps2)
            best_lower, best_upper = sweep_best_bounds(
                "multiplicative", (c, d), (a, b), comp
            )
            assert ours_lower >= best_lower - 1e-9
            assert ours_upper <= best_upper + 1e-9


def test_cell_budget_is_three_per_component(monkeypatch):
    """``pair_bounds`` evaluates at most three cells of each component's
    partitions: one ``interval_probability`` call per bound."""
    calls = []
    original = Uniform.interval_probability

    def counting(self, lo, hi):
        calls.append(1)
        return original(self, lo, hi)

    monkeypatch.setattr(Uniform, "interval_probability", counting)
    noise = NoiseModel((Uniform(0.5, 2.5), Uniform(0.5, 2.5)))
    for structure, (c, d), (a, b) in [
        ("additive", (0, 1), (0.2, 0.9)),
        ("multiplicative", (0.5, 2), (1, 1.5)),
    ]:
        posts = CellPosteriors(np.full((1, 2), c), np.full((1, 2), d), structure, noise)
        calls.clear()
        pair_bounds(posts, [0], np.full((1, 2), a), np.full((1, 2), b))
        assert len(calls) / noise.n <= 3


def test_inverse_cdf_tolerance():
    comp = TruncatedGaussian(1, 0.1, 0.9, 1.1)
    us = np.linspace(0.001, 0.999, 101)
    ts = comp.inverse_cdf(us)
    back = np.asarray(comp.cdf(ts))
    assert np.max(np.abs(back - us)) < 1e-9
    assert float(comp.inverse_cdf(0.5)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "mean, std, lo, hi",
    [(1.0, 0.1, 0.9, 1.1), (0.0, 0.05, -0.1, 0.1), (0.0, 0.1, 0.3, 0.5), (0.0, 0.1, -0.5, -0.3)],
)
def test_truncated_gaussian_quantile_matches_scipy(mean, std, lo, hi):
    from scipy.stats import truncnorm

    comp = TruncatedGaussian(mean, std, lo, hi)
    us = np.append(np.linspace(0.0, 1.0, 10001), np.nextafter(1.0, 0.0))
    ours = comp.inverse_cdf(us)
    ref = truncnorm.ppf(us, (lo - mean) / std, (hi - mean) / std, loc=mean, scale=std)
    assert np.max(np.abs(ours - ref)) <= 1e-11
    assert np.all((ours >= lo) & (ours <= hi))


def test_nested_mixture_samples_follow_its_cdf():
    from scipy.stats import kstest

    inner = Mixture((0.5, 0.5), (Uniform(-1.0, -0.5), TruncatedGaussian(0.0, 0.3, -0.4, 0.4)))
    comp = Mixture((0.4, 0.6), (inner, Uniform(0.5, 1.5)))
    samples = comp.sample(np.random.default_rng(8).random(20000))
    assert kstest(samples, comp.cdf).pvalue > 0.01


def masked_composition(mixture, u):
    """The per-part masked composition ``Mixture.sample`` replaced, kept as
    the reference for its bits: one boolean mask, gather, clip and scatter
    per present part, recursing into nested mixtures."""
    ends = np.cumsum(mixture.weights)
    part = np.minimum(np.searchsorted(ends, u, side="right"), len(mixture.parts) - 1)
    out = np.empty(len(u))
    for i in np.flatnonzero(np.bincount(part, minlength=len(mixture.parts))).tolist():
        mask = part == i
        c = ends[i - 1] if i else 0.0
        p, v = mixture.parts[i], np.clip((u[mask] - c) / mixture.weights[i], 0.0, 1.0)
        out[mask] = masked_composition(p, v) if isinstance(p, Mixture) else p.sample(v)
    return out


@pytest.mark.parametrize(
    "mixture",
    [
        Mixture((0.3, 0.3, 0.4 - 4e-13), (Uniform(-1.0, 0.0), TruncatedGaussian(0.0, 0.1, -0.2, 0.3),
                                          Uniform(2.0, 2.0))),
        Mixture((0.25, 0.75), (Mixture((0.5, 0.5), (Uniform(-0.15, -0.05), Uniform(0.05, 0.15))),
                               TruncatedGaussian(0.0, 0.05, -0.1, 0.1))),
        Mixture((1.0,), (TruncatedGaussian(1.0, 0.1, 0.9, 1.1),)),
    ],
    ids=["weights-sum-below-1", "nested", "one-part"],
)
def test_mixture_sample_has_the_bits_of_the_masked_composition(mixture):
    """At u = 0, at every cumulative weight c_i and its float neighbours,
    above the weight sum and on seeded uniforms."""
    ends = np.cumsum(mixture.weights)
    edges = np.append(0.0, ends)
    u = np.concatenate([
        [0.0, np.nextafter(1.0, 0.0), 1.0 - 1e-13],
        np.nextafter(edges, -np.inf).clip(0.0), edges, np.nextafter(edges, np.inf),
        np.random.default_rng(30).random(20_000),
    ])
    u = u[u < 1.0]  # the range of Generator.random
    ours, ref = mixture.sample(u), masked_composition(mixture, u)
    assert ours.view(np.int64).tolist() == ref.view(np.int64).tolist()
    assert mixture.sample(np.empty(0)).shape == (0,)


def _neighbours(points):
    points = np.asarray(points, dtype=float)
    return np.concatenate([points, np.nextafter(points, np.inf), np.nextafter(points, -np.inf)])


class TestSpecialBits:
    """The Cephes ports return scipy's bits in scipy's shape."""

    @staticmethod
    def assert_same_bits(name, x):
        ours = getattr(_special, name)(x)  # a RuntimeWarning fails the test (pyproject.toml)
        ref = getattr(scipy.special, name)(x)
        assert type(ours) is type(ref) and np.shape(ours) == np.shape(ref)
        ours, ref = np.asarray(ours).view(np.int64), np.asarray(ref).view(np.int64)
        bad = np.flatnonzero(ours.ravel() != ref.ravel())
        assert bad.size == 0, np.asarray(x).ravel()[bad[:10]]

    def test_erf_dense(self):
        # 1 < |x| < 2.3 is where numpy's exp, not libm's, would miss a bit
        rng = np.random.default_rng(21)
        self.assert_same_bits("erf", np.concatenate([
            rng.uniform(-40.0, 40.0, 200_000), rng.uniform(-3.0, 3.0, 200_000)
        ]))

    def test_erf_branch_points(self):
        maxlog_edge = math.sqrt(7.09782712893383996843e2)  # exp(-x^2) underflows past it
        edges = [0.0, 1.0, 8.0, maxlog_edge, 5e-324, 2.2250738585072014e-308, 1e300, np.inf]
        x = _neighbours(edges + [-e for e in edges])
        self.assert_same_bits("erf", np.concatenate([x, [np.nan, -np.nan]]))

    def test_ndtri_dense(self):
        rng = np.random.default_rng(22)
        self.assert_same_bits("ndtri", np.concatenate([
            rng.uniform(0.0, 1.0, 200_000),
            10.0 ** rng.uniform(-300.0, 0.0, 100_000),
            1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 100_000),
        ]))

    def test_ndtri_branch_points(self):
        inside = [0.0, 1.0, math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0), 5e-324,
                  np.nextafter(1.0, 0.0), 0.5]
        outside = [-0.0, -1e-300, 2.0, -np.inf, np.inf, np.nan, -np.nan]
        self.assert_same_bits("ndtri", np.concatenate([_neighbours(inside), outside]))

    def test_ndtri_specials_in_2d(self):
        # 0, 1, NaN, -0.0 and values outside [0, 1] amid central and tail
        # elements, in two dimensions
        self.assert_same_bits("ndtri", np.array([
            [0.0, 0.3, 1.0, np.nan, 1e-20, -0.0],
            [2.0, 1.0 - 1e-10, -1e-300, np.inf, 0.5, -np.nan],
            [np.nextafter(1.0, 2.0), 0.9, -np.inf, 1e-3, 1.0, 0.0],
        ]))

    @pytest.mark.parametrize("name", ["erf", "ndtri"])
    @pytest.mark.parametrize(
        "x",
        [0.3, np.float64(0.95), np.array(0.05), np.array([]), np.full((2, 3), 0.7),
         np.asfortranarray(np.linspace(0.01, 0.99, 12).reshape(3, 4))],
        ids=["scalar", "np-scalar", "0-d", "empty", "2-d", "fortran"],
    )
    def test_shapes(self, name, x):
        self.assert_same_bits(name, x)
