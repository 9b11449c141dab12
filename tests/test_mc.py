import os
import subprocess
import sys

import numpy as np
import pytest

from imcverify.dynamics import parse_dynamics
from imcverify.geometry import Box
from imcverify.mc import (
    ReachAvoidRegions,
    clopper_pearson,
    estimate_satisfaction,
    sample_noise,
    simulate,
)
from imcverify.noise import Mixture, NoiseModel, TruncatedGaussian, Uniform


def paper_mixture():
    return Mixture((0.5, 0.5), (Uniform(-0.05, -0.01), Uniform(0.0, 0.04)))


class TestSampleNoise:
    def test_uniform_inverse_is_identity(self):
        noise = NoiseModel((Uniform(0, 1),))
        assert noise.sample(np.array([[0.3]])).tolist() == [[0.3]]

    def test_mixture_selector_above_rounded_weight_sum(self):
        # the weights sum to 1 - 4e-13, inside the validation tolerance; a
        # selector draw above that sum picks the last part
        comp = Mixture((0.5, 0.5 - 4e-13), (Uniform(0, 1), Uniform(2, 3)))
        out = NoiseModel((comp,)).sample(np.array([[1 - 1e-13, 0.5]]))
        assert out.tolist() == [[2.5]]

    def test_draws_in_component_order(self):
        # per stream: a mixture's selector, then its value, then the next component
        comps = (Uniform(0, 1), paper_mixture(), TruncatedGaussian(0, 1, -1, 1))
        noise = NoiseModel(comps)
        assert noise.draws == 4
        u = np.random.default_rng(3).random((1, 4))
        expected = [
            comps[0].inverse_cdf(u[0, 0]),
            comps[1].parts[int(u[0, 1] >= 0.5)].inverse_cdf(u[0, 2]),
            comps[2].inverse_cdf(u[0, 3]),
        ]
        assert noise.sample(u).tolist() == [expected]
        assert sample_noise(noise, np.random.default_rng(3)).tolist() == expected

    def test_truncated_gaussian_statistics(self):
        comp = TruncatedGaussian(1, 0.1, 0.9, 1.1)
        rng = np.random.default_rng(1234)
        # vectorized draws share the scalar code path bit for bit
        samples = np.asarray(comp.inverse_cdf(rng.random(10**5)))
        assert np.all(samples >= 0.9) and np.all(samples <= 1.1)
        # symmetric truncation about the mean: mean 1 within 3 sigma / sqrt(N)
        assert abs(float(samples.mean()) - 1.0) < 0.002

    def test_scalar_and_batch_inversion_agree(self):
        comp = TruncatedGaussian(0.5, 0.2, 0.0, 1.2)
        us = np.linspace(0.01, 0.99, 23)
        batch = np.asarray(comp.inverse_cdf(us))
        singles = np.array([comp.inverse_cdf(float(u)) for u in us])
        assert np.array_equal(batch, singles)

    def test_mixture_respects_weights_and_gap(self):
        noise = NoiseModel((paper_mixture(),))
        rng = np.random.default_rng(99)
        samples = np.array([sample_noise(noise, rng)[0] for _ in range(4000)])
        in_first = np.mean((samples >= -0.05) & (samples <= -0.01))
        in_second = np.mean((samples >= 0.0) & (samples <= 0.04))
        assert in_first == pytest.approx(0.5, abs=0.03)
        assert in_second == pytest.approx(0.5, abs=0.03)
        assert not np.any((samples > -0.01) & (samples < 0.0))


class TestSimulate:
    def test_point_mass_noise_deterministic_orbit(self):
        model = parse_dynamics(["0.5*x1 + w1"], 1, "additive")
        noise = NoiseModel((Uniform(0.25, 0.25),))
        regions = ReachAvoidRegions(
            domain=Box.from_bounds([[0, 1]]), goals=(Box.from_bounds([[0.49, 0.51]]),)
        )
        rng = np.random.default_rng(0)
        traj = simulate(model, noise, [1.0], 20, regions, rng)
        # orbit 1.0 -> 0.75 -> 0.625 -> ... -> fixed point 0.5 enters goal
        expected = [1.0]
        while True:
            nxt = 0.5 * expected[-1] + 0.25
            expected.append(nxt)
            if 0.49 <= nxt <= 0.51:
                break
        assert traj.termination == "goal-hit"
        assert traj.states[:, 0] == pytest.approx(expected)

    def test_start_inside_goal(self):
        model = parse_dynamics(["x1 + w1"], 1, "additive")
        noise = NoiseModel((Uniform(-0.1, 0.1),))
        regions = ReachAvoidRegions(
            domain=Box.from_bounds([[0, 1]]), goals=(Box.from_bounds([[0.4, 0.6]]),)
        )
        traj = simulate(model, noise, [0.5], 10, regions, np.random.default_rng(0))
        assert traj.length == 1
        assert traj.termination == "goal-hit"
        est, _, kept = estimate_satisfaction(
            model, noise, regions, [0.5], 5, 10, seed=0, keep=3
        )
        assert est == 1.0
        assert [t.length for t in kept] == [1, 1, 1]
        assert all(t.termination == "goal-hit" for t in kept)

    def test_avoid_hit_and_left_domain(self):
        model = parse_dynamics(["x1 + w1"], 1, "additive")
        noise = NoiseModel((Uniform(0.5, 0.5),))
        regions = ReachAvoidRegions(
            domain=Box.from_bounds([[0, 2]]),
            goals=(Box.from_bounds([[1.9, 2.0]]),),
            avoids=(Box.from_bounds([[0.9, 1.1]]),),
        )
        traj = simulate(model, noise, [0.5], 10, regions, np.random.default_rng(0))
        assert traj.termination == "avoid-hit"
        out = simulate(model, noise, [1.7], 10, regions, np.random.default_rng(0))
        assert out.termination == "left-domain"

    def test_paper_multiplicative_contracts(self):
        model = parse_dynamics(
            ["0.7*x1 + 0.1*x2", "0.1*x1 + 0.8*x2"], 2, "multiplicative"
        )
        noise = NoiseModel(
            (TruncatedGaussian(1, 0.1, 0.9, 1.1), TruncatedGaussian(1, 0.1, 0.9, 1.1))
        )
        regions = ReachAvoidRegions(
            domain=Box.from_bounds([[-10, 10], [-10, 10]]), goals=()
        )
        traj = simulate(model, noise, [1.0, 1.0], 10, regions, np.random.default_rng(5))
        assert traj.termination == "horizon"
        assert np.linalg.norm(traj.states[-1]) < 0.5 * np.linalg.norm(traj.states[0])

    def test_reproducible_given_seed(self):
        model = parse_dynamics(["x1 + w1"], 1, "additive")
        noise = NoiseModel((paper_mixture(),))
        regions = ReachAvoidRegions(
            domain=Box.from_bounds([[-3, 3]]), goals=(Box.from_bounds([[2, 3]]),)
        )
        a = simulate(model, noise, [0.0], 50, regions, np.random.default_rng(42))
        b = simulate(model, noise, [0.0], 50, regions, np.random.default_rng(42))
        assert np.array_equal(a.states, b.states)
        assert a.termination == b.termination


class TestEstimateSatisfaction:
    def test_deterministic_goal_reach(self):
        model = parse_dynamics(["0.5*x1 + w1"], 1, "additive")
        noise = NoiseModel((Uniform(0.25, 0.25),))
        regions = ReachAvoidRegions(
            domain=Box.from_bounds([[0, 1]]), goals=(Box.from_bounds([[0.45, 0.55]]),)
        )
        est, ci, _ = estimate_satisfaction(
            model, noise, regions, [1.0], 200, 50, seed=3
        )
        assert est == 1.0
        assert ci[1] == 1.0
        assert ci[0] < 1.0

    def test_batch_matches_sequential_simulate(self):
        model = parse_dynamics(["x1 + w1"], 1, "additive")
        noise = NoiseModel((paper_mixture(),))
        regions = ReachAvoidRegions(
            domain=Box.from_bounds([[-1, 1]]),
            goals=(Box.from_bounds([[0.5, 1.0]]),),
            avoids=(Box.from_bounds([[-1.0, -0.5]]),),
        )
        n, horizon, seed = 64, 40, 17
        causes = set()
        for x0 in ([0.0], [0.4]):
            sequential = [
                simulate(model, noise, x0, horizon, regions, np.random.default_rng([seed, i]))
                for i in range(n)
            ]
            successes = sum(t.termination == "goal-hit" for t in sequential)
            # trajectories stop at different steps
            assert len({t.length for t in sequential}) > 1
            causes |= {t.termination for t in sequential}
            for keep in (0, 10, n, n + 36):
                est, _, kept = estimate_satisfaction(
                    model, noise, regions, x0, n, horizon, seed=seed, keep=keep
                )
                assert est == pytest.approx(successes / n)
                # the kept paths are the first trajectories of the batch, bit for bit
                assert len(kept) == min(keep, n)
                for batch, single in zip(kept, sequential):
                    assert batch.termination == single.termination
                    assert np.array_equal(batch.states, single.states)
        assert causes == {"goal-hit", "avoid-hit", "horizon"}

    def test_negative_keep_rejected(self):
        model = parse_dynamics(["x1 + w1"], 1, "additive")
        noise = NoiseModel((Uniform(-0.1, 0.1),))
        regions = ReachAvoidRegions(domain=Box.from_bounds([[0, 1]]), goals=())
        with pytest.raises(ValueError):
            estimate_satisfaction(model, noise, regions, [0.5], 4, 5, seed=0, keep=-1)

    def test_estimate_within_verified_interval(self):
        from imcverify.imc import build_imc
        from imcverify.geometry import partition_domain
        from imcverify.verify import ReachAvoidSpec, robust_value_iteration

        part = partition_domain(Box.from_bounds([[0, 2]]), (4,))
        model = parse_dynamics(["x1 + w1"], 1, "additive")
        noise = NoiseModel((Uniform(-0.1, 0.3),))
        goal = Box.from_bounds([[1.5, 2.0]])
        imc = build_imc(part, model, noise, {"goal": [goal]})
        res = robust_value_iteration(imc, ReachAvoidSpec(), convergence_tol=1e-10)
        regions = ReachAvoidRegions(domain=part.domain, goals=(goal,))
        for idx in range(part.n_cells):
            x0 = part.cell(idx).center()
            est, ci, _ = estimate_satisfaction(
                model, noise, regions, x0, 10**4, 200, seed=(1, idx), confidence=0.999
            )
            assert ci[0] <= res.p_upper[idx] + 1e-12
            assert ci[1] >= res.p_lower[idx] - 1e-12


class TestClopperPearson:
    def test_edge_cases(self):
        lo, hi = clopper_pearson(0, 100, 0.99)
        assert lo == 0.0 and 0.0 < hi < 0.1
        lo, hi = clopper_pearson(100, 100, 0.99)
        assert hi == 1.0 and 0.9 < lo < 1.0

    def test_inversion_identity(self):
        # CP bounds invert the binomial CDF: P(X <= s | p = hi) = alpha/2
        from scipy.stats import binom

        s, n, conf = 900, 1000, 0.99
        lo, hi = clopper_pearson(s, n, conf)
        alpha = 1.0 - conf
        assert float(binom.cdf(s, n, hi)) == pytest.approx(alpha / 2, rel=1e-6)
        assert float(binom.sf(s - 1, n, lo)) == pytest.approx(alpha / 2, rel=1e-6)
        assert lo < s / n < hi

    def test_invalid_confidence(self):
        with pytest.raises(ValueError):
            clopper_pearson(1, 2, 1.5)

    def test_matches_beta_ppf_bit_for_bit(self):
        from scipy.stats import beta

        for n in (1, 2, 3, 10, 37, 100, 1000, 2000, 10**4):
            for s in sorted({0, 1, 2, n // 3, n // 2, n - 2, n - 1, n} & set(range(n + 1))):
                for conf in (0.5, 0.9, 0.95, 0.99, 0.999, 0.9999):
                    alpha = 1.0 - conf
                    lo = 0.0 if s == 0 else float(beta.ppf(alpha / 2, s, n - s + 1))
                    hi = 1.0 if s == n else float(beta.ppf(1 - alpha / 2, s + 1, n - s))
                    assert clopper_pearson(s, n, conf) == (lo, hi), (s, n, conf)

    def test_package_import_skips_scipy_stats(self):
        # scipy.stats costs most of the CLI start-up time
        code = "import sys, imcverify.cli; sys.exit('scipy.stats' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
        assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0
