import numpy as np
import pytest

from imcverify.cluster import cluster_improve, select_cluster
from imcverify.dynamics import parse_dynamics
from imcverify.geometry import Box, partition_domain
from imcverify.imc import build_imc, cell_posteriors
from imcverify.noise import NoiseModel, Uniform
from imcverify.verify import (
    ReachAvoidSpec,
    VerificationResult,
    classify_arrays,
    robust_value_iteration,
)


def shifted_identity_setup():
    """1D drift system: X = [0, 5], unit cells, f(x) = x + 2 + w with
    w ~ Uniform(-1.25, 1.25). From cell [0, 1] the posterior hull is
    [0.75, 4.25]; cells [1,2], [2,3], [3,4] sit inside it and tile [1, 4],
    while every per-cell containment interval carries zero mass."""
    part = partition_domain(Box.from_bounds([[0, 5]]), (5,))
    model = parse_dynamics(["x1 + 2 + w1"], 1, "additive")
    noise = NoiseModel((Uniform(-1.25, 1.25),))
    imc = build_imc(part, model, noise, {"goal": [Box.from_bounds([[4, 5]])]})
    return part, model, noise, imc


def planted_result(p_lower, p_upper, threshold=0.9):
    p_lower = np.asarray(p_lower, dtype=float)
    p_upper = np.asarray(p_upper, dtype=float)
    return VerificationResult(
        p_lower,
        p_upper,
        classify_arrays(p_lower, p_upper, threshold),
        iterations=0,
        converged=True,
    )


class TestSelectCluster:
    def test_hull_spanning_cells_exactly(self):
        part = partition_domain(Box.from_bounds([[0, 6]]), (6,))
        model = parse_dynamics(["x1 + 2 + w1"], 1, "additive")
        noise = NoiseModel((Uniform(-1.0, 1.0),))
        imc = build_imc(part, model, noise, {"goal": [Box.from_bounds([[5, 6]])]})
        # from cell [0,1]: hull = [1, 4], tiled exactly by cells 1..3
        hull = cell_posteriors(part, model, noise).hull(0)
        prop = select_cluster(0, imc, hull)
        assert prop is not None
        assert prop.members == (1, 2, 3)
        assert prop.box == Box.from_bounds([[1, 4]])

    def test_hull_exiting_domain_falls_back_to_block(self):
        part, model, noise, imc = shifted_identity_setup()
        # from cell [2,3]: hull = [2.75, 6.25] exits X; block = cells {3, 4}
        hull = cell_posteriors(part, model, noise).hull(2)
        prop = select_cluster(2, imc, hull)
        assert prop is not None
        assert prop.members == (3, 4)
        assert prop.box == Box.from_bounds([[3, 5]])

    def test_single_successor_gives_empty_proposal(self):
        part = partition_domain(Box.from_bounds([[0, 2]]), (2,))
        model = parse_dynamics(["x1 + w1"], 1, "additive")
        noise = NoiseModel((Uniform(-0.05, 0.05),))
        imc = build_imc(part, model, noise, {"goal": [Box.from_bounds([[1, 2]])]})
        hull = cell_posteriors(part, model, noise).hull(0)
        assert select_cluster(0, imc, hull) is None

    def test_2d_block(self):
        part = partition_domain(Box.from_bounds([[0, 4], [0, 4]]), (4, 4))
        model = parse_dynamics(["x1 + 1 + w1", "x2 + 1 + w2"], 2, "additive")
        noise = NoiseModel((Uniform(-1.0, 1.0), Uniform(-1.0, 1.0)))
        imc = build_imc(
            part, model, noise, {"goal": [Box.from_bounds([[3, 4], [3, 4]])]}
        )
        q_idx = part.flat_index((1, 1))  # cell [1,2]x[1,2], hull [1,4]^2
        hull = cell_posteriors(part, model, noise).hull(q_idx)
        prop = select_cluster(q_idx, imc, hull)
        assert prop is not None
        assert prop.box == Box.from_bounds([[1, 4], [1, 4]])
        assert len(prop.members) == 9


class TestClusterImprove:
    def test_strict_improvement_never_worse(self):
        part, model, noise, imc = shifted_identity_setup()
        planted_lo = [0.0, 0.8, 0.8, 0.8, 0.0, 0.0]
        planted_hi = [1.0, 1.0, 1.0, 1.0, 1.0, 0.0]
        res = planted_result(planted_lo, planted_hi)
        out = cluster_improve(imc, model, noise, res, ReachAvoidSpec())
        assert np.all(out.p_lower >= res.p_lower)
        assert np.all(out.p_upper <= res.p_upper)
        assert np.any(out.p_lower > res.p_lower)
        # cell [0,1] clusters cells 1..3 (all planted at 0.8) with
        # containment mass Pr(w in [-1, 1]) = 0.8
        assert out.p_lower[0] == pytest.approx(0.8 * 0.8)

    def test_noop_pass_is_identity(self):
        part, model, noise, imc = shifted_identity_setup()
        res = robust_value_iteration(imc, ReachAvoidSpec())
        once = cluster_improve(imc, model, noise, res, ReachAvoidSpec())
        assert np.all(once.p_lower >= res.p_lower)
        assert np.all(once.p_upper <= res.p_upper)
        twice = cluster_improve(imc, model, noise, once, ReachAvoidSpec())
        # fixed point: a pass with no accepted improvement is bit-identical
        again = cluster_improve(imc, model, noise, twice, ReachAvoidSpec())
        assert np.array_equal(again.p_lower, twice.p_lower)
        assert np.array_equal(again.p_upper, twice.p_upper)

    def test_pinned_states_untouched(self):
        part, model, noise, imc = shifted_identity_setup()
        res = robust_value_iteration(imc, ReachAvoidSpec())
        out = cluster_improve(imc, model, noise, res, ReachAvoidSpec())
        goal_idx = 4
        assert out.p_lower[goal_idx] == 1.0 and out.p_upper[goal_idx] == 1.0
        assert out.p_lower[imc.unsafe_index] == 0.0
        assert out.p_upper[imc.unsafe_index] == 0.0

    def test_improved_bounds_remain_sound(self):
        """After improvement, the lower bound must stay below the true
        satisfaction probability, estimated by direct simulation."""
        part, model, noise, imc = shifted_identity_setup()
        res = robust_value_iteration(imc, ReachAvoidSpec(), convergence_tol=1e-10)
        out = cluster_improve(imc, model, noise, res, ReachAvoidSpec())

        from imcverify.mc import ReachAvoidRegions, estimate_satisfaction

        regions = ReachAvoidRegions(
            domain=part.domain, goals=(Box.from_bounds([[4, 5]]),)
        )
        for idx in range(part.n_cells):
            x0 = part.cells[idx].center()
            est, ci, _ = estimate_satisfaction(
                model, noise, regions, x0, 2000, 100, seed=(9, idx), confidence=0.999
            )
            assert out.p_lower[idx] <= ci[1] + 1e-12
            assert out.p_upper[idx] >= ci[0] - 1e-12
