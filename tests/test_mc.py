import logging
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from imcverify import mc
from imcverify.config import load_config
from imcverify.dynamics import eval_point, parse_dynamics
from imcverify.geometry import partition_domain
from imcverify.imc import AVOID_LABELS, GOAL_LABEL, assign_labels
from imcverify.mc import clopper_pearson, estimate_satisfaction
from imcverify.noise import Mixture, NoiseModel, TruncatedGaussian, Uniform
from imcverify.pipeline import build_context
from boxes import box
from oracles import (
    binomial_tail, cell_index_of_point, splitmix64, splitmix64_key, splitmix64_uniforms,
)

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads"


def paper_mixture():
    return Mixture((0.5, 0.5), (Uniform(-0.05, -0.01), Uniform(0.0, 0.04)))


def narrowest_uniform(c):
    """The uniform on [c, the next float above c]: every sample is one of
    the two (a point mass is no ``Uniform``)."""
    return Uniform(c, float(np.nextafter(c, np.inf)))


def labelled(domain, resolution, **label_boxes):
    """A grid of ``resolution`` cells over the box ``domain`` and its label
    masks: each keyword names a label and lists its boxes."""
    part = partition_domain(*box(domain), resolution)
    return part, assign_labels(part, {name: box(b) for name, b in label_boxes.items()})


def mixture_walk():
    """A 1-D walk under mixture noise that can reach its goal, hit its
    avoid box or run out its horizon."""
    model = parse_dynamics(["x1 + w1"], 1, "additive")
    grid = labelled([[-1, 1]], (4,), goal=[[[0.5, 1.0]]], obstacle=[[[-1.0, -0.5]]])
    return model, NoiseModel((paper_mixture(),)), grid


def simulate(model, noise, x0, k, grid, seed):
    """One trajectory of at most k steps from x0, stopping at the first goal
    hit, avoid hit or domain exit: the rollout of one start with one
    trajectory, of which step t reads outputs t * noise.n to
    (t + 1) * noise.n - 1 of SplitMix64 from the key of ``seed``."""
    part, labels = grid
    code = mc._termination_codes(part, labels)
    _, [[trajectory]], _ = mc._rollout(model, noise, part, code, [x0], mc._keys([seed]), 1, k, keep=1)
    return trajectory


class TestSampleNoise:
    def test_uniform_inverse_is_identity(self):
        noise = NoiseModel((Uniform(0, 1),))
        assert noise.sample(np.array([[0.3]])).tolist() == [[0.3]]

    def test_mixture_selector_above_rounded_weight_sum(self):
        # the weights sum to 1 - 4e-13, inside the validation tolerance; a
        # uniform above that sum picks the last part, at its top
        comp = Mixture((0.5, 0.5 - 4e-13), (Uniform(0, 1), Uniform(2, 3)))
        out = NoiseModel((comp,)).sample(np.array([[1 - 1e-13]]))
        assert out.tolist() == [[3.0]]

    def test_draws_in_component_order(self):
        # column i drives component i; the mixture's part and value both
        # come from its one uniform
        comps = (Uniform(0, 1), paper_mixture(), TruncatedGaussian(0, 1, -1, 1))
        noise = NoiseModel(comps)
        parts = set()
        for u in np.random.default_rng(3).random((8, 1, 3)):
            part = int(u[0, 1] >= 0.5)
            parts.add(part)
            expected = [
                comps[0].inverse_cdf(u[0, 0]),
                comps[1].parts[part].inverse_cdf(2.0 * u[0, 1] - part),
                comps[2].inverse_cdf(u[0, 2]),
            ]
            assert noise.sample(u).tolist() == [expected]
        assert parts == {0, 1}

    def test_workload_noise_has_the_bits_of_one_draw_at_a_time(self):
        # mixture-mc-h30's noise (a two-part uniform mixture and a truncated
        # Gaussian) on 10**5 uniforms and the boundaries of the composition:
        # 0, each cumulative weight and its float neighbours, 1 - 1e-12 and
        # values above the rounded weight sum
        noise = load_config(WORKLOADS / "mixture-mc-h30.yaml").noise
        mixture = noise.components[0]
        assert isinstance(mixture, Mixture) and isinstance(noise.components[1], TruncatedGaussian)
        ends = np.cumsum(mixture.weights)
        edges = np.concatenate([[0.0], np.nextafter(ends, 0.0), ends, np.nextafter(ends, 2.0),
                                [1.0 - 1e-12, np.nextafter(1.0, 0.0), 1.0]])
        u = np.random.default_rng(41).random((10**5, noise.n))
        u[: len(edges), 0] = u[len(edges) : 2 * len(edges), 1] = edges

        def one(comp, v):
            """The sample of uniform v in Python floats, the Gaussian quantile
            from scipy's scalar ndtri."""
            if isinstance(comp, Mixture):  # part i takes [c_i, c_i + w_i), the last also above
                starts = [0.0, *np.cumsum(comp.weights)[:-1].tolist()]
                i = sum(v >= c for c in starts[1:])
                return one(comp.parts[i], min(max((v - starts[i]) / comp.weights[i], 0.0), 1.0))
            if isinstance(comp, Uniform):
                return comp.lo + v * (comp.hi - comp.lo)
            z = float(scipy.special.ndtri(comp._phi_lo + v * comp._mass))
            return min(max(comp.mean + comp.stddev * z, comp.lo), comp.hi)

        reference = [[one(c, v) for c, v in zip(noise.components, row)] for row in u.tolist()]
        assert noise.sample(u).view(np.int64).tolist() == np.array(reference).view(np.int64).tolist()

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
        samples = np.array([noise.sample(rng.random((1, 1)))[0, 0] for _ in range(4000)])
        in_first = np.mean((samples >= -0.05) & (samples <= -0.01))
        in_second = np.mean((samples >= 0.0) & (samples <= 0.04))
        assert in_first == pytest.approx(0.5, abs=0.03)
        assert in_second == pytest.approx(0.5, abs=0.03)
        assert not np.any((samples > -0.01) & (samples < 0.0))


class TestSimulate:
    def test_narrowest_uniform_noise_follows_the_noise_free_orbit(self):
        model = parse_dynamics(["0.5*x1 + w1"], 1, "additive")
        noise = NoiseModel((narrowest_uniform(0.25),))
        grid = labelled([[0, 1]], (100,), goal=[[[0.49, 0.51]]])
        traj = simulate(model, noise, [1.0], 20, grid, 0)
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
        grid = labelled([[0, 1]], (5,), goal=[[[0.4, 0.6]]])
        traj = simulate(model, noise, [0.5], 10, grid, 0)
        assert traj.length == 1
        assert traj.termination == "goal-hit"
        [(est, _, kept)] = estimate_satisfaction(
            model, noise, *grid, [[0.5]], 5, 10, seeds=[0], keep=3
        )
        assert est == 1.0
        assert [t.length for t in kept] == [1, 1, 1]
        assert all(t.termination == "goal-hit" for t in kept)

    def test_avoid_hit_and_left_domain(self):
        model = parse_dynamics(["x1 + w1"], 1, "additive")
        noise = NoiseModel((narrowest_uniform(0.5),))
        grid = labelled([[0, 2]], (20,), goal=[[[1.9, 2.0]]], obstacle=[[[0.9, 1.1]]])
        traj = simulate(model, noise, [0.5], 10, grid, 0)
        assert traj.termination == "avoid-hit"
        out = simulate(model, noise, [1.7], 10, grid, 0)
        assert out.termination == "left-domain"

    def test_paper_multiplicative_contracts(self):
        model = parse_dynamics(
            ["0.7*x1 + 0.1*x2", "0.1*x1 + 0.8*x2"], 2, "multiplicative"
        )
        noise = NoiseModel(
            (TruncatedGaussian(1, 0.1, 0.9, 1.1), TruncatedGaussian(1, 0.1, 0.9, 1.1))
        )
        grid = labelled([[-10, 10], [-10, 10]], (2, 2))
        traj = simulate(model, noise, [1.0, 1.0], 10, grid, 5)
        assert traj.termination == "horizon"
        assert np.linalg.norm(traj.states[-1]) < 0.5 * np.linalg.norm(traj.states[0])

    def test_reproducible_given_seed(self):
        model = parse_dynamics(["x1 + w1"], 1, "additive")
        noise = NoiseModel((paper_mixture(),))
        grid = labelled([[-3, 3]], (6,), goal=[[[2, 3]]])
        a = simulate(model, noise, [0.0], 50, grid, 42)
        b = simulate(model, noise, [0.0], 50, grid, 42)
        assert np.array_equal(a.states, b.states)
        assert a.termination == b.termination

    @pytest.mark.parametrize("seed", [0, 3, (7, 2), (2**64 + 5, 2)])
    def test_one_trajectory_reads_the_seeds_stream(self, seed):
        # a one-trajectory cell reads SplitMix64's outputs in order, noise.n per step
        for model, noise, grid, x0 in (mixture_walk() + ([0.0],), walk_2d() + ([0.0, 0.0],)):
            traj = simulate(model, noise, x0, 30, grid, seed)
            u = np.array(splitmix64_uniforms(seed, 1, 30, noise.n))
            states, end = replay(model, noise, grid, x0, u[:, 0])
            assert traj.termination == end
            assert np.array_equal(traj.states, states)


class TestCounterStream:
    def test_oracle_matches_published_splitmix64_outputs(self):
        assert splitmix64(0, 3) == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        assert splitmix64(1234567, 3) == [6457827717110365317, 3203168211198807973, 9817491932198370423]

    def test_keys_match_the_oracle(self):
        seeds = [0, 5, (0,), (5, 0), (0, 5), (3, 17), (2**64 - 1, 1), (2**64, 1), (2**64 + 5, 9),
                 (5, 9), (2**200 + 3, 0, 2**63), np.int64(8), (np.int64(3), np.uint64(2**63 + 1))]
        keys = mc._keys(seeds)
        assert keys.dtype == np.uint64
        assert keys.tolist() == [splitmix64_key(tuple(map(int, s)) if isinstance(s, tuple) else int(s))
                                 for s in seeds]
        # an int seed is the tuple of that int; the others all differ, as an
        # int's words are folded after their count, so a big seed is not its low word
        assert keys[0] == keys[2] and len(set(keys.tolist())) == len(seeds) - 1
        assert mc._keys([(2**64 + 5, 3)])[0] != mc._keys([(5, 3)])[0]
        assert mc._keys([]).tolist() == []

    def test_big_seeds_run_and_keep_their_high_words(self):
        model, noise, grid = mixture_walk()
        runs = [
            estimate_satisfaction(model, noise, *grid, [[0.0]], 200, 40, seeds=[(s, 4)], keep=5)
            for s in (5, 2**64 + 5, 2**64 + 5)
        ]
        assert runs[1][0][:2] == runs[2][0][:2]
        assert [t.states.tolist() for t in runs[0][0][2]] != [t.states.tolist() for t in runs[1][0][2]]

    @pytest.mark.parametrize("seed", [-1, (3, -2), 1.5, (3, 2.0), "7", True, (1, False), None, ((1, 2), 3)])
    def test_bad_seeds_name_seeds(self, seed):
        model, noise, grid = mixture_walk()
        with pytest.raises(ValueError, match="seeds"):
            estimate_satisfaction(model, noise, *grid, [[0.0]], 4, 5, seeds=[seed])

    def test_runs_without_numpy_random(self):
        code = (
            "import sys; sys.modules['numpy.random'] = None\n"
            "from imcverify.dynamics import parse_dynamics\n"
            "from imcverify.geometry import partition_domain\n"
            "from imcverify.imc import assign_labels\n"
            "from imcverify.mc import estimate_satisfaction\n"
            "from imcverify.noise import NoiseModel, TruncatedGaussian\n"
            "import numpy as np\n"
            "part = partition_domain(np.array([0.0]), np.array([1.0]), (4,))\n"
            "labels = assign_labels(part, {'goal': (np.array([[0.75]]), np.array([[1.0]]))})\n"
            "model = parse_dynamics(['x1 + w1'], 1, 'additive')\n"
            "noise = NoiseModel((TruncatedGaussian(0.1, 0.1, -0.2, 0.3),))\n"
            "[(est, _, _)] = estimate_satisfaction(model, noise, part, labels, [[0.1]], 100, 20, [(3, 0)])\n"
            "sys.exit(not 0.0 < est <= 1.0)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
        assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0

    def test_uniform_statistics(self):
        # 2**20 uniforms: 64 cells of seed 0 (keys (0, c)), 64 trajectories,
        # 128 steps and 2 components, at the counters the rollout reads;
        # the thresholds are about 5 standard errors of a true uniform
        cells, n, steps, m = 64, 64, 128, 2
        keys = mc._keys([(0, c) for c in range(cells)])
        counter = (np.arange(steps)[:, None, None] * n + np.arange(n)[:, None]) * m + np.arange(m) + 1
        z = keys[:, None, None, None] + counter.astype(np.uint64) * np.uint64(mc._GAMMA)
        u = (mc._mix(z) >> 11) * 2.0**-53  # [cell, step, trajectory, component]
        assert u.size == 2**20 and 0.0 <= u.min() and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 1.5e-3
        assert abs(u.var() - 1 / 12) < 4e-4
        counts = np.bincount((u * 1000).astype(np.intp).ravel(), minlength=1000)
        expected = u.size / 1000
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert abs(chi2 - 999) < 5 * math.sqrt(2 * 999)

        def corr(a, b):
            return float(np.corrcoef(a.ravel(), b.ravel())[0, 1])

        assert abs(corr(u[:-1], u[1:])) < 5e-3  # adjacent cells
        assert abs(corr(u[:, :-1], u[:, 1:])) < 5e-3  # adjacent steps
        assert abs(corr(u[:, :, :-1], u[:, :, 1:])) < 5e-3  # adjacent trajectories
        assert abs(corr(u[..., 0], u[..., 1])) < 5e-3  # the two components


class TestEstimateSatisfaction:
    def test_deterministic_goal_reach(self):
        model = parse_dynamics(["0.5*x1 + w1"], 1, "additive")
        noise = NoiseModel((narrowest_uniform(0.25),))
        grid = labelled([[0, 1]], (20,), goal=[[[0.45, 0.55]]])
        [(est, ci, _)] = estimate_satisfaction(model, noise, *grid, [[1.0]], 200, 50, seeds=[3])
        assert est == 1.0
        assert ci[1] == 1.0
        assert ci[0] < 1.0

    def test_batch_matches_sequential_simulate(self):
        model, noise, grid = mixture_walk()
        n, horizon, seed = 64, 40, 17
        causes = set()
        # trajectory i reads output (t * n + i) * noise.n + k of the seed's
        # stream at step t, component k
        block = np.array(splitmix64_uniforms(seed, n, horizon, noise.n))
        for x0 in ([0.0], [0.4]):
            sequential = [replay(model, noise, grid, x0, block[:, i]) for i in range(n)]
            successes = sum(end == "goal-hit" for _, end in sequential)
            # trajectories stop at different steps
            assert len({len(states) for states, _ in sequential}) > 1
            causes |= {end for _, end in sequential}
            for keep in (0, 10, n, n + 36):
                [(est, _, kept)] = estimate_satisfaction(
                    model, noise, *grid, [x0], n, horizon, seeds=[seed], keep=keep
                )
                assert est == successes / n
                # the kept paths are the first trajectories of the batch, bit for bit
                assert len(kept) == min(keep, n)
                for batch, (states, end) in zip(kept, sequential):
                    assert batch.termination == end
                    assert np.array_equal(batch.states, states)
        assert causes == {"goal-hit", "avoid-hit", "horizon"}

    def test_cells_do_not_depend_on_batch_or_grouping(self, monkeypatch):
        model, noise, grid = mixture_walk()
        n, horizon = 50, 40
        starts = [[0.7], [0.0], [-0.7], [0.4]]  # in the goal, free, in the avoid box, free
        seeds = [11, 12, 13, 14]

        def validate(idx):
            return estimate_satisfaction(
                model, noise, *grid, [starts[i] for i in idx], n, horizon,
                seeds=[seeds[i] for i in idx], keep=7,
            )

        def same(a, b):
            assert a[:2] == b[:2]
            assert [t.termination for t in a[2]] == [t.termination for t in b[2]]
            assert all(np.array_equal(s.states, t.states) for s, t in zip(a[2], b[2]))

        alone = [validate([i])[0] for i in range(4)]
        assert alone[0][0] == 1.0 and alone[2][0] == 0.0
        together = validate(range(4))
        for group in (3 * n, 2 * n, 1):
            monkeypatch.setattr(mc, "GROUP_TRAJECTORIES", group)
            for a, b, c in zip(alone, together, validate(range(4))):
                same(a, b)
                same(a, c)

        # only live trajectories compute uniforms, one row of noise.n per
        # trajectory-step, and a cell whose start is terminal computes none
        rows = []
        real = mc._mix

        def spy(z):
            if isinstance(z, np.ndarray):  # a step's uniforms, one row per component
                rows.append(z.shape[1])
            return real(z)

        monkeypatch.setattr(mc, "_mix", spy)
        out = estimate_satisfaction(model, noise, *grid, starts, n, horizon, seeds=seeds, keep=n)
        assert sum(rows) == sum(t.length - 1 for _, _, kept in out for t in kept) > 0
        rows.clear()
        validate([0, 2])
        assert rows == []

    def test_groups_log_their_trajectory_steps(self, monkeypatch, caplog):
        model, noise, grid = mixture_walk()
        n, horizon = 50, 40
        starts = [[0.7], [0.0], [-0.7], [0.4]]  # in the goal, free, in the avoid box, free
        monkeypatch.setattr(mc, "GROUP_TRAJECTORIES", 2 * n)
        with caplog.at_level(logging.DEBUG, logger="imcverify"):
            out = estimate_satisfaction(
                model, noise, *grid, starts, n, horizon, seeds=[1, 2, 3, 4], keep=n
            )
        # a path of length L took L - 1 steps
        steps = [sum(t.length - 1 for t in kept) for _, _, kept in out]
        assert steps[0] == steps[2] == 0 and steps[1] > 0 and steps[3] > 0
        logged = [
            re.fullmatch(r"monte carlo: (\d+) trajectories, (\d+) trajectory-steps in [\d.]+ s",
                         r.getMessage()).groups()
            for r in caplog.records
        ]
        assert logged == [(str(2 * n), str(steps[0] + steps[1])), (str(2 * n), str(steps[2] + steps[3]))]

    def test_bad_arguments_name_the_argument(self):
        model, noise, grid = mixture_walk()
        with pytest.raises(ValueError, match="horizon"):
            estimate_satisfaction(model, noise, *grid, [[0.0]], 4, -3, seeds=[0])
        with pytest.raises(ValueError, match="2 starts but 1 seeds"):
            estimate_satisfaction(model, noise, *grid, [[0.0], [0.1]], 4, 5, seeds=[0])
        # a start must have a coordinate per dimension: a 1-wide start on a
        # 2-D system lies in no cell, and a 3-wide one has one coordinate too many
        model, noise, grid = walk_2d()
        for starts in ([[0.0]], [[0.0, 0.0, 0.0]]):
            with pytest.raises(ValueError, match="starts"):
                estimate_satisfaction(model, noise, *grid, starts, 4, 5, seeds=[0])
        # the system and the grid must have the same dimension
        with pytest.raises(ValueError, match="starts"):
            estimate_satisfaction(model, noise, *mixture_walk()[2], [[0.0, 0.0]], 4, 5, seeds=[0])

    def test_negative_keep_rejected(self):
        model = parse_dynamics(["x1 + w1"], 1, "additive")
        noise = NoiseModel((Uniform(-0.1, 0.1),))
        grid = labelled([[0, 1]], (1,))
        with pytest.raises(ValueError):
            estimate_satisfaction(model, noise, *grid, [[0.5]], 4, 5, seeds=[0], keep=-1)

    def test_estimate_within_verified_interval(self):
        from imcverify.imc import build_imc, cell_posteriors
        from imcverify.geometry import partition_domain
        from imcverify.verify import ReachAvoidSpec, robust_value_iteration

        part = partition_domain(*box([[0, 2]]), (4,))
        model = parse_dynamics(["x1 + w1"], 1, "additive")
        noise = NoiseModel((Uniform(-0.1, 0.3),))
        goal = box([[[1.5, 2.0]]])
        imc = build_imc(cell_posteriors(part, model, noise), assign_labels(part, {"goal": goal}))
        res = robust_value_iteration(imc, ReachAvoidSpec(), convergence_tol=1e-10)
        for idx in range(part.n_cells):
            x0 = 0.5 * sum(part.corners(idx))
            [(est, ci, _)] = estimate_satisfaction(
                model, noise, part, imc.labels, [x0], 10**4, 200, seeds=[(1, idx)], confidence=0.999
            )
            assert ci[0] <= res.p_upper[idx] + 1e-12
            assert ci[1] >= res.p_lower[idx] - 1e-12


def walk_2d():
    """A 2-D additive walk under mixture x truncated-Gaussian noise that can
    reach its goal, hit its avoid box, leave the domain or run out its
    horizon. The goal's upper face lies on the domain's top in x1 only."""
    model = parse_dynamics(["0.95*x1 + 0.1*x2 + w1", "-0.1*x1 + 0.95*x2 + w2"], 2, "additive")
    noise = NoiseModel((
        Mixture((0.4, 0.6), (Uniform(-0.25, -0.05), Uniform(0.05, 0.25))),
        TruncatedGaussian(0.0, 0.1, -0.25, 0.25),
    ))
    grid = labelled(
        [[-1, 1], [-1, 1]], (8, 8),
        goal=[[[0.5, 1.0], [0.25, 0.75]]], obstacle=[[[-0.75, -0.25], [-1.0, -0.5]]],
    )
    return model, noise, grid


def replay(model, noise, grid, x0, uniforms):
    """One trajectory stepped in plain Python: step t feeds the row
    ``uniforms[t]`` to the components' own samplers, one uniform each, and
    a point ends as the labels of the cell the oracle gives it say."""
    part, labels = grid
    avoid = np.logical_or.reduce([labels[name] for name in AVOID_LABELS if name in labels])

    def termination(x):
        cell = cell_index_of_point(part, x)
        if cell is None:
            return "left-domain"
        if labels[GOAL_LABEL][cell]:
            return "goal-hit"
        return "avoid-hit" if avoid[cell] else None

    states = [[float(c) for c in x0]]
    end = termination(states[0])
    for u in uniforms.tolist():
        if end is not None:
            break
        w = [float(comp.sample(np.array([v]))[0]) for comp, v in zip(noise.components, u)]
        states.append(eval_point(model, np.array(states[-1]), np.array(w)).tolist())
        end = termination(states[-1])
    return np.array(states), end or "horizon"


class TestReplayReference:
    """The lockstep rollout against trajectories replayed one at a time
    without ``_rollout`` or ``StatePartition.owner``."""

    # free, near the top corner, on the goal's upper face at the domain's
    # top (a goal hit), on its upper face below the top (not a goal hit),
    # in the avoid box, near the left face
    STARTS = [[0.0, 0.0], [0.8, 0.9], [1.0, 0.5], [0.7, 0.75], [-0.5, -0.75], [-0.9, 0.1]]

    @pytest.mark.parametrize("group", [mc.GROUP_TRAJECTORIES, 1])
    def test_rollout_matches_plain_python_replay(self, monkeypatch, group):
        model, noise, grid = walk_2d()
        n, horizon = 40, 12
        seeds = [(5, c) for c in range(len(self.STARTS))]
        reference = []
        for x0, seed in zip(self.STARTS, seeds):
            block = np.array(splitmix64_uniforms(seed, n, horizon, noise.n))
            reference.append([replay(model, noise, grid, x0, block[:, i]) for i in range(n)])
        ends = [[end for _, end in cell] for cell in reference]
        assert set().union(*ends) == {"goal-hit", "avoid-hit", "left-domain", "horizon"}
        assert set(ends[2]) == {"goal-hit"} and set(ends[4]) == {"avoid-hit"}
        assert all(len(states) > 1 for states, _ in reference[3])

        part, labels = grid
        code = mc._termination_codes(part, labels)
        cause, _, _ = mc._rollout(model, noise, part, code, self.STARTS, mc._keys(seeds), n, horizon, keep=0)
        assert cause.tolist() == [[mc._TERMS.index(end) for end in cell] for cell in ends]

        monkeypatch.setattr(mc, "GROUP_TRAJECTORIES", group)
        # keeping 7 of 40, the exported paths are a strict subset of the live trajectories
        for keep in (n, 7):
            validations = estimate_satisfaction(
                model, noise, *grid, self.STARTS, n, horizon, seeds=seeds, keep=keep
            )
            for cell, (est, _, kept) in zip(reference, validations):
                assert est == sum(end == "goal-hit" for _, end in cell) / n
                assert len(kept) == keep
                for traj, (states, end) in zip(kept, cell):
                    assert traj.termination == end
                    assert np.array_equal(traj.states, states)


def corner_terminations(ctx):
    """The termination codes of every lower and upper cell corner, and what
    the labels of the cell the oracle gives the corner say: goal, else
    avoid, else running."""
    part, labels = ctx.partition, ctx.labels
    avoid = np.logical_or.reduce([labels[name] for name in AVOID_LABELS if name in labels])
    corners = np.concatenate(part.corners(np.arange(part.n_cells)))
    owner = [cell_index_of_point(part, x) for x in corners.tolist()]
    expected = np.where(
        labels[GOAL_LABEL][owner], mc._GOAL, np.where(avoid[owner], mc._AVOID, mc._RUNNING)
    )
    return mc._termination_codes(part, labels)[part.owner(corners)], expected


class TestPointOwnership:
    @pytest.mark.parametrize(
        "workload", ["paper-mult-40", "general-sin-20", "additive-h200-phased", "mixture-mc-h30"]
    )
    def test_classify_agrees_with_cell_labels_on_corners(self, workload):
        """Also on the domain's upper faces, which the mixture obstacle touches."""
        found, expected = corner_terminations(build_context(load_config(WORKLOADS / f"{workload}.yaml")))
        assert np.array_equal(found, expected)

    def test_label_faces_belong_to_the_owning_cell(self):
        """(2.0, 0.75) lies on the obstacle's upper face and (0.55, 0.4) on
        the goal's; both belong to unlabelled cells, so both keep running."""
        ctx = build_context(load_config(WORKLOADS / "paper-mult-40.yaml"))
        points = np.array([[2.0, 0.75], [0.55, 0.4]])
        assert [cell_index_of_point(ctx.partition, x) for x in points.tolist()] == [1410, 243]
        assert ctx.partition.owner(points).tolist() == [1410, 243]
        code = mc._termination_codes(ctx.partition, ctx.labels)
        assert code[[1410, 243]].tolist() == [mc._RUNNING] * 2

    def test_label_endpoint_above_its_grid_edge(self, tmp_path):
        """The goal's lower endpoint 0.6666666667 matches the edge
        0.6666666666666666 below it; the cells from that edge on are goal
        cells, so the corners on the edge are goal hits."""
        cfg = tmp_path / "sixths.yaml"
        cfg.write_text(
            "domain: [[0, 1], [0, 1]]\ngrid: [6, 6]\n"
            "dynamics: {expressions: [x1, x2], structure: additive}\n"
            "noise: {components: [{type: uniform, lo: -0.1, hi: 0.1}, "
            "{type: uniform, lo: -0.1, hi: 0.1}]}\n"
            "labels: {goal: [[[0.6666666667, 1.0], [0.0, 1.0]]]}\n"
        )
        found, expected = corner_terminations(build_context(load_config(cfg)))
        assert np.count_nonzero(expected == mc._GOAL) > 0
        assert np.array_equal(found, expected)


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

    @pytest.mark.parametrize(
        "successes, trials, name",
        [(5, 3, "successes"), (-1, 3, "successes"), (2.5, 3, "successes"),
         (np.array([0, 4]), 3, "successes"), (np.nan, 3, "successes"), ("1", 3, "successes"),
         (0, 0, "trials"), (1, 2.5, "trials"), (0, True, "trials")],
    )
    def test_invalid_counts_name_the_argument(self, successes, trials, name):
        with pytest.raises(ValueError, match=name):
            clopper_pearson(successes, trials, 0.99)

    def test_contains_beta_ppf_within_1e7(self):
        # the Beta quantiles by scipy lie inside each interval, which is
        # rounded outward from them by at most 1e-7 relative
        from scipy.stats import beta

        for n in (1, 2, 3, 10, 37, 100, 1000, 2000, 10**4):
            s = np.array(sorted({0, 1, 2, n // 3, n // 2, n - 2, n - 1, n} & set(range(n + 1))))
            for conf in (0.5, 0.9, 0.95, 0.99, 0.999, 0.9999):
                alpha = 1.0 - conf
                lo = np.where(s == 0, 0.0, beta.ppf(alpha / 2, s, n - s + 1))
                hi = np.where(s == n, 1.0, beta.ppf(1 - alpha / 2, s + 1, n - s))
                found_lo, found_hi = clopper_pearson(s, n, conf)
                assert np.all(found_lo <= lo) and np.all(lo - found_lo <= 1e-7 * lo), (n, conf)
                assert np.all(found_hi >= hi) and np.all(found_hi - hi <= 1e-7 * hi), (n, conf)

    @pytest.mark.parametrize("conf", [0.5, 0.9, 0.95, 0.99, 0.999, 0.9999])
    def test_exact_tails_contain_and_are_tight(self, conf):
        # at each end the exact tail is at most alpha/2; 1e-7 relative
        # inward from it the exact tail exceeds alpha/2
        half = Fraction((1.0 - conf) / 2.0)
        for n in range(1, 61):
            lo, hi = clopper_pearson(np.arange(n + 1), n, conf)
            for s in range(1, n + 1):
                assert binomial_tail(n, s, float(lo[s]), upper=True) <= half, (n, s)
                assert binomial_tail(n, s, float(lo[s]) * (1 + 1e-7), upper=True) > half, (n, s)
            for s in range(n):
                assert binomial_tail(n, s, float(hi[s]), upper=False) <= half, (n, s)
                assert binomial_tail(n, s, float(hi[s]) * (1 - 1e-7), upper=False) > half, (n, s)
            assert lo[0] == 0.0 and hi[n] == 1.0

    def test_batch_matches_single_calls(self):
        # a cell's interval must not depend on which cells share its group
        s = np.array([[0, 7], [250, 1000]])
        lo, hi = clopper_pearson(s, 1000, 0.95)
        assert lo.shape == hi.shape == s.shape
        for i, j in product(range(2), range(2)):
            assert (lo[i, j], hi[i, j]) == clopper_pearson(int(s[i, j]), 1000, 0.95)

    def test_package_import_skips_scipy_stats(self):
        # scipy.stats costs most of the CLI start-up time
        code = "import sys, imcverify.cli; sys.exit('scipy.stats' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
        assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0
