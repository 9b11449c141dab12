import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from imcverify.config import RunConfig, load_config
from imcverify.dynamics import enclosure, parse_dynamics, parse_expression
from imcverify.errors import InputError, SoundnessError
from imcverify.geometry import partition_domain
import imcverify._csv as csv_module
import imcverify.imc as imc_module
from imcverify.imc import (
    CellPosteriors,
    assign_labels,
    build_imc,
    cell_posteriors,
    pair_bounds,
    read_posterior_table,
    write_imc,
    write_posterior_table,
)
from imcverify.noise import (
    Mixture,
    NoiseModel,
    TruncatedGaussian,
    Uniform,
    optimal_partition_affine,
    optimal_partition_multiplicative,
)
from imcverify.pipeline import build_context
from boxes import box, g_image
from oracles import empirical_kernel, kernel_grid_extrema, noise_grid_cells

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads"


def identity_additive():
    return parse_dynamics(["x1 + w1"], 1, "additive")


class TestStructuredBounds:
    """Bounds from one noise-free posterior box g(q): ``pair_bounds`` over
    ``CellPosteriors`` built from that box alone."""

    def test_disjoint_shift(self):
        noise = NoiseModel((Uniform(0, 1),))
        posts = CellPosteriors(np.array([[0.0]]), np.array([[0.2]]), "additive", noise)
        (low,), (up,) = pair_bounds(posts, [0], np.array([[1.0]]), np.array([[2.0]]))
        assert low == pytest.approx(0.0)
        assert up == pytest.approx(0.2)

    def test_sound_but_not_tight(self):
        noise = NoiseModel((Uniform(0, 1),))
        posts = CellPosteriors(np.array([[0.0]]), np.array([[0.2]]), "additive", noise)
        (low,), (up,) = pair_bounds(posts, [0], np.array([[0.5]]), np.array([[0.9]]))
        assert low == pytest.approx(0.2)
        assert up == pytest.approx(0.6)
        # true kernel extrema are both 0.4; the bounds enclose them
        model = identity_additive()
        t_min, t_max = kernel_grid_extrema(
            model, noise, box([[0, 0.2]]), box([[0.5, 0.9]])
        )
        assert t_min == pytest.approx(0.4, abs=1e-2)
        assert low <= t_min + 1e-9 and up >= t_max - 1e-9

    def test_multiplicative_truncated_gaussian(self):
        noise = NoiseModel((TruncatedGaussian(1, 0.1, 0.9, 1.1),))
        posts = CellPosteriors(np.array([[0.8]]), np.array([[0.88]]), "multiplicative", noise)
        (low,), (up,) = pair_bounds(posts, [0], np.array([[0.72]]), np.array([[0.88]]))
        # containment cuts are [0.9, 1.0]; half the symmetric mass
        assert low == pytest.approx(0.5, abs=1e-12)
        assert up == pytest.approx(1.0)


class TestGeneralBounds:
    """Bounds from one box q: ``cell_posteriors`` on the one-cell grid of q."""

    def test_certain_transition_single_cell(self):
        model = parse_dynamics(["x1 + w1"], 1, "general")
        noise = NoiseModel((Uniform(-0.1, 0.1),))
        part = partition_domain(*box([[0.4, 0.6]]), (1,))
        posts = cell_posteriors(part, model, noise, noise_grid=[1])
        (low,), (up,) = pair_bounds(posts, [0], np.array([[0.0]]), np.array([[1.0]]))
        assert (low, up) == (1.0, 1.0)

    def test_disjoint_single_cell(self):
        model = parse_dynamics(["x1 + w1"], 1, "general")
        noise = NoiseModel((Uniform(-0.1, 0.1),))
        part = partition_domain(*box([[0.4, 0.6]]), (1,))
        posts = cell_posteriors(part, model, noise, noise_grid=[1])
        (low,), (up,) = pair_bounds(posts, [0], np.array([[2.0]]), np.array([[3.0]]))
        assert (low, up) == (0.0, 0.0)

    def test_converges_to_structured(self):
        model_gen = parse_dynamics(["x1 + w1"], 1, "general")
        noise = NoiseModel((Uniform(0, 1),))
        part = partition_domain(*box([[0, 0.2]]), (1,))
        target = np.array([[1.0]]), np.array([[2.0]])
        structured = cell_posteriors(part, identity_additive(), noise)
        (s_low,), (s_up,) = pair_bounds(structured, [0], *target)
        prev_low, prev_up = -1.0, 2.0
        for res in (2, 4, 8, 16, 32):
            posts = cell_posteriors(part, model_gen, noise, noise_grid=[res])
            (low,), (up,) = pair_bounds(posts, [0], *target)
            # general bounds are never tighter than the structured optimum
            assert low <= s_low + 1e-12
            assert up >= s_up - 1e-12
            # nested refinement is monotone
            assert low >= prev_low - 1e-12
            assert up <= prev_up + 1e-12
            prev_low, prev_up = low, up
        assert up - s_up < 0.05


class TestUnsafeTransitions:
    """The unsafe column of cell [0.4, 0.6] in the build over X = [0, 1]:
    the last entry of its row."""

    def test_interior_state(self):
        part = partition_domain(*box([[0, 1]]), (5,))
        noise = NoiseModel((Uniform(-0.1, 0.1),))
        imc = build_imc(cell_posteriors(part, identity_additive(), noise), assign_labels(part, {}))
        last = imc.indptr[3] - 1
        assert imc.dst[last] == imc.unsafe_index
        assert (imc.lower[last], imc.upper[last]) == (0.0, 0.0)

    def test_certain_escape(self):
        part = partition_domain(*box([[0, 1]]), (5,))
        noise = NoiseModel((Uniform(4.0, 4.5),))
        imc = build_imc(cell_posteriors(part, identity_additive(), noise), assign_labels(part, {}))
        last = imc.indptr[3] - 1
        assert imc.dst[last] == imc.unsafe_index
        assert (imc.lower[last], imc.upper[last]) == (1.0, 1.0)

    def test_unsafe_self_loop(self):
        part = partition_domain(*box([[0, 1]]), (1,))
        model = identity_additive()
        noise = NoiseModel((Uniform(-0.1, 0.1),))
        labels = assign_labels(part, {"goal": box([[[0, 1]]])})
        imc = build_imc(cell_posteriors(part, model, noise), labels)
        row = slice(imc.indptr[imc.unsafe_index], imc.indptr[imc.unsafe_index + 1])
        assert (imc.dst[row].tolist(), imc.lower[row].tolist(), imc.upper[row].tolist()) == (
            [1], [1.0], [1.0]
        )


class TestBuildImc:
    def test_single_cell_certain_self_loop(self):
        # contraction keeps everything inside X with probability 1
        part = partition_domain(*box([[-1, 1]]), (1,))
        model = parse_dynamics(["0.5*x1 + w1"], 1, "additive")
        noise = NoiseModel((Uniform(-0.25, 0.25),))
        imc = build_imc(
            cell_posteriors(part, model, noise), assign_labels(part, {"goal": box([[[-1, 1]]])})
        )
        assert imc.n_states == 2
        # row 0 is the self-loop, then the unsafe column
        assert imc.indptr[1] == 2 and imc.dst[:2].tolist() == [0, 1]
        assert (imc.lower[0], imc.upper[0]) == (1.0, 1.0)
        assert (imc.lower[1], imc.upper[1]) == (0.0, 0.0)

    def test_two_cell_bounds_against_kernel_oracle(self):
        part = partition_domain(*box([[0, 1]]), (2,))
        model = identity_additive()
        noise = NoiseModel((Uniform(-0.25, 0.25),))
        imc = build_imc(
            cell_posteriors(part, model, noise), assign_labels(part, {"goal": box([[[0.5, 1]]])})
        )
        assert imc.n_states == 3
        for src in range(part.n_cells):
            q = part.corners(src)
            for k in range(imc.indptr[src], imc.indptr[src + 1]):
                if imc.dst[k] == imc.unsafe_index:
                    t_min, t_max = kernel_grid_extrema(
                        model, noise, q, box([[0, 1]])
                    )
                    t_min, t_max = 1.0 - t_max, 1.0 - t_min
                else:
                    t_min, t_max = kernel_grid_extrema(
                        model, noise, q, part.corners(imc.dst[k])
                    )
                assert imc.lower[k] <= t_min + 1e-9
                assert imc.upper[k] >= t_max - 1e-9

    def test_row_validity(self):
        part = partition_domain(*box([[0, 2], [0, 2]]), (3, 3))
        model = parse_dynamics(
            ["0.8*x1 + 0.1*x2 + w1", "0.2*x1 + 0.7*x2 + w2"], 2, "additive"
        )
        noise = NoiseModel((Uniform(-0.3, 0.2), Uniform(-0.1, 0.4)))
        goal = box([[[0, 2 / 3], [0, 2 / 3]]])
        imc = build_imc(cell_posteriors(part, model, noise), assign_labels(part, {"goal": goal}))
        for a, b in zip(imc.indptr[:-1], imc.indptr[1:]):
            assert sum(imc.lower[a:b].tolist()) <= 1.0 + 1e-9
            assert sum(imc.upper[a:b].tolist()) >= 1.0 - 1e-9

    def test_sparsity_and_unsafe_column(self):
        part = partition_domain(*box([[0, 4]]), (8,))
        model = identity_additive()
        noise = NoiseModel((Uniform(-0.3, 0.3),))
        imc = build_imc(
            cell_posteriors(part, model, noise), assign_labels(part, {"goal": box([[[3.5, 4]]])})
        )
        for a, b in zip(imc.indptr[:-2], imc.indptr[1:-1]):
            dsts = imc.dst[a:b].tolist()
            assert imc.unsafe_index in dsts
            assert dsts == sorted(dsts)
            for dst, upper in zip(dsts, imc.upper[a:b].tolist()):
                if dst != imc.unsafe_index:
                    assert upper > 0.0

    def test_misaligned_label_rejected(self):
        part = partition_domain(*box([[0, 1]]), (4,))
        with pytest.raises(InputError):
            assign_labels(part, {"goal": box([[[0.3, 0.5]]])})

    def test_label_assignment(self):
        part = partition_domain(*box([[0, 1]]), (4,))
        model = identity_additive()
        noise = NoiseModel((Uniform(-0.1, 0.1),))
        imc = build_imc(
            cell_posteriors(part, model, noise),
            assign_labels(part, {
                "goal": box([[[0.75, 1.0]]]),
                "obstacle": box([[[0.0, 0.25]]]),
            }),
        )
        assert list(imc.labels) == ["goal", "obstacle", "unsafe"]
        assert imc.labels["obstacle"].tolist() == [True, False, False, False, False]
        assert imc.labels["goal"].tolist() == [False, False, False, True, False]
        assert imc.labels["unsafe"].tolist() == [False, False, False, False, True]

    def test_label_on_rounded_grid_edges(self):
        # linspace gives the edge -0.19999999999999996 for -0.2; the label
        # must cover exactly the 2x2 cells the box spans, not their neighbours
        part = partition_domain(*box([[-1, 1], [-1, 1]]), (10, 10))
        labels = assign_labels(part, {"goal": box([[[-0.2, 0.2], [-0.2, 0.2]]])})
        goal = np.flatnonzero(labels["goal"]).tolist()
        assert goal == np.ravel_multi_index(([4, 4, 5, 5], [4, 5, 4, 5]), (10, 10)).tolist()

    def test_label_narrower_than_alignment_tolerance_rejected(self):
        # both endpoints of the second interval match the edge 0.5, so the
        # box would label no cell and every state would violate
        part = partition_domain(*box([[0, 1], [0, 1]]), (4, 4))
        goal = box([[[0.25, 0.75], [0.5, 0.5000000001]]])
        message = "label 'goal': box is narrower than a grid cell in dimension 1"
        with pytest.raises(InputError, match=message):
            assign_labels(part, {"goal": goal})

    def test_monte_carlo_kernel_soundness(self):
        # Definition-level check: empirical kernel inside every stored pair
        part = partition_domain(*box([[0, 2]]), (4,))
        model = parse_dynamics(["0.7*x1 + 0.2 + w1"], 1, "additive")
        noise = NoiseModel((TruncatedGaussian(0.0, 0.3, -0.5, 0.5),))
        imc = build_imc(
            cell_posteriors(part, model, noise), assign_labels(part, {"goal": box([[[1.5, 2]]])})
        )
        rng = np.random.default_rng(77)
        n = 10**5
        for src in range(part.n_cells):
            q = part.corners(src)
            xs = rng.uniform(q[0][0], q[1][0], 3)
            for k in range(imc.indptr[src], imc.indptr[src + 1]):
                for x in xs:
                    if imc.dst[k] == imc.unsafe_index:
                        p, sigma = empirical_kernel(
                            model, noise, [x], box([[0, 2]]), n, seed=int(x * 1e6) % 2**31
                        )
                        p = 1.0 - p
                    else:
                        p, sigma = empirical_kernel(
                            model,
                            noise,
                            [x],
                            part.corners(imc.dst[k]),
                            n,
                            seed=int(x * 1e6) % 2**31,
                        )
                    assert imc.lower[k] - 3 * sigma <= p <= imc.upper[k] + 3 * sigma

    def test_structured_tighter_than_general(self):
        part = partition_domain(*box([[0, 1]]), (3,))
        model_add = identity_additive()
        model_gen = parse_dynamics(["x1 + w1"], 1, "general")
        noise = NoiseModel((Uniform(-0.2, 0.2),))
        # every (source, target) pair of cells
        src, target = np.divmod(np.arange(part.n_cells**2), part.n_cells)
        structured = cell_posteriors(part, model_add, noise)
        general = cell_posteriors(part, model_gen, noise, noise_grid=[7])
        s_low, s_up = pair_bounds(structured, src, *part.corners(target))
        g_low, g_up = pair_bounds(general, src, *part.corners(target))
        assert np.all(s_low >= g_low - 1e-12)
        assert np.all(s_up <= g_up + 1e-12)


def scalar_bounds(model, noise, resolution, q, target, post=None):
    """Per-pair reference: the scalar loops the array kernels replace, over
    the enclosures of the one box q, or for a structured system over its
    noise-free posterior ``post`` (a posterior table's row) if given. A
    general system reads the noise grid of ``resolution`` cells per
    component (``noise_grid_cells``): a noise-separable one takes the
    product over the dimensions d of the masses of w_d's own noise cells,
    summed in cell order; any other the sum over the tensor noise cells."""
    if resolution is not None and model.noise_separable:
        own, _ = noise_grid_cells(noise, resolution)
        lower = upper = 1.0
        for d, expr in enumerate(model.components):
            low = up = 0.0
            for w_lo, w_hi, mass in own[d]:
                # component d reads w_d alone: any value serves the other w
                w = (np.full(noise.n, w_lo), np.full(noise.n, w_hi))
                (post_lo,), (post_hi,) = enclosure([expr], q, w)
                if post_lo <= target[1][d] and target[0][d] <= post_hi:
                    up += mass
                    if target[0][d] <= post_lo and post_hi <= target[1][d]:
                        low += mass
            lower, upper = lower * low, upper * up
    elif resolution is not None:
        _, (lo, hi, masses) = noise_grid_cells(noise, resolution)
        lower = upper = 0.0
        for w_lo, w_hi, mass in zip(lo, hi, masses.tolist()):
            post_lo, post_hi = enclosure(model.components, q, (w_lo, w_hi))
            if ((post_lo <= target[1]) & (target[0] <= post_hi)).all():
                upper += mass
                if ((target[0] <= post_lo) & (post_hi <= target[1])).all():
                    lower += mass
    else:
        postf = [a.tolist() for a in (g_image(model, q) if post is None else post)]
        cut_points = (
            optimal_partition_affine
            if model.structure == "additive"
            else optimal_partition_multiplicative
        )
        lower = upper = 1.0
        for i, comp in enumerate(noise.components):
            c, d = postf[0][i], postf[1][i]
            eps1, eps2, eps3, eps4 = cut_points(c, d, float(target[0][i]), float(target[1][i]))
            upper *= comp.interval_probability(eps1, eps2)
            if eps3 > eps4:
                lower = 0.0
            else:
                lower *= comp.interval_probability(eps3, eps4)
    lower = min(max(lower, 0.0), 1.0)
    upper = min(max(upper, 0.0), 1.0)
    return min(lower, upper), upper


PRUNING_CASES = {
    "additive": (
        "additive",
        [[-1, 1], [-1, 1]],
        ["0.6*x1 - 0.2*x2 + w1", "0.3*x1 + 0.5*x2 + w2"],
        (Uniform(-0.2, 0.3), TruncatedGaussian(0, 0.2, -0.4, 0.4)),
    ),
    # nonlinear g: the batched interval evaluation over all cells must give
    # every cell the enclosure of g over that cell alone, exactly
    "additive-nonlinear": (
        "additive",
        [[-1, 1], [-1, 1]],
        ["0.6*cos(x1) - 0.2*x2 + w1", "0.3*x1 + 0.5*x2^2 + w2"],
        (Uniform(-0.2, 0.3), TruncatedGaussian(0, 0.2, -0.4, 0.4)),
    ),
    "multiplicative": (
        "multiplicative",
        [[0.5, 2.5], [0.5, 2.5]],
        ["0.7*x1 + 0.1*x2", "0.1*x1 + 0.8*x2"],
        (
            TruncatedGaussian(1.0, 0.1, 0.9, 1.1),
            Mixture((0.5, 0.5), (Uniform(0.8, 0.95), Uniform(1.0, 1.3))),
        ),
    ),
    "general": (
        "general",
        [[-1, 1], [-1, 1]],
        ["0.6*x1 - 0.2*sin(x2) + w1", "0.3*x1 + 0.5*x2 + w2"],
        (Uniform(-0.2, 0.3), TruncatedGaussian(0, 0.2, -0.4, 0.4)),
    ),
    # component 1 reads w2: the tensor noise cells, not the per-component ones
    "general-nonseparable": (
        "general",
        [[-1, 1], [-1, 1]],
        ["0.6*x1 - 0.2*sin(x2) + w1 + 0.5*w2", "0.3*x1 + 0.5*x2 + w2"],
        (Uniform(-0.2, 0.3), TruncatedGaussian(0, 0.2, -0.4, 0.4)),
    ),
    # one and three dimensions: the row-major flattening of candidate blocks
    "general-1d": (
        "general",
        [[-1, 1]],
        ["0.8*x1 - 0.1*sin(x1) + w1"],
        (TruncatedGaussian(0, 0.2, -0.4, 0.4),),
    ),
    "additive-3d": (
        "additive",
        [[-1, 1], [-1, 1], [-1, 1]],
        ["0.6*x1 - 0.2*x3 + w1", "0.3*x1 + 0.5*x2 + w2", "0.2*x2 + 0.7*x3 + w3"],
        (Uniform(-0.2, 0.3), TruncatedGaussian(0, 0.2, -0.4, 0.4), Uniform(-0.1, 0.1)),
    ),
    # one factor per pair: the bands of a single dimension
    "additive-1d": (
        "additive",
        [[-1, 1]],
        ["0.8*x1 - 0.1*x1^2 + w1"],
        (Mixture((0.3, 0.7), (Uniform(-0.3, -0.1), TruncatedGaussian(0, 0.2, -0.4, 0.4))),),
    ),
    # a "-table" case reads the posteriors from a posterior table: the
    # enclosures of g widened by seeded random margins
    "multiplicative-table": (
        "multiplicative",
        [[0.5, 2.5], [0.5, 2.5]],
        ["0.7*x1 + 0.1*x2", "0.1*x1 + 0.8*x2"],
        (
            TruncatedGaussian(1.0, 0.1, 0.9, 1.1),
            Mixture((0.5, 0.5), (Uniform(0.8, 0.95), Uniform(1.0, 1.3))),
        ),
    ),
}


def pruning_case(case):
    """The partition, model, noise, noise grid (None unless general) and
    posterior table (None unless a "-table" case) of a case, on 4 cells per
    dimension and 3 noise cells per component."""
    structure, bounds, exprs, components = PRUNING_CASES[case]
    n = len(bounds)
    part = partition_domain(*box(bounds), (4,) * n)
    model, noise = parse_dynamics(exprs, n, structure), NoiseModel(components)
    grid = [3] * n if structure == "general" else None
    table = None
    if case.endswith("-table"):
        lo, hi = g_image(model, part.corners(np.arange(part.n_cells)))
        rng = np.random.default_rng(8)
        table = lo - rng.uniform(0, 0.1, lo.shape), hi + rng.uniform(0, 0.1, hi.shape)
    return part, model, noise, grid, table


def case_posteriors(case):
    """``cell_posteriors`` of a case, and the posterior ``post(i)`` of cell
    i that ``scalar_bounds`` takes (None: the enclosure of g)."""
    part, model, noise, grid, table = pruning_case(case)
    posts = cell_posteriors(part, model, noise, table, grid)
    return posts, (lambda i: None if table is None else (table[0][i], table[1][i]))


class TestFactoredBuild:
    @pytest.mark.parametrize("workload", sorted(p.stem for p in WORKLOADS.glob("*.yaml")))
    def test_bounds_are_pair_bounds_on_the_bench_workloads(self, workload):
        """Every stored bound of a bench workload's IMC has the bits of
        ``pair_bounds`` toward its target cell, and every unsafe column
        those of one minus ``pair_bounds`` toward the domain, clamped."""
        ctx = build_context(load_config(WORKLOADS / f"{workload}.yaml"))
        posts, part = ctx.posteriors(), ctx.partition
        imc = build_imc(posts, ctx.labels)
        src = np.repeat(np.arange(part.n_states), np.diff(imc.indptr))
        cell = imc.dst != part.unsafe_index
        low, up = pair_bounds(posts, src[cell], *part.corners(imc.dst[cell]))
        assert low.tobytes() == imc.lower[cell].tobytes()
        assert up.tobytes() == imc.upper[cell].tobytes()
        domain = [np.tile([e[k] for e in part.edges], (part.n_cells, 1)) for k in (0, -1)]
        low_x, up_x = pair_bounds(posts, np.arange(part.n_cells), *domain)
        up_u = np.minimum(np.maximum(1.0 - low_x, 0.0), 1.0)
        low_u = np.minimum(np.minimum(np.maximum(1.0 - up_x, 0.0), 1.0), up_u)
        unsafe = imc.indptr[1:-1] - 1  # the last entry of each cell's row
        assert np.all(imc.dst[unsafe] == part.unsafe_index)
        assert low_u.tobytes() == imc.lower[unsafe].tobytes()
        assert up_u.tobytes() == imc.upper[unsafe].tobytes()


class TestCandidatePruning:
    @pytest.mark.parametrize("case", sorted(PRUNING_CASES))
    def test_pruned_build_matches_exhaustive_pairs(self, case):
        """Pairs skipped by the posterior-hull pruning must provably have
        upper bound 0; stored pairs, the unsafe column and ``pair_bounds``
        toward every cell must equal a per-pair scalar computation exactly."""
        part, model, noise, grid, _ = pruning_case(case)
        goal = [[e[0], e[1]] for e in part.edges]
        posts, post = case_posteriors(case)
        imc = build_imc(posts, assign_labels(part, {"goal": box([goal])}))
        every_cell = np.arange(part.n_cells)
        for iq, q in enumerate(map(part.corners, range(part.n_cells))):
            row = slice(imc.indptr[iq], imc.indptr[iq + 1])
            stored = dict(zip(imc.dst[row].tolist(), zip(imc.lower[row], imc.upper[row])))
            low, up = pair_bounds(posts, np.full(part.n_cells, iq), *part.corners(every_cell))
            for it, target in enumerate(map(part.corners, range(part.n_cells))):
                expected = scalar_bounds(model, noise, grid, q, target, post(iq))
                assert (float(low[it]), float(up[it])) == expected
                if it in stored:
                    assert stored[it] == expected
                else:
                    assert expected[1] == 0.0
            domain = box(PRUNING_CASES[case][1])
            low_x, up_x = scalar_bounds(model, noise, grid, q, domain, post(iq))
            assert stored[imc.unsafe_index] == (
                min(max(1.0 - up_x, 0.0), 1.0),
                min(max(1.0 - low_x, 0.0), 1.0),
            )


    @pytest.mark.parametrize("case", sorted(PRUNING_CASES))
    def test_blocks_split_inside_candidate_blocks(self, case, monkeypatch):
        """Blocks of a few pairs cut through sources' candidate blocks; the
        assembled arrays must equal the default build exactly. Every row
        lists its targets in increasing (row-major) order, the unsafe
        column last."""
        part = pruning_case(case)[0]
        labels = assign_labels(part, {"goal": box([PRUNING_CASES[case][1]])})
        default = build_imc(case_posteriors(case)[0], labels)
        for a, b in zip(default.indptr[:-1], default.indptr[1:]):
            assert np.all(np.diff(default.dst[a:b]) > 0)
            assert default.dst[b - 1] == default.unsafe_index
        monkeypatch.setattr(imc_module, "_BLOCK_PAIRS", 3)
        blocked = build_imc(case_posteriors(case)[0], labels)
        for name in ("indptr", "dst", "lower", "upper"):
            assert np.array_equal(getattr(blocked, name), getattr(default, name)), name
        assert blocked.labels.keys() == default.labels.keys()
        for name, mask in default.labels.items():
            assert np.array_equal(blocked.labels[name], mask), name

    @pytest.mark.parametrize("case", sorted(PRUNING_CASES))
    def test_pair_kernel_on_off_grid_boxes(self, case):
        """Random target boxes off the grid lines, like cluster boxes: every
        pair bound equals the per-pair scalar computation exactly."""
        part, model, noise, grid, _ = pruning_case(case)
        posts, post = case_posteriors(case)
        rng = np.random.default_rng(23)
        dom_lo, dom_hi = box(PRUNING_CASES[case][1])
        src = rng.integers(0, part.n_cells, 40)
        t_lo = rng.uniform(dom_lo, dom_hi, (40, len(dom_lo)))
        t_hi = rng.uniform(t_lo, dom_hi)
        lower, upper = pair_bounds(posts, src, t_lo, t_hi)
        for j, i in enumerate(src.tolist()):
            target = (t_lo[j], t_hi[j])
            expected = scalar_bounds(model, noise, grid, part.corners(i), target, post(i))
            assert (float(lower[j]), float(upper[j])) == expected


def random_separable_case(rng, n):
    """A random general system over [-1, 1]^n whose component d reads
    only w_d, its noise and a noise grid of 1 to 4 cells per component."""
    exprs, comps = [], []
    for d in range(1, n + 1):
        i, j = rng.integers(1, n + 1, 2)
        a, b, c = rng.uniform(-0.5, 0.5, 3).round(3)
        exprs.append([
            f"{a}*x{i} + {b}*sin(x{j}) + w{d}",
            f"{a}*x{i} + (1 + {b}*x{j}) * w{d}",
            f"{a}*x{i} + {b}*w{d}^2 + {c}*w{d}",
            f"{a}*x{i} - 0.1*cos(x{j} * w{d})",
        ][rng.integers(4)])
        lo = rng.uniform(-0.4, 0)
        comps.append([
            Uniform(lo, lo + rng.uniform(0.05, 0.4)),
            TruncatedGaussian(rng.uniform(-0.1, 0.1), rng.uniform(0.05, 0.2), -0.3, 0.3),
            Mixture((0.4, 0.6), (Uniform(-0.3, -0.1), Uniform(0.0, 0.2))),
        ][rng.integers(3)])
    noise = NoiseModel(comps)
    resolution = [int(r) for r in rng.integers(1, 5, n)]
    return parse_dynamics(exprs, n, "general"), noise, resolution


class TestSeparableGeneral:
    @pytest.mark.parametrize("n, seed", [(2, s) for s in range(6)] + [(3, s) for s in range(3)])
    def test_separable_bounds_match_the_tensor_sums(self, n, seed):
        """On a random noise-separable system the per-component noise cells
        give the tensor's bounds up to rounding: over the K tensor cells
        and the k_d cells of each component, the two sums differ by at most
        (n + 1) (K + sum k_d) 2**-52, so neither bound is ever looser than
        the other by more. The build keeps the tensor build's entries."""
        rng = np.random.default_rng(seed)
        model, noise, resolution = random_separable_case(rng, n)
        part = partition_domain(*box([[-1, 1]] * n), (4 if n == 2 else 3,) * n)
        posts = cell_posteriors(part, model, noise, noise_grid=resolution)
        assert posts.structure == imc_module.SEPARABLE
        x = part.corners(np.arange(part.n_cells))
        _, (w_lo, w_hi, mass) = noise_grid_cells(noise, resolution)
        lo, hi = enclosure(model.components, (x[0][:, None, :], x[1][:, None, :]), (w_lo, w_hi))
        tensor = posts._replace(lo=lo, hi=hi, structure="general", weights=mass)
        tol = (n + 1) * (len(mass) + sum(resolution)) * 2.0**-52
        labels = assign_labels(part, {})
        sep_imc, tensor_imc = build_imc(posts, labels), build_imc(tensor, labels)
        assert np.array_equal(sep_imc.indptr, tensor_imc.indptr)
        assert np.array_equal(sep_imc.dst, tensor_imc.dst)
        t_lo = rng.uniform(-1.2, 1.0, (200, n))
        t_hi = t_lo + rng.uniform(0, 1.5, (200, n))
        src = rng.integers(0, part.n_cells, 200)
        for (s_low, s_up), (low, up) in [
            ((sep_imc.lower, sep_imc.upper), (tensor_imc.lower, tensor_imc.upper)),
            (pair_bounds(posts, src, t_lo, t_hi), pair_bounds(tensor, src, t_lo, t_hi)),
        ]:
            assert np.all(np.abs(s_low - low) <= tol) and np.all(np.abs(s_up - up) <= tol)


# noise-free terms on [-1, 1] x [-0.5, 1.5] and factors, all positive on
# [0.5, 1.5]^2, from which the random structured systems below are written
_TERMS = ("0.7*x1", "0.3*x2", "sin(x1)", "x1*x2", "0.25*x2^2", "exp(0.1*x1)",
          "(x1 - 0.4*x2)", "abs(x2)/3", "cos(x1 + x2)")
_FACTORS = ("0.7", "x1", "(0.5*x1 + 0.2*x2)", "exp(0.1*x2)", "(1 + 0.5*sin(x1))",
            "(x2^2)", "sqrt(x1)", "abs(x1 - 2)")


def _structured_source(rng, structure, i):
    """A random component, as the config writes it, and its noise-free part
    g_i written out by hand. The noise w_i stands first, in between, last or
    is left out, and g_i may lead with a minus (a product then has two)."""
    k = int(rng.integers(1, 4))
    if structure == "additive":
        signs = [str(rng.choice(["", "-"]))] + [str(rng.choice([" + ", " - "])) for _ in range(k - 1)]
        parts = [sign + str(t) for sign, t in zip(signs, rng.choice(_TERMS, k))]
        g = "".join(parts)
    else:
        parts = [str(t) for t in rng.choice(_FACTORS, k)]
        if k > 1 and rng.random() < 0.5:
            parts[0], parts[-1] = "-" + parts[0], "-" + parts[-1]
        g = "*".join(parts)
    at = int(rng.integers(0, k + 2))
    if at == k + 1:
        return g, g
    if structure == "multiplicative":
        return "*".join(parts[:at] + [f"w{i}"] + parts[at:]), g
    if at == 0:
        return f"w{i} " + (g if g.startswith("-") else "+ " + g), g
    return "".join(parts[:at]) + f" + w{i}" + "".join(parts[at:]), g


class TestNoiseFreeImage:
    """A structured system keeps only its full expressions f; its posterior
    g(q) is their enclosure at the noise identity, which equals (==) the
    enclosure of g written out by hand and parsed on its own."""

    DOMAINS = {
        # an edge at 0 in each dimension: an endpoint may be 0.0 on one side and
        # -0.0 on the other, which == takes as equal, as every consumer does
        "additive": partition_domain(*box([[-1, 1], [-0.5, 1.5]]), (8, 4)),
        "multiplicative": partition_domain(*box([[0.5, 1.5], [0.5, 1.5]]), (8, 5)),
    }
    NOISE = {
        "additive": NoiseModel((Uniform(-0.1, 0.1), Uniform(-0.2, 0.1))),
        "multiplicative": NoiseModel((Uniform(0.9, 1.1), Uniform(0.95, 1.2))),
    }

    def _check(self, structure, sources, gs):
        part = self.DOMAINS[structure]
        model = parse_dynamics(sources, 2, structure)
        posts = cell_posteriors(part, model, self.NOISE[structure])
        lo, hi = enclosure([parse_expression(g) for g in gs], part.corners(np.arange(part.n_cells)))
        assert np.array_equal(posts.lo, lo) and np.array_equal(posts.hi, hi), sources

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("structure", ["additive", "multiplicative"])
    def test_random_systems(self, structure, seed):
        rng = np.random.default_rng(seed)
        sources, gs = zip(*(_structured_source(rng, structure, i) for i in (1, 2)))
        self._check(structure, sources, gs)

    @pytest.mark.parametrize("structure, sources, gs", [
        ("additive", ["w1 - x1", "x1 + (w2 + 0)"], ["-x1", "x1 + 0"]),
        ("additive", ["-x1*x2 + w1 - sin(x2)", "0.5*x2"], ["-x1*x2 - sin(x2)", "0.5*x2"]),
        ("multiplicative", ["0.5*w1*x1", "x2*w2"], ["0.5*x1", "x2"]),
        ("multiplicative", ["w1*-x1*-x2", "0.7"], ["-x1*-x2", "0.7"]),
    ])
    def test_written_forms(self, structure, sources, gs):
        self._check(structure, sources, gs)

    def test_posterior_table_config_reads_its_table(self, tmp_path):
        # a configured table is the posterior as it stands, not g(q) computed
        part, structure = self.DOMAINS["additive"], "additive"
        model = parse_dynamics(["0.9*x1 + 0.1*x2", "x2 - 0.2*x1"], 2, structure)
        lo, hi = g_image(model, part.corners(np.arange(part.n_cells)))
        table = lo - 0.125, hi + 0.25
        write_posterior_table(table, tmp_path / "table.csv")
        domain = tuple(np.array([e[end] for e in part.edges]) for end in (0, -1))
        config = RunConfig(domain, part.resolution, model, self.NOISE[structure], {},
                           posterior_table=tmp_path / "table.csv")
        posts = build_context(config).posteriors()
        assert np.array_equal(posts.lo, table[0]) and np.array_equal(posts.hi, table[1])


class TestPosteriorTable:
    def _setup(self):
        part = partition_domain(*box([[0, 1]]), (2,))
        model = identity_additive()
        noise = NoiseModel((Uniform(-0.25, 0.25),))
        return part, model, noise

    def test_table_replaces_computed_posterior(self):
        part, model, noise = self._setup()
        cells = part.corners(np.arange(part.n_cells))
        table = g_image(model, cells)
        labels = assign_labels(part, {"goal": box([[[0.5, 1]]])})
        from_table = build_imc(cell_posteriors(part, model, noise, posterior_table=table), labels)
        computed = build_imc(cell_posteriors(part, model, noise), labels)
        for name in ("indptr", "dst", "lower", "upper"):
            assert np.array_equal(getattr(from_table, name), getattr(computed, name)), name

    def test_shifted_table_changes_bounds(self):
        part, model, noise = self._setup()
        lo, hi = part.corners(np.arange(part.n_cells))
        shifted = lo + 0.5, hi + 0.5
        labels = assign_labels(part, {"goal": box([[[0.5, 1]]])})
        imc = build_imc(cell_posteriors(part, model, noise, posterior_table=shifted), labels)
        baseline = build_imc(cell_posteriors(part, model, noise), labels)
        assert not all(
            np.array_equal(getattr(imc, name), getattr(baseline, name))
            for name in ("indptr", "dst", "lower", "upper")
        )

    def test_missing_state_rejected(self):
        part, model, noise = self._setup()
        table = g_image(model, part.corners(np.arange(1)))
        with pytest.raises(InputError):
            build_imc(
                cell_posteriors(part, model, noise, posterior_table=table),
                assign_labels(part, {"goal": box([[[0.5, 1]]])}),
            )

    def test_nonpositive_multiplicative_table_rejected(self):
        # a multiplicative system needs g(q) > 0, from a table as computed
        part = partition_domain(*box([[0.25, 2.25], [0.25, 2.25]]), (2, 2))
        model = parse_dynamics(["0.7*x1 + 0.1*x2", "0.1*x1 + 0.8*x2"], 2, "multiplicative")
        noise = NoiseModel((Uniform(0.9, 1.1), Uniform(0.9, 1.1)))
        lo, hi = g_image(model, part.corners(np.arange(part.n_cells)))
        cell_posteriors(part, model, noise, (lo, hi))
        lo[2, 1] = 0.0
        with pytest.raises(InputError, match=r"cell 2 has component 2 in \[0, "):
            cell_posteriors(part, model, noise, (lo, hi))

    def test_nonpositive_multiplicative_domain_rejected(self):
        # g(q) = 0.5*x1 + 2 lies in [1.5, 3.5], but the multiplicative cut
        # points need targets on a positive domain: one short error naming
        # the dimension and its lower edge, for computed posteriors and a table
        part = partition_domain([-1], [3], (8,))
        model = parse_dynamics(["0.5*x1 + 2"], 1, "multiplicative")
        noise = NoiseModel((Uniform(0.9, 1.1),))
        table = g_image(model, part.corners(np.arange(part.n_cells)))
        message = "multiplicative structure requires a strictly positive domain, but dimension 0 starts at -1"
        for posterior_table in (None, table):
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                cell_posteriors(part, model, noise, posterior_table)

    def test_file_round_trip(self, tmp_path):
        part, model, noise = self._setup()
        cells = part.corners(np.arange(part.n_cells))
        table = g_image(model, cells)
        path = tmp_path / "table.csv"
        write_posterior_table(table, path)
        loaded = read_posterior_table(path.read_bytes(), path, part.n_cells, 1)
        assert np.array_equal(loaded[0], table[0]) and np.array_equal(loaded[1], table[1])

    def test_missing_files_are_input_errors(self, tmp_path):
        # a run reads the table when it builds its context; a missing result
        # table is refused by its stamp check (test_verify.py)
        part, model, noise = self._setup()
        path = tmp_path / "absent.csv"
        config = RunConfig(box([[0, 1]]), part.resolution, model, noise, {}, posterior_table=path)
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}: file does not exist$"):
            build_context(config)

    def test_incomplete_file_rejected(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("state,component,lo,hi\n0,0,0.0,0.5\n")
        with pytest.raises(InputError):
            read_posterior_table(path.read_bytes(), path, 2, 1)

    @pytest.mark.parametrize(
        "rows, where",
        [
            (["0,0,0.0,0.5", "1,1,0.5,1.0"], "table.csv:3: component index out of range"),
            (["0,0,0.0,0.5", "", "1,0,nan,1.0"], "table.csv:4: empty or invalid interval"),
            (["0,0,0.5,0.0", "1,0,0.5,1.0"], "table.csv:2: empty or invalid interval"),
            (["0,0,0.0,0.5", "1,x,0.5,1.0"], "table.csv:3: malformed field"),
            (["0,0,0_5,1_0", "1,0,0.5,1.0"], "table.csv:2: malformed field"),
            (["0,0,0.0,0.5", "  ", "1,0,\u0660.5,1.0"], "table.csv:4: malformed field"),
            (["0,0,0.0,0.5"], "missing state 1"),
            (["0,0,0.0,0.5", "1,0,0.5,1.0", "7,0,0.2,0.3"],
             "table.csv:4: state index out of range"),
            (["0,0,0.0,0.5", "-1,0,0.2,0.3", "1,0,0.5,1.0"],
             "table.csv:3: state index out of range"),
            (["0,0,0.0,0.5", "1,0,0.5,1.0", "0,0,0.2,0.3"],
             "table.csv:4: duplicate (state, component)"),
            (["0,0,0.0,inf", "1,0,0.5,1.0"], "table.csv:2: empty or invalid interval"),
            (["0,-1,0.0,0.5", "1,0,0.5,1.0"], "table.csv:2: component index out of range"),
            (["0,0,0.0", "1,0,0.5,1.0"], "table.csv:2: expected 4 fields"),
            # a blank line still counts toward the line numbers
            (["0,0,0.0,0.5", "", "1,0,0.5,1.0", "0,0,0.0,0.5"],
             "table.csv:5: duplicate (state, component) (0,0)"),
        ],
        ids=["component", "nan", "order", "number", "underscore", "arabic-indic-digit", "missing",
             "state", "negative", "duplicate", "infinite", "negative-component", "fields",
             "blank-then-duplicate"],
    )
    def test_malformed_file_rejected(self, tmp_path, rows, where):
        path = tmp_path / "table.csv"
        path.write_text("\n".join(["state,component,lo,hi"] + rows) + "\n")
        with pytest.raises(InputError, match=re.escape(where)):
            read_posterior_table(path.read_bytes(), path, 2, 1)

    @pytest.mark.parametrize(
        "data, where",
        [
            (b"state,component,lo,hi\n0,0,0.0,0.5\n1,0,\xe9,1.0\n", "table.csv:3: not UTF-8 text (byte 0xe9)"),
            (b"state,component,lo,hi\r\n0,0,0.0,0.5\r1,0,0.5,1.0\xc3\n", "table.csv:3: not UTF-8 text (byte 0xc3)"),
            (b"\xffstate,component,lo,hi\n", "table.csv:1: not UTF-8 text (byte 0xff)"),
        ],
        ids=["lf", "crlf-then-cr", "header"],
    )
    def test_undecodable_byte_names_its_line(self, tmp_path, data, where):
        # lines count as under universal newlines, as for every other error
        with pytest.raises(InputError, match=f"^{re.escape(str(tmp_path / where))}$"):
            read_posterior_table(data, tmp_path / "table.csv", 2, 1)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("state,comp,lo,hi\n0,0,0.0,0.5\n1,0,0.5,1.0\n")
        with pytest.raises(InputError, match=re.escape("table.csv:1: expected header")):
            read_posterior_table(path.read_bytes(), path, 2, 1)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda lines: lines[:1] + lines[3:] + lines[1:3],
            lambda lines: [line + " " for line in lines],
            lambda lines: [line + "\r" for line in lines],
        ],
        ids=["rotated", "trailing-blanks", "crlf"],
    )
    def test_tolerated_edits_load_the_same_table(self, tmp_path, edit):
        # non-dyadic bounds over a 3 x 2 grid, two components per state
        part = partition_domain(*box([[-1.3, 2.7], [0.1, 0.9]]), (3, 2))
        model = parse_dynamics(["0.7*x1 + 0.1*x2", "0.1*x1 - 0.3*x2"], 2, "additive")
        table = g_image(model, part.corners(np.arange(part.n_cells)))
        path = tmp_path / "table.csv"
        write_posterior_table(table, path)
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        lo, hi = read_posterior_table(path.read_bytes(), path, part.n_cells, 2)
        assert np.array_equal(lo, table[0]) and np.array_equal(hi, table[1])

    def test_blank_lines_and_any_order_accepted(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("state,component,lo,hi\n1,0,0.5,1.0\n\n0,0,0.0,0.5\n")
        loaded = read_posterior_table(path.read_bytes(), path, 2, 1)
        assert (loaded[0].tolist(), loaded[1].tolist()) == ([[0.0], [0.5]], [[0.5], [1.0]])


class TestExports:
    def test_determinism(self, tmp_path):
        part = partition_domain(*box([[0, 1]]), (4,))
        model = identity_additive()
        noise = NoiseModel((Uniform(-0.2, 0.2),))
        labels = assign_labels(part, {"goal": box([[[0.75, 1]]])})
        b1, l1 = tmp_path / "imc1.csv", tmp_path / "lab1.csv"
        b2, l2 = tmp_path / "imc2.csv", tmp_path / "lab2.csv"
        for bounds, labels_path in ((b1, l1), (b2, l2)):
            write_imc(build_imc(cell_posteriors(part, model, noise), labels), bounds, labels_path)
        assert b1.read_bytes() == b2.read_bytes()
        assert l1.read_bytes() == l2.read_bytes()

    def test_labels_export_bytes(self, tmp_path):
        # rows by state, then by label name: "base" sorts before "goal" and
        # overlaps it on cell 3, which carries both; the unsafe state ends it
        part = partition_domain(*box([[0, 1], [0, 1]]), (2, 2))
        model = parse_dynamics(["x1 + w1", "x2 + w2"], 2, "additive")
        noise = NoiseModel((Uniform(-0.1, 0.1), Uniform(-0.1, 0.1)))
        labels = assign_labels(part, {
            "goal": box([[[0.5, 1], [0, 1]]]),
            "obstacle": box([[[0, 0.5], [0, 0.5]]]),
            "base": box([[[0, 1], [0.5, 1]]]),
        })
        imc = build_imc(cell_posteriors(part, model, noise), labels)
        write_imc(imc, tmp_path / "imc.csv", tmp_path / "labels.csv")
        assert (tmp_path / "labels.csv").read_bytes() == (
            b"state,label\n0,obstacle\n1,base\n2,goal\n3,base\n3,goal\n4,unsafe\n"
        )

    def test_blocked_write_same_bytes(self, tmp_path, monkeypatch):
        part = partition_domain(*box([[0, 1]]), (4,))
        noise = NoiseModel((Uniform(-0.2, 0.2),))
        posts = cell_posteriors(part, identity_additive(), noise)
        imc = build_imc(posts, assign_labels(part, {"goal": box([[[0.75, 1]]])}))
        write_imc(imc, tmp_path / "one.csv", tmp_path / "lab.csv")
        monkeypatch.setattr(csv_module, "_WRITE_ROWS", 3)  # blocks end inside rows
        write_imc(imc, tmp_path / "blocks.csv", tmp_path / "lab.csv")
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()

    def test_build_and_write_scratch_is_fixed_per_block(self, tmp_path):
        """On the 40^2 paper config (62k stored entries) the build's traced
        peak stays under 12 MB and the export's under 2 MB: their blocks,
        not the pair or entry count, set them (28.2 and 8.7 MB with blocks
        of 2**18 pairs and 2**16 entries)."""
        ctx = build_context(load_config(WORKLOADS / "paper-mult-40.yaml"))
        posts = ctx.posteriors()
        tracemalloc.start()
        try:
            imc = build_imc(posts, ctx.labels)
            build_peak = tracemalloc.get_traced_memory()[1]
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            write_imc(imc, tmp_path / "imc.csv", tmp_path / "labels.csv")
            write_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(imc.dst) > 3 * imc_module._BLOCK_PAIRS
        assert build_peak < 12 * 2**20
        assert write_peak < 2 * 2**20


def test_row_validity_violation_raises():
    from imcverify.imc import _check_rows

    with pytest.raises(SoundnessError):
        _check_rows(np.array([0, 2]), np.array([0.7, 0.5]), np.array([0.8, 0.6]))
    with pytest.raises(SoundnessError):
        _check_rows(np.array([0, 1]), np.array([0.1]), np.array([0.4]))
    # a NaN bound makes a NaN row sum, which no comparison flags by itself
    with pytest.raises(SoundnessError, match="row 1"):
        _check_rows(np.array([0, 1, 3]), np.array([0.5, 0.2, 0.3]), np.array([1.0, np.nan, 0.9]))
