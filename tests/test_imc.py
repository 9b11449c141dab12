import re

import numpy as np
import pytest

from imcverify.dynamics import parse_dynamics, posterior, posterior_f
from imcverify.errors import InputError, SoundnessError
from imcverify.geometry import Box, partition_domain
import imcverify.imc as imc_module
from imcverify.imc import (
    PosteriorTable,
    TransitionBound,
    assign_labels,
    build_imc,
    cell_posteriors,
    pair_bounds,
    read_imc,
    read_posterior_table,
    transition_bounds_general,
    transition_bounds_structured,
    unsafe_transitions,
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
    uniform_noise_grid,
)
from oracles import empirical_kernel, kernel_grid_extrema


def identity_additive():
    return parse_dynamics(["x1 + w1"], 1, "additive")


class TestStructuredBounds:
    def test_disjoint_shift(self):
        noise = NoiseModel((Uniform(0, 1),))
        low, up = transition_bounds_structured(
            Box.from_bounds([[0, 0.2]]), Box.from_bounds([[1, 2]]), noise, "additive"
        )
        assert low == pytest.approx(0.0)
        assert up == pytest.approx(0.2)

    def test_sound_but_not_tight(self):
        noise = NoiseModel((Uniform(0, 1),))
        low, up = transition_bounds_structured(
            Box.from_bounds([[0, 0.2]]),
            Box.from_bounds([[0.5, 0.9]]),
            noise,
            "additive",
        )
        assert low == pytest.approx(0.2)
        assert up == pytest.approx(0.6)
        # true kernel extrema are both 0.4; the bounds enclose them
        model = identity_additive()
        t_min, t_max = kernel_grid_extrema(
            model, noise, Box.from_bounds([[0, 0.2]]), Box.from_bounds([[0.5, 0.9]])
        )
        assert t_min == pytest.approx(0.4, abs=1e-2)
        assert low <= t_min + 1e-9 and up >= t_max - 1e-9

    def test_multiplicative_truncated_gaussian(self):
        noise = NoiseModel((TruncatedGaussian(1, 0.1, 0.9, 1.1),))
        low, up = transition_bounds_structured(
            Box.from_bounds([[0.8, 0.88]]),
            Box.from_bounds([[0.72, 0.88]]),
            noise,
            "multiplicative",
        )
        # containment cuts are [0.9, 1.0]; half the symmetric mass
        assert low == pytest.approx(0.5, abs=1e-12)
        assert up == pytest.approx(1.0)


class TestGeneralBounds:
    def test_certain_transition_single_cell(self):
        model = identity_additive()
        noise = NoiseModel((Uniform(-0.1, 0.1),))
        cells = uniform_noise_grid(noise, [1])
        low, up = transition_bounds_general(
            model, cells, Box.from_bounds([[0.4, 0.6]]), Box.from_bounds([[0, 1]])
        )
        assert (low, up) == (1.0, 1.0)

    def test_disjoint_single_cell(self):
        model = identity_additive()
        noise = NoiseModel((Uniform(-0.1, 0.1),))
        cells = uniform_noise_grid(noise, [1])
        low, up = transition_bounds_general(
            model, cells, Box.from_bounds([[0.4, 0.6]]), Box.from_bounds([[2, 3]])
        )
        assert (low, up) == (0.0, 0.0)

    def test_converges_to_structured(self):
        model_gen = parse_dynamics(["x1 + w1"], 1, "general")
        noise = NoiseModel((Uniform(0, 1),))
        q = Box.from_bounds([[0, 0.2]])
        target = Box.from_bounds([[1, 2]])
        s_low, s_up = transition_bounds_structured(
            Box.from_bounds([[0, 0.2]]), target, noise, "additive"
        )
        prev_low, prev_up = -1.0, 2.0
        for res in (2, 4, 8, 16, 32):
            cells = uniform_noise_grid(noise, [res])
            low, up = transition_bounds_general(model_gen, cells, q, target)
            # general bounds are never tighter than the structured optimum
            assert low <= s_low + 1e-12
            assert up >= s_up - 1e-12
            # nested refinement is monotone
            assert low >= prev_low - 1e-12
            assert up <= prev_up + 1e-12
            prev_low, prev_up = low, up
        assert up - s_up < 0.05


class TestUnsafeTransitions:
    def test_interior_state(self):
        model = identity_additive()
        noise = NoiseModel((Uniform(-0.1, 0.1),))
        low, up = unsafe_transitions(
            Box.from_bounds([[0.4, 0.6]]), Box.from_bounds([[0, 1]]), model, noise
        )
        assert (low, up) == (0.0, 0.0)

    def test_certain_escape(self):
        model = identity_additive()
        noise = NoiseModel((Uniform(4.0, 4.5),))
        low, up = unsafe_transitions(
            Box.from_bounds([[0.4, 0.6]]), Box.from_bounds([[0, 1]]), model, noise
        )
        assert (low, up) == (1.0, 1.0)

    def test_unsafe_self_loop(self):
        part = partition_domain(Box.from_bounds([[0, 1]]), (1,))
        model = identity_additive()
        noise = NoiseModel((Uniform(-0.1, 0.1),))
        imc = build_imc(part, model, noise, {"goal": [Box.from_bounds([[0, 1]])]})
        row = imc.rows[imc.unsafe_index]
        assert row == (TransitionBound(1, 1, 1.0, 1.0),)


class TestBuildImc:
    def test_single_cell_certain_self_loop(self):
        # contraction keeps everything inside X with probability 1
        part = partition_domain(Box.from_bounds([[-1, 1]]), (1,))
        model = parse_dynamics(["0.5*x1 + w1"], 1, "additive")
        noise = NoiseModel((Uniform(-0.25, 0.25),))
        imc = build_imc(part, model, noise, {"goal": [Box.from_bounds([[-1, 1]])]})
        assert imc.n_states == 2
        (self_loop, unsafe_col) = imc.rows[0]
        assert (self_loop.lower, self_loop.upper) == (1.0, 1.0)
        assert (unsafe_col.lower, unsafe_col.upper) == (0.0, 0.0)

    @pytest.mark.parametrize("structure", ["additive", "general"])
    def test_point_mass_noise_rejected(self, structure):
        # CDF differences measure (lo, hi]: the atom of Uniform(0, 0) would
        # get no mass in any noise cell or cut-point interval
        part = partition_domain(Box.from_bounds([[-1, 1]]), (4,))
        model = parse_dynamics(["0.5*x1 + w1"], 1, structure)
        atom = Uniform(0, 0)
        for comp in (atom, Mixture((0.5, 0.5), (Uniform(-0.1, 0.1), atom))):
            noise = NoiseModel((comp,))
            cells = uniform_noise_grid(noise, [2]) if structure == "general" else None
            with pytest.raises(InputError, match="point mass"):
                build_imc(part, model, noise, {"goal": [part.domain]}, noise_cells=cells)

    def test_two_cell_bounds_against_kernel_oracle(self):
        part = partition_domain(Box.from_bounds([[0, 1]]), (2,))
        model = identity_additive()
        noise = NoiseModel((Uniform(-0.25, 0.25),))
        imc = build_imc(part, model, noise, {"goal": [Box.from_bounds([[0.5, 1]])]})
        assert imc.n_states == 3
        for row in imc.rows[:-1]:
            for tb in row:
                q = part.cell(tb.src)
                if tb.dst == imc.unsafe_index:
                    t_min, t_max = kernel_grid_extrema(
                        model, noise, q, part.domain
                    )
                    t_min, t_max = 1.0 - t_max, 1.0 - t_min
                else:
                    t_min, t_max = kernel_grid_extrema(
                        model, noise, q, part.cell(tb.dst)
                    )
                assert tb.lower <= t_min + 1e-9
                assert tb.upper >= t_max - 1e-9

    def test_row_validity(self):
        part = partition_domain(Box.from_bounds([[0, 2], [0, 2]]), (3, 3))
        model = parse_dynamics(
            ["0.8*x1 + 0.1*x2 + w1", "0.2*x1 + 0.7*x2 + w2"], 2, "additive"
        )
        noise = NoiseModel((Uniform(-0.3, 0.2), Uniform(-0.1, 0.4)))
        imc = build_imc(
            part, model, noise, {"goal": [Box.from_bounds([[0, 2 / 3], [0, 2 / 3]])]}
        )
        for row in imc.rows:
            assert sum(tb.lower for tb in row) <= 1.0 + 1e-9
            assert sum(tb.upper for tb in row) >= 1.0 - 1e-9

    def test_sparsity_and_unsafe_column(self):
        part = partition_domain(Box.from_bounds([[0, 4]]), (8,))
        model = identity_additive()
        noise = NoiseModel((Uniform(-0.3, 0.3),))
        imc = build_imc(part, model, noise, {"goal": [Box.from_bounds([[3.5, 4]])]})
        for i, row in enumerate(imc.rows[:-1]):
            dsts = [tb.dst for tb in row]
            assert imc.unsafe_index in dsts
            assert dsts == sorted(dsts)
            for tb in row:
                if tb.dst != imc.unsafe_index:
                    assert tb.upper > 0.0

    def test_misaligned_label_rejected(self):
        part = partition_domain(Box.from_bounds([[0, 1]]), (4,))
        model = identity_additive()
        noise = NoiseModel((Uniform(-0.1, 0.1),))
        with pytest.raises(InputError):
            build_imc(part, model, noise, {"goal": [Box.from_bounds([[0.3, 0.5]])]})

    def test_label_assignment(self):
        part = partition_domain(Box.from_bounds([[0, 1]]), (4,))
        model = identity_additive()
        noise = NoiseModel((Uniform(-0.1, 0.1),))
        imc = build_imc(
            part,
            model,
            noise,
            {
                "goal": [Box.from_bounds([[0.75, 1.0]])],
                "obstacle": [Box.from_bounds([[0.0, 0.25]])],
            },
        )
        assert imc.labels[0] == frozenset({"obstacle"})
        assert imc.labels[1] == frozenset()
        assert imc.labels[3] == frozenset({"goal"})
        assert imc.labels[4] == frozenset({"unsafe"})

    def test_label_on_rounded_grid_edges(self):
        # linspace gives the edge -0.19999999999999996 for -0.2; the label
        # must cover exactly the 2x2 cells the box spans, not their neighbours
        part = partition_domain(Box.from_bounds([[-1, 1], [-1, 1]]), (10, 10))
        labels = assign_labels(part, {"goal": [Box.from_bounds([[-0.2, 0.2], [-0.2, 0.2]])]})
        goal = [i for i, labs in enumerate(labels) if "goal" in labs]
        assert goal == [part.flat_index(m) for m in ((4, 4), (4, 5), (5, 4), (5, 5))]

    def test_monte_carlo_kernel_soundness(self):
        # Definition-level check: empirical kernel inside every stored pair
        part = partition_domain(Box.from_bounds([[0, 2]]), (4,))
        model = parse_dynamics(["0.7*x1 + 0.2 + w1"], 1, "additive")
        noise = NoiseModel((TruncatedGaussian(0.0, 0.3, -0.5, 0.5),))
        imc = build_imc(part, model, noise, {"goal": [Box.from_bounds([[1.5, 2]])]})
        rng = np.random.default_rng(77)
        n = 10**5
        for row in imc.rows[:-1]:
            q = part.cell(row[0].src)
            xs = rng.uniform(q.component(0).lo, q.component(0).hi, 3)
            for tb in row:
                for x in xs:
                    if tb.dst == imc.unsafe_index:
                        p, sigma = empirical_kernel(
                            model, noise, [x], part.domain, n, seed=int(x * 1e6) % 2**31
                        )
                        p = 1.0 - p
                    else:
                        p, sigma = empirical_kernel(
                            model,
                            noise,
                            [x],
                            part.cell(tb.dst),
                            n,
                            seed=int(x * 1e6) % 2**31,
                        )
                    assert tb.lower - 3 * sigma <= p <= tb.upper + 3 * sigma

    def test_structured_tighter_than_general(self):
        part = partition_domain(Box.from_bounds([[0, 1]]), (3,))
        model_add = identity_additive()
        model_gen = parse_dynamics(["x1 + w1"], 1, "general")
        noise = NoiseModel((Uniform(-0.2, 0.2),))
        cells = uniform_noise_grid(noise, [7])
        for q in map(part.cell, range(part.n_cells)):
            postf = posterior_f(model_add, q)
            for target in map(part.cell, range(part.n_cells)):
                s_low, s_up = transition_bounds_structured(
                    postf, target, noise, "additive"
                )
                g_low, g_up = transition_bounds_general(model_gen, cells, q, target)
                assert s_low >= g_low - 1e-12
                assert s_up <= g_up + 1e-12


def scalar_bounds(model, noise, cells, q, target):
    """Per-pair reference: the scalar loops the array kernels replace."""
    if cells is not None:
        lower = upper = 0.0
        for w_lo, w_hi, mass in zip(cells.lo.tolist(), cells.hi.tolist(), cells.mass.tolist()):
            post = posterior(model, q, Box.from_bounds(zip(w_lo, w_hi)))
            if post.intersects(target):
                upper += mass
                if target.contains(post):
                    lower += mass
    else:
        postf = posterior_f(model, q)
        cut_points = (
            optimal_partition_affine
            if model.structure == "additive"
            else optimal_partition_multiplicative
        )
        lower = upper = 1.0
        for i, comp in enumerate(noise.components):
            cuts = cut_points(postf.component(i), target.component(i))
            upper *= comp.interval_probability(cuts.eps1, cuts.eps2)
            if cuts.lower_empty:
                lower = 0.0
            else:
                lower *= comp.interval_probability(cuts.eps3, cuts.eps4)
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
    # the one-box posterior_f of every cell exactly
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
}


def pruning_case(case):
    """The partition, model, noise and noise cells (None unless general) of
    a case, on 4 cells per dimension and 3 noise cells per component."""
    structure, bounds, exprs, components = PRUNING_CASES[case]
    n = len(bounds)
    part = partition_domain(Box.from_bounds(bounds), (4,) * n)
    noise = NoiseModel(components)
    cells = uniform_noise_grid(noise, [3] * n) if structure == "general" else None
    return part, parse_dynamics(exprs, n, structure), noise, cells


class TestCandidatePruning:
    @pytest.mark.parametrize("case", sorted(PRUNING_CASES))
    def test_pruned_build_matches_exhaustive_pairs(self, case):
        """Pairs skipped by the posterior-hull pruning must provably have
        upper bound 0; stored pairs, the unsafe column and the one-target
        functions must equal a per-pair scalar computation exactly."""
        part, model, noise, cells = pruning_case(case)
        structure = model.structure
        goal = [[e[0], e[1]] for e in part.edges]
        imc = build_imc(
            part, model, noise, {"goal": [Box.from_bounds(goal)]}, noise_cells=cells
        )
        for iq, q in enumerate(map(part.cell, range(part.n_cells))):
            stored = {tb.dst: (tb.lower, tb.upper) for tb in imc.rows[iq]}
            for it, target in enumerate(map(part.cell, range(part.n_cells))):
                expected = scalar_bounds(model, noise, cells, q, target)
                if cells is None:
                    one_target = transition_bounds_structured(
                        posterior_f(model, q), target, noise, structure
                    )
                else:
                    one_target = transition_bounds_general(model, cells, q, target)
                assert one_target == expected
                if it in stored:
                    assert stored[it] == expected
                else:
                    assert expected[1] == 0.0
            low_x, up_x = scalar_bounds(model, noise, cells, q, part.domain)
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
        part, model, noise, cells = pruning_case(case)
        labels = {"goal": [part.domain]}
        default = build_imc(part, model, noise, labels, noise_cells=cells)
        for a, b in zip(default.indptr[:-1], default.indptr[1:]):
            assert np.all(np.diff(default.dst[a:b]) > 0)
            assert default.dst[b - 1] == default.unsafe_index
        monkeypatch.setattr(imc_module, "_BLOCK_PAIRS", 3)
        blocked = build_imc(part, model, noise, labels, noise_cells=cells)
        for name in ("indptr", "dst", "lower", "upper"):
            assert np.array_equal(getattr(blocked, name), getattr(default, name)), name
        assert blocked.labels == default.labels

    @pytest.mark.parametrize("case", sorted(PRUNING_CASES))
    def test_pair_kernel_on_off_grid_boxes(self, case):
        """Random target boxes off the grid lines, like cluster boxes: every
        pair bound equals the per-pair scalar computation exactly."""
        part, model, noise, cells = pruning_case(case)
        posts = cell_posteriors(part, model, noise, noise_cells=cells)
        rng = np.random.default_rng(23)
        dom_lo, dom_hi = part.domain.endpoints()
        src = rng.integers(0, part.n_cells, 40)
        t_lo = rng.uniform(dom_lo, dom_hi, (40, len(dom_lo)))
        t_hi = rng.uniform(t_lo, dom_hi)
        lower, upper = pair_bounds(posts, src, t_lo, t_hi)
        for j, i in enumerate(src.tolist()):
            target = Box.from_bounds(zip(t_lo[j], t_hi[j]))
            expected = scalar_bounds(model, noise, cells, part.cell(i), target)
            assert (float(lower[j]), float(upper[j])) == expected


def _table(boxes):
    """A posterior table from one box per cell."""
    return PosteriorTable(*(np.array(e) for e in zip(*(b.endpoints() for b in boxes))))


class TestPosteriorTable:
    def _setup(self):
        part = partition_domain(Box.from_bounds([[0, 1]]), (2,))
        model = identity_additive()
        noise = NoiseModel((Uniform(-0.25, 0.25),))
        return part, model, noise

    def test_table_replaces_computed_posterior(self):
        part, model, noise = self._setup()
        table = _table(posterior_f(model, q) for q in map(part.cell, range(part.n_cells)))
        labels = {"goal": [Box.from_bounds([[0.5, 1]])]}
        from_table = build_imc(part, model, noise, labels, posterior_table=table)
        computed = build_imc(part, model, noise, labels)
        assert from_table.rows == computed.rows

    def test_shifted_table_changes_bounds(self):
        part, model, noise = self._setup()
        shifted = _table(
            Box.from_bounds([[q.component(0).lo + 0.5, q.component(0).hi + 0.5]])
            for q in map(part.cell, range(part.n_cells))
        )
        labels = {"goal": [Box.from_bounds([[0.5, 1]])]}
        imc = build_imc(part, model, noise, labels, posterior_table=shifted)
        baseline = build_imc(part, model, noise, labels)
        assert imc.rows != baseline.rows

    def test_missing_state_rejected(self):
        part, model, noise = self._setup()
        table = _table([posterior_f(model, part.cell(0))])
        with pytest.raises(InputError):
            build_imc(
                part,
                model,
                noise,
                {"goal": [Box.from_bounds([[0.5, 1]])]},
                posterior_table=table,
            )

    def test_file_round_trip(self, tmp_path):
        part, model, noise = self._setup()
        table = _table(posterior_f(model, q) for q in map(part.cell, range(part.n_cells)))
        path = tmp_path / "table.csv"
        write_posterior_table(table, path)
        loaded = read_posterior_table(path, part.n_cells, 1)
        assert np.array_equal(loaded.lo, table.lo) and np.array_equal(loaded.hi, table.hi)

    def test_incomplete_file_rejected(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("state,component,lo,hi\n0,0,0.0,0.5\n")
        with pytest.raises(InputError):
            read_posterior_table(path, 2, 1)

    @pytest.mark.parametrize(
        "rows, where",
        [
            (["0,0,0.0,0.5", "1,1,0.5,1.0"], "table.csv:3: component index out of range"),
            (["0,0,0.0,0.5", "", "1,0,nan,1.0"], "table.csv:4: empty or invalid interval"),
            (["0,0,0.5,0.0", "1,0,0.5,1.0"], "table.csv:2: empty or invalid interval"),
            (["0,0,0.0,0.5", "1,x,0.5,1.0"], "table.csv:3: malformed field"),
            (["0,0,0.0,0.5"], "missing state 1"),
            (["0,0,0.0,0.5", "1,0,0.5,1.0", "7,0,0.2,0.3"],
             "table.csv:4: state index out of range"),
            (["0,0,0.0,0.5", "-1,0,0.2,0.3", "1,0,0.5,1.0"],
             "table.csv:3: state index out of range"),
            (["0,0,0.0,0.5", "1,0,0.5,1.0", "0,0,0.2,0.3"],
             "table.csv:4: duplicate (state, component)"),
            (["0,0,0.0,inf", "1,0,0.5,1.0"], "table.csv:2: empty or invalid interval"),
        ],
        ids=["component", "nan", "order", "number", "missing", "state", "negative", "duplicate",
             "infinite"],
    )
    def test_malformed_file_rejected(self, tmp_path, rows, where):
        path = tmp_path / "table.csv"
        path.write_text("\n".join(["state,component,lo,hi"] + rows) + "\n")
        with pytest.raises(InputError, match=re.escape(where)):
            read_posterior_table(path, 2, 1)

    def test_blank_lines_and_any_order_accepted(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("state,component,lo,hi\n1,0,0.5,1.0\n\n0,0,0.0,0.5\n")
        loaded = read_posterior_table(path, 2, 1)
        assert (loaded.lo.tolist(), loaded.hi.tolist()) == ([[0.0], [0.5]], [[0.5], [1.0]])


class TestExports:
    def test_round_trip_and_determinism(self, tmp_path):
        part = partition_domain(Box.from_bounds([[0, 1]]), (4,))
        model = identity_additive()
        noise = NoiseModel((Uniform(-0.2, 0.2),))
        imc = build_imc(part, model, noise, {"goal": [Box.from_bounds([[0.75, 1]])]})
        b1, l1 = tmp_path / "imc1.csv", tmp_path / "lab1.csv"
        b2, l2 = tmp_path / "imc2.csv", tmp_path / "lab2.csv"
        write_imc(imc, b1, l1)
        write_imc(imc, b2, l2)
        assert b1.read_bytes() == b2.read_bytes()
        assert l1.read_bytes() == l2.read_bytes()
        loaded = read_imc(b1, l1, part)
        assert loaded.rows == imc.rows
        assert loaded.labels == imc.labels

    def test_blocked_write_same_bytes(self, tmp_path, monkeypatch):
        part = partition_domain(Box.from_bounds([[0, 1]]), (4,))
        noise = NoiseModel((Uniform(-0.2, 0.2),))
        imc = build_imc(part, identity_additive(), noise, {"goal": [Box.from_bounds([[0.75, 1]])]})
        write_imc(imc, tmp_path / "one.csv", tmp_path / "lab.csv")
        monkeypatch.setattr(imc_module, "_WRITE_ROWS", 3)  # blocks end inside rows
        write_imc(imc, tmp_path / "blocks.csv", tmp_path / "lab.csv")
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()

    def test_duplicate_pair_rejected(self, tmp_path):
        part = partition_domain(Box.from_bounds([[0, 1]]), (2,))
        imc = build_imc(part, identity_additive(), NoiseModel((Uniform(-0.2, 0.2),)), {})
        bounds, labels = tmp_path / "imc.csv", tmp_path / "labels.csv"
        write_imc(imc, bounds, labels)
        lines = bounds.read_text().splitlines()
        bounds.write_text("\n".join(lines + [lines[1]]) + "\n")
        with pytest.raises(InputError, match=f"imc.csv:{len(lines) + 1}: duplicate"):
            read_imc(bounds, labels, part)

    def _export(self, tmp_path):
        part = partition_domain(Box.from_bounds([[0, 1]]), (4,))
        noise = NoiseModel((Uniform(-0.2, 0.2),))
        imc = build_imc(part, identity_additive(), noise, {"goal": [Box.from_bounds([[0.75, 1]])]})
        bounds, labels = tmp_path / "imc.csv", tmp_path / "labels.csv"
        write_imc(imc, bounds, labels)
        return part, imc, bounds, labels

    # lines of the exported table: header, then 15 entries sorted by
    # (from, to), the first three 0,0 / 0,1 / 0,4
    @pytest.mark.parametrize(
        "edit, where",
        [
            (lambda lines: ["src,dst,lower,upper"] + lines[1:], "imc.csv:1: expected header"),
            (lambda lines: lines[:2] + [lines[2] + ",x"] + lines[3:],
             "imc.csv:3: expected 4 fields"),
            (lambda lines: lines[:2] + ["0,x,0.0,0.5"] + lines[3:], "imc.csv:3: malformed field"),
            (lambda lines: lines[:4] + ["1,5,0.0,0.5"] + lines[5:],
             "imc.csv:5: state index out of range"),
            (lambda lines: lines[:3] + ["0,4,0.6,0.5"] + lines[4:],
             "imc.csv:4: bound requires 0 <= lower <= upper <= 1"),
            (lambda lines: lines[:2] + ["0,1,nan,0.5"] + lines[3:],
             "imc.csv:3: bound requires 0 <= lower <= upper <= 1"),
            (lambda lines: lines[:6] + ["1,2,0.0,1.5"] + lines[7:],
             "imc.csv:7: bound requires 0 <= lower <= upper <= 1"),
            (lambda lines: lines + [lines[2]], "imc.csv:17: duplicate pair (0,1)"),
            # a blank line still counts toward the line numbers
            (lambda lines: lines[:3] + [""] + lines[3:] + [lines[2]],
             "imc.csv:18: duplicate pair (0,1)"),
        ],
        ids=["header", "fields", "number", "state-range", "order", "nan", "upper", "duplicate",
             "blank-then-duplicate"],
    )
    def test_malformed_table_rejected(self, tmp_path, edit, where):
        part, _, bounds, labels = self._export(tmp_path)
        bounds.write_text("\n".join(edit(bounds.read_text().splitlines())) + "\n")
        with pytest.raises(InputError, match=re.escape(where)):
            read_imc(bounds, labels, part)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda lines: lines[:5] + ["", "  "] + lines[5:],
            lambda lines: lines[:1] + lines[1:][::-1],
            lambda lines: lines[:1] + lines[8:] + lines[1:8],
        ],
        ids=["blank-lines", "reversed", "rotated"],
    )
    def test_tolerated_edits_load_the_same_arrays(self, tmp_path, edit):
        part, imc, bounds, labels = self._export(tmp_path)
        bounds.write_text("\n".join(edit(bounds.read_text().splitlines())) + "\n")
        loaded = read_imc(bounds, labels, part)
        for name in ("indptr", "dst", "lower", "upper"):
            assert np.array_equal(getattr(loaded, name), getattr(imc, name)), name
        assert loaded.labels == imc.labels


def test_row_validity_violation_raises():
    from imcverify.imc import _check_rows

    with pytest.raises(SoundnessError):
        _check_rows(np.array([0, 2]), np.array([0.7, 0.5]), np.array([0.8, 0.6]))
    with pytest.raises(SoundnessError):
        _check_rows(np.array([0, 1]), np.array([0.1]), np.array([0.4]))
