import itertools
import logging
import re
from pathlib import Path

import numpy as np
import pytest

from imcverify import imc as imc_module
from imcverify import cluster as cluster_module
from imcverify import verify as verify_module
from imcverify.config import load_config
from imcverify.errors import InputError, InvalidModelError, SpecificationError
from imcverify.geometry import partition_domain
from imcverify.imc import Imc, RowLayout, _row_sums, build_imc
from imcverify.pipeline import build_context, run_pipeline
from imcverify.verify import (
    _CLASSES,
    ReachAvoidSpec,
    _rank,
    classify_arrays,
    read_results,
    robust_value_iteration,
    write_results,
)
from csr_rows import csr, extremes, label_masks
from test_config_cli import PAPER_2D
from oracles import chain_reach_probability, extreme_by_vertex_enumeration, full_sweeps

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads"


def classes(res, threshold=0.9):
    """The class names of the states of ``res`` at ``threshold``."""
    return [_CLASSES[c] for c in classify_arrays(res.p_lower, res.p_upper, threshold)]


def make_imc(rows, n_cells, goal=(), obstacle=()):
    """Hand-built IMC over a dummy 1D grid with n_cells cells plus unsafe;
    ``goal`` and ``obstacle`` list the labelled cells."""
    part = partition_domain([0.0], [float(n_cells)], (n_cells,))
    return Imc(part, *csr(rows), label_masks(n_cells, goal, obstacle))


def scalar_walk(values, row, mode):
    """Reference: the greedy walk over one (dst, lower, upper) row, in Python floats."""
    entries = [(float(values[dst]), lower, upper, dst) for dst, lower, upper in row]
    sign = 1.0 if mode == "min" else -1.0
    remaining = 1.0 - sum(e[1] for e in entries)
    expectation = 0.0
    for value, lower, upper, _ in sorted(entries, key=lambda e: (sign * e[0], e[3])):
        gamma = lower
        if remaining > 0.0:
            add = min(remaining, upper - lower)
            gamma += add
            remaining -= add
        expectation += gamma * value
    return expectation


def walks(layout, values):
    """The minimum and the maximum walk of ``values`` over every row of ``layout``."""
    return layout.walk(_rank(values, 1.0), values), layout.walk(_rank(values, -1.0), values)


def random_row(rng, targets):
    anchor = rng.dirichlet(np.ones(len(targets)))
    lows = anchor * rng.uniform(0.0, 1.0, len(targets))
    ups = anchor + (1.0 - anchor) * rng.uniform(0.0, 1.0, len(targets))
    return tuple((int(t), float(lo), float(up)) for t, lo, up in zip(targets, lows, ups))


def three_state_fixture():
    rows = (
        ((0, 0.2, 0.4), (1, 0.4, 0.6), (2, 0.1, 0.3)),
        ((1, 1.0, 1.0),),
        ((2, 1.0, 1.0),),
    )
    return make_imc(rows, 2, goal=[1])


class TestAdversary:
    def test_two_successor_example(self):
        values = np.array([0.0, 1.0])
        low, high = extremes(values, ((0, 0.2, 0.8), (1, 0.2, 0.8)))
        assert low == pytest.approx(0.2)
        assert high == pytest.approx(0.8)

    def test_degenerate_row_is_dot_product(self):
        values = np.array([0.3, 0.9, 0.1])
        low, high = extremes(values, ((0, 0.5, 0.5), (1, 0.2, 0.2), (2, 0.3, 0.3)))
        expected = 0.5 * 0.3 + 0.2 * 0.9 + 0.3 * 0.1
        assert low == pytest.approx(expected)
        assert high == pytest.approx(expected)

    def test_equal_values_adversary_independent(self):
        values = np.array([0.7, 0.7, 0.7])
        low, high = extremes(values, ((0, 0.1, 0.9), (1, 0.0, 0.5), (2, 0.2, 0.6)))
        assert low == pytest.approx(0.7)
        assert high == pytest.approx(0.7)

    def test_infeasible_row(self):
        values = np.array([0.0, 1.0])
        with pytest.raises(InvalidModelError):
            extremes(values, ((0, 0.1, 0.3), (1, 0.1, 0.3)))
        with pytest.raises(InvalidModelError):
            extremes(values, ((0, 0.7, 0.8), (1, 0.6, 0.9)))

    @pytest.mark.parametrize("mode", ["min", "max"])
    def test_matches_vertex_enumeration(self, mode):
        rng = np.random.default_rng(101)
        for _ in range(300):
            m = int(rng.integers(1, 5))
            anchor = rng.dirichlet(np.ones(m))
            lows = anchor * rng.uniform(0.0, 1.0, m)
            ups = anchor + (1.0 - anchor) * rng.uniform(0.0, 1.0, m)
            values = rng.uniform(0.0, 1.0, m)
            row = tuple((i, float(lows[i]), float(ups[i])) for i in range(m))
            greedy = extremes(values, row)[("min", "max").index(mode)]
            exhaustive = extreme_by_vertex_enumeration(values, lows, ups, mode)
            assert greedy == pytest.approx(exhaustive, abs=1e-12)


    @pytest.mark.parametrize("mode", ["min", "max"])
    def test_matches_scalar_walk_bit_for_bit(self, mode):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            m = int(rng.integers(1, 7))
            targets = np.sort(rng.choice(10, m, replace=False))
            row = random_row(rng, targets)
            # few distinct values, so ties are common
            values = rng.choice([0.0, 0.25, 0.5, 1.0], 10)
            greedy = extremes(values, row)[("min", "max").index(mode)]
            assert greedy == scalar_walk(values, row, mode)


class TestValueIteration:
    def test_goal_state_pinned(self):
        imc = three_state_fixture()
        for horizon in (0, 1, 5, None):
            res = robust_value_iteration(imc, ReachAvoidSpec(horizon=horizon))
            assert res.p_lower[1] == 1.0 and res.p_upper[1] == 1.0

    def test_unsafe_absorbing_zero(self):
        imc = three_state_fixture()
        res = robust_value_iteration(imc, ReachAvoidSpec())
        assert res.p_lower[2] == 0.0 and res.p_upper[2] == 0.0

    def test_three_state_fixture_value(self):
        imc = three_state_fixture()
        res = robust_value_iteration(
            imc, ReachAvoidSpec(), convergence_tol=1e-12
        )
        assert res.p_lower[0] == pytest.approx(4.0 / 7.0, abs=1e-8)
        assert res.p_upper[0] == pytest.approx(6.0 / 7.0, abs=1e-8)
        assert res.converged

    def test_finite_horizon_exact_steps(self):
        imc = three_state_fixture()
        res0 = robust_value_iteration(imc, ReachAvoidSpec(horizon=0))
        assert res0.p_lower[0] == 0.0
        res1 = robust_value_iteration(imc, ReachAvoidSpec(horizon=1))
        # one step: worst adversary sends only the forced 0.4 to the goal
        assert res1.p_lower[0] == pytest.approx(0.4)
        assert res1.p_upper[0] == pytest.approx(0.6)
        assert res1.iterations == 1

    def test_interval_ordering_and_monotone_convergence(self):
        imc = three_state_fixture()
        spec = ReachAvoidSpec()
        prev_lo, prev_hi = None, None
        for k in range(0, 40, 3):
            res = robust_value_iteration(imc, ReachAvoidSpec(horizon=k))
            assert np.all(res.p_lower <= res.p_upper + 1e-12)
            if prev_lo is not None:
                # reach probabilities grow from the goal indicator upward
                assert np.all(res.p_lower >= prev_lo - 1e-12)
                assert np.all(res.p_upper >= prev_hi - 1e-12)
            prev_lo, prev_hi = res.p_lower, res.p_upper
        assert spec.horizon is None

    def test_degenerate_chain_matches_linear_solve(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            n_cells = int(rng.integers(3, 10))
            n = n_cells + 1
            goal_state = 0
            rows = []
            chain = []
            for s in range(n_cells):
                if s == goal_state:
                    rows.append(((s, 1.0, 1.0),))
                    chain.append({s: 1.0})
                    continue
                probs = rng.dirichlet(np.ones(n) * 0.7)
                row = tuple((t, float(p), float(p)) for t, p in enumerate(probs) if p > 0)
                rows.append(row)
                chain.append({t: float(p) for t, p in enumerate(probs) if p > 0})
            rows.append(((n_cells, 1.0, 1.0),))
            chain.append({n_cells: 1.0})
            imc = make_imc(tuple(rows), n_cells, goal=[goal_state])
            res = robust_value_iteration(
                imc, ReachAvoidSpec(), convergence_tol=1e-13
            )
            exact = chain_reach_probability(chain, {goal_state}, {n_cells})
            assert np.max(np.abs(res.p_lower - exact)) < 1e-8
            assert np.max(np.abs(res.p_upper - exact)) < 1e-8

    def test_one_sweep_matches_single_rows(self):
        """One sweep over rows of unequal length, tied values (the goal
        indicator) and slack that runs out part-way through a row gives each
        row exactly its single-row extreme expectation."""
        rows = (
            ((0, 0.1, 0.3), (1, 0.1, 0.4), (2, 0.1, 0.5), (3, 0.1, 0.2), (4, 0.1, 0.3)),
            ((1, 0.4, 0.7), (2, 0.3, 0.6)),
            ((2, 1.0, 1.0),),
            ((0, 0.2, 0.5), (4, 0.1, 0.6), (6, 0.0, 0.35)),
            ((4, 1.0, 1.0),),
            ((5, 1.0, 1.0),),
            ((6, 1.0, 1.0),),
        )
        rng = np.random.default_rng(8)
        cases = [(rows, [2, 4], 6)]
        for _ in range(20):
            n_cells = 8
            lengths = rng.integers(1, 7, n_cells)
            random_rows = tuple(
                random_row(rng, np.sort(rng.choice(n_cells + 1, m, replace=False)))
                for m in lengths
            ) + (((n_cells, 1.0, 1.0),),)
            random_goal = [s for s in range(n_cells) if rng.random() < 0.3]
            cases.append((random_rows, random_goal, n_cells))
        for rows, goal, n_cells in cases:
            imc = make_imc(rows, n_cells, goal)
            res = robust_value_iteration(imc, ReachAvoidSpec(horizon=1))
            values = imc.labels["goal"].astype(float)
            for i, row in enumerate(rows):
                if imc.labels["goal"][i] or imc.labels["unsafe"][i]:
                    continue
                for mode, bound, expected in zip(
                    ("min", "max"), (res.p_lower, res.p_upper), extremes(values, row)
                ):
                    assert bound[i] == expected == scalar_walk(values, row, mode)

    def test_multi_row_block_matches_scalar_walk(self):
        """The second sweep's rows read fixed values in {0, 0.25, 0.5, 1}:
        each value state sends exactly its value to a goal state and the
        rest to an obstacle. Over rows of length 1-70 (every width-class
        boundary up to 64), heavy ties and rows whose lower bounds sum to 1,
        the sweep gives every row its scalar walk, bit for bit."""
        rng = np.random.default_rng(77)
        n_values = 80
        values = np.concatenate([[1.0, 0.0], rng.choice([0.0, 0.25, 0.5, 1.0], n_values - 2)])
        rows, goal, obstacle = [], [], []
        for s, v in enumerate(values.tolist()):
            if v in (0.0, 1.0):
                rows.append(((s, 1.0, 1.0),))
                (goal if v else obstacle).append(s)
            else:
                rows.append(((0, v, v), (1, 1.0 - v, 1.0 - v)))
        lengths = [1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65, 70]
        lengths += rng.integers(1, 71, 30).tolist()
        for k, m in enumerate(lengths):
            s = n_values + k
            targets = np.sort(rng.choice(n_values, m, replace=False))
            if k % 3 == 2:
                # dyadic lower bounds that sum to exactly 1: nothing remains
                lows = rng.multinomial(64, np.ones(m) / m) / 64.0
                ups = np.minimum(1.0, lows + rng.choice([0.0, 0.25, 0.5], m))
                rows.append(tuple(
                    (int(t), float(lo), float(up)) for t, lo, up in zip(targets, lows, ups)
                ))
            else:
                rows.append(random_row(rng, targets))
        n_cells = n_values + len(lengths)
        rows.append(((n_cells, 1.0, 1.0),))
        imc = make_imc(tuple(rows), n_cells, goal, obstacle)
        res = robust_value_iteration(imc, ReachAvoidSpec(horizon=2))
        assert np.array_equal(res.p_lower[:n_values], values)
        assert np.array_equal(res.p_upper[:n_values], values)
        for s in range(n_values, n_cells):
            low = scalar_walk(values, rows[s], "min")
            high = scalar_walk(values, rows[s], "max")
            assert res.p_upper[s] == high
            assert res.p_lower[s] == min(low, high)

    def test_wide_width_class_matches_scalar_walk(self, monkeypatch):
        """600 rows of length 5-8 share one width class: row sums and both
        walks are bit-equal whether its block adds row by row (``_LOOP_ROWS``
        1) or by np.cumsum (10**9), and match a sequential sum and the
        scalar walk of every row."""
        rng = np.random.default_rng(15)
        n_states = 700
        lengths = np.concatenate([rng.integers(5, 9, 600), rng.integers(1, 40, 100)])
        rng.shuffle(lengths)
        rows = tuple(
            random_row(rng, np.sort(rng.choice(n_states, m, replace=False)))
            for m in lengths.tolist()
        )
        indptr, dst, lower, upper = csr(rows)
        values = rng.random(n_states)
        results = []
        for loop_rows in (1, 10**9):
            monkeypatch.setattr(imc_module, "_LOOP_ROWS", loop_rows)
            layout = RowLayout(indptr, dst, lower, upper, InvalidModelError)
            assert max(len(rows) for rows, *_ in layout.blocks) >= 512
            low, high = walks(layout, values)
            results.append((_row_sums(indptr, upper), layout.remaining, low, high))
        for looped, cumsummed in zip(*results):
            assert np.array_equal(looped, cumsummed)
        sums, _, low, high = results[0]
        for i, row in enumerate(rows):
            total = 0.0
            for _, _, up in row:
                total += up
            assert sums[i] == total
            assert low[i] == scalar_walk(values, row, "min")
            assert high[i] == scalar_walk(values, row, "max")

    @pytest.mark.parametrize("budget", [imc_module._BLOCK_SLOTS, 16, 1])
    def test_padding_and_width_classes_keep_the_bits(self, budget, monkeypatch):
        """Rows of lengths on both sides of the width classes (multiples of
        8), every other one with an entry to state 0, and values with ties:
        both walks of every row match ``scalar_walk``, the row sums a Python
        loop, and a part's walks those of the rows of its mask (empty, full,
        single rows, random) and 0 on every other row, with blocks of one
        row, two rows of width 8 and whole width classes."""
        monkeypatch.setattr(imc_module, "_BLOCK_SLOTS", budget)
        rng = np.random.default_rng(43)
        n_states = 80
        values = rng.choice(rng.random(12), n_states)
        rows = []
        for k, m in enumerate([1, 7, 8, 9, 15, 16, 17, 24, 25, 64, 65] * 3):
            targets = np.sort(rng.choice(np.arange(1, n_states), m - k % 2, replace=False))
            rows.append(random_row(rng, np.concatenate([[0] * (k % 2), targets])))
        assert sum(row[0][0] == 0 for row in rows) == len(rows) // 2
        indptr, dst, lower, upper = csr(rows)
        layout = RowLayout(indptr, dst, lower, upper, InvalidModelError)
        low, high = walks(layout, values)
        sums = _row_sums(indptr, lower)
        for i, row in enumerate(rows):
            assert low[i] == scalar_walk(values, row, "min")
            assert high[i] == scalar_walk(values, row, "max")
            total = 0.0
            for _, lo, _ in row:
                total += lo
            assert sums[i] == total
        count = len(rows)
        masks = [np.zeros(count, dtype=bool), np.ones(count, dtype=bool)]
        masks += [np.arange(count) == k for k in (0, 7, count - 1)]
        masks += [rng.random(count) < share for share in (0.1, 0.5, 0.9) for _ in range(5)]
        for mask in masks:
            part_low, part_high = walks(layout.part(mask), values)
            assert np.array_equal(part_low, np.where(mask, low, 0.0))
            assert np.array_equal(part_high, np.where(mask, high, 0.0))

    @pytest.mark.parametrize("budget", [imc_module._BLOCK_SLOTS, 16, 1])
    def test_layout_of_masked_rows_keeps_their_bits(self, budget, monkeypatch):
        """A layout of the rows in a mask alone walks them to the bits of
        the layout of every row, and the other rows to 0."""
        monkeypatch.setattr(imc_module, "_BLOCK_SLOTS", budget)
        rng = np.random.default_rng(47)
        n = 40
        rows = [random_row(rng, np.sort(rng.choice(n, m, replace=False)))
                for m in rng.integers(1, 30, n).tolist()]
        indptr, dst, lower, upper = csr(rows)
        values = rng.choice(rng.random(8), n)
        low, high = walks(RowLayout(indptr, dst, lower, upper), values)
        masks = [np.zeros(n, dtype=bool), np.ones(n, dtype=bool)]
        masks += [rng.random(n) < share for share in (0.1, 0.5, 0.9)]
        for mask in masks:
            only_low, only_high = walks(RowLayout(indptr, dst, lower, upper, walked=mask), values)
            assert np.array_equal(only_low, np.where(mask, low, 0.0))
            assert np.array_equal(only_high, np.where(mask, high, 0.0))

    def test_label_overlap_rejected(self):
        rows = (((0, 1.0, 1.0),), ((1, 1.0, 1.0),))
        imc = make_imc(rows, 1, goal=[0], obstacle=[0])
        with pytest.raises(SpecificationError):
            robust_value_iteration(imc, ReachAvoidSpec())

    def test_iteration_cap_reports_not_converged(self, caplog):
        imc = three_state_fixture()
        with caplog.at_level(logging.WARNING, logger="imcverify"):
            res = robust_value_iteration(
                imc, ReachAvoidSpec(), convergence_tol=1e-15, max_iterations=3
            )
        assert not res.converged
        assert res.iterations == 3
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        # the upper bound stopped below its fixpoint: the pre-fixpoint check
        # fails, and with no sweep left the upper bound is its start from 1
        residual = f"the upper bound is not a pre-fixpoint (residual {res.upper_residual:g})"
        assert len(warnings) == 2 and warnings[0].startswith(residual)
        assert "iterating it down from 1" in warnings[0] and "max_iterations=3" in warnings[1]
        assert res.p_upper.tolist() == [1.0, 1.0, 0.0]
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="imcverify"):
            res = robust_value_iteration(imc, ReachAvoidSpec())
        assert res.converged
        # converged on the tolerance, not at a fixpoint: only the pre-fixpoint
        # check warns, and 11 sweeps down from 1 follow the first 13
        residual = f"the upper bound is not a pre-fixpoint (residual {res.upper_residual:g})"
        assert [r.getMessage().split(":")[0] for r in caplog.records] == [residual]
        assert res.iterations == 24
        assert 6 / 7 <= res.p_upper[0] < 0.9 and classes(res)[0] == "violates"


def sweep_both_every_time(imc, spec, convergence_tol=1e-6, max_iterations=10**5):
    """Reference value iteration that sweeps both bounds on every sweep and,
    when an unbounded upper bound that is no bitwise fixpoint fails the
    pre-fixpoint check, sweeps it again from 1 (0 on avoid states) for the
    sweeps left. Returns p_lower, p_upper, the sweep count, convergence and,
    per bound, the first sweep that returned the bits it was given (or
    None)."""
    goal, avoid = imc.labels["goal"], imc.labels["obstacle"] | imc.labels["unsafe"]
    pinned = goal | avoid
    layout = RowLayout(imc.indptr, imc.dst, imc.lower, imc.upper, InvalidModelError)
    v_lo, v_hi = goal.astype(float), goal.astype(float)
    iterations, converged, fixpoints = 0, spec.horizon is not None, [None, None]
    for _ in range(spec.horizon if spec.horizon is not None else max_iterations):
        low, high = layout.walk(_rank(v_lo, 1.0), v_lo), layout.walk(_rank(v_hi, -1.0), v_hi)
        low[pinned], high[pinned] = v_lo[pinned], v_hi[pinned]
        iterations += 1
        for b, (new, old) in enumerate(((low, v_lo), (high, v_hi))):
            if fixpoints[b] is None and new.tobytes() == old.tobytes():
                fixpoints[b] = iterations
        delta = max(float(np.max(np.abs(low - v_lo))), float(np.max(np.abs(high - v_hi))))
        v_lo, v_hi = low, high
        if spec.horizon is None and delta < convergence_tol:
            converged = True
            break
    swept = layout.walk(_rank(v_hi, -1.0), v_hi)
    if spec.horizon is None and fixpoints[1] is None and np.any(swept[~pinned] > v_hi[~pinned]):
        v_hi, converged = (~avoid).astype(float), False
        while iterations < max_iterations and not converged:
            high = layout.walk(_rank(v_hi, -1.0), v_hi)
            high[pinned] = v_hi[pinned]
            iterations += 1
            if fixpoints[1] is None and high.tobytes() == v_hi.tobytes():
                fixpoints[1] = iterations
            converged = float(np.max(np.abs(high - v_hi))) < convergence_tol
            v_hi = high
    return np.minimum(v_lo, v_hi), v_hi, iterations, converged, tuple(fixpoints)


def lower_settles_first():
    """Cell 3 is the goal. The lower bound of cell 0 sends its slack to the
    unsafe state and settles after four sweeps; its upper bound keeps it on
    the self-loop and creeps towards cell 1's value by a factor 0.9 a sweep."""
    rows = (
        ((0, 0.0, 0.9), (1, 0.1, 0.1), (4, 0.0, 0.9)),
        ((2, 1.0, 1.0),),
        ((3, 0.3, 0.3), (4, 0.7, 0.7)),
        ((3, 1.0, 1.0),),
        ((4, 1.0, 1.0),),
    )
    return make_imc(rows, 4, goal=[3])


def both_settle():
    """An acyclic chain into the goal (cell 3). The lower bound can send the
    mass of cells 0 and 1 to the unsafe state and settles at sweep 2; the
    upper bound follows the chain and settles at sweep 4."""
    rows = (
        ((1, 0.0, 0.6), (4, 0.4, 1.0)),
        ((2, 0.0, 0.7), (3, 0.0, 0.5), (4, 0.3, 1.0)),
        ((3, 0.1, 0.2), (4, 0.8, 0.9)),
        ((3, 1.0, 1.0),),
        ((4, 1.0, 1.0),),
    )
    return make_imc(rows, 4, goal=[3])


class TestSettledBounds:
    """A bound whose sweep returns the bits it was given is not swept again;
    the result keeps the bits and the sweep count of sweeping it every time."""

    @staticmethod
    def assert_same(res, ref):
        p_lower, p_upper, iterations, converged, fixpoints = ref
        assert res.p_lower.tobytes() == p_lower.tobytes()
        assert res.p_upper.tobytes() == p_upper.tobytes()
        assert (res.iterations, res.converged, res.fixpoints) == (iterations, converged, fixpoints)

    @pytest.mark.parametrize("build", [lower_settles_first, both_settle])
    def test_finite_horizons_past_a_fixpoint(self, build):
        imc = build()
        for horizon in range(1, 61):
            spec = ReachAvoidSpec(horizon=horizon)
            self.assert_same(robust_value_iteration(imc, spec), sweep_both_every_time(imc, spec))
        fixpoints = robust_value_iteration(imc, ReachAvoidSpec(horizon=60)).fixpoints
        assert fixpoints == ((4, None) if build is lower_settles_first else (2, 4))

    @pytest.mark.parametrize("build", [lower_settles_first, both_settle])
    @pytest.mark.parametrize("tol, cap", [(1e-6, 10**5), (1e-15, 10**5), (0.0, 80)])
    def test_unbounded_horizon(self, build, tol, cap, caplog):
        imc = build()
        with caplog.at_level(logging.DEBUG, logger="imcverify"):
            res = robust_value_iteration(
                imc, ReachAvoidSpec(), convergence_tol=tol, max_iterations=cap
            )
        ref = sweep_both_every_time(imc, ReachAvoidSpec(), tol, cap)
        self.assert_same(res, ref)
        lower, upper = res.fixpoints
        assert f"bitwise fixpoint from sweep {lower} (lower), {upper} (upper)" in caplog.text
        if tol == 0.0:  # no sweep can converge: every sweep up to the cap counts
            assert (res.iterations, res.converged) == (cap, False)


class TestPreFixpointCheck:
    """An unbounded upper bound iterated up from the goal indicator may stop
    on the tolerance far below the maximal reach probability. One more
    maximising sweep checks it (``upper_residual``); where the check fails,
    the upper bound is iterated again, down from 1."""

    @staticmethod
    def pinned(imc):
        return imc.labels["goal"] | imc.labels["obstacle"] | imc.labels["unsafe"]

    @pytest.mark.parametrize("stay, reach", [(0.999999, 1e-6), (0.9999999, 1e-7)])
    @pytest.mark.parametrize("cap", [1, 2, 3, 4, 5])
    def test_tolerance_stop_does_not_violate(self, stay, reach, cap):
        """Cell 1 is the goal. Cell 0 may stay with up to ``stay`` and reaches
        the goal with ``reach``, so the maximal probability of reaching it is
        1; the iterate stops after a sweep or two near ``reach``."""
        rows = (((0, 0.0, stay), (1, reach, reach), (2, 0.0, 1.0)), ((1, 1.0, 1.0),), ((2, 1.0, 1.0),))
        res = robust_value_iteration(make_imc(rows, 2, goal=[1]), ReachAvoidSpec(), max_iterations=cap)
        assert res.p_upper[0] >= 0.9999
        assert res.upper_residual > 0.0
        assert classes(res)[2] == "violates"  # the unsafe state's 0 is pinned, not iterated

    def test_lossy_end_component_keeps_the_certified_bound(self):
        """Cell 0 may loop on itself or move to cell 1, which reaches the goal
        (cell 2) and the unsafe state with 0.5 each. The iterate from the goal
        indicator is a bitwise fixpoint at 0.5 and certified; an iterate down
        from 1 would keep the loop at 1."""
        rows = (((0, 0.0, 1.0), (1, 0.0, 1.0)), ((2, 0.5, 0.5), (3, 0.5, 0.5)),
                ((2, 1.0, 1.0),), ((3, 1.0, 1.0),))
        res = robust_value_iteration(make_imc(rows, 3, goal=[2]), ReachAvoidSpec())
        assert res.fixpoints[1] is not None and res.upper_residual == 0.0
        assert res.p_upper[0] == 0.5 and classes(res)[0] == "violates"

    @pytest.mark.parametrize("tol", [1e-6, 0.1])
    @pytest.mark.parametrize("cap", [1, 2, 3, 4, 5, 10**5])
    def test_exported_upper_bound_is_a_pre_fixpoint(self, tol, cap):
        """However the sweeps stop, every state that is neither goal nor avoid
        has a ``p_upper`` no lower than its one-step maximum over ``p_upper``
        (vertex enumeration), so ``p_upper`` lies above the least fixpoint."""
        rng = np.random.default_rng(37)
        for _ in range(8):
            imc = random_imc(rng, int(rng.integers(2, 9)))
            res = robust_value_iteration(
                imc, ReachAvoidSpec(), convergence_tol=tol, max_iterations=cap
            )
            for i in np.flatnonzero(~self.pinned(imc)).tolist():
                e = slice(imc.indptr[i], imc.indptr[i + 1])
                best = extreme_by_vertex_enumeration(
                    res.p_upper[imc.dst[e]], imc.lower[e], imc.upper[e], "max"
                )
                assert res.p_upper[i] >= best - 1e-12, (i, res.p_upper[i], best)

    def test_float_noise_residual_keeps_the_verdicts(self):
        """paper-mult-40 under a tolerance of 0.05 stops on it with a residual
        of about 4e-11, rounding noise. Two sweeps down from 1 follow, and
        every verdict is that of the default tolerance: cell 6, neither goal
        nor avoid, violates with that run's ``p_upper`` bits."""
        ctx = build_context(load_config(WORKLOADS / "paper-mult-40.yaml"))
        imc = build_imc(ctx.posteriors(), ctx.labels)
        res = robust_value_iteration(imc, ctx.spec, convergence_tol=0.05)
        ref = robust_value_iteration(imc, ctx.spec)
        assert 0.0 < res.upper_residual < 1e-10 and ref.upper_residual == 0.0
        assert (res.iterations, res.converged, ref.iterations) == (13, True, 20)
        assert not self.pinned(imc)[6]
        assert res.p_upper[6] == ref.p_upper[6] < ctx.spec.threshold
        assert classes(res, ctx.spec.threshold) == classes(ref, ctx.spec.threshold)
        assert classes(res, ctx.spec.threshold).count("violates") == 38

    def test_fixpoint_is_certified_without_a_sweep(self, monkeypatch):
        """After a bitwise fixpoint of the upper bound the residual is 0.0
        without the extra sweep, and a state below the threshold violates."""
        imc, checked = both_settle(), []
        monkeypatch.setattr(verify_module, "_residual", lambda *args: checked.append(args))
        res = robust_value_iteration(imc, ReachAvoidSpec())
        assert res.fixpoints[1] is not None and not checked
        assert res.upper_residual == 0.0
        assert res.p_upper[0] < 0.9 and classes(res)[0] == "violates"
        monkeypatch.undo()
        layout = RowLayout(imc.indptr, imc.dst, imc.lower, imc.upper)
        assert verify_module._residual(layout, res.p_upper, self.pinned(imc)) == 0.0

    def test_residual_comes_from_the_sweeps_layout(self, tmp_path, monkeypatch):
        """On the 10² paper config under a tolerance of 0.05 the upper bound
        stops on the tolerance, not at its fixpoint (sweep 9 under the
        default): value iteration lays the IMC out once and takes the
        residual from that layout, with the bits of ``_residual`` on a layout
        of its own."""
        path = tmp_path / "paper.yaml"
        path.write_text(PAPER_2D)
        ctx = build_context(load_config(path))
        imc = build_imc(ctx.posteriors(), ctx.labels)
        built, checked, residual = [], [], verify_module._residual

        class Counted(RowLayout):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        def counted_residual(layout, p_upper, pinned):
            checked.append((layout, p_upper.copy()))
            return residual(layout, p_upper, pinned)

        monkeypatch.setattr(verify_module, "RowLayout", Counted)
        monkeypatch.setattr(verify_module, "_residual", counted_residual)
        res = robust_value_iteration(imc, ctx.spec, convergence_tol=0.05)
        assert res.converged and res.fixpoints[1] is None
        assert len(built) == 1 and len(checked) == 1 and checked[0][0] is built[0]
        assert res.upper_residual > 0.0
        monkeypatch.undo()
        layout = RowLayout(imc.indptr, imc.dst, imc.lower, imc.upper)
        assert res.upper_residual == residual(layout, checked[0][1], self.pinned(imc))

    def test_finite_horizons_are_exempt(self):
        res = robust_value_iteration(three_state_fixture(), ReachAvoidSpec(horizon=3))
        assert res.upper_residual is None
        assert classes(res)[0] == "violates"


def random_imc(rng, n_cells):
    """Random rows of 1 to 12 successors among the cells and the unsafe
    state, with random goal and obstacle cells."""
    rows = tuple(
        random_row(rng, np.sort(rng.choice(n_cells + 1, m, replace=False)))
        for m in rng.integers(1, min(13, n_cells + 2), n_cells).tolist()
    ) + (((n_cells, 1.0, 1.0),),)
    marks = rng.random(n_cells)
    return make_imc(rows, n_cells, np.flatnonzero(marks < 0.15), np.flatnonzero(marks > 0.9))


class TestSweepBlocks:
    """Value iteration sorts and walks blocks of at most ``_BLOCK_SLOTS``
    slots; the budget changes neither the bits nor the sweep counts."""

    @staticmethod
    def sweeps(imc, spec, budget, monkeypatch):
        """With no tolerance the unbounded horizon runs until both bounds
        return their bits (or 400 sweeps)."""
        monkeypatch.setattr(imc_module, "_BLOCK_SLOTS", budget)
        res = robust_value_iteration(imc, spec, convergence_tol=0.0, max_iterations=400)
        return res.p_lower.tobytes(), res.p_upper.tobytes(), res.iterations, res.fixpoints

    def test_random_imcs(self, monkeypatch):
        rng = np.random.default_rng(31)
        default, fixpoints = imc_module._BLOCK_SLOTS, []
        for _ in range(6):
            imc = random_imc(rng, int(rng.integers(2, 25)))
            for spec in (ReachAvoidSpec(), ReachAvoidSpec(horizon=25)):
                expected = self.sweeps(imc, spec, default, monkeypatch)
                fixpoints += expected[3]
                for budget in (1, 7):
                    assert self.sweeps(imc, spec, budget, monkeypatch) == expected
        assert sum(f is not None for f in fixpoints) >= 6

    def test_additive_h200_phased(self, monkeypatch):
        """The bench IMC (1,601 states, 200 sweeps). Budgets 1 and 7, which
        put each row in a block alone, run the first sweeps only."""
        ctx = build_context(load_config(WORKLOADS / "additive-h200-phased.yaml"))
        imc = build_imc(ctx.posteriors(), ctx.labels)
        default = imc_module._BLOCK_SLOTS
        # one block per width class at the default budget
        layout = RowLayout(imc.indptr, imc.dst, imc.lower, imc.upper)
        widths = [block.shape[1] for _, block, _, _ in layout.blocks]
        assert len(set(widths)) == len(widths)
        expected = self.sweeps(imc, ctx.spec, default, monkeypatch)
        assert self.sweeps(imc, ctx.spec, 2**12, monkeypatch) == expected
        first = ReachAvoidSpec(horizon=3, threshold=ctx.spec.threshold)
        expected = self.sweeps(imc, first, default, monkeypatch)
        for budget in (1, 7):
            assert self.sweeps(imc, first, budget, monkeypatch) == expected


@pytest.fixture(scope="module")
def additive_h200():
    """The IMC and spec of the additive-h200-phased bench config."""
    ctx = build_context(load_config(WORKLOADS / "additive-h200-phased.yaml"))
    return build_imc(ctx.posteriors(), ctx.labels), ctx.spec


@pytest.fixture(scope="module")
def paper_mult_40():
    """The IMC and spec of the paper-mult-40 bench config."""
    ctx = build_context(load_config(WORKLOADS / "paper-mult-40.yaml"))
    return build_imc(ctx.posteriors(), ctx.labels), ctx.spec


class TestMonotoneIterates:
    """Both bounds rise from the goal indicator, as their exact iterates do,
    and never above 1; round-off cannot keep a settled bound sweeping."""

    def test_additive_h200_upper_bound_settles_at_most_1(self, additive_h200):
        """Near 1 + 1.5e-14, round-off used to move about 700 upper bounds by
        an ulp on every one of the 200 sweeps."""
        imc, spec = additive_h200
        res = robust_value_iteration(imc, spec)
        assert np.all(res.p_upper <= 1.0)
        assert res.fixpoints[1] is not None and res.fixpoints[1] <= 20
        later = robust_value_iteration(
            imc, ReachAvoidSpec(horizon=spec.horizon + 50, threshold=spec.threshold))
        assert later.p_lower.tobytes() == res.p_lower.tobytes()
        assert later.p_upper.tobytes() == res.p_upper.tobytes()

    @pytest.mark.parametrize("fixture", ["three_state", "additive_h200"])
    def test_finite_horizon_bounds_never_fall(self, fixture, request):
        """No tolerance: p_lower and p_upper are non-decreasing in k."""
        imc = three_state_fixture() if fixture == "three_state" else request.getfixturevalue(
            fixture)[0]
        previous = None
        for k in range(61):
            res = robust_value_iteration(imc, ReachAvoidSpec(horizon=k))
            assert np.all(res.p_upper <= 1.0)
            if previous is not None:
                assert np.all(res.p_lower >= previous.p_lower), k
                assert np.all(res.p_upper >= previous.p_upper), k
            previous = res

    def test_finite_horizons_match_a_vertex_dynamic_program(self):
        """On random IMCs, the bounds at horizon k <= 25 are the k-step
        minimum and maximum of a dynamic program over the vertices of each
        row's adversary polytope, to 1e-12."""
        rng = np.random.default_rng(43)
        for _ in range(8):
            imc = random_imc(rng, int(rng.integers(2, 8)))
            goal = imc.labels["goal"]
            pinned = goal | imc.labels["obstacle"] | imc.labels["unsafe"]
            exact = {"min": goal.astype(float), "max": goal.astype(float)}
            for k in range(1, 26):
                for mode, values in exact.items():
                    step = values.copy()
                    for i in np.flatnonzero(~pinned).tolist():
                        e = slice(imc.indptr[i], imc.indptr[i + 1])
                        step[i] = extreme_by_vertex_enumeration(
                            values[imc.dst[e]], imc.lower[e], imc.upper[e], mode)
                    exact[mode] = step
                res = robust_value_iteration(imc, ReachAvoidSpec(horizon=k))
                assert np.allclose(res.p_lower, exact["min"], rtol=0.0, atol=1e-12), k
                assert np.allclose(res.p_upper, exact["max"], rtol=0.0, atol=1e-12), k


def graph_imc(rng, n_cells, kind):
    """Random rows over ``n_cells`` cells and the unsafe state, with random
    goal and obstacle cells, whose free rows form the graph ``kind``:
    "acyclic" (a row reads later states only), "self-loops" (a row reads its
    own state), "2-cycles" (cells 2k and 2k + 1 read each other) or "hidden"
    (about a third of the cells are read by goal and obstacle rows alone)."""
    marks = rng.random(n_cells)
    goal, obstacle = np.flatnonzero(marks < 0.15), np.flatnonzero(marks > 0.9)
    pinned = (marks < 0.15) | (marks > 0.9)
    hidden = np.flatnonzero(rng.random(n_cells) < 0.3) if kind == "hidden" else []
    rows = []
    for i in range(n_cells):
        pool = np.arange(i + 1 if kind == "acyclic" else 0, n_cells + 1)
        if not pinned[i]:
            pool = np.setdiff1d(pool, hidden)
        targets = rng.choice(pool, min(len(pool), int(rng.integers(1, 9))), replace=False)
        forced = {"self-loops": [i], "2-cycles": [i ^ 1] if i ^ 1 < n_cells else []}.get(kind, [])
        rows.append(random_row(rng, np.union1d(targets, hidden if pinned[i] else forced)))
    rows.append(((n_cells, 1.0, 1.0),))
    return make_imc(tuple(rows), n_cells, goal, obstacle)


def reading_reference(indptr, dst, rows, moved):
    """The mask of ``rows`` (a boolean mask over the CSR rows) whose row
    reads a state in the mask ``moved``, one row at a time."""
    return np.array([bool(r) and moved[dst[indptr[i]:indptr[i + 1]]].any()
                     for i, r in enumerate(rows)], dtype=bool)


class TestReading:
    """``RowLayout.reading`` marks exactly the laid-out rows that read a
    moved value, never by a padded slot."""

    @pytest.mark.parametrize("budget", [imc_module._BLOCK_SLOTS, 16, 1])
    def test_marks_the_rows_that_read_a_moved_state(self, budget, monkeypatch):
        """Empty rows and rows of lengths on both sides of the width
        classes, every other one reading state 0 and every third the last
        (unsafe) state, laid out whole or in part, against moved masks that
        hold state 0, the unsafe state, both, none, all or a random share.
        Empty rows fail the row check, so it is replaced here by the
        remaining mass alone."""
        monkeypatch.setattr(imc_module, "_BLOCK_SLOTS", budget)
        monkeypatch.setattr(imc_module, "_check_rows",
                            lambda indptr, lower, *_: 1.0 - _row_sums(indptr, lower))
        rng = np.random.default_rng(61)
        n_states = 80
        unsafe = n_states - 1
        rows = []
        for k, m in enumerate([0, 1, 7, 8, 9, 15, 16, 17, 24, 25, 64, 65] * 3):
            ends = ([0] if k % 2 else []) + ([unsafe] if k % 3 == 0 else [])
            ends = ends[:m]
            inner = rng.choice(np.arange(1, unsafe), m - len(ends), replace=False)
            rows.append(random_row(rng, np.sort(np.concatenate([inner, ends]).astype(int))))
        indptr, dst, lower, upper = csr(rows)
        count = len(rows)
        assert sum(any(t == 0 for t, *_ in row) for row in rows) > 10
        assert sum(any(t == unsafe for t, *_ in row) for row in rows) > 5
        states = np.arange(n_states)
        masks = [states == 0, states == unsafe, (states == 0) | (states == unsafe),
                 np.zeros(n_states, dtype=bool), np.ones(n_states, dtype=bool)]
        masks += [rng.random(n_states) < share for share in (0.02, 0.1, 0.5) for _ in range(3)]
        marked = 0
        for walked in (None, rng.random(count) < 0.5):
            layout = RowLayout(indptr, dst, lower, upper, walked=walked)
            rows_laid_out = np.ones(count, dtype=bool) if walked is None else walked
            for moved in masks:
                reads = layout.reading(moved)
                assert np.array_equal(reads, reading_reference(indptr, dst, rows_laid_out, moved))
                marked += int(reads.sum())
        assert marked > 0

    def test_a_cluster_marks_its_row_when_a_member_moved(self):
        """On the clustered rows of the cluster pass, with a cluster slot
        marked where one of its members moved, a row is marked exactly
        where its IMC row reads a moved state."""
        rng = np.random.default_rng(67)
        through_clusters = 0
        for _ in range(20):
            n_cells = int(rng.integers(4, 40))
            imc = random_imc(rng, n_cells)
            length = np.diff(imc.indptr)
            sources = np.flatnonzero((length >= 2) & (rng.random(imc.n_states) < 0.7))
            members = np.zeros(len(imc.dst), dtype=bool)
            for q in sources.tolist():
                a, b = imc.indptr[q], imc.indptr[q + 1]
                members[a + rng.choice(b - a, int(rng.integers(2, b - a + 1)), replace=False)] = True
            row = np.repeat(np.arange(imc.n_states), length)
            cl_low = np.bincount(row[members], imc.lower[members], imc.n_states)[sources]
            cl_up = np.minimum(np.bincount(row[members], imc.upper[members], imc.n_states), 1.0)
            layout, member_state, member_start, _, _ = cluster_module._clustered_rows(
                imc, sources, members, cl_low, cl_up[sources])
            is_source = np.isin(np.arange(imc.n_states), sources)
            for share in (0.0, 0.05, 0.2, 0.5, 1.0):
                moved = rng.random(imc.n_states) < share
                slots = np.concatenate([moved, np.logical_or.reduceat(moved[member_state],
                                                                      member_start)])
                expected = reading_reference(imc.indptr, imc.dst, is_source, moved)[sources]
                assert np.array_equal(layout.reading(slots), expected)
                states_alone = np.concatenate([moved, np.zeros(len(sources), dtype=bool)])
                through_clusters += int((expected & ~layout.reading(states_alone)).sum())
        assert through_clusters > 0


class TestDirtyRows:
    """After its first sweep a bound walks only the rows that read a state
    whose bits its last sweep changed (all of them once more than
    ``_FULL_SWEEP`` of the free states moved or read one): the bits, sweep
    counts and fixpoints are those of walking every row on every sweep."""

    SPECS = [(ReachAvoidSpec(horizon=h), 1e-6, 10**5) for h in (1, 6, 30)] + [
        (ReachAvoidSpec(), tol, cap) for tol, cap in ((1e-6, 10**5), (0.05, 10**5), (0.0, 120),
                                                      (1e-6, 3))]

    @pytest.mark.parametrize("share", [verify_module._FULL_SWEEP, 1.0])
    @pytest.mark.parametrize("kind", ["acyclic", "self-loops", "2-cycles", "hidden"])
    def test_random_imcs_match_full_sweeps(self, kind, share, monkeypatch):
        """With a share of 1.0 every sweep after a bound's first walks only
        its dirty rows; the upper bound is swept down from 1 again on some
        of these IMCs, and fewer rows are walked on some."""
        monkeypatch.setattr(verify_module, "_FULL_SWEEP", share)
        rng = np.random.default_rng(59)
        falling = fewer = 0
        for _ in range(5):
            imc = graph_imc(rng, int(rng.integers(8, 60)), kind)
            for spec, tol, cap in self.SPECS:
                res = robust_value_iteration(imc, spec, convergence_tol=tol, max_iterations=cap)
                p_lower, p_upper, iterations, converged, fixpoints, walked = full_sweeps(
                    imc, spec, tol, cap)
                assert res.p_lower.tobytes() == p_lower.tobytes()
                assert res.p_upper.tobytes() == p_upper.tobytes()
                assert (res.iterations, res.converged, res.fixpoints) == (
                    iterations, converged, fixpoints)
                assert all(a <= b for a, b in zip(res.walked_rows, walked))
                falling += bool(res.upper_residual)
                fewer += res.walked_rows != walked
        assert falling > 0 and fewer > 0

    def test_additive_h200_walks_few_rows(self, additive_h200):
        """The bench IMC: after the upper bound settles at sweep 14 the
        lower bound sweeps alone to sweep 54, each sweep moving a few of the
        1,436 free states, and walks fewer than a tenth of its full sweeps'
        rows (the counts are pinned: finding more rows fails); the bits are
        those of full sweeps."""
        imc, spec = additive_h200
        res = robust_value_iteration(imc, spec)
        p_lower, p_upper, iterations, converged, fixpoints, walked = full_sweeps(imc, spec)
        assert res.p_lower.tobytes() == p_lower.tobytes()
        assert res.p_upper.tobytes() == p_upper.tobytes()
        assert (res.iterations, res.fixpoints) == (iterations, fixpoints) == (200, (54, 14))
        assert walked == (54 * 1436, 14 * 1436)
        assert res.walked_rows == (4687, 17362)

    def test_paper_mult_40_walks_pinned_rows(self, paper_mult_40):
        """The bench IMC: the upper bound settles at sweep 17 and the lower
        bound sweeps all 20, each from its sixth sweep on moving most of the
        1,528 free states, and the sweeps walk exactly the pinned counts of
        rows; the bits are those of full sweeps."""
        imc, spec = paper_mult_40
        res = robust_value_iteration(imc, spec)
        p_lower, p_upper, iterations, converged, fixpoints, walked = full_sweeps(imc, spec)
        assert res.p_lower.tobytes() == p_lower.tobytes()
        assert res.p_upper.tobytes() == p_upper.tobytes()
        assert (res.iterations, res.fixpoints) == (iterations, fixpoints) == (20, (None, 17))
        assert walked == (20 * 1528, 17 * 1528)
        assert res.walked_rows == (29222, 24455)

    def test_summary_and_debug_log_report_walked_rows(self, tmp_path, caplog):
        """``summary.json``'s verify phase and the DEBUG line give per bound
        the rows walked, summed over the sweeps."""
        path = tmp_path / "paper.yaml"
        path.write_text(PAPER_2D)
        cfg = load_config(path)
        with caplog.at_level(logging.DEBUG, logger="imcverify"):
            summary = run_pipeline(cfg, phases=("abstract", "verify"))
        ctx = build_context(cfg)
        res = robust_value_iteration(build_imc(ctx.posteriors(), ctx.labels), ctx.spec)
        lower, upper = res.walked_rows
        assert summary["phases"]["verify"]["walked_rows"] == {"lower": lower, "upper": upper}
        assert f"{lower} (lower) and {upper} (upper) rows walked" in caplog.text


class TestClassify:
    def test_examples(self):
        codes = classify_arrays([0.95, 0.1, 0.5, 0.9, 0.0], [1.0, 0.5, 0.95, 0.9, 0.9], 0.9)
        assert codes.dtype.kind == "i"
        assert [_CLASSES[c] for c in codes] == [
            "satisfies", "violates", "undetermined", "satisfies", "undetermined"]

    def test_reclassify_result(self):
        imc = three_state_fixture()
        res = robust_value_iteration(imc, ReachAvoidSpec())
        assert classes(res, 0.5)[0] == "satisfies"  # 4/7 >= 0.5
        assert classes(res, 0.9)[0] == "violates"  # 6/7 < 0.9
        assert classes(res, 0.7)[0] == "undetermined"  # 4/7 < 0.7 <= 6/7

    def test_spec_invariants(self):
        with pytest.raises(ValueError):
            ReachAvoidSpec(threshold=1.5)
        with pytest.raises(ValueError):
            ReachAvoidSpec(horizon=-1)


class TestReadResults:
    def test_bounds_columns_are_cell_edges_in_row_major_order(self, tmp_path):
        # non-dyadic edges, so that a float32 or a rounded repr would show
        edges = [np.linspace(-1.3, 2.7, 7), np.linspace(0.1, 0.9, 4), np.linspace(-0.7, 0.3, 3)]
        part = partition_domain([e[0] for e in edges], [e[-1] for e in edges], (6, 3, 2))
        rows = [((i, 1.0, 1.0),) for i in range(part.n_states)]
        imc = Imc(part, *csr(rows), label_masks(part.n_cells, goal=[0]))
        path = tmp_path / "results.csv"
        res = robust_value_iteration(imc, ReachAvoidSpec(horizon=1))
        write_results(res, part, 0.9, path, b"key")
        lines = path.read_text().splitlines()
        assert lines[0] == "state,lo1,hi1,lo2,hi2,lo3,hi3,p_lower,p_upper,class"
        for i, multi in enumerate(itertools.product(range(6), range(3), range(2))):
            expected = [repr(float(e[m + k])) for e, m in zip(edges, multi) for k in (0, 1)]
            assert lines[1 + i].split(",")[:7] == [str(i)] + expected
        assert lines[-1] == f"{part.unsafe_index},,,,,,,0.0,0.0,violates"
        loaded = read_results(path, part, b"key")  # the bounds follow the 6 edge columns
        assert np.array_equal(loaded.p_lower, res.p_lower)
        assert np.array_equal(loaded.p_upper, res.p_upper)

    def _export(self, tmp_path, key=b"config bytes"):
        imc = three_state_fixture()
        res = robust_value_iteration(imc, ReachAvoidSpec())
        path = tmp_path / "results.csv"
        write_results(res, imc.partition, 0.9, path, key)
        return imc, res, path

    def test_round_trip(self, tmp_path):
        imc, res, path = self._export(tmp_path)
        loaded = read_results(path, imc.partition, b"config bytes")
        assert np.array_equal(loaded.p_lower, res.p_lower)
        assert np.array_equal(loaded.p_upper, res.p_upper)
        # a table holds bounds, not value iteration's report
        assert (res.iterations, res.converged) != (None, None)
        assert (loaded.iterations, loaded.converged) == (None, None)
        assert (loaded.fixpoints, loaded.upper_residual) == ((None, None), None)

    def test_stamp_is_the_sha256_of_the_key_then_the_table(self, tmp_path):
        import hashlib

        _, _, path = self._export(tmp_path)
        stamp = tmp_path / "results.csv.stamp"
        assert verify_module.stamp_path(path) == stamp
        digest = hashlib.sha256(b"config bytes" + path.read_bytes()).hexdigest()
        assert stamp.read_bytes() == digest.encode() + b"\n"
        # a table written without a key has no stamp
        (tmp_path / "no-key").mkdir()
        self._export(tmp_path / "no-key", key=None)
        assert not (tmp_path / "no-key" / "results.csv.stamp").exists()

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda path: None, b"other config bytes"),
            (lambda path: None, None),
            (lambda path: path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n")),
             b"config bytes"),
            (lambda path: verify_module.stamp_path(path).unlink(), b"config bytes"),
            (lambda path: path.unlink(), b"config bytes"),
        ],
        ids=["other-key", "no-key", "edited-table", "no-stamp", "no-table"],
    )
    def test_unstamped_table_refused(self, tmp_path, edit, key):
        imc, _, path = self._export(tmp_path)
        edit(path)
        self._assert_refused(path, imc.partition, key)

    @staticmethod
    def _assert_refused(path, partition, key):
        message = f"{path}: missing, or its stamp does not match the config and posterior table"
        with pytest.raises(InputError, match=f"^{re.escape(message)}; run verify again$"):
            read_results(path, partition, key)

    # edits that keep every bound: the stamp covers the table's bytes, not its values
    @pytest.mark.parametrize(
        "edit",
        [
            lambda lines: lines[:2] + ["", "  "] + lines[2:],
            lambda lines: lines[:1] + lines[1:][::-1],
            lambda lines: [line + " " for line in lines],
            lambda lines: lines[:1] + lines[2:] + lines[1:2],
            lambda lines: [line + "\r" for line in lines],
            lambda lines: [line.replace("satisfies", "undetermined") for line in lines],
        ],
        ids=["blank-lines", "reversed", "trailing-blanks", "rotated", "crlf", "relabelled"],
    )
    def test_edits_that_keep_the_bounds_are_refused(self, tmp_path, edit):
        imc, _, path = self._export(tmp_path)
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        self._assert_refused(path, imc.partition, b"config bytes")

    # malformed edits are refused by the stamp before any field is read; lines
    # of the exported table: header, then states 0 (violates at threshold 0.9),
    # 1 (goal, satisfies) and 2 (unsafe, violates)
    @pytest.mark.parametrize(
        "edit",
        [
            lambda lines: lines + ["-1,,,0.95,0.97,satisfies"],
            lambda lines: lines + [lines[2]],
            lambda lines: lines[:2] + ["1,1.0,2.0,1.0,1.0,bogus"] + lines[3:],
            lambda lines: lines[:1] + ["0,0.0,1.0,0.6,0.5,undetermined"] + lines[2:],
            lambda lines: lines[:1] + ["0,0.0,1.0,-0.5,0.5,undetermined"] + lines[2:],
            lambda lines: lines[:1] + ["0,0.0,1.0,0.5,7.0,undetermined"] + lines[2:],
            lambda lines: lines[:1] + ["0,0.0,1.0,0.5,inf,undetermined"] + lines[2:],
            lambda lines: lines[:1] + [lines[1] + ",x"] + lines[2:],
            lambda lines: ["state,p_lower,p_upper,class"] + lines[1:],
            lambda lines: lines[:3],
            lambda lines: lines[:1] + ["0,0.0,1.0,0.5,1_0,undetermined"] + lines[2:],
            lambda lines: lines[:2] + ["", "1,1.0,2.0,\u0660.5,1.0,satisfies"] + lines[3:],
            lambda lines: lines[:2] + [""] + lines[2:] + [lines[2]],
            lambda lines: lines[:1] + ["0,0.0,1.0,nan,0.5,undetermined"] + lines[2:],
            lambda lines: lines[:2] + ["x" + lines[2][1:]] + lines[3:],
            lambda lines: lines[:1] + ["0.0" + lines[1][1:]] + lines[2:],
            lambda lines: lines[:1] + [lines[1].rsplit(",", 1)[0] + ","] + lines[2:],
        ],
        ids=["state-range", "duplicate", "class", "order", "negative", "above-one", "inf",
             "fields", "header", "missing", "underscore", "arabic-indic-digit",
             "blank-then-duplicate", "nan", "number", "float-state", "empty-class"],
    )
    def test_malformed_table_rejected(self, tmp_path, edit):
        imc, _, path = self._export(tmp_path)
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        self._assert_refused(path, imc.partition, b"config bytes")
