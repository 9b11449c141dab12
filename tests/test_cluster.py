import dataclasses
import json
import re
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import imcverify.cluster as cluster_module
import imcverify.imc as imc_module
from imcverify.cluster import _largest_block, cluster_improve, cluster_proposals
from imcverify.config import load_config
from imcverify.dynamics import parse_dynamics
from imcverify.geometry import partition_domain
from imcverify.imc import (
    AVOID_LABELS,
    GOAL_LABEL,
    assign_labels,
    build_imc,
    cell_posteriors,
    pair_bounds,
)
from imcverify.noise import Mixture, NoiseModel, Uniform
from imcverify.pipeline import IMPROVED_FILE, RESULTS_FILE, run_pipeline
from imcverify.verify import ReachAvoidSpec, VerificationResult, robust_value_iteration
from boxes import box
from oracles import drift_reach_probability


def shifted_identity_setup():
    """1D drift system: X = [0, 5], unit cells, f(x) = x + 2 + w with
    w ~ Uniform(-1.25, 1.25). From cell [0, 1] the posterior hull is
    [0.75, 4.25]; cells [1,2], [2,3], [3,4] sit inside it and tile [1, 4],
    while every per-cell containment interval carries zero mass."""
    part = partition_domain(*box([[0, 5]]), (5,))
    model = parse_dynamics(["x1 + 2 + w1"], 1, "additive")
    noise = NoiseModel((Uniform(-1.25, 1.25),))
    posts = cell_posteriors(part, model, noise)
    labels = assign_labels(part, {"goal": box([[[4, 5]]])})
    return part, model, noise, posts, build_imc(posts, labels)


def select_cluster(source, imc, posts):
    """The cluster ``cluster_proposals`` gives ``source`` alone, with its
    ``members`` and ``box`` (as ``[[lo, hi], ...]``), or None."""
    allowed = np.zeros(imc.n_states, dtype=bool)
    allowed[source] = True
    sources, lo, hi, members, _ = cluster_proposals(imc, posts, allowed)
    if not len(sources):
        return None
    return SimpleNamespace(
        members=tuple(imc.dst[members].tolist()), box=np.stack([lo[0], hi[0]], -1).tolist()
    )


class TestSelectCluster:
    def test_hull_spanning_cells_exactly(self):
        part = partition_domain(*box([[0, 6]]), (6,))
        model = parse_dynamics(["x1 + 2 + w1"], 1, "additive")
        noise = NoiseModel((Uniform(-1.0, 1.0),))
        posts = cell_posteriors(part, model, noise)
        imc = build_imc(posts, assign_labels(part, {"goal": box([[[5, 6]]])}))
        # from cell [0,1]: hull = [1, 4], tiled exactly by cells 1..3
        prop = select_cluster(0, imc, posts)
        assert prop is not None
        assert prop.members == (1, 2, 3)
        assert prop.box == [[1, 4]]

    def test_hull_tiled_within_tolerance_is_the_box(self):
        part = partition_domain(*box([[0, 6]]), (6,))
        model = parse_dynamics(["x1 + 2 + w1"], 1, "additive")
        noise = NoiseModel((Uniform(-1.0 - 1e-12, 1.0 + 1e-12),))
        posts = cell_posteriors(part, model, noise)
        imc = build_imc(posts, assign_labels(part, {"goal": box([[[5, 6]]])}))
        # from cell [0,1]: hull ~ [1 - 1e-12, 4 + 1e-12], tiled by cells 1..3 up to
        # 1e-9; the hull's slivers outside them lie in cells 0 and 4, so the
        # cluster is the box of its members
        hull = np.stack([posts.hull_lo[0], posts.hull_hi[0]], -1).tolist()
        assert hull != [[1, 4]] and hull[0][0] <= 1 and 4 <= hull[0][1]
        prop = select_cluster(0, imc, posts)
        assert prop.members == (1, 2, 3)
        assert prop.box == [[1, 4]]

    def test_hull_exiting_domain_falls_back_to_block(self):
        part, model, noise, posts, imc = shifted_identity_setup()
        # from cell [2,3]: hull = [2.75, 6.25] exits X; block = cells {3, 4}
        prop = select_cluster(2, imc, posts)
        assert prop is not None
        assert prop.members == (3, 4)
        assert prop.box == [[3, 5]]

    def test_single_successor_gives_empty_proposal(self):
        part = partition_domain(*box([[0, 2]]), (2,))
        model = parse_dynamics(["x1 + w1"], 1, "additive")
        noise = NoiseModel((Uniform(-0.05, 0.05),))
        posts = cell_posteriors(part, model, noise)
        imc = build_imc(posts, assign_labels(part, {"goal": box([[[1, 2]]])}))
        assert select_cluster(0, imc, posts) is None

    def test_2d_block(self):
        part = partition_domain(*box([[0, 4], [0, 4]]), (4, 4))
        model = parse_dynamics(["x1 + 1 + w1", "x2 + 1 + w2"], 2, "additive")
        noise = NoiseModel((Uniform(-1.0, 1.0), Uniform(-1.0, 1.0)))
        posts = cell_posteriors(part, model, noise)
        imc = build_imc(posts, assign_labels(part, {"goal": box([[[3, 4], [3, 4]]])}))
        q_idx = np.ravel_multi_index((1, 1), part.resolution)  # cell [1,2]x[1,2], hull [1,4]^2
        prop = select_cluster(q_idx, imc, posts)
        assert prop is not None
        assert prop.box == [[1, 4], [1, 4]]
        assert len(prop.members) == 9


def largest_block_reference(partition, eligible):
    """Every block of the grid, largest first, then lexicographically
    smallest index ranges; the first whose cells are all eligible."""
    cells = {np.unravel_index(i, partition.resolution) for i in eligible.tolist()}
    cells = {tuple(int(x) for x in c) for c in cells}
    spans = [[range(a, b + 1) for a in range(r) for b in range(a, r)] for r in partition.resolution]
    blocks = sorted(product(*spans), key=lambda c: -np.prod([len(r) for r in c]))
    for combo in blocks:
        if np.prod([len(r) for r in combo]) >= 2 and set(product(*combo)) <= cells:
            multi = np.array(list(product(*combo))).T
            return tuple(sorted(np.ravel_multi_index(multi, partition.resolution).tolist()))
    return None


def select_cluster_reference(source, imc, posts):
    """Per-source reference selection, with ``members`` and ``box``: the
    ``largest_block_reference`` of the eligible successors inside the hull."""
    partition = imc.partition
    hull_lo, hull_hi = posts.hull_lo[source].tolist(), posts.hull_hi[source].tolist()
    row = slice(imc.indptr[source], imc.indptr[source + 1])
    successors = imc.dst[row][(imc.dst[row] != imc.unsafe_index) & (imc.upper[row] > 0.0)]
    multi = np.unravel_index(successors, partition.resolution)
    in_hull = np.ones(len(successors), dtype=bool)
    for d, m in enumerate(multi):
        edges = np.asarray(partition.edges[d])
        in_hull &= (hull_lo[d] <= edges[m]) & (edges[m + 1] <= hull_hi[d])
    members = largest_block_reference(partition, successors[in_hull])
    if members is None:
        return None
    multi = np.unravel_index(members, partition.resolution)
    edges = partition.edges
    block = [[float(edges[d][m.min()]), float(edges[d][m.max() + 1])] for d, m in enumerate(multi)]
    return SimpleNamespace(members=members, box=block)


def test_largest_block_matches_reference():
    rng = np.random.default_rng(11)
    for _ in range(300):
        resolution = tuple(int(r) for r in rng.integers(1, 6, int(rng.integers(1, 4))))
        part = partition_domain(*box([[0, r] for r in resolution]), resolution)
        eligible = rng.choice(part.n_cells, int(rng.integers(0, part.n_cells + 1)), replace=False)
        block = _largest_block(np.stack(np.unravel_index(eligible, resolution), axis=-1))
        expected = largest_block_reference(part, eligible)
        members = block and tuple(sorted(np.ravel_multi_index(
            np.array(list(product(*(range(a, b) for a, b in zip(*block))))).T, resolution
        ).tolist()))
        assert members == expected
        if block is not None:
            edges = part.edges
            multi = [np.unravel_index(members, resolution)[d] for d in range(len(resolution))]
            bounds = [(edges[d][a], edges[d][b]) for d, (a, b) in enumerate(zip(*block))]
            assert bounds == [(e[m.min()], e[m.max() + 1]) for e, m in zip(edges, multi)]


class TestClusterImprove:
    def test_strict_improvement_never_worse(self):
        part, model, noise, posts, imc = shifted_identity_setup()
        planted_lo = [0.0, 0.8, 0.8, 0.8, 0.0, 0.0]
        planted_hi = [1.0, 1.0, 1.0, 1.0, 1.0, 0.0]
        res = VerificationResult(planted_lo, planted_hi)
        out = cluster_improve(imc, posts, res, ReachAvoidSpec())
        assert np.all(out.p_lower >= res.p_lower)
        assert np.all(out.p_upper <= res.p_upper)
        assert np.any(out.p_lower > res.p_lower)
        # cell [0,1] clusters cells 1..3 (all planted at 0.8) with
        # containment mass Pr(w in [-1, 1]) = 0.8: 0.64 after one round;
        # its own cell then keeps a share of it each round, up to 0.64 / 0.9
        ref_lo, ref_hi, rounds, _ = jacobi_fixpoint(imc, model, noise, res)
        assert np.array_equal(out.p_lower, ref_lo) and np.array_equal(out.p_upper, ref_hi)
        assert rounds > 2 and out.p_lower[0] == ref_lo[0] == pytest.approx(0.64 / 0.9)

    def test_noop_pass_is_identity(self):
        part, model, noise, posts, imc = shifted_identity_setup()
        for spec in (ReachAvoidSpec(), ReachAvoidSpec(horizon=3)):
            res = robust_value_iteration(imc, spec)
            once = cluster_improve(imc, posts, res, spec)
            assert np.all(once.p_lower >= res.p_lower)
            assert np.all(once.p_upper <= res.p_upper)
            # the pass reports its rounds and row walks, none of value
            # iteration's convergence report
            assert (res.iterations, res.converged) != (None, None)
            assert (once.converged, once.fixpoints, once.upper_residual) == (
                None, (None, None), None)
            assert once.iterations >= 1
            # the pass ends at a fixpoint: a second pass returns its bits
            # after its first round, which walks every row once
            again = cluster_improve(imc, posts, once, spec)
            assert np.array_equal(again.p_lower, once.p_lower)
            assert np.array_equal(again.p_upper, once.p_upper)
            assert again.iterations == 1
            assert again.walked_rows[1] <= once.walked_rows[1]
            assert again.walked_rows[0] == (again.walked_rows[1] if spec.horizon is None else 0)

    def test_pass_without_proposals_is_identity(self):
        # every cell has one successor besides the unsafe state
        part = partition_domain(*box([[0, 2]]), (2,))
        model = parse_dynamics(["x1 + w1"], 1, "additive")
        noise = NoiseModel((Uniform(-0.05, 0.05),))
        posts = cell_posteriors(part, model, noise)
        imc = build_imc(posts, assign_labels(part, {"goal": box([[[1, 2]]])}))
        res = VerificationResult([0.3, 1.0, 0.0], [0.6, 1.0, 0.0])
        out = cluster_improve(imc, posts, res, ReachAvoidSpec())
        assert np.array_equal(out.p_lower, res.p_lower)
        assert np.array_equal(out.p_upper, res.p_upper)

    def test_posteriors_of_another_partition_rejected(self):
        # an equal grid is still another partition: its posteriors could
        # come from another domain of the same size
        part, model, noise, posts, imc = shifted_identity_setup()
        other = cell_posteriors(partition_domain(*box([[0, 5]]), part.resolution), model, noise)
        res = robust_value_iteration(imc, ReachAvoidSpec())
        with pytest.raises(ValueError, match="another partition"):
            cluster_improve(imc, other, res, ReachAvoidSpec())

    def test_pinned_states_untouched(self):
        part, model, noise, posts, imc = shifted_identity_setup()
        res = robust_value_iteration(imc, ReachAvoidSpec())
        out = cluster_improve(imc, posts, res, ReachAvoidSpec())
        goal_idx = 4
        assert out.p_lower[goal_idx] == 1.0 and out.p_upper[goal_idx] == 1.0
        assert out.p_lower[imc.unsafe_index] == 0.0
        assert out.p_upper[imc.unsafe_index] == 0.0

    def test_improved_bounds_remain_sound(self):
        """After improvement, the lower bound must stay below the true
        satisfaction probability, estimated by direct simulation."""
        part, model, noise, posts, imc = shifted_identity_setup()
        res = robust_value_iteration(imc, ReachAvoidSpec(), convergence_tol=1e-10)
        out = cluster_improve(imc, posts, res, ReachAvoidSpec())

        from imcverify.mc import estimate_satisfaction

        for idx in range(part.n_cells):
            x0 = 0.5 * sum(part.corners(idx))
            [(est, ci, _)] = estimate_satisfaction(
                model, noise, part, imc.labels, [x0], 2000, 100, seeds=[(9, idx)], confidence=0.999
            )
            assert out.p_lower[idx] <= ci[1] + 1e-12
            assert out.p_upper[idx] >= ci[0] - 1e-12


def greedy_walk(row, value, sign):
    """The adversary on one row of (state, lower, upper), in pure Python:
    every successor gets its lower bound, then in ascending (sign * value,
    state) each takes its slack while mass remains; sum(gamma * value)."""
    total = 0.0
    for _, low, _ in row:
        total += low
    remaining, expectation = 1.0 - total, 0.0
    for state, low, up in sorted(row, key=lambda r: (sign * value[r[0]], r[0])):
        add = min(max(remaining, 0.0), up - low)
        remaining -= add
        expectation += (low + add) * value[state]
    return expectation


def jacobi_fixpoint(imc, model, noise, result, horizon=None):
    """Reference fixpoint: each round walks every clustered row on its own
    (``greedy_walk``), all on the values the round began with, until a
    round changes no state that a row reads (a further round would change
    nothing). The cluster takes the place of its first member, valued at
    the weakest member value; at a finite ``horizon`` only the upper bound
    moves. Returns the bounds, the number of rounds and the number of row
    walks after the first round that read a state the round before
    changed."""
    posts = cell_posteriors(imc.partition, model, noise)
    p_lo, p_hi = result.p_lower.tolist(), result.p_upper.tolist()
    names = [name for name in (GOAL_LABEL, *AVOID_LABELS) if name in imc.labels]
    pinned = np.logical_or.reduce([imc.labels[name] for name in names])
    rows = {}
    for q in range(imc.partition.n_cells):
        prop = None if pinned[q] else select_cluster_reference(q, imc, posts)
        if prop is None:
            continue
        lo, hi = (a[None] for a in box(prop.box))
        (c_lo,), (c_hi,) = pair_bounds(posts, np.array([q]), lo, hi)
        entries = slice(imc.indptr[q], imc.indptr[q + 1])
        dst = imc.dst[entries].tolist()
        full = zip(dst, imc.lower[entries].tolist(), imc.upper[entries].tolist())
        row = [entry for entry in full if entry[0] not in prop.members]
        row.append((prop.members[0], float(c_lo), float(c_hi)))
        rows[q] = list(prop.members), row, set(dst)
    rounds, rereads, changed = 0, 0, set()
    while True:
        rounds += 1
        v_lo, v_hi, now = p_lo.copy(), p_hi.copy(), set()
        for q, (members, row, reads) in rows.items():
            rereads += bool(reads & changed)
            w_lo, w_hi = v_lo.copy(), v_hi.copy()
            w_lo[members[0]] = min(v_lo[m] for m in members)
            w_hi[members[0]] = max(v_hi[m] for m in members)
            new_lo = greedy_walk(row, w_lo, 1.0) if horizon is None else v_lo[q]
            new_hi = greedy_walk(row, w_hi, -1.0)
            if new_lo > v_lo[q]:
                p_lo[q] = min(new_lo, v_hi[q])
            if new_hi < v_hi[q]:
                p_hi[q] = max(new_hi, p_lo[q])
            if (p_lo[q], p_hi[q]) != (v_lo[q], v_hi[q]):
                now.add(q)
        if not any(reads & now for _, _, reads in rows.values()):
            return np.array(p_lo), np.array(p_hi), rounds, rereads
        changed = now


def test_pass_matches_one_row_at_a_time(monkeypatch):
    """Clustered rows that read states a round before improved get the bits
    of a fixpoint that walks one row at a time, whatever the slot budget of
    a block."""
    part = partition_domain(*box([[0, 7], [0, 7]]), (7, 7))
    model = parse_dynamics(["x1 + 1 + w1", "x2 + 1 + w2"], 2, "additive")
    noise = NoiseModel((Uniform(-1.25, 1.25), Uniform(-1.25, 1.25)))
    posts = cell_posteriors(part, model, noise)
    imc = build_imc(posts, assign_labels(part, {"goal": box([[[6, 7], [6, 7]]])}))
    rng = np.random.default_rng(2)
    p_lower = rng.uniform(0.0, 0.9, imc.n_states)
    p_upper = np.minimum(1.0, p_lower + rng.uniform(0.0, 0.5, imc.n_states))
    goal = np.ravel_multi_index((6, 6), part.resolution)
    p_lower[goal] = p_upper[goal] = 1.0
    p_lower[imc.unsafe_index] = p_upper[imc.unsafe_index] = 0.0
    res = VerificationResult(p_lower, p_upper)
    ref_lo, ref_hi, _, rereads = jacobi_fixpoint(imc, model, noise, res)
    assert rereads > 10
    for budget in (imc_module._BLOCK_SLOTS, 7, 1):
        monkeypatch.setattr(imc_module, "_BLOCK_SLOTS", budget)
        out = cluster_improve(imc, posts, res, ReachAvoidSpec())
        assert np.array_equal(out.p_lower, ref_lo)
        assert np.array_equal(out.p_upper, ref_hi)


def test_rounds_keep_reads_before_and_after_writes(caplog):
    """A pass in which rows read states that other rows improve runs in the
    rounds of the one-row fixpoint, fewer than rows, walks only the rows
    whose reads changed after the first, and keeps its bits."""
    part = partition_domain(*box([[0, 8], [0, 8]]), (8, 8))
    model = parse_dynamics(["x1 + 1 + w1", "x2 - 1 + w2"], 2, "additive")
    noise = NoiseModel((Uniform(-1.5, 1.5), Uniform(-1.5, 1.5)))
    posts = cell_posteriors(part, model, noise)
    imc = build_imc(posts, assign_labels(part, {"goal": box([[[7, 8], [0, 1]]])}))
    rng = np.random.default_rng(10)
    p_lower = rng.uniform(0.0, 0.9, imc.n_states)
    p_upper = np.minimum(1.0, p_lower + rng.uniform(0.0, 0.5, imc.n_states))
    pinned = [np.ravel_multi_index((7, 0), part.resolution), imc.unsafe_index]
    p_lower[pinned], p_upper[pinned] = (1.0, 0.0), (1.0, 0.0)
    res = VerificationResult(p_lower, p_upper)
    with caplog.at_level("DEBUG", logger="imcverify"):
        out = cluster_improve(imc, posts, res, ReachAvoidSpec())
    ref_lo, ref_hi, ref_rounds, rereads = jacobi_fixpoint(imc, model, noise, res)
    assert np.array_equal(out.p_lower, ref_lo)
    assert np.array_equal(out.p_upper, ref_hi)

    allowed = np.ones(imc.n_states, dtype=bool)
    allowed[pinned] = False
    sources = cluster_proposals(imc, posts, allowed)[0]
    counts = re.search(r"(\d+) proposals, .* (\d+) rounds, (\d+) row walks", caplog.text).groups()
    proposals, rounds, walks = map(int, counts)
    assert rereads > 5
    assert 2 <= rounds == ref_rounds < proposals == len(sources)
    assert walks == proposals + rereads < rounds * proposals


def random_system(rng, structure):
    """A 2-D system of 4 to 7 unit cells per side with a random drift and
    noise about two cells wide, so that most rows read their own cell and
    their neighbours', and a random goal cell."""
    size = rng.integers(4, 8, 2).tolist()
    if structure == "additive":
        drift = rng.uniform(-1.0, 1.0, 2)
        exprs = [f"x{d + 1} + {drift[d]} + w{d + 1}" for d in range(2)]
        noise = NoiseModel(tuple(Uniform(-h, h) for h in rng.uniform(0.8, 1.6, 2)))
        domain = [[0, size[0]], [0, size[1]]]
    else:
        gain = rng.uniform(0.8, 1.1, 2)
        exprs = [f"{gain[d]}*x{d + 1}" for d in range(2)]
        noise = NoiseModel(tuple(Uniform(1 - h, 1 + h) for h in rng.uniform(0.1, 0.25, 2)))
        domain = [[2, 2 + size[0]], [2, 2 + size[1]]]
    part = partition_domain(*box(domain), tuple(size))
    model = parse_dynamics(exprs, 2, structure)
    goal = [[lo + k, lo + k + 1] for (lo, _), k in zip(domain, rng.integers(0, size))]
    posts = cell_posteriors(part, model, noise)
    return model, noise, posts, build_imc(posts, assign_labels(part, {"goal": box([goal])}))


@pytest.mark.parametrize("structure", ["additive", "multiplicative"])
def test_pass_matches_one_row_at_a_time_on_random_systems(structure, caplog):
    """Random systems with planted results: rows that read their own state
    (self loops) and states that other rows change get the bits and the
    rounds of a fixpoint that walks one row at a time, unbounded and at a
    finite horizon, where p_lower keeps the input's bits; a second pass
    over the output changes no bit."""
    rng = np.random.default_rng(11 if structure == "additive" else 12)
    self_loops = chained = 0
    for _ in range(8):
        model, noise, posts, imc = random_system(rng, structure)
        pinned = np.logical_or(imc.labels[GOAL_LABEL], imc.labels["unsafe"])
        p_lower = rng.uniform(0.0, 0.9, imc.n_states)
        p_upper = np.minimum(1.0, p_lower + rng.uniform(0.0, 0.5, imc.n_states))
        p_lower[pinned] = p_upper[pinned] = imc.labels[GOAL_LABEL][pinned]
        res = VerificationResult(p_lower, p_upper)
        for horizon in (None, 5):
            spec = ReachAvoidSpec(horizon=horizon)
            with caplog.at_level("DEBUG", logger="imcverify"):
                out = cluster_improve(imc, posts, res, spec)
            message = caplog.records[-1].getMessage()
            again = cluster_improve(imc, posts, out, spec)
            ref_lo, ref_hi, ref_rounds, rereads = jacobi_fixpoint(imc, model, noise, res, horizon)
            assert np.array_equal(out.p_lower, ref_lo)
            assert np.array_equal(out.p_upper, ref_hi)
            assert f" {ref_rounds} rounds, " in message
            assert np.array_equal(again.p_lower, out.p_lower)
            assert np.array_equal(again.p_upper, out.p_upper)
            if horizon is not None:
                assert np.array_equal(out.p_lower, res.p_lower)
            chained += rereads

        sources = cluster_proposals(imc, posts, ~pinned)[0]
        self_loops += sum(q in imc.dst[imc.indptr[q]:imc.indptr[q + 1]] for q in sources.tolist())
    assert self_loops > 50 and chained > 20


def test_holes_fallback_through_the_pass(caplog, monkeypatch):
    """A bimodal noise whose gap holds the source's own cell (cell width
    plus posterior width 2/24 < 0.1): eligible sets have holes, the pass
    picks the reference blocks and keeps the bits of the one-row fixpoint,
    whatever the number of rows per block of proposals."""
    part = partition_domain(*box([[0, 1], [0, 1]]), (24, 3))
    model = parse_dynamics(["x1 + w1", "x2 + w2"], 2, "additive")
    gap = Mixture((0.5, 0.5), (Uniform(-0.15, -0.05), Uniform(0.05, 0.15)))
    noise = NoiseModel((gap, Uniform(-0.35, 0.35)))
    posts = cell_posteriors(part, model, noise)
    imc = build_imc(posts, assign_labels(part, {"goal": box([[[0, 0.25], [0, 1]]])}))
    sources = np.flatnonzero(~imc.labels["goal"][:-1]).tolist()
    allowed = np.zeros(imc.n_states, dtype=bool)
    allowed[sources] = True
    proposals = cluster_proposals(imc, posts, allowed)
    holes = proposals[-1]
    assert holes > len(sources) // 2
    for budget in (100, 1):  # a few rows per block, then one row per block
        monkeypatch.setattr(cluster_module, "_BLOCK_PAIRS", budget)
        for blocked, whole in zip(cluster_proposals(imc, posts, allowed), proposals):
            assert np.array_equal(blocked, whole)
    monkeypatch.undo()
    for q in sources:
        prop, ref = select_cluster(q, imc, posts), select_cluster_reference(q, imc, posts)
        assert (prop and (prop.members, prop.box)) == (ref and (ref.members, ref.box))

    rng = np.random.default_rng(5)
    p_lower = rng.uniform(0.0, 0.9, imc.n_states)
    p_upper = np.minimum(1.0, p_lower + rng.uniform(0.0, 0.5, imc.n_states))
    p_lower[part.n_cells] = p_upper[part.n_cells] = 0.0
    res = VerificationResult(p_lower, p_upper)
    with caplog.at_level("DEBUG", logger="imcverify"):
        out = cluster_improve(imc, posts, res, ReachAvoidSpec())
    assert f"{holes} reached the holes fallback" in caplog.text
    ref_lo, ref_hi, _, _ = jacobi_fixpoint(imc, model, noise, res)
    assert np.any(out.p_lower != res.p_lower)
    assert np.array_equal(out.p_lower, ref_lo)
    assert np.array_equal(out.p_upper, ref_hi)


DRIFT_1D = """\
domain: [[0.0, 1.0]]
grid: [20]
dynamics:
  expressions: ["x1 + w1"]
  structure: additive
noise:
  components:
    - {{type: uniform, lo: 0.05, hi: 0.15}}
labels:
  goal: [[[0.8, 1.0]]]
spec:
  horizon: {horizon}
  threshold: 0.9
cluster:
  passes: 1
monte_carlo:
  enabled: false
output_dir: out
"""


@pytest.mark.parametrize("horizon", [1, 2, 3, 5, 10])
def test_finite_horizon_bounds_hold_against_the_exact_drift_oracle(tmp_path, horizon):
    """A rising 1-D walk whose H-step reach probability is exact
    (``drift_reach_probability``): in results.csv and results_improved.csv
    every cell's p_lower is at most the probability at its lower edge and
    its p_upper at least the one at its upper edge, within 1e-12, as the
    transition bounds round to nearest. A one-step lower bound from H-step
    values bounds the (H+1)-step probability, not the H-step one, so the
    pass must not raise p_lower at a finite horizon (it did by up to 0.75)."""
    path = tmp_path / "drift.yaml"
    path.write_text(DRIFT_1D.format(horizon=horizon))
    cfg = load_config(path)
    run_pipeline(cfg, phases=("abstract", "verify", "improve"))
    unsound = []
    for name in (RESULTS_FILE, IMPROVED_FILE):
        lines = (cfg.output_dir / name).read_text().splitlines()[1:-1]  # the cells, not unsafe
        assert len(lines) == 20
        for line in lines:
            state, lo, hi, p_lower, p_upper, _ = line.split(",")
            least = float(drift_reach_probability(float(lo), 0.8, 0.05, 0.15, horizon))
            most = float(drift_reach_probability(float(hi), 0.8, 0.05, 0.15, horizon))
            if not (float(p_lower) <= least + 1e-12 and most - 1e-12 <= float(p_upper)):
                unsound.append((name, int(state), float(p_lower), least, float(p_upper), most))
    assert unsound == []


WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads"


@pytest.mark.parametrize("name, rounds, walked", [
    ("paper-mult-40", 16, (5556, 5556)),
    ("additive-h200-phased", 6, (0, 3126)),
])
def test_summary_and_debug_line_report_rounds_and_walks(tmp_path, caplog, name, rounds, walked):
    """``summary.json``'s improve phase gives the cluster pass's rounds and,
    per bound, its row walks, as the pass's result and its DEBUG line do;
    at a finite horizon (additive-h200-phased) the lower bound walks no
    row. The counts are pinned, so that a change that walks more rows
    fails."""
    cfg = dataclasses.replace(load_config(WORKLOADS / f"{name}.yaml"), output_dir=tmp_path)
    with caplog.at_level("DEBUG", logger="imcverify"):
        summary = run_pipeline(cfg, phases=("abstract", "verify", "improve"))
    improve = summary["phases"]["improve"]
    assert improve["rounds"] == rounds
    assert improve["walked_rows"] == dict(zip(("lower", "upper"), walked))
    assert json.loads((tmp_path / "summary.json").read_text())["phases"]["improve"] == improve
    assert f" {rounds} rounds, {walked[1]} row walks" in caplog.text
