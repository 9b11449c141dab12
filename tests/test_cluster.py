import math
import re
from itertools import count, product
from types import SimpleNamespace

import numpy as np
import pytest

import imcverify.cluster as cluster_module
import imcverify.imc as imc_module
from imcverify.cluster import _largest_block, cluster_improve, cluster_proposals
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
from imcverify.verify import (
    ReachAvoidSpec,
    VerificationResult,
    classify_arrays,
    robust_value_iteration,
)
from boxes import box
from csr_rows import extremes


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
        # from cell [0,1]: hull ~ [1 - 1e-12, 4 + 1e-12], tiled by cells 1..3 up to 1e-9
        hull = np.stack([posts.hull_lo[0], posts.hull_hi[0]], -1).tolist()
        assert hull != [[1, 4]] and hull[0][0] <= 1 and 4 <= hull[0][1]
        prop = select_cluster(0, imc, posts)
        assert prop.members == (1, 2, 3)
        assert prop.box == hull

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
    eligible successors inside the hull; the hull itself when it lies in
    the domain and they tile it, else ``largest_block_reference``."""
    partition = imc.partition
    hull_lo, hull_hi = posts.hull_lo[source].tolist(), posts.hull_hi[source].tolist()
    row = slice(imc.indptr[source], imc.indptr[source + 1])
    successors = imc.dst[row][(imc.dst[row] != imc.unsafe_index) & (imc.upper[row] > 0.0)]
    multi = np.unravel_index(successors, partition.resolution)
    in_hull = np.ones(len(successors), dtype=bool)
    volume = np.ones(len(successors))
    for d, m in enumerate(multi):
        edges = np.asarray(partition.edges[d])
        in_hull &= (hull_lo[d] <= edges[m]) & (edges[m + 1] <= hull_hi[d])
        volume *= edges[m + 1] - edges[m]
    inside = successors[in_hull]
    hull = [[a, b] for a, b in zip(hull_lo, hull_hi)]
    hull_volume = math.prod(b - a for a, b in hull)
    in_domain = all(e[0] <= a and b <= e[-1] for e, (a, b) in zip(partition.edges, hull))
    if len(inside) >= 2 and in_domain:
        if abs(sum(volume[in_hull].tolist()) - hull_volume) <= 1e-9 * max(1.0, hull_volume):
            return SimpleNamespace(members=tuple(sorted(inside.tolist())), box=hull)
    members = largest_block_reference(partition, inside)
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
        res = planted_result(planted_lo, planted_hi)
        out = cluster_improve(imc, posts, res, ReachAvoidSpec())
        assert np.all(out.p_lower >= res.p_lower)
        assert np.all(out.p_upper <= res.p_upper)
        assert np.any(out.p_lower > res.p_lower)
        # cell [0,1] clusters cells 1..3 (all planted at 0.8) with
        # containment mass Pr(w in [-1, 1]) = 0.8
        assert out.p_lower[0] == pytest.approx(0.8 * 0.8)

    def test_noop_pass_is_identity(self):
        part, model, noise, posts, imc = shifted_identity_setup()
        res = robust_value_iteration(imc, ReachAvoidSpec())
        once = cluster_improve(imc, posts, res, ReachAvoidSpec())
        assert np.all(once.p_lower >= res.p_lower)
        assert np.all(once.p_upper <= res.p_upper)
        twice = cluster_improve(imc, posts, once, ReachAvoidSpec())
        # fixed point: a pass with no accepted improvement is bit-identical
        again = cluster_improve(imc, posts, twice, ReachAvoidSpec())
        assert np.array_equal(again.p_lower, twice.p_lower)
        assert np.array_equal(again.p_upper, twice.p_upper)

    def test_pass_without_proposals_is_identity(self):
        # every cell has one successor besides the unsafe state
        part = partition_domain(*box([[0, 2]]), (2,))
        model = parse_dynamics(["x1 + w1"], 1, "additive")
        noise = NoiseModel((Uniform(-0.05, 0.05),))
        posts = cell_posteriors(part, model, noise)
        imc = build_imc(posts, assign_labels(part, {"goal": box([[[1, 2]]])}))
        res = planted_result([0.3, 1.0, 0.0], [0.6, 1.0, 0.0])
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


def one_row_at_a_time(imc, model, noise, result):
    """Reference pass: each clustered row on its own, in descending p_lower
    order, through the adversary kernel on that one row. The cluster takes the place of
    its first member, valued at the weakest member value. Returns the bounds
    and the number of rows that read a state improved earlier in the pass."""
    posts = cell_posteriors(imc.partition, model, noise)
    p_lo, p_hi = result.p_lower.copy(), result.p_upper.copy()
    names = [name for name in (GOAL_LABEL, *AVOID_LABELS) if name in imc.labels]
    pinned = np.logical_or.reduce([imc.labels[name] for name in names])
    improved, chained = set(), 0
    for q in sorted(range(imc.partition.n_cells), key=lambda i: (-p_lo[i], i)):
        if pinned[q]:
            continue
        prop = select_cluster_reference(q, imc, posts)
        if prop is None:
            continue
        members = list(prop.members)
        lo, hi = (a[None] for a in box(prop.box))
        (c_lo,), (c_hi,) = pair_bounds(posts, np.array([q]), lo, hi)
        entries = slice(imc.indptr[q], imc.indptr[q + 1])
        dst = imc.dst[entries].tolist()
        full = zip(dst, imc.lower[entries].tolist(), imc.upper[entries].tolist())
        row = [entry for entry in full if entry[0] not in prop.members]
        row.append((members[0], float(c_lo), float(c_hi)))
        v_lo, v_hi = p_lo.copy(), p_hi.copy()
        v_lo[members[0]], v_hi[members[0]] = p_lo[members].min(), p_hi[members].max()
        chained += bool(improved & set(dst))
        new_lo = extremes(v_lo, row)[0]
        new_hi = extremes(v_hi, row)[1]
        if new_lo > p_lo[q]:
            p_lo[q] = min(new_lo, p_hi[q])
        if new_hi < p_hi[q]:
            p_hi[q] = max(new_hi, p_lo[q])
        if (p_lo[q], p_hi[q]) != (result.p_lower[q], result.p_upper[q]):
            improved.add(q)
    return p_lo, p_hi, chained


def test_pass_matches_one_row_at_a_time(monkeypatch):
    """Clustered rows that read states improved earlier in the same pass
    get the bits of a pass that walks one row at a time, whatever the
    slot budget of a block."""
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
    res = planted_result(p_lower, p_upper)
    ref_lo, ref_hi, chained = one_row_at_a_time(imc, model, noise, res)
    assert chained > 10
    for budget in (imc_module._BLOCK_SLOTS, 7, 1):
        monkeypatch.setattr(imc_module, "_BLOCK_SLOTS", budget)
        out = cluster_improve(imc, posts, res, ReachAvoidSpec())
        assert np.array_equal(out.p_lower, ref_lo)
        assert np.array_equal(out.p_upper, ref_hi)


def read_before_write(imc, sources, p_lower, changed):
    """The rows of a pass over ``sources`` that read a state a later row of
    the pass changes."""
    in_pass = sorted(sources.tolist(), key=lambda q: (-p_lower[q], q))
    position = dict(zip(in_pass, count()))
    targets = np.split(imc.dst, imc.indptr[1:-1])
    return sum(
        any(position.get(r, -1) > k and changed[r] for r in targets[q])
        for q, k in position.items()
    )


def test_rounds_keep_reads_before_and_after_writes(caplog):
    """A pass in which earlier rows read states that later rows improve
    (write after read) and rows read states improved earlier (read after
    write) runs in fewer rounds than rows and keeps the bits of the one-row
    walk."""
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
    res = planted_result(p_lower, p_upper)
    with caplog.at_level("DEBUG", logger="imcverify"):
        out = cluster_improve(imc, posts, res, ReachAvoidSpec())
    ref_lo, ref_hi, chained = one_row_at_a_time(imc, model, noise, res)
    assert np.array_equal(out.p_lower, ref_lo)
    assert np.array_equal(out.p_upper, ref_hi)

    allowed = np.ones(imc.n_states, dtype=bool)
    allowed[pinned] = False
    sources = cluster_proposals(imc, posts, allowed)[0]
    changed = (out.p_lower != res.p_lower) | (out.p_upper != res.p_upper)
    assert chained > 5 and read_before_write(imc, sources, p_lower, changed) >= 3
    counts = re.search(r"(\d+) proposals, .* (\d+) rounds, (\d+) row walks", caplog.text).groups()
    proposals, rounds, walks = map(int, counts)
    assert 2 <= rounds < proposals == len(sources)
    assert proposals < walks < rounds * proposals


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
def test_pass_matches_one_row_at_a_time_on_random_systems(structure):
    """Random systems with planted results: rows that read their own state
    (self loops), states a later row changes (write after read) and states
    an earlier row changed (read after write) get the bits of a pass that
    walks one row at a time."""
    rng = np.random.default_rng(11 if structure == "additive" else 12)
    self_loops = chained = before_write = 0
    for _ in range(8):
        model, noise, posts, imc = random_system(rng, structure)
        pinned = np.logical_or(imc.labels[GOAL_LABEL], imc.labels["unsafe"])
        p_lower = rng.uniform(0.0, 0.9, imc.n_states)
        p_upper = np.minimum(1.0, p_lower + rng.uniform(0.0, 0.5, imc.n_states))
        p_lower[pinned] = p_upper[pinned] = imc.labels[GOAL_LABEL][pinned]
        res = planted_result(p_lower, p_upper)
        out = cluster_improve(imc, posts, res, ReachAvoidSpec())
        ref_lo, ref_hi, rows_chained = one_row_at_a_time(imc, model, noise, res)
        assert np.array_equal(out.p_lower, ref_lo)
        assert np.array_equal(out.p_upper, ref_hi)

        sources = cluster_proposals(imc, posts, ~pinned)[0]
        changed = (out.p_lower != res.p_lower) | (out.p_upper != res.p_upper)
        self_loops += sum(q in imc.dst[imc.indptr[q]:imc.indptr[q + 1]] for q in sources.tolist())
        chained += rows_chained
        before_write += read_before_write(imc, sources, p_lower, changed)
    assert self_loops > 50 and chained > 20 and before_write > 20


def test_holes_fallback_through_the_pass(caplog, monkeypatch):
    """A bimodal noise whose gap holds the source's own cell (cell width
    plus posterior width 2/24 < 0.1): eligible sets have holes, the pass
    picks the reference blocks and keeps the bits of the one-row walk,
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
    res = planted_result(p_lower, p_upper)
    with caplog.at_level("DEBUG", logger="imcverify"):
        out = cluster_improve(imc, posts, res, ReachAvoidSpec())
    assert f"{holes} reached the holes fallback" in caplog.text
    ref_lo, ref_hi, _ = one_row_at_a_time(imc, model, noise, res)
    assert np.any(out.p_lower != res.p_lower)
    assert np.array_equal(out.p_lower, ref_lo)
    assert np.array_equal(out.p_upper, ref_hi)
