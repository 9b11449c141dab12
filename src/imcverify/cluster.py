"""Refinement-free improvement of satisfaction intervals by clustering
successor states.

The containment lower bound grows with the size of the target, so merging a
state's successors into one box target can force probability mass into the
merged region that the per-cell bounds could not pin down. Each pass visits
states in descending lower-bound order, recomputes the one-step extreme
expectations against the cluster, and keeps a new value only when it is
strictly better. The IMC itself is never rewritten; the cluster is transient
per source state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .dynamics import DynamicsModel
from .errors import SoundnessError
from .geometry import Box, StatePartition
from .imc import Imc, PosteriorTable, _check_rows, cell_posteriors, pair_bounds
from .noise import NoiseCell, NoiseModel
from .verify import (
    ReachAvoidSpec,
    VerificationResult,
    _extreme_expectations,
    _goal_avoid_sets,
    classify_arrays,
)

_VOL_TOL = 1e-9


@dataclass(frozen=True)
class ClusterProposal:
    """A set of successor cells of one source state whose union is a box."""

    source: int
    members: tuple[int, ...]
    box: Box


def _largest_block(
    partition: StatePartition, eligible: np.ndarray
) -> Optional[tuple[tuple[int, ...], Box]]:
    """Largest axis-aligned block of eligible grid cells, by cell count.

    The bounding box of the eligible set when they fill it, as they do on
    every workload measured; otherwise brute force over the index ranges in
    that box, ties breaking toward the lexicographically smallest range so
    the result is deterministic.
    """
    if len(eligible) < 2:
        return None
    cells = set(zip(*(m.tolist() for m in np.unravel_index(eligible, partition.resolution))))
    bounds = tuple(range(min(c), max(c) + 1) for c in zip(*cells))
    if len(cells) < math.prod(map(len, bounds)):  # else the cells fill their bounding box
        # per dimension, the index ranges within the bounding box, in (start, stop) order
        spans = [[range(a, b + 1) for a in r for b in range(a, r.stop)] for r in bounds]
        best: Optional[tuple[int, tuple[range, ...]]] = None
        for combo in product(*spans):
            count = math.prod(map(len, combo))
            if count >= 2 and (best is None or count > best[0]):
                if all(idx in cells for idx in product(*combo)):
                    best = (count, combo)
        if best is None:
            return None
        bounds = best[1]
    members = np.ravel_multi_index(np.meshgrid(*bounds, indexing="ij"), partition.resolution)
    edges = partition.edges
    box = Box.from_bounds([(edges[d][r.start], edges[d][r.stop]) for d, r in enumerate(bounds)])
    return tuple(sorted(members.ravel().tolist())), box


def select_cluster(
    source: int, imc: Imc, hull: Box
) -> Optional[ClusterProposal]:
    """Choose successor cells of ``source`` to merge, given the posterior hull.

    If the hull sits inside the domain and is tiled exactly by successor
    cells, those cells form the cluster. Otherwise the largest axis-aligned
    block of successor cells inside the hull is used. Fewer than two usable
    cells yield no proposal.
    """
    partition = imc.partition
    row = slice(imc.indptr[source], imc.indptr[source + 1])
    successors = imc.dst[row][
        (imc.dst[row] != imc.unsafe_index) & (imc.upper[row] > 0.0)
    ]
    if len(successors) < 2:
        return None
    multi = np.unravel_index(successors, partition.resolution)
    in_hull = np.ones(len(successors), dtype=bool)
    volume = np.ones(len(successors))
    for d, m in enumerate(multi):
        edges = np.asarray(partition.edges[d])
        ival = hull.component(d)
        in_hull &= (ival.lo <= edges[m]) & (edges[m + 1] <= ival.hi)
        volume *= edges[m + 1] - edges[m]
    inside = successors[in_hull]
    if len(inside) >= 2 and partition.domain.contains(hull):
        tiled_volume = sum(volume[in_hull].tolist())
        if abs(tiled_volume - hull.volume) <= _VOL_TOL * max(1.0, hull.volume):
            return ClusterProposal(source, tuple(sorted(inside.tolist())), hull)
    block = _largest_block(partition, inside)
    if block is None:
        return None
    members, box = block
    return ClusterProposal(source, members, box)


def cluster_improve(
    imc: Imc,
    model: DynamicsModel,
    noise: NoiseModel,
    result: VerificationResult,
    spec: ReachAvoidSpec,
    *,
    posterior_table: Optional[PosteriorTable] = None,
    noise_cells: Optional[Sequence[NoiseCell]] = None,
) -> VerificationResult:
    """One improvement pass over all states, in descending lower-bound order.

    For each state with a usable cluster, the one-step extreme expectations
    are recomputed with the cluster replacing its members: the cluster's
    value is the weakest member value (min of lower bounds, max of upper
    bounds) and its transition interval comes from ``pair_bounds``, like
    the rest of the abstraction. A new value is kept only when strictly
    better, so no state ever gets worse. Later states in the pass see
    earlier improvements.

    Only the values change during the pass, so the posteriors, every
    proposal, one ``pair_bounds`` call for all cluster boxes and one check
    of all clustered rows come first; the pass then makes one kernel call
    per run of rows, with the bits of a row-by-row pass.
    ``pipeline.phase_improve`` runs passes until one changes nothing or the
    configured number is reached.
    """
    partition = imc.partition
    posts = cell_posteriors(partition, model, noise, posterior_table, noise_cells)
    p_lo = result.p_lower.copy()
    p_hi = result.p_upper.copy()

    pinned = np.logical_or(*_goal_avoid_sets(imc, spec))
    pinned[imc.unsafe_index] = True

    order = sorted(range(partition.n_cells), key=lambda i: (-p_lo[i], i))
    proposals = [select_cluster(i, imc, posts.hull(i)) for i in order if not pinned[i]]
    proposals = [p for p in proposals if p is not None]
    sources = np.array([p.source for p in proposals], dtype=np.int64)
    boxes = np.array([p.box.endpoints() for p in proposals]).reshape(-1, 2, partition.domain.dim)
    cl_low, cl_up = pair_bounds(posts, sources, boxes[:, 0], boxes[:, 1])

    # Each clustered row is the source's row without the members, then the
    # cluster as virtual state n + j of proposal j, keyed by its first member
    # so that ties order as they would at that member.
    n, count = imc.n_states, len(proposals)
    rows = [slice(imc.indptr[s], imc.indptr[s + 1]) for s in sources.tolist()]
    kept = [~np.isin(imc.dst[r], p.members) for r, p in zip(rows, proposals)]
    dst, lower, upper = (
        np.concatenate([np.append(x[r][k], c) for r, k, c in zip(rows, kept, last)] + [x[:0]])
        for x, last in ((imc.dst, n + np.arange(count)), (imc.lower, cl_low), (imc.upper, cl_up))
    )
    indptr = np.cumsum([0] + [np.count_nonzero(k) + 1 for k in kept])
    # the clustered rows must stay feasible; a violation is a bug
    remaining = 1.0 - _check_rows(indptr, lower, upper, SoundnessError, sources)

    # A run is a maximal stretch of the pass in which no row reads (as a
    # target of its source, members included) a state an earlier row of the
    # run writes, so its rows see the values of a row-by-row pass.
    step = np.full(n, -1)
    step[sources] = np.arange(count)
    starts = []
    for j, r in enumerate(rows):
        writer = step[imc.dst[r]]
        if not starts or writer[writer < j].max(initial=-1) >= starts[-1]:
            starts.append(j)
    members = [list(p.members) for p in proposals]
    keys = np.array(list(range(n)) + [m[0] for m in members], dtype=np.int64)
    cl_lo, cl_hi = np.zeros(count), np.zeros(count)
    for a, b in zip(starts, starts[1:] + [count]):
        cl_lo[a:b] = [p_lo[m].min() for m in members[a:b]]
        cl_hi[a:b] = [p_hi[m].max() for m in members[a:b]]
        entries = slice(indptr[a], indptr[b])
        # rank only the states this run reads (return_index: a stable sort)
        states, _, local = np.unique(dst[entries], return_index=True, return_inverse=True)
        new_lo, new_hi = _extreme_expectations(
            indptr[a:b + 1] - indptr[a], local, lower[entries], upper[entries], remaining[a:b],
            np.append(p_lo, cl_lo)[states], np.append(p_hi, cl_hi)[states], keys[states],
        )
        q = sources[a:b]
        p_lo[q] = np.where(new_lo > p_lo[q], np.minimum(new_lo, p_hi[q]), p_lo[q])
        p_hi[q] = np.where(new_hi < p_hi[q], np.maximum(new_hi, p_lo[q]), p_hi[q])

    classification = classify_arrays(p_lo, p_hi, spec.threshold)
    return VerificationResult(p_lo, p_hi, classification, result.iterations, result.converged)
