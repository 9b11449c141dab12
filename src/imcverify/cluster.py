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

    Brute force over index ranges restricted to the bounding box of the
    eligible set; ties break toward the lexicographically smallest range so
    the result is deterministic.
    """
    if len(eligible) < 2:
        return None
    multi = np.unravel_index(eligible, partition.resolution)
    multis = list(zip(*(m.tolist() for m in multi)))
    dim = partition.domain.dim
    lo = [min(m[d] for m in multis) for d in range(dim)]
    hi = [max(m[d] for m in multis) for d in range(dim)]
    member_set = set(multis)

    best: Optional[tuple[int, tuple[range, ...]]] = None
    span_choices = []
    for d in range(dim):
        spans = [
            range(a, b + 1)
            for a in range(lo[d], hi[d] + 1)
            for b in range(a, hi[d] + 1)
        ]
        span_choices.append(spans)
    for combo in product(*span_choices):
        count = 1
        for r in combo:
            count *= len(r)
        if count < 2:
            continue
        if best is not None and count < best[0]:
            continue
        if all(idx in member_set for idx in product(*combo)):
            if best is None or count > best[0]:
                best = (count, tuple(combo))
    if best is None:
        return None
    ranges = best[1]
    members = tuple(sorted(partition.flat_index(m) for m in product(*ranges)))
    edges = partition.edges
    box = Box.from_bounds([(edges[d][r.start], edges[d][r.stop]) for d, r in enumerate(ranges)])
    return members, box


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
    of all clustered rows come first; the pass walks one row per state.
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

    # each clustered row: the source's row without the members, then one
    # entry for the cluster keyed by its first member
    rows = []
    for p, low, up in zip(proposals, cl_low.tolist(), cl_up.tolist()):
        row = slice(imc.indptr[p.source], imc.indptr[p.source + 1])
        base = ~np.isin(imc.dst[row], p.members)
        lower, upper = np.append(imc.lower[row][base], low), np.append(imc.upper[row][base], up)
        rows.append((imc.dst[row][base], lower, upper))
    indptr = np.cumsum([0] + [len(r[1]) for r in rows])
    bounds = [np.concatenate([r[k] for r in rows] + [np.zeros(0)]) for k in (1, 2)]
    # the clustered rows must stay feasible; a violation is a bug
    remaining = 1.0 - _check_rows(indptr, *bounds, SoundnessError, sources)

    for p, (dst, lower, upper), rest in zip(proposals, rows, remaining.tolist()):
        q_idx, members = p.source, list(p.members)
        (new_lo,), (new_hi,) = _extreme_expectations(
            np.array([0, len(lower)]),
            np.append(dst, members[0]),
            lower,
            upper,
            np.array([rest]),
            np.append(p_lo[dst], p_lo[members].min()),
            np.append(p_hi[dst], p_hi[members].max()),
        )
        if new_lo > p_lo[q_idx]:
            p_lo[q_idx] = min(new_lo, p_hi[q_idx])
        if new_hi < p_hi[q_idx]:
            p_hi[q_idx] = max(new_hi, p_lo[q_idx])

    return VerificationResult(
        p_lower=p_lo,
        p_upper=p_hi,
        classification=classify_arrays(p_lo, p_hi, spec.threshold),
        iterations=result.iterations,
        converged=result.converged,
    )
