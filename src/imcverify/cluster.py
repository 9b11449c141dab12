"""Refinement-free improvement of satisfaction intervals by clustering
successor states: merging a state's successors into one box target can force
probability mass into the merged region that the per-cell bounds could not
pin down. The clusters of all states come from the IMC's CSR arrays at once
(``cluster_proposals``); ``cluster_improve`` makes one pass over the states
with them. The IMC itself is never rewritten.
"""

from __future__ import annotations

import logging
from functools import reduce
from typing import Optional

import numpy as np

from .dynamics import DynamicsModel
from .errors import SoundnessError
from .imc import CellPosteriors, Imc, PosteriorTable, _check_rows, _row_sums, _rows_with_last
from .imc import cell_posteriors, pair_bounds
from .noise import NoiseGrid, NoiseModel
from .verify import (
    ReachAvoidSpec,
    VerificationResult,
    _extreme_expectations,
    _goal_avoid_sets,
    classify_arrays,
)

log = logging.getLogger("imcverify")


def _largest_block(cells: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The largest axis-aligned block of at least two of the grid cells
    ``cells`` (multi-indices, shape (k, n)) as its start and stop index per
    dimension, or None; ties go to the lexicographically smallest (start,
    stop) ranges. Every block's count comes from a summed-area table (Crow,
    SIGGRAPH 1984) over the cells' bounding box."""
    if len(cells) < 2:
        return None
    first = cells.min(axis=0)
    count = np.zeros(cells.max(axis=0) - first + 2, dtype=np.int64)  # a zero slice first
    count[tuple((cells - first + 1).T)] = 1
    # per dimension, every range in the box as (start, stop), in lexicographic order
    spans = [(a, b + 1) for a, b in (np.triu_indices(s - 1) for s in count.shape)]
    for axis, (a, b) in enumerate(spans):  # prefix sums, differenced at each range's ends
        count = np.cumsum(count, axis=axis)
        count = count.take(b, axis=axis) - count.take(a, axis=axis)
    size = reduce(np.multiply, np.ix_(*(b - a for a, b in spans)))
    full = np.where(count == size, size, 0)
    best = np.unravel_index(np.argmax(full), full.shape)  # the first of the largest
    if full[best] < 2:
        return None
    return tuple(first + np.array([x[k] for x, k in zip(ends, best)]) for ends in zip(*spans))


def cluster_proposals(imc: Imc, posts: CellPosteriors, allowed: np.ndarray):
    """The clusters of the states in the mask ``allowed``.

    A source's eligible cells are its stored cell targets with upper > 0
    inside its posterior hull. When at least two fill their bounding index
    box, that box is the cluster, or the hull if it lies in the domain and
    their volumes, summed left to right, match its volume within 1e-9; else
    the cluster is their ``_largest_block``. Returns the sources with a
    cluster (ascending), the clusters' corners (shape (sources, n)), the
    mask of the IMC entries they merge and the number of sources whose
    eligible cells had holes.
    """
    partition = imc.partition
    row = np.repeat(np.arange(imc.n_states), np.diff(imc.indptr))
    entry = np.flatnonzero((imc.dst != imc.unsafe_index) & (imc.upper > 0.0) & allowed[row])
    src, multi = row[entry], np.stack(np.unravel_index(imc.dst[entry], partition.resolution), -1)
    inside, volume = np.ones(len(entry), dtype=bool), np.ones(len(entry))
    for d, e in enumerate(partition.edges):
        lo, hi = e[multi[:, d]], e[multi[:, d] + 1]
        inside &= (posts.hull_lo[src, d] <= lo) & (hi <= posts.hull_hi[src, d])
        volume = volume * (hi - lo)
    entry, src, multi, volume = entry[inside], src[inside], multi[inside], volume[inside]
    # one segment of eligible entries per source that has any
    seg = np.flatnonzero(np.diff(src, prepend=-1))
    sources, count = src[seg], np.diff(np.append(seg, len(entry)))
    first = np.minimum.reduceat(multi, seg, axis=0)
    stop = np.maximum.reduceat(multi, seg, axis=0) + 1
    filled = count == (stop - first).prod(axis=1)
    found, holes = filled & (count >= 2), np.flatnonzero(~filled & (count >= 2))
    for j in holes.tolist():
        block = _largest_block(multi[seg[j]:seg[j] + count[j]])
        if block is not None:
            found[j], (first[j], stop[j]) = True, block
    of = np.repeat(np.arange(len(seg)), count)
    members = np.zeros(len(imc.dst), dtype=bool)
    members[entry[found[of] & ((first[of] <= multi) & (multi < stop[of])).all(axis=1)]] = True
    # the block runs from the lower corner of its first cell to the upper corner of its last
    lo = partition.corners(np.ravel_multi_index(first.T, partition.resolution))[0]
    hi = partition.corners(np.ravel_multi_index((stop - 1).T, partition.resolution))[1]
    hull_lo, hull_hi = posts.hull_lo[sources], posts.hull_hi[sources]
    hull_volume = np.prod(hull_hi - hull_lo, axis=1)  # in dimension order, as Box.volume
    (tiled,) = _row_sums(np.append(seg, len(entry)), volume)
    dom_lo, dom_hi = partition.domain.endpoints()
    hull = filled & ((dom_lo <= hull_lo) & (hull_hi <= dom_hi)).all(axis=1)
    hull &= np.abs(tiled - hull_volume) <= 1e-9 * np.maximum(1.0, hull_volume)
    lo[hull], hi[hull] = hull_lo[hull], hull_hi[hull]
    return sources[found], lo[found], hi[found], members, len(holes)


def cluster_improve(
    imc: Imc,
    model: DynamicsModel,
    noise: NoiseModel,
    result: VerificationResult,
    spec: ReachAvoidSpec,
    *,
    posterior_table: Optional[PosteriorTable] = None,
    noise_cells: Optional[NoiseGrid] = None,
) -> VerificationResult:
    """One improvement pass over all states, in descending lower-bound order.

    For each state with a cluster (``cluster_proposals``), the one-step
    extreme expectations are recomputed with the cluster replacing its
    members: the cluster's value is the weakest member value (min of lower
    bounds, max of upper bounds) and its transition interval comes from
    ``pair_bounds``. A new value is kept only when strictly better, so no
    state ever gets worse. Later states in the pass see earlier
    improvements: one kernel call per run of rows gives the bits of a
    row-by-row pass. The numbers of clusters, of sources with holes and of
    runs are logged at DEBUG.
    """
    posts = cell_posteriors(imc.partition, model, noise, posterior_table, noise_cells)
    p_lo, p_hi = result.p_lower.copy(), result.p_upper.copy()
    pinned = np.logical_or(*_goal_avoid_sets(imc, spec))
    sources, box_lo, box_hi, members, holes = cluster_proposals(imc, posts, ~pinned)
    order = np.argsort(-p_lo[sources], kind="stable")  # ties by state
    sources = sources[order]
    cl_low, cl_up = pair_bounds(posts, sources, box_lo[order], box_hi[order])

    # the source rows in pass order, members included
    n, count = imc.n_states, len(sources)
    length = np.diff(imc.indptr)[sources]
    offset = np.cumsum(length) - length
    entry = np.repeat(imc.indptr[sources] - offset, length) + np.arange(length.sum())
    row_of = np.repeat(np.arange(count), length)
    member = members[entry]
    member_dst = imc.dst[entry[member]]
    member_ptr = np.searchsorted(row_of[member], np.arange(count + 1))
    # Each clustered row is the source's row without the members, then the
    # cluster as virtual state n + j of source j, keyed by its first member
    # so that ties order as they would at that member.
    kept = entry[~member]
    indptr, (dst, lower, upper) = _rows_with_last(
        length - np.diff(member_ptr),
        [imc.dst[kept], imc.lower[kept], imc.upper[kept]],
        [n + np.arange(count), cl_low, cl_up],
    )
    # the clustered rows must stay feasible; a violation is a bug
    remaining = 1.0 - _check_rows(indptr, lower, upper, SoundnessError, sources)

    # A run is a maximal stretch of the pass in which no row reads (as a
    # target of its source, members included) a state an earlier row of the
    # run writes, so its rows see the values of a row-by-row pass: the run
    # from row a ends at the first row whose latest earlier writer is >= a.
    step = np.full(n, -1)
    step[sources] = np.arange(count)
    writer = step[imc.dst[entry]]
    latest = np.maximum.reduceat(np.where(writer < row_of, writer, -1), offset)
    reader = np.full(count + 1, count)
    np.minimum.at(reader, latest[latest >= 0], np.flatnonzero(latest >= 0))
    run_end = np.minimum.accumulate(reader[::-1])[::-1]

    keys = np.concatenate([np.arange(n), member_dst[member_ptr[:-1]]])
    cl_lo, cl_hi = np.zeros(count), np.zeros(count)
    a = runs = 0
    while a < count:
        b, runs = int(run_end[a]), runs + 1
        m, at = member_dst[member_ptr[a]:member_ptr[b]], member_ptr[a:b] - member_ptr[a]
        cl_lo[a:b], cl_hi[a:b] = np.minimum.reduceat(p_lo[m], at), np.maximum.reduceat(p_hi[m], at)
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
        a = b
    log.debug("cluster: %d proposals, %d reached the holes fallback, %d runs", count, holes, runs)

    classification = classify_arrays(p_lo, p_hi, spec.threshold)
    return VerificationResult(p_lo, p_hi, classification, result.iterations, result.converged)
