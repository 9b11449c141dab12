"""Refinement-free improvement of satisfaction intervals by clustering
successor states: merging a state's successors into one box target can force
probability mass into the merged region that the per-cell bounds could not
pin down. The clusters of all states come from the IMC's CSR arrays and the
cells' posteriors at once (``cluster_proposals``); ``cluster_improve`` makes
one pass over the states with them, on one ``RowLayout`` of the clustered
rows, walking one part of it per dependency level of the pass (``_levels``)
and ranking only the states that level reads. The posteriors are computed
by the caller, once for any number of passes, and the IMC is never
rewritten. From sound bounds the pass keeps sound one-step bounds, so it
classifies by the threshold alone.
"""

from __future__ import annotations

import logging
from functools import reduce
from typing import Optional

import numpy as np

from .errors import SoundnessError
from .imc import CellPosteriors, Imc, RowLayout, _goal_avoid_sets, _row_sums, _rows_with_last, pair_bounds
from .verify import ReachAvoidSpec, VerificationResult, _rank, classify_arrays

log = logging.getLogger("imcverify")

_BLOCK = 32  # rows per numpy step of the level computation


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
    # one index array per dimension, so the gathers and reductions below are contiguous
    src, multi = row[entry], np.unravel_index(imc.dst[entry], partition.resolution)
    inside, volume = np.ones(len(entry), dtype=bool), np.ones(len(entry))
    for d, (e, m) in enumerate(zip(partition.edges, multi)):
        lo, hi = e[m], e[m + 1]
        inside &= (posts.hull_lo[src, d] <= lo) & (hi <= posts.hull_hi[src, d])
        volume = volume * (hi - lo)
    entry, src, volume = entry[inside], src[inside], volume[inside]
    multi = [m[inside] for m in multi]
    # one segment of eligible entries per source that has any
    seg = np.flatnonzero(np.diff(src, prepend=-1))
    indptr = np.append(seg, len(entry))
    sources, count = src[seg], np.diff(indptr)
    first = [np.minimum.reduceat(m, seg) for m in multi]
    stop = [np.maximum.reduceat(m, seg) + 1 for m in multi]
    filled = count == reduce(np.multiply, (b - a for a, b in zip(first, stop)))
    found, holes = filled & (count >= 2), np.flatnonzero(~filled & (count >= 2))
    for j in holes.tolist():
        block = _largest_block(np.stack([m[seg[j]:seg[j] + count[j]] for m in multi], -1))
        if block is not None:
            found[j] = True
            for a, b, start, end in zip(first, stop, *block):
                a[j], b[j] = start, end
    of = np.repeat(np.arange(len(seg)), count)
    member = found[of]
    for m, a, b in zip(multi, first, stop):
        member &= (a[of] <= m) & (m < b[of])
    members = np.zeros(len(imc.dst), dtype=bool)
    members[entry[member]] = True
    # the block runs from the lower corner of its first cell to the upper corner of its last
    lo = partition.corners(np.ravel_multi_index(first, partition.resolution))[0]
    hi = partition.corners(np.ravel_multi_index([b - 1 for b in stop], partition.resolution))[1]
    hull_lo, hull_hi = posts.hull_lo[sources], posts.hull_hi[sources]
    hull_volume = np.prod(hull_hi - hull_lo, axis=1)
    tiled = _row_sums(indptr, volume)
    dom_lo, dom_hi = (np.array([e[k] for e in partition.edges]) for k in (0, -1))
    hull = filled & ((dom_lo <= hull_lo) & (hull_hi <= dom_hi)).all(axis=1)
    hull &= np.abs(tiled - hull_volume) <= 1e-9 * np.maximum(1.0, hull_volume)
    lo[hull], hi[hull] = hull_lo[hull], hull_hi[hull]
    return sources[found], lo[found], hi[found], members, len(holes)


def _levels(imc: Imc, sources: np.ndarray) -> np.ndarray:
    """Per row of a pass over ``sources``, a level at least 1 + that of each
    earlier row whose source it reads (read after write) and at least that of
    each earlier row that reads its source (write after read): one kernel call
    per level, in level order, gives the bits of a row-by-row pass (level
    scheduling, Anderson & Saad, 1989). Per ``_BLOCK`` rows, numpy takes the
    dependencies that cross the block's edges and Python walks the rest."""
    count = len(sources)
    step = np.full(imc.n_states, count)
    step[sources] = np.arange(count)
    # per IMC entry of the pass's rows, in pass order: the row that writes its target, or count
    length = np.diff(imc.indptr)[sources]
    ptr = np.concatenate([[0], np.cumsum(length)])
    writer = step[imc.dst[np.repeat(imc.indptr[sources] - ptr[:-1], length) + np.arange(ptr[-1])]]
    level = np.zeros(count, dtype=np.int64)
    for a in range(0, count, _BLOCK):
        b = min(a + _BLOCK, count)
        reader, w = np.repeat(np.arange(a, b), length[a:b]), writer[ptr[a]:ptr[b]]
        before = w < a  # reads of what earlier blocks write
        np.maximum.at(level, reader[before], level[w[before]] + 1)
        inside = (a <= w) & (w < b) & (w != reader)
        r, t = reader[inside] - a, w[inside] - a
        # the later row of each pair follows the earlier, one level up if it reads
        later, earlier, up = np.maximum(r, t), np.minimum(r, t), t < r
        order = np.argsort(later, kind="stable")
        top = level[a:b].tolist()
        for j, i, d in zip(later[order].tolist(), earlier[order].tolist(), up[order].tolist()):
            top[j] = max(top[j], top[i] + d)
        level[a:b] = top
        after = (b <= w) & (w < count)  # later blocks write what this one reads
        np.maximum.at(level, w[after], level[reader[after]])
    return level


def cluster_improve(
    imc: Imc, posts: CellPosteriors, result: VerificationResult, spec: ReachAvoidSpec
) -> VerificationResult:
    """One improvement pass over all states, in descending lower-bound order,
    with the posteriors ``posts`` of the IMC's cells.

    For each state with a cluster (``cluster_proposals``), the one-step
    extreme expectations are recomputed with the cluster replacing its
    members: the cluster's value is the weakest member value (min of lower
    bounds, max of upper bounds) and its transition interval comes from
    ``pair_bounds``. A new value is kept only when strictly better, so no
    state ever gets worse. Later states in the pass see earlier
    improvements: one kernel call per dependency level gives the bits of a
    row-by-row pass. The numbers of clusters, of sources with holes and of
    levels are logged at DEBUG. Posteriors of another partition, even
    an equal one, are a ValueError.
    """
    if posts.partition is not imc.partition:
        raise ValueError("the posteriors were computed on another partition than the IMC's")
    p_lo, p_hi = result.p_lower.copy(), result.p_upper.copy()
    pinned = np.logical_or(*_goal_avoid_sets(imc.labels, imc.n_states))
    sources, box_lo, box_hi, members, holes = cluster_proposals(imc, posts, ~pinned)
    order = np.argsort(-p_lo[sources], kind="stable")  # ties by state
    level = _levels(imc, sources[order])
    order, ends = order[np.argsort(level, kind="stable")], np.cumsum(np.bincount(level))
    sources = sources[order]
    cl_low, cl_up = pair_bounds(posts, sources, box_lo[order], box_hi[order])

    # the source rows in level order, members included
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
    layout = RowLayout(indptr, dst, lower, upper, SoundnessError, sources)

    keys = np.concatenate([np.arange(n), member_dst[member_ptr[:-1]]])
    # the values the levels read: the states' (p_lo and p_hi become views of
    # them, so each level sees the earlier levels' updates), then the clusters'
    lo_all, hi_all = (np.concatenate([p, np.zeros(count)]) for p in (p_lo, p_hi))
    (p_lo, cl_lo), (p_hi, cl_hi) = (np.split(v, [n]) for v in (lo_all, hi_all))
    a = 0
    for b in ends.tolist():
        m, at = member_dst[member_ptr[a]:member_ptr[b]], member_ptr[a:b] - member_ptr[a]
        cl_lo[a:b], cl_hi[a:b] = np.minimum.reduceat(p_lo[m], at), np.maximum.reduceat(p_hi[m], at)
        # rank only the states this level reads (return_index, for a plain
        # np.unique imports numpy.ma)
        states = np.unique(dst[indptr[a]:indptr[b]], return_index=True)[0]
        part = layout.part(a, b)
        new_lo = part.walk(_rank(lo_all, 1.0, keys, states), lo_all)
        new_hi = part.walk(_rank(hi_all, -1.0, keys, states), hi_all)
        q = sources[a:b]
        p_lo[q] = np.where(new_lo > p_lo[q], np.minimum(new_lo, p_hi[q]), p_lo[q])
        p_hi[q] = np.where(new_hi < p_hi[q], np.maximum(new_hi, p_lo[q]), p_hi[q])
        a = b
    log.debug("cluster: %d proposals, %d reached the holes fallback, %d levels",
              count, holes, len(ends))

    classification = classify_arrays(p_lo, p_hi, spec.threshold)
    return VerificationResult(p_lo, p_hi, classification, result.iterations, result.converged)
