"""Refinement-free improvement of satisfaction intervals by clustering
successor states: merging a state's successors into one box target can force
probability mass into the merged region that the per-cell bounds could not
pin down. The clusters of all states come from the IMC's CSR arrays and the
cells' posteriors at once (``cluster_proposals``); ``cluster_improve``
iterates the states' bounds with them to a fixpoint, on one ``RowLayout`` of
the clustered rows, in rounds: the first walks every row, each later one
only the rows that read a state the round before changed, and values only
their clusters. ``RowLayout.reading`` finds those rows in the layout itself:
a clustered row reads its kept states and its cluster's slot, which counts
as changed where one of its members did. The posteriors are computed by the
caller, and the IMC is never rewritten. From sound bounds the pass keeps
sound one-step bounds; it returns bounds and its round and walk counts, and
the bounds' classes are derived where they are written or counted.
"""

from __future__ import annotations

import logging
from functools import reduce
from typing import Optional

import numpy as np

from .errors import SoundnessError
from .imc import (_BLOCK_PAIRS, CellPosteriors, Imc, RowLayout, _goal_avoid_sets,
                  _rows_with_last, _spans, pair_bounds)
from .verify import ReachAvoidSpec, VerificationResult, _rank

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
    box, that box is the cluster; else the cluster is their
    ``_largest_block``. Returns the sources with a cluster (ascending), the
    clusters' corners (shape (sources, n)), the mask of the IMC entries they
    merge and the number of sources whose eligible cells had holes. The
    rows go in blocks of about ``_BLOCK_PAIRS`` entries, so that the
    per-entry arrays stay small.
    """
    members = np.zeros(len(imc.dst), dtype=bool)
    step = max(1, _BLOCK_PAIRS * imc.n_states // len(imc.dst))
    blocks = [_proposals(imc, posts, allowed, range(a, min(a + step, imc.n_states)), members)
              for a in range(0, imc.n_states, step)]
    sources, lo, hi, holes = zip(*blocks)
    return np.concatenate(sources), np.concatenate(lo), np.concatenate(hi), members, sum(holes)


def _proposals(imc: Imc, posts: CellPosteriors, allowed: np.ndarray, rows: range, members):
    """``cluster_proposals`` for ``rows``; their merged entries go into ``members``."""
    partition, base = imc.partition, imc.indptr[rows.start]
    entries = slice(base, imc.indptr[rows.stop])
    dst, upper = imc.dst[entries], imc.upper[entries]
    row = np.repeat(np.array(rows), np.diff(imc.indptr[rows.start:rows.stop + 1]))
    entry = np.flatnonzero((dst != imc.unsafe_index) & (upper > 0.0) & allowed[row])
    # one index array per dimension, so the gathers and reductions below are contiguous
    src, multi = row[entry], np.unravel_index(dst[entry], partition.resolution)
    inside = np.ones(len(entry), dtype=bool)
    for d, (e, m) in enumerate(zip(partition.edges, multi)):
        inside &= (posts.hull_lo[src, d] <= e[m]) & (e[m + 1] <= posts.hull_hi[src, d])
    entry, src = entry[inside], src[inside]
    multi = [m[inside] for m in multi]
    # one segment of eligible entries per source that has any
    seg = np.flatnonzero(np.diff(src, prepend=-1))
    sources, count = src[seg], np.diff(np.append(seg, len(entry)))
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
    members[base + entry[member]] = True
    # the block runs from the lower corner of its first cell to the upper corner of its last
    lo = partition.corners(np.ravel_multi_index(first, partition.resolution))[0]
    hi = partition.corners(np.ravel_multi_index([b - 1 for b in stop], partition.resolution))[1]
    return sources[found], lo[found], hi[found], len(holes)


def _clustered_rows(imc: Imc, sources: np.ndarray, members: np.ndarray, cl_low, cl_up):
    """The rows of ``sources``, in this order, with each cluster in place of
    its members, reading slots of the pass's value vector: state s at s and
    the cluster of row j at n + j. Returns the layout, the members, the
    start and count of each row's, and the slots in tie order: by state, a
    cluster at its first member's, stably (``_rank``'s ``ties``)."""
    n, count = imc.n_states, len(sources)
    length = np.diff(imc.indptr)[sources]
    entry = _spans(imc.indptr[sources], length)
    member = members[entry]
    # every cluster has two or more members, so no row is empty
    member_count = np.add.reduceat(member, np.cumsum(length) - length, dtype=np.int64)
    member_start = np.cumsum(member_count) - member_count
    member_state = imc.dst[entry[member]]
    ties = np.argsort(np.concatenate([np.arange(n), member_state[member_start]]), kind="stable")
    entry = entry[~member]
    del member
    # the rows and their layout set the pass's peak: the kept entries are
    # gathered one column at a time
    indptr, (dst, lower, upper) = _rows_with_last(
        length - member_count, (x[entry] for x in (imc.dst, imc.lower, imc.upper)),
        [n + np.arange(count), cl_low, cl_up])
    del entry
    # the clustered rows must stay feasible; a violation is a bug
    layout = RowLayout(indptr, dst, lower, upper, SoundnessError, sources)
    return layout, member_state, member_start, member_count, ties


def cluster_improve(
    imc: Imc, posts: CellPosteriors, result: VerificationResult, spec: ReachAvoidSpec
) -> VerificationResult:
    """The states' bounds, improved to a fixpoint with the posteriors
    ``posts`` of the IMC's cells.

    For each state with a cluster (``cluster_proposals``), the one-step
    extreme expectations are recomputed with the cluster replacing its
    members: the cluster's value is the weakest member value (min of lower
    bounds, max of upper bounds) and its transition interval comes from
    ``pair_bounds``. A new value is kept only when strictly better, so no
    state ever gets worse. Each round walks its rows on one value vector
    (all rows read the values of the round before), the first every row,
    each later one only the rows that read a state the round before
    changed, until no row reads a state that the last round changed. A
    round values only the clusters of its rows: no other cluster has a
    member that changed. Bounds only move inward, so the rounds end. At a
    finite horizon H the pass walks only the upper bound: a one-step bound
    from H-step values bounds the (H+1)-step probability, which is at least
    the H-step one, so it is sound as an upper bound but not as a lower
    one. The result reports the rounds as ``iterations`` and per bound the
    row walks as ``walked_rows`` (0 for the lower bound at a finite
    horizon); DEBUG logs the numbers of clusters, of sources with holes, of
    rounds and of row walks. Posteriors of another partition, even an equal
    one, are a ValueError.
    """
    if posts.partition is not imc.partition:
        raise ValueError("the posteriors were computed on another partition than the IMC's")
    n = imc.n_states
    pinned = np.logical_or(*_goal_avoid_sets(imc.labels, n))
    sources, box_lo, box_hi, members, holes = cluster_proposals(imc, posts, ~pinned)
    count = len(sources)
    cl_low, cl_up = pair_bounds(posts, sources, box_lo, box_hi)
    layout, member_state, member_start, member_count, ties = _clustered_rows(
        imc, sources, members, cl_low, cl_up)

    # the value vectors [states | clusters], per bound
    p_lo, p_hi = result.p_lower, result.p_upper
    lo_all, hi_all = (np.concatenate([p, np.empty(count)]) for p in (p_lo, p_hi))
    dirty, part, rounds, walks = np.ones(count, dtype=bool), layout, 0, 0

    def walk(values, weakest, sign):
        values[n:][dirty] = weakest.reduceat(values[members], first)
        return part.walk(_rank(values, sign, ties), values)[dirty]

    while True:
        rounds, walks = rounds + 1, walks + int(np.count_nonzero(dirty))
        # only the clusters of the rows walked: no other cluster has a member
        # that changed. The first round's are all of them, taken without a
        # copy of every member: their gathers set the pass's peak otherwise
        counts = member_count[dirty]
        members = member_state if dirty.all() else member_state[_spans(member_start[dirty], counts)]
        first = np.cumsum(counts) - counts
        q = sources[dirty]
        lo0, hi0 = lo_all[q], hi_all[q]
        new_lo = walk(lo_all, np.minimum, 1.0) if spec.horizon is None else lo0
        new_hi = walk(hi_all, np.maximum, -1.0)
        lo = np.where(new_lo > lo0, np.minimum(new_lo, hi0), lo0)
        hi = np.where(new_hi < hi0, np.maximum(new_hi, lo), hi0)
        lo_all[q], hi_all[q] = lo, hi
        # the slots this round changed: its states, then the clusters with a changed member
        moved = np.zeros(n + count, dtype=bool)
        moved[q[(lo != lo0) | (hi != hi0)]] = True
        moved[n:] = np.logical_or.reduceat(moved[member_state], member_start)
        dirty = layout.reading(moved)
        if not dirty.any():
            break
        part = layout.part(dirty)
    log.debug("cluster: %d proposals, %d reached the holes fallback, %d rounds, %d row walks",
              count, holes, rounds, walks)
    # copies, so that the value vectors go with the rest of the pass's scratch
    return VerificationResult(lo_all[:n].copy(), hi_all[:n].copy(), iterations=rounds,
                              walked_rows=(walks if spec.horizon is None else 0, walks))
