"""Refinement-free improvement of satisfaction intervals by clustering
successor states: merging a state's successors into one box target can force
probability mass into the merged region that the per-cell bounds could not
pin down. The clusters of all states come from the IMC's CSR arrays and the
cells' posteriors at once (``cluster_proposals``); ``cluster_improve`` makes
one pass over the states with them, on one ``RowLayout`` of the clustered
rows in pass order, in rounds: the first walks every row, each later one
only the rows that read a state the round before changed. The posteriors
are computed by the caller, once for any number of passes, and the IMC is
never rewritten. From sound bounds the pass keeps sound one-step bounds, so
it classifies by the threshold alone.
"""

from __future__ import annotations

import logging
from functools import reduce
from typing import Optional

import numpy as np

from .errors import SoundnessError
from .imc import (_BLOCK_PAIRS, CellPosteriors, Imc, RowLayout, _goal_avoid_sets, _row_sums,
                  _rows_with_last, pair_bounds)
from .verify import ReachAvoidSpec, VerificationResult, _rank, classify_arrays

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
    eligible cells had holes. The rows go in blocks of about
    ``_BLOCK_PAIRS`` entries, so that the per-entry arrays stay small.
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
    members[base + entry[member]] = True
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
    return sources[found], lo[found], hi[found], len(holes)


def _clustered_rows(imc: Imc, sources: np.ndarray, members: np.ndarray, cl_low, cl_up):
    """The rows of ``sources``, in this order, with each cluster in place of
    its members, reading slots of the pass's value vector: state s at s, the
    cluster of row j at n + j and the input value of s at n + count + s. A
    row reads the states that it or a later row writes as input values, so
    the pass order alone fixes its inputs. Returns the layout, the members'
    slots, the start of each row's, every slot's tie key (a cluster's is its
    first member's) and the row and state of each read after an earlier write."""
    n, count = imc.n_states, len(sources)
    length = np.diff(imc.indptr)[sources]
    offset = np.cumsum(length) - length
    entry = np.repeat(imc.indptr[sources] - offset, length) + np.arange(length.sum())
    row = np.repeat(np.arange(count), length)
    target = imc.dst[entry]
    writer = np.full(n, count)
    writer[sources] = np.arange(count)
    live = writer[target] < row
    slot = np.where(live, target, target + (n + count))
    member = members[entry]
    member_start = np.searchsorted(row[member], np.arange(count))  # every cluster has two or more
    keys = np.concatenate([np.arange(n), target[member][member_start], np.arange(n)])
    member_slot, reader, read_state = slot[member], row[live], target[live]
    kept = ~member
    counts, entry, slot = np.bincount(row[kept], minlength=count), entry[kept], slot[kept]
    del row, target, live, member, kept  # the rows and their layout set the pass's peak
    indptr, (dst, lower, upper) = _rows_with_last(
        counts, [slot, imc.lower[entry], imc.upper[entry]], [n + np.arange(count), cl_low, cl_up])
    del entry, slot
    # the clustered rows must stay feasible; a violation is a bug
    layout = RowLayout(indptr, dst, lower, upper, SoundnessError, sources)
    return layout, member_slot, member_start, keys, reader, read_state


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
    improvements: each round walks its rows on one value vector, the next
    only the rows that read a state it changed, until one changes none (at
    most the depth of the read-after-write chains plus one round), with
    the bits of a row-by-row pass (``_clustered_rows``). DEBUG logs the
    numbers of clusters, of sources with holes, of rounds and of row walks.
    Posteriors of another partition, even an equal one, are a ValueError.
    """
    if posts.partition is not imc.partition:
        raise ValueError("the posteriors were computed on another partition than the IMC's")
    p_lo, p_hi, n = result.p_lower, result.p_upper, imc.n_states
    pinned = np.logical_or(*_goal_avoid_sets(imc.labels, n))
    sources, box_lo, box_hi, members, holes = cluster_proposals(imc, posts, ~pinned)
    order = np.argsort(-p_lo[sources], kind="stable")  # ties by state
    sources, count = sources[order], len(sources)
    cl_low, cl_up = pair_bounds(posts, sources, box_lo[order], box_hi[order])
    layout, member_slot, member_start, keys, reader, read_state = _clustered_rows(
        imc, sources, members, cl_low, cl_up)

    # the value vectors [states | clusters | frozen states], per bound
    lo_in, hi_in = p_lo[sources], p_hi[sources]
    lo_all, hi_all = (np.concatenate([p, np.empty(count), p]) for p in (p_lo, p_hi))
    changed = np.zeros(n, dtype=bool)  # the states the last round changed
    # per-round scratch: the members' values, whether each live read changed
    member_value, hit = np.empty(len(member_slot)), np.empty(len(read_state), dtype=bool)
    dirty, part, rounds, walks = np.ones(count, dtype=bool), layout, 0, 0
    while True:
        rounds, walks = rounds + 1, walks + len(part.remaining)
        for values, weakest in ((lo_all, np.minimum), (hi_all, np.maximum)):
            # mode "clip" (the slots are in range): "raise" would buffer a copy of ``out``
            values.take(member_slot, out=member_value, mode="clip")
            weakest.reduceat(member_value, member_start, out=values[n:n + count])
        new_lo = part.walk(_rank(lo_all, 1.0, keys), lo_all)
        new_hi = part.walk(_rank(hi_all, -1.0, keys), hi_all)
        q, lo0, hi0 = sources[dirty], lo_in[dirty], hi_in[dirty]
        lo = np.where(new_lo > lo0, np.minimum(new_lo, hi0), lo0)
        hi = np.where(new_hi < hi0, np.maximum(new_hi, lo), hi0)
        changed[:] = False
        changed[q] = (lo != lo_all[q]) | (hi != hi_all[q])
        lo_all[q], hi_all[q] = lo, hi
        dirty[:] = False
        dirty[reader[changed.take(read_state, out=hit, mode="clip")]] = True
        if not dirty.any():
            break
        part = layout.part(dirty)
    log.debug("cluster: %d proposals, %d reached the holes fallback, %d rounds, %d row walks",
              count, holes, rounds, walks)
    # copies, so that the value vectors go with the rest of the pass's scratch
    p_lo, p_hi = lo_all[:n].copy(), hi_all[:n].copy()
    classification = classify_arrays(p_lo, p_hi, spec.threshold)
    return VerificationResult(p_lo, p_hi, classification, result.iterations, result.converged)
