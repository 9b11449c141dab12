"""Assembly of the sound IMC abstraction: transition probability bounds from
noise partitions, unsafe-state transitions, and the full model build with
hard row-validity checks.

An ``Imc`` holds CSR arrays: the row of state ``i`` is ``dst``, ``lower``
and ``upper`` over ``indptr[i]:indptr[i + 1]``. These arrays are its only
representation, and its labels are one boolean mask over the states per
label name: an IMC built by hand is ``Imc(partition, indptr, dst, lower,
upper, labels)``. A reach-avoid property reads the ``GOAL_LABEL`` and
``AVOID_LABELS`` masks, through ``_goal_avoid_sets`` in verification,
clustering and Monte Carlo alike.

``_blocks`` is the one padded row layout: blocks of rows whose lengths
round up to one multiple of 8. A ``RowLayout`` adds and checks every row
over it, in the pass that keeps each block's targets, lower bounds and
gaps for the adversary walk, which sorts every row of a block at once, and
names the rows that read a moved value from the same targets. The build,
value iteration and the cluster step each lay out their rows once.

``cell_posteriors`` is the one reader of the model, the noise, a posterior
table and a noise grid: it computes the posteriors, hulls and candidate
targets of every grid cell at once, and its ``CellPosteriors``, which
records their grid, is the only input the build and the cluster step take
from the system. A structured system's posterior is its noise-free image
g(q), the enclosure of its full expressions with the noise at 0 (additive)
or 1 (multiplicative), unless a posterior table gives it.

A transition bound depends only on the source's posterior and the target
box: ``pair_bounds`` maps arrays of (source, target box) pairs to their
bounds. Structured systems (additive or multiplicative noise) get the
optimal three-cell partition per component, so a bound is a product of 1-D
interval probabilities (``_factors``), each set by the source cell, the
dimension and the target's interval along it. ``factor_bounds`` computes
each once per cell and candidate interval, and ``build_imc`` multiplies
the ones of each pair, and of the domain for the unsafe column, with the
bits of ``pair_bounds``, which the cluster step calls for its boxes.
General systems sum the cell masses of a uniform noise grid per pair,
but a noise-separable one (component d reads no noise but w_d) takes the
factors too: along d, the masses of w_d's own noise cells under which the
image lies in, or meets, the target interval.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Mapping, NamedTuple, Optional

import numpy as np

from ._csv import write_columns
from .dynamics import (
    ADDITIVE,
    GENERAL,
    MULTIPLICATIVE,
    DynamicsModel,
    combine_posterior,
    enclosure,
)
from .errors import Frozen, InputError, SoundnessError, SpecificationError
from .geometry import StatePartition, partition_domain
from .noise import (
    NoiseModel,
    optimal_partition_affine,
    optimal_partition_multiplicative,
)

# the structure of the posteriors of a noise-separable general system
SEPARABLE = "separable"
UNSAFE_LABEL = "unsafe"
# the labels a reach-avoid property reaches and avoids
GOAL_LABEL = "goal"
AVOID_LABELS = ("obstacle", UNSAFE_LABEL)

_TABLE_HEADER = "state,component,lo,hi"
_ROW_TOL = 1e-9
_ALIGN_TOL = 1e-9
# candidate pairs per block of ``build_imc``, and factors per block of
# ``factor_bounds``: the block's arrays, a few times 2**14 * n floats, stay
# in the cache. A per-pair build of paper-mult-40 (2 vCPU) took 76-81 ms
# against 132-142 ms with 2**18 pairs, and peaked at 6.9 against 28.2 MB
_BLOCK_PAIRS = 2**14
# slots per block of a ``RowLayout``: a block's arrays
# and a sweep's sort and gathers over it take a few MB whatever the nnz.
# 2**14 is no faster (20 sweeps at 120²: 4.0-4.3 s against 4.0-4.6 s, 2 vCPU)
# and ran general-sin-20 slower end to end (bench median 0.315 against 0.303 s)
_BLOCK_SLOTS = 2**18
# ``_cumsum`` adds one contiguous block row to the next on (width, rows)
# blocks at least this many CSR rows across, where that runs up to twice as
# fast as np.cumsum down axis 0; on narrower blocks the loop's Python step
# per block row costs more than it saves
_LOOP_ROWS = 512


def _cumsum(block: np.ndarray) -> np.ndarray:
    """``np.cumsum(block, axis=0, out=block)``, in the same order of
    additions and so with the same bits."""
    if block.shape[1] < _LOOP_ROWS:
        return np.cumsum(block, axis=0, out=block)
    rows = iter(block)  # iterating makes each row's view at half the cost of block[k]
    prev = next(rows)
    for row in rows:
        prev = np.add(prev, row, out=row)
    return block


class Imc(Frozen):
    """Finite-state abstraction with transition-bound rows in CSR arrays.

    The last state (index ``partition.unsafe_index``) is the absorbing
    unsafe state. Rows are sorted by target index; pairs with upper bound 0
    are omitted except for the always-present unsafe column. ``labels``
    maps each label name to a boolean mask over the states. IMCs compare
    and hash by identity.
    """

    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, partition: StatePartition, indptr: np.ndarray, dst: np.ndarray,
                 lower: np.ndarray, upper: np.ndarray, labels: dict[str, np.ndarray]):
        vars(self).update(partition=partition, indptr=indptr, dst=dst, lower=lower,
                          upper=upper, labels=labels)

    @property
    def n_states(self) -> int:
        return self.partition.n_states

    @property
    def unsafe_index(self) -> int:
        return self.partition.unsafe_index


def _blocks(indptr: np.ndarray):
    """The non-empty rows of a CSR block per width class, the least multiple
    of 8 at or above the row's length, in blocks of at most ``_BLOCK_SLOTS``
    slots (or one longer row). Yields each block's rows, the (rows, width)
    array of their entry positions and the mask of its padded slots.
    Multiples of 8 pad additive-h200-phased's 26,949 entries to 37,280
    slots (powers of two would take 48,945)."""
    lengths = np.diff(indptr)
    # an empty row sums to 0 and walks nowhere
    nonempty = np.flatnonzero(lengths)
    width_class = (lengths[nonempty] + 7) // 8
    for c in np.flatnonzero(np.bincount(width_class)).tolist():
        rows = nonempty[width_class == c]
        step = max(_BLOCK_SLOTS // (8 * c), 1)
        for i in range(0, len(rows), step):
            block = rows[i:i + step]
            slot = indptr[block, None] + np.arange(8 * c)
            yield block, slot, slot >= indptr[block + 1, None]


def _padded(x: np.ndarray, slot: np.ndarray, pad: np.ndarray) -> np.ndarray:
    """``x`` at the entry positions ``slot``, 0 in the padded slots."""
    block = x.take(slot, mode="clip")  # mode "raise" would buffer a copy
    block[pad] = 0
    return block


def _spans(start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The positions ``start[i] + k`` for ``k < length[i]``, span after span."""
    span = np.repeat(start - np.cumsum(length) + length, length)
    span += np.arange(len(span))
    return span


class RowLayout:
    """The rows of one CSR block, checked and laid out for the adversary walk
    in one pass over ``_blocks``. Each row's bounds are added left to right
    from 0.0, as a Python loop adds (``np.add.reduceat`` adds pairwise):
    ``np.cumsum`` runs along the block's rows, the padding adds 0 and
    + 0.0 only turns -0.0 into 0.0. The first row with sum(lower)
    > 1 or sum(upper) < 1 (up to 1e-9) or a NaN sum raises ``error`` naming
    its state (``states[row]``, or the row index); ``remaining`` is each
    row's 1 - sum(lower). ``blocks`` holds, per block, its rows in the mask
    ``walked`` (default all) and their targets, lower bounds and gaps
    (upper - lower) as (rows, width) arrays; a walk gives other rows 0. A
    padded slot has bounds 0.0, so it adds exactly 0 to a walk wherever it
    sorts, and targets a slot past every value: the walk's ``mode="clip"``
    takes read the last value there, and ``reading`` no value at all."""

    def __init__(self, indptr, dst, lower, upper, error: type = SoundnessError, states=None,
                 walked=None):
        total_lower, total_upper = np.zeros((2, len(indptr) - 1))
        self.blocks = []
        for rows, slot, pad in _blocks(indptr):
            low, up = _padded(lower, slot, pad), _padded(upper, slot, pad)
            total_lower[rows] = np.cumsum(low, axis=1)[:, -1] + 0.0
            total_upper[rows] = np.cumsum(up, axis=1)[:, -1] + 0.0
            if walked is not None:
                keep = walked[rows]
                rows, slot, pad, low, up = (x[keep] for x in (rows, slot, pad, low, up))
            if len(rows):
                dst_block = _padded(dst, slot, pad)
                dst_block[pad] = np.iinfo(dst_block.dtype).max
                self.blocks.append((rows, dst_block, low, np.subtract(up, low, out=up)))
        ok = (total_lower <= 1.0 + _ROW_TOL) & (total_upper >= 1.0 - _ROW_TOL)  # False on NaN
        bad = np.flatnonzero(~ok)
        if len(bad):
            row = int(bad[0])
            raise error(f"row {row if states is None else int(states[row])} violates sum(lower) "
                        f"<= 1 <= sum(upper): sum(lower)={float(total_lower[row])}, "
                        f"sum(upper)={float(total_upper[row])}")
        self.remaining = 1.0 - total_lower
        # The walk's scratch: two int64 and two float arrays the size of the
        # largest block, kept for every walk, and the slots' positions in it.
        # Block-sized temporaries that each sweep freed and allocated again
        # page-faulted anew: the 200 sweeps of additive-h200-phased took
        # 320-380 ms against 180-200 ms
        size = max((x.size for _, x, _, _ in self.blocks), default=0)
        self._scratch = np.empty((2, size), dtype=np.int64), np.empty((2, size)), np.arange(size)

    def part(self, rows: np.ndarray) -> "RowLayout":
        """The rows in the boolean mask ``rows`` alone: a walk gives every
        other row 0. A part shares the remaining mass and the walk's scratch,
        and costs one gather of the mask per block."""
        part = RowLayout.__new__(RowLayout)
        part.remaining, part._scratch = self.remaining, self._scratch
        part.blocks = [tuple(x[at] for x in block) for block in self.blocks
                       for at in (np.flatnonzero(rows[block[0]]),) if len(at)]
        return part

    def reading(self, moved: np.ndarray) -> np.ndarray:
        """The mask of the laid-out rows that read a value in the boolean
        mask ``moved``, by one gather of it over each block's targets."""
        moved = np.append(moved, False)  # what a padded slot reads, by mode="clip"
        reads = np.zeros(len(self.remaining), dtype=bool)
        for rows, dst, _, _ in self.blocks:
            reads[rows[np.flatnonzero(moved.take(dst, mode="clip")) // dst.shape[1]]] = True
        return reads

    def walk(self, rank: np.ndarray, values: np.ndarray) -> np.ndarray:
        """The greedy adversary walk of every row, its successors in ascending
        ``rank`` of their targets, equal ranks in row order. Returns
        sum(gamma * values) per row."""
        expectation = np.zeros(len(self.remaining))
        ints, floats, position = self._scratch
        for rows, dst, low, gap in self.blocks:
            width, size = dst.shape[1], dst.size
            key = ints[0, :size].reshape(dst.shape)
            at, x, walk = (a[:size].reshape(width, len(rows)) for a in (ints[1], *floats))
            # Sort each row in place by (rank, position in the block), packed
            # into one int64 (four times as fast as np.argsort on 24-wide
            # rows), then keep the positions, one row per column: row k of
            # ``at`` holds each row's k-th step.
            shift = (size - 1).bit_length()
            np.take(rank, dst, out=key, mode="clip")
            key <<= shift
            key |= position[:size].reshape(dst.shape)
            key.sort(axis=1)
            key &= (1 << shift) - 1
            at[...] = key.T
            step_gap = np.take(gap, at, out=x, mode="clip")  # mode "raise" would buffer a copy
            # The walk gives each successor its slack while the remaining
            # mass exceeds it, then the rest to the first successor whose
            # slack covers it, then nothing: its mass above the lower bound
            # is the remaining mass before it (a sequential running
            # difference) clipped to [0, slack]. gamma * value is then
            # summed in walk order, as the layout adds bounds: np.add.reduce
            # adds row by row down a block of two or more columns, but
            # pairwise down a single one.
            walk[0] = self.remaining[rows]
            np.negative(step_gap[:-1], out=walk[1:])
            _cumsum(walk)
            np.minimum(np.maximum(walk, 0.0, out=walk), step_gap, out=walk)
            walk += np.take(low, at, out=x, mode="clip")  # x held step_gap, now used up
            target = np.take(dst, at, out=key.reshape(at.shape), mode="clip")  # key is used up
            walk *= np.take(values, target, out=x, mode="clip")
            total = np.add.reduce(walk, axis=0) if len(rows) > 1 else _cumsum(walk)[-1]
            expectation[rows] = total + 0.0
        return expectation


# --- bound kernel -------------------------------------------------------------


def _clamped(lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lower = np.minimum(np.maximum(lower, 0.0), 1.0)
    upper = np.minimum(np.maximum(upper, 0.0), 1.0)
    return np.minimum(lower, upper), upper


def _factors(posts: "CellPosteriors", d: int, src, t_lo, t_hi) -> tuple[np.ndarray, np.ndarray]:
    """The 1-D factors along dimension d from the cell ``src[j]`` of
    ``posts`` toward [t_lo[j], t_hi[j]]. Structured systems: Pr(w_d in
    [eps3, eps4]) for the lower bound (0 if empty) and Pr(w_d in [eps1,
    eps2]) for the upper. Separable ones: the masses of the noise cells k of
    w_d under which the image along d lies in the target (lower) or meets
    it (upper), added in noise-cell order."""
    if posts.structure == SEPARABLE:
        lower, upper = np.zeros(len(src)), np.zeros(len(src))
        for k, p in enumerate(posts.weights[:, d].tolist()):
            lo, hi = posts.lo[src, k, d], posts.hi[src, k, d]
            upper[(lo <= t_hi) & (t_lo <= hi)] += p
            lower[(t_lo <= lo) & (hi <= t_hi)] += p
        return lower, upper
    cut_points = (
        optimal_partition_affine if posts.structure == ADDITIVE else optimal_partition_multiplicative
    )
    eps1, eps2, eps3, eps4 = cut_points(posts.lo[src, d], posts.hi[src, d], t_lo, t_hi)
    comp = posts.noise.components[d]
    return comp.interval_probability(eps3, eps4), comp.interval_probability(eps1, eps2)


def _product(factors) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension (lower, upper) factors multiplied in dimension order from 1.0, clamped."""
    lower = upper = 1.0
    for low, up in factors:
        lower, upper = lower * low, upper * up
    return _clamped(lower, upper)


def pair_bounds(
    posts: "CellPosteriors", src: np.ndarray, t_lo: np.ndarray, t_hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Transition bounds for every (source, target box) pair: from the cell
    ``src[j]`` of ``posts`` toward the box [t_lo[j], t_hi[j]] (shape
    (pairs, n)).

    Structured and separable systems: the product of each dimension's
    ``_factors``. Other general systems: noise cell k adds its mass to the
    upper bound of every pair whose posterior under k meets the target and
    to the lower bound of every pair whose target contains it, in
    noise-cell order (np.sum would round differently).
    """
    if posts.structure == GENERAL:
        lower, upper = np.zeros(len(src)), np.zeros(len(src))
        for k, p in enumerate(posts.weights.tolist()):
            lo, hi = posts.lo[src, k], posts.hi[src, k]
            upper[((lo <= t_hi) & (t_lo <= hi)).all(axis=1)] += p
            lower[((t_lo <= lo) & (hi <= t_hi)).all(axis=1)] += p
        return _clamped(lower, upper)
    return _product(_factors(posts, d, src, t_lo[:, d], t_hi[:, d]) for d in range(t_lo.shape[1]))


Factors = namedtuple("Factors", "off lower upper stay")


def factor_bounds(posts: "CellPosteriors") -> list[Factors]:
    """The 1-D factors of a structured or separable system, once per (cell,
    dimension, target interval), in blocks of at most ``_BLOCK_PAIRS``. Per
    dimension d, cell i's band is the intervals ``first[i, d] + k`` along d
    for k < ``last[i, d] - first[i, d]``, with the factors ``lower[off[i] +
    k]`` and ``upper[off[i] + k]``; ``stay`` holds each cell's (lower,
    upper) pair toward the domain along d, whose complement leaves the
    domain."""
    factors, cells = [], np.arange(len(posts.lo))
    for d, e in enumerate(posts.partition.edges):
        first = posts.first[:, d]
        off = np.concatenate([[0], np.cumsum(posts.last[:, d] - first)])
        lower, upper = np.empty(off[-1]), np.empty(off[-1])
        for a in range(0, int(off[-1]), _BLOCK_PAIRS):
            k = np.arange(a, min(a + _BLOCK_PAIRS, int(off[-1])))
            s = np.searchsorted(off, k, side="right") - 1
            m = first[s] + k - off[s]
            lower[k], upper[k] = _factors(posts, d, s, e[m], e[m + 1])
        factors.append(Factors(off, lower, upper, _factors(posts, d, cells, e[0], e[-1])))
    return factors


# --- posteriors of every cell ---------------------------------------------------


class CellPosteriors(NamedTuple):
    """Posteriors of every grid cell, read by ``pair_bounds``: ``lo``/``hi``
    are g(q), shape (cells, n), for structured systems and the image under
    each noise cell (of mass ``weights``), shape (cells, noise cells, n), for
    general ones. A separable system's (structure ``SEPARABLE``) hold along
    d the image under noise cell k of w_d at [:, k, d], of mass weights[k,
    d]. ``hull_lo``/``hull_hi`` are the posterior over the noise support.
    ``first``/``last`` bound, per cell and dimension, the cells within the
    hull expanded by one cell; every other target provably has
    upper bound 0 (none is left if some first >= last). ``partition`` is the
    grid the posteriors were computed on. ``pair_bounds`` reads only the
    first five; the rest stay None in posteriors built by hand, such as
    ``CellPosteriors(lo[None], hi[None], structure, noise)`` for one box."""

    lo: np.ndarray
    hi: np.ndarray
    structure: str
    noise: Optional[NoiseModel]
    weights: Optional[np.ndarray] = None
    hull_lo: Optional[np.ndarray] = None
    hull_hi: Optional[np.ndarray] = None
    first: Optional[np.ndarray] = None
    last: Optional[np.ndarray] = None
    partition: Optional[StatePartition] = None


def cell_posteriors(
    partition: StatePartition,
    model: DynamicsModel,
    noise: NoiseModel,
    posterior_table: Optional[tuple[np.ndarray, np.ndarray]] = None,
    noise_grid=None,
) -> CellPosteriors:
    """Posteriors, hulls and candidate ranges of every cell from the grid
    edges: one interval evaluation over all cells, or the posterior table's
    (lo, hi) arrays of shape (cells, n) as they are. A general system
    images every cell under the cells of the uniform noise grid of
    ``noise_grid[d]`` cells along component d: its own component's cells
    if noise-separable, else the tensor cells."""
    if model.structure == GENERAL and noise_grid is None:
        raise ValueError("general structure requires noise_grid, the noise cells per component")
    if posterior_table is not None and model.structure == GENERAL:
        raise ValueError("posterior tables require an additive or multiplicative structure")
    if model.structure == MULTIPLICATIVE:
        for d, e in enumerate(partition.edges):
            if not e[0] > 0.0:
                raise InputError(
                    "multiplicative structure requires a strictly positive domain, but "
                    f"dimension {d} starts at {e[0]:.6g}"
                )
    x = partition.corners(np.arange(partition.n_cells))
    support, structure = noise.support(), model.structure
    if structure == GENERAL:
        grid = partition_domain(*support, noise_grid)
        probs = [c.interval_probability(e[:-1], e[1:])
                 for c, e in zip(noise.components, grid.edges)]
        if model.noise_separable:
            # column d: component d's own cells, then its last cell again at mass 0
            structure, k = SEPARABLE, np.arange(max(grid.resolution))
            index = [np.minimum(k, r - 1) for r in grid.resolution]
            weights = np.stack([np.where(k < len(p), p[i], 0.0) for p, i in zip(probs, index)], -1)
        else:
            # the tensor cells, row-major: a cell's mass is the product of its
            # components' probabilities in component order from 1.0, clamped
            index, weights = np.unravel_index(np.arange(grid.n_cells), grid.resolution), 1.0
            for p, i in zip(probs, index):
                weights = weights * p[i]
            weights = np.clip(weights, 0.0, 1.0)
        # every cell's image under every noise cell, shape (cells, noise cells, n)
        # (under each component's own cells, along its dimension, if separable)
        cells = (np.stack([e[i + s] for e, i in zip(grid.edges, index)], axis=-1) for s in (0, 1))
        lo, hi = enclosure(model.components, (x[0][:, None, :], x[1][:, None, :]), tuple(cells))
        hull = enclosure(model.components, x, support)
    else:
        weights = None
        if posterior_table is None:
            # g(q): f at the noise identity, w = 0 (additive) or 1 (multiplicative)
            w = np.full(model.n, float(structure == MULTIPLICATIVE))
            lo, hi = enclosure(model.components, x, (w, w))
        else:
            lo, hi = (np.asarray(a, dtype=float) for a in posterior_table)
            if not lo.shape == hi.shape == x[0].shape or not (lo <= hi).all():
                raise InputError(f"posterior table needs lo <= hi, both of shape {x[0].shape}")
        if structure == MULTIPLICATIVE and not (lo > 0.0).all():
            cell, d = np.argwhere(~(lo > 0.0))[0].tolist()
            raise InputError(
                f"multiplicative structure needs g(q) > 0, but cell {cell} has component "
                f"{d + 1} in [{lo[cell, d]:.6g}, {hi[cell, d]:.6g}]"
            )
        hull = combine_posterior(model.structure, (lo, hi), support)
    first, last = [], []
    for d, (e, r) in enumerate(zip(partition.edges, partition.resolution)):
        width = (e[-1] - e[0]) / r
        first.append(np.maximum(np.searchsorted(e, hull[0][:, d] - width, side="right") - 1, 0))
        last.append(np.minimum(np.searchsorted(e, hull[1][:, d] + width, side="left"), r))
    first, last = np.stack(first, axis=-1), np.stack(last, axis=-1)
    last = np.maximum(first, last)
    return CellPosteriors(lo, hi, structure, noise, weights, *hull, first, last, partition)


# --- label handling -----------------------------------------------------------


def _aligned_spans(
    partition: StatePartition, lo: np.ndarray, hi: np.ndarray, name: str
) -> list[slice]:
    """Per dimension, the slice of grid cells the box ``[lo, hi]`` covers.
    Each endpoint must lie on a grid line (up to rounding); the edge it
    matches bounds the slice, so edges such as ``-0.19999999999999996`` do
    not spill a label into the neighbouring cells."""
    if len(lo) != len(partition.edges):
        raise InputError(f"label {name!r}: box dimension mismatch")
    spans = []
    for d, (edges, ends) in enumerate(zip(partition.edges, zip(lo.tolist(), hi.tolist()))):
        scale = max(1.0, abs(edges[-1] - edges[0]))
        matched = []
        for endpoint in ends:
            i = int(np.argmin(np.abs(edges - endpoint)))
            if abs(endpoint - edges[i]) > _ALIGN_TOL * scale:
                raise InputError(
                    f"label {name!r}: endpoint {endpoint} in dimension {d} does "
                    f"not lie on a grid line"
                )
            matched.append(i)
        if matched[0] >= matched[1]:
            raise InputError(f"label {name!r}: box is narrower than a grid cell in dimension {d}")
        spans.append(slice(*matched))
    return spans


def assign_labels(
    partition: StatePartition, label_boxes: Mapping[str, tuple[np.ndarray, np.ndarray]]
) -> dict[str, np.ndarray]:
    """Map label boxes, ``(lo, hi)`` of shape (boxes, n) per label name,
    onto grid cells: one boolean mask over the states per label, the
    reserved unsafe label included. Misaligned boxes are an error.

    A cell carries a label exactly when its interior intersects the label
    box. The unsafe state carries only the unsafe label.
    """
    labels = {}
    for name, (lo, hi) in label_boxes.items():
        if name == UNSAFE_LABEL:
            raise InputError(f"label name {UNSAFE_LABEL!r} is reserved")
        cells = np.zeros(partition.resolution, dtype=bool)
        for a, b in zip(lo, hi):
            cells[tuple(_aligned_spans(partition, a, b, name))] = True
        labels[name] = np.append(cells, False)  # the cells row-major, then the unsafe state
    labels[UNSAFE_LABEL] = np.arange(partition.n_states) == partition.unsafe_index
    return labels


def _goal_avoid_sets(
    labels: Mapping[str, np.ndarray], n_states: int
) -> tuple[np.ndarray, np.ndarray]:
    """The state masks of the goal label and of any avoid label, from the
    label masks ``labels`` over ``n_states`` states."""
    none = np.zeros(n_states, dtype=bool)
    goal = labels.get(GOAL_LABEL, none)
    avoid = np.logical_or.reduce([labels.get(name, none) for name in AVOID_LABELS])
    overlap = goal & avoid
    if overlap.any():
        raise SpecificationError(
            f"goal and avoid label sets overlap on states "
            f"{np.flatnonzero(overlap).tolist()}"
        )
    return goal, avoid


# --- full build ----------------------------------------------------------------


def build_imc(posts: CellPosteriors, labels: Mapping[str, np.ndarray]) -> Imc:
    """Build the sound IMC abstraction over the grid of ``posts``, with the
    label masks ``labels`` (from ``assign_labels``), over every source's
    candidate block (the cells near its posterior hull, row-major) in blocks
    of at most ``_BLOCK_PAIRS`` (2**14) pairs. A structured or separable
    system gathers each pair's factors from ``factor_bounds`` and the unsafe
    column from their ``stay`` pairs; another general one calls
    ``pair_bounds`` per block and once with the domain as every source's
    target for the unsafe column.
    Either way each bound has the bits of ``pair_bounds`` for its pair.

    Pairs with upper bound 0 are omitted; the unsafe column is always
    stored. Every row must satisfy sum(lower) <= 1 <= sum(upper), summed
    left to right over ``_blocks`` of at most ``_BLOCK_SLOTS`` (2**18) slots
    by a ``RowLayout`` that walks no row; a violation indicates a bug and
    raises SoundnessError rather than being rescaled away.
    """
    partition = posts.partition
    cells, unsafe = np.arange(partition.n_cells), partition.unsafe_index
    factors = None if posts.structure == GENERAL else factor_bounds(posts)
    sizes = posts.last - posts.first
    # pair offset of each source's candidate block in the concatenated pairs
    starts = np.concatenate([[0], np.cumsum(sizes.prod(axis=1))])

    # Row r holds the kept pairs of source r, then its unsafe column. The
    # blocks cut the pairs in source order, so kept entry k of source s goes
    # to slot k + s. The columns have room for every pair; the pages past
    # the kept entries are never touched.
    room = int(starts[-1]) + partition.n_states
    dst, lower, upper = np.empty(room, dtype=np.int64), np.empty(room), np.empty(room)
    counts = np.zeros(partition.n_states, dtype=np.int64)
    for a in range(0, int(starts[-1]), _BLOCK_PAIRS):
        pair = np.arange(a, min(a + _BLOCK_PAIRS, int(starts[-1])))
        s = np.searchsorted(starts, pair, side="right") - 1
        # the pair's target: its row-major position in the block, unravelled
        # into the position m[d] in each dimension's band
        rest, m = pair - starts[s], [None] * len(partition.resolution)
        for d in reversed(range(len(m))):
            rest, m[d] = np.divmod(rest, sizes[s, d])
        target = np.ravel_multi_index([posts.first[s, d] + k for d, k in enumerate(m)],
                                      partition.resolution)
        if factors is None:
            low, up = pair_bounds(posts, s, *partition.corners(target))
        else:  # the pair's factors: position m[d] of its source's band along d
            at = [f.off[s] + k for f, k in zip(factors, m)]
            low, up = _product((f.lower[i], f.upper[i]) for f, i in zip(factors, at))
        keep = np.flatnonzero(up > 0.0)
        slot = counts.sum() + np.arange(len(keep)) + s[keep]
        dst[slot], lower[slot], upper[slot] = target[keep], low[keep], up[keep]
        counts += np.bincount(s[keep], minlength=partition.n_states)
    if factors is None:
        domain = (np.tile([e[k] for e in partition.edges], (len(cells), 1)) for k in (0, -1))
        low_x, up_x = pair_bounds(posts, cells, *domain)
    else:
        low_x, up_x = _product(f.stay for f in factors)
    low_u, up_u = _clamped(1.0 - up_x, 1.0 - low_x)
    del factors  # before the row check, which sets the build's peak
    indptr = np.concatenate([[0], np.cumsum(counts + 1)])
    # each row ends with the unsafe column; the unsafe state has only its certain self-loop
    last = indptr[1:] - 1
    dst[last], lower[last], upper[last] = unsafe, np.append(low_u, 1.0), np.append(up_u, 1.0)
    n = int(indptr[-1])
    imc = Imc(partition, indptr, dst[:n], lower[:n], upper[:n], dict(labels))
    RowLayout(imc.indptr, imc.dst, imc.lower, imc.upper, walked=np.zeros(len(counts), bool))
    return imc


# --- file formats ---------------------------------------------------------------


def write_imc(imc: Imc, bounds_path, labels_path) -> None:
    """Delimited exports, records nothing reads back: (from,to,lower,upper)
    sorted by (from,to), and one (state,label) row per label, sorted."""

    def entries(a, b):
        src = np.searchsorted(imc.indptr, np.arange(a, b), side="right") - 1
        return src, imc.dst[a:b], imc.lower[a:b], imc.upper[a:b]

    write_columns(bounds_path, "from,to,lower,upper", (len(imc.dst), entries))
    names = sorted(imc.labels)
    # the (state, label) pairs of the (states, labels) mask, state-major
    state, label = np.nonzero(np.stack([imc.labels[name] for name in names], axis=1))
    pairs = (len(state), lambda a, b: (state[a:b], (names, label[a:b])))
    write_columns(labels_path, "state,label", pairs)


def write_posterior_table(table: tuple[np.ndarray, np.ndarray], path) -> None:
    """One (state,component,lo,hi) row per state and component, in order,
    from the (lo, hi) pair ``table`` of arrays of shape (cells, n)."""
    dim = table[0].shape[1]
    lo, hi = (np.ravel(a) for a in table)

    def entries(a, b):
        k = np.arange(a, b)
        return k // dim, k % dim, lo[a:b], hi[a:b]

    write_columns(path, _TABLE_HEADER, (len(lo), entries))


def read_posterior_table(
    data: bytes, path, n_cells: int, dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """Parse ``data``, the bytes of the posterior table ``path``, as a (lo,
    hi) pair of arrays of shape (n_cells, dim): after the header, one finite
    interval per state in [0, n_cells) and component in [0, dim), each given
    once, on the non-blank lines in any order. Anything else is an
    InputError naming ``path:line``, or ``path`` for a missing state."""
    # the lines of the UTF-8 text under universal newlines, as open() reads them
    data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        header, *lines = data.decode("utf-8").split("\n")
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        raise InputError(f"{path}:{line}: not UTF-8 text (byte 0x{data[err.start]:02x})") from None
    if header.strip() != _TABLE_HEADER:
        raise InputError(f"{path}:1: expected header {_TABLE_HEADER!r}, got {header.strip()!r}")
    numbered = [(i, line) for i, line in enumerate(lines, start=2) if line.strip()]
    rows = [line for _, line in numbered]
    dtype = [("state", np.int64), ("component", np.int64), ("lo", float), ("hi", float)]

    def load(rows):
        return np.loadtxt(rows, dtype, comments=None, delimiter=",", ndmin=1)

    try:
        entries = load(rows) if rows else np.empty(0, dtype)  # np.loadtxt warns on no rows
    except ValueError:
        # halve towards the shortest refused prefix: it ends at the first refused line
        good, bad = 0, len(rows)  # rows[:good] loads, rows[:bad] is refused
        while bad - good > 1:
            mid = (good + bad) // 2
            try:
                load(rows[:mid])
                good = mid
            except ValueError:
                bad = mid
        reason = "malformed field" if rows[good].count(",") == 3 else "expected 4 fields"
        raise InputError(f"{path}:{numbered[good][0]}: {reason}") from None
    state, comp, lo, hi = (entries[name] for name, _ in dtype)
    in_state, in_comp = (0 <= state) & (state < n_cells), (0 <= comp) & (comp < dim)
    key = np.where(in_state & in_comp, state * dim + comp, -1 - np.arange(len(state)))
    order = np.argsort(key, kind="stable")
    repeat = np.zeros(len(key), dtype=bool)  # a later line of an in-range (state, component)
    repeat[order[1:]] = key[order[1:]] == key[order[:-1]]
    # per entry, the checks in the order they apply to its line
    valid = np.isfinite(lo) & np.isfinite(hi) & (lo <= hi)
    failed = np.stack([~in_state, ~in_comp, ~valid, repeat])
    if failed.any():
        k = int(np.argmax(failed.any(axis=0)))
        reasons = ("state index out of range", "component index out of range",
                   "empty or invalid interval",
                   f"duplicate (state, component) ({state[k]},{comp[k]})")
        raise InputError(f"{path}:{numbered[k][0]}: {reasons[int(np.argmax(failed[:, k]))]}")
    table = np.full((2, n_cells, dim), np.nan)  # the rows are finite: a NaN is a missing row
    table[:, state, comp] = lo, hi
    missing = np.flatnonzero(np.isnan(table[0]).any(axis=1))
    if len(missing):
        raise InputError(f"{path}: missing state {missing[0]} or some of its components")
    return table[0], table[1]
