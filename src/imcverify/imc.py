"""Assembly of the sound IMC abstraction: transition probability bounds from
noise partitions, unsafe-state transitions, and the full model build with
hard row-validity checks.

An ``Imc`` holds CSR arrays: the row of state ``i`` is ``dst``, ``lower``
and ``upper`` over ``indptr[i]:indptr[i + 1]``. ``Imc.from_rows`` and the
``Imc.rows`` view are the only conversions to and from ``TransitionBound``.

``cell_posteriors`` computes the posteriors, hulls and candidate targets of
every grid cell at once; the build and the cluster step call it once each.
``_rows_with_last`` assembles the cluster step's CSR rows.

A transition bound depends only on the source's posterior and the target
box, so one kernel, ``pair_bounds``, maps arrays of (source, target box)
pairs to their bounds; the build, the unsafe column, the cluster step and
the one-pair functions are all calls into it. Structured systems
(additive or multiplicative noise) get the optimal three-cell partition
per component: a bound is a product of single interval probabilities, one
vectorised ``interval_probability`` call per dimension and bound over all
pairs. General systems sum the cell masses of a uniform ``NoiseGrid``.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .dynamics import (
    ADDITIVE,
    GENERAL,
    MULTIPLICATIVE,
    DynamicsModel,
    combine_posterior,
    enclosure,
    posterior_f,
)
from .errors import InputError, SoundnessError
from .geometry import Box, StatePartition
from .noise import (
    NoiseGrid,
    NoiseModel,
    _point_mass,
    optimal_partition_affine,
    optimal_partition_multiplicative,
)

UNSAFE_LABEL = "unsafe"

_ROW_TOL = 1e-9
_ALIGN_TOL = 1e-9
# candidate pairs per ``pair_bounds`` call in ``build_imc``: bounds the
# build's working memory at a few times 2**18 * n floats
_BLOCK_PAIRS = 2**18
_WRITE_ROWS = 2**16


@dataclass(frozen=True)
class TransitionBound:
    src: int
    dst: int
    lower: float
    upper: float

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper <= 1.0):
            raise ValueError(
                f"transition bound requires 0 <= lower <= upper <= 1, got "
                f"[{self.lower}, {self.upper}]"
            )


@dataclass(frozen=True, eq=False)
class Imc:
    """Finite-state abstraction with transition-bound rows in CSR arrays.

    The last state (index ``partition.unsafe_index``) is the absorbing
    unsafe state. Rows are sorted by target index; pairs with upper bound 0
    are omitted except for the always-present unsafe column.
    """

    partition: StatePartition
    indptr: np.ndarray
    dst: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    labels: tuple[frozenset[str], ...]

    @classmethod
    def from_rows(cls, partition, rows: Sequence[Sequence[TransitionBound]], labels) -> "Imc":
        """CSR arrays from one row of bounds per state, in the given order."""
        if any(tb.src != i for i, row in enumerate(rows) for tb in row):
            raise ValueError("every bound in row i must leave state i")
        entries = [tb for row in rows for tb in row]
        return cls(
            partition,
            np.cumsum([0] + [len(row) for row in rows]),
            np.array([tb.dst for tb in entries], dtype=np.int64),
            np.array([tb.lower for tb in entries], dtype=float),
            np.array([tb.upper for tb in entries], dtype=float),
            tuple(labels),
        )

    @property
    def rows(self) -> tuple[tuple[TransitionBound, ...], ...]:
        """The rows as tuples of ``TransitionBound``, built on each access."""
        bounds = self.indptr.tolist()
        dst, lower, upper = self.dst.tolist(), self.lower.tolist(), self.upper.tolist()
        return tuple(
            tuple(TransitionBound(i, dst[k], lower[k], upper[k]) for k in range(a, b))
            for i, (a, b) in enumerate(zip(bounds, bounds[1:]))
        )

    @property
    def n_states(self) -> int:
        return self.partition.n_states

    @property
    def unsafe_index(self) -> int:
        return self.partition.unsafe_index


@dataclass(frozen=True, eq=False)
class PosteriorTable:
    """Externally supplied noise-free posterior intervals per abstract state:
    row i of ``lo``/``hi`` (shape (cells, n)) encloses g(q) of cell i.

    This is the ingestion point for data-driven systems whose noise-free map
    is known only through learned interval enclosures.
    """

    lo: np.ndarray
    hi: np.ndarray


# --- bound kernel -------------------------------------------------------------


class _Span(NamedTuple):
    """Endpoints of one interval per pair as arrays; the cut-point formulas
    read its ``lo``/``hi`` like an ``Interval``'s."""

    lo: np.ndarray
    hi: np.ndarray


def _clamped(lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lower = np.minimum(np.maximum(lower, 0.0), 1.0)
    upper = np.minimum(np.maximum(upper, 0.0), 1.0)
    return np.minimum(lower, upper), upper


def pair_bounds(
    posts: "CellPosteriors", src: np.ndarray, t_lo: np.ndarray, t_hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Transition bounds for every (source, target box) pair: from the cell
    ``src[j]`` of ``posts`` toward the box [t_lo[j], t_hi[j]] (shape
    (pairs, n)).

    Structured systems: lower = prod_d Pr(w_d in [eps3_d, eps4_d]) and
    upper = prod_d Pr(w_d in [eps1_d, eps2_d]), multiplied in dimension
    order; an empty containment interval gives the factor 0. General
    systems: noise cell k adds its mass to the upper bound of every pair
    whose posterior under k meets the target and to the lower bound of
    every pair whose target contains it, in noise-cell order (np.sum
    would round differently).
    """
    if posts.structure == GENERAL:
        lower, upper = np.zeros(len(src)), np.zeros(len(src))
        for k, p in enumerate(posts.weights.tolist()):
            lo, hi = posts.lo[src, k], posts.hi[src, k]
            upper[((lo <= t_hi) & (t_lo <= hi)).all(axis=1)] += p
            lower[((t_lo <= lo) & (hi <= t_hi)).all(axis=1)] += p
        return _clamped(lower, upper)
    cut_points = (
        optimal_partition_affine if posts.structure == ADDITIVE else optimal_partition_multiplicative
    )
    lower = upper = np.ones(len(src))
    c, d = posts.lo[src], posts.hi[src]
    for i, comp in enumerate(posts.noise.components):
        cuts = cut_points(_Span(c[:, i], d[:, i]), _Span(t_lo[:, i], t_hi[:, i]))
        upper = upper * comp.interval_probability(cuts.eps1, cuts.eps2)
        lower = lower * comp.interval_probability(cuts.eps3, cuts.eps4)
    return _clamped(lower, upper)


def _one_pair(posts: "CellPosteriors", target: Box) -> tuple[float, float]:
    """The bounds from the one source of ``posts`` toward one box."""
    t_lo, t_hi = target.endpoints()
    lower, upper = pair_bounds(posts, np.zeros(1, dtype=np.int64), t_lo[None], t_hi[None])
    return float(lower[0]), float(upper[0])


def _general_posteriors(model: DynamicsModel, x, cells: NoiseGrid):
    """Posteriors of the boxes x (endpoint arrays of shape (..., n)) under
    every noise cell, shape (..., noise cells, n), and the cell masses."""
    x = (x[0][..., None, :], x[1][..., None, :])
    return (*enclosure(model.components, x, (cells.lo, cells.hi)), cells.mass)


def transition_bounds_structured(
    postf: Box, target: Box, noise: NoiseModel, structure: str
) -> tuple[float, float]:
    """Transition bounds from the optimal per-component noise partitions.

    lower = prod_i Pr(w_i in [eps3_i, eps4_i]) and
    upper = prod_i Pr(w_i in [eps1_i, eps2_i]); a component with an empty
    containment interval zeroes the lower bound.
    """
    if structure not in (ADDITIVE, MULTIPLICATIVE):
        raise ValueError(f"structured bounds require additive or multiplicative, got {structure!r}")
    if postf.dim != target.dim or postf.dim != noise.n:
        raise ValueError("postf, target and noise dimensions disagree")
    lo, hi = postf.endpoints()
    return _one_pair(CellPosteriors(lo[None], hi[None], structure, noise), target)


def transition_bounds_general(
    model: DynamicsModel, cells: NoiseGrid, q: Box, target: Box
) -> tuple[float, float]:
    """Transition bounds by direct enumeration of a noise partition."""
    lo, hi, weights = _general_posteriors(model, q.endpoints(), cells)
    return _one_pair(CellPosteriors(lo[None], hi[None], GENERAL, None, weights), target)


def unsafe_transitions(
    q: Box,
    safe: Box,
    model: DynamicsModel,
    noise: NoiseModel,
    *,
    postf: Optional[Box] = None,
    noise_cells: Optional[NoiseGrid] = None,
) -> tuple[float, float]:
    """Bounds on the transition from q to the unsafe state.

    Computed from the bounds toward the safe set itself:
    lower = 1 - upper(q -> X), upper = 1 - lower(q -> X).
    """
    if model.structure != GENERAL:
        postf = posterior_f(model, q) if postf is None else postf
        low_x, up_x = transition_bounds_structured(postf, safe, noise, model.structure)
    elif noise_cells is None:
        raise ValueError("general structure requires a noise cell partition")
    else:
        low_x, up_x = transition_bounds_general(model, noise_cells, q, safe)
    return (min(max(1.0 - up_x, 0.0), 1.0), min(max(1.0 - low_x, 0.0), 1.0))


# --- posteriors of every cell ---------------------------------------------------


class CellPosteriors(NamedTuple):
    """Posteriors of every grid cell, read by ``pair_bounds``: ``lo``/``hi``
    are g(q), shape (cells, n), for structured systems and the image under
    each noise cell (of mass ``weights``), shape (cells, noise cells, n), for
    general ones; ``hull_lo``/``hull_hi`` the posterior over the noise
    support. ``first``/``last`` bound, per cell and dimension, the cells
    within the hull expanded by one cell; every other target provably has
    upper bound 0 (none is left if some first >= last). The last four are
    None for a single posterior given as a box."""

    lo: np.ndarray
    hi: np.ndarray
    structure: str
    noise: Optional[NoiseModel]
    weights: Optional[np.ndarray] = None
    hull_lo: Optional[np.ndarray] = None
    hull_hi: Optional[np.ndarray] = None
    first: Optional[np.ndarray] = None
    last: Optional[np.ndarray] = None


def cell_posteriors(
    partition: StatePartition,
    model: DynamicsModel,
    noise: NoiseModel,
    posterior_table: Optional[PosteriorTable] = None,
    noise_cells: Optional[NoiseGrid] = None,
) -> CellPosteriors:
    """Posteriors, hulls and candidate ranges of every cell from the grid edges:
    one interval evaluation over all cells, or the posterior table's arrays as they are."""
    if model.structure == GENERAL and noise_cells is None:
        raise ValueError("general structure requires noise_cells from uniform_noise_grid")
    if any(map(_point_mass, noise.components)):
        raise InputError("a uniform with lo == hi is a point mass, which the noise partitions drop")
    if posterior_table is not None and model.structure == GENERAL:
        raise ValueError("posterior tables require an additive or multiplicative structure")
    x = partition.corners(np.arange(partition.n_cells))
    support = noise.support_box().endpoints()
    if model.structure == GENERAL:
        lo, hi, weights = _general_posteriors(model, x, noise_cells)
        hull = enclosure(model.components, x, support)
    else:
        weights = None
        if posterior_table is None:
            lo, hi = enclosure(model.g_components, x)
        else:
            lo, hi = (np.asarray(a, dtype=float) for a in (posterior_table.lo, posterior_table.hi))
            if not lo.shape == hi.shape == x[0].shape or not (lo <= hi).all():
                raise InputError(f"posterior table needs lo <= hi, both of shape {x[0].shape}")
        hull = combine_posterior(model.structure, (lo, hi), support)
    first, last = [], []
    for d, (e, r) in enumerate(zip(partition.edges, partition.resolution)):
        width = (e[-1] - e[0]) / r
        first.append(np.maximum(np.searchsorted(e, hull[0][:, d] - width, side="right") - 1, 0))
        last.append(np.minimum(np.searchsorted(e, hull[1][:, d] + width, side="left"), r))
    first, last = np.stack(first, axis=-1), np.stack(last, axis=-1)
    last = np.maximum(first, last)
    return CellPosteriors(lo, hi, model.structure, noise, weights, *hull, first, last)


# --- label handling -----------------------------------------------------------


def _aligned_spans(
    partition: StatePartition, box: Box, name: str
) -> list[range]:
    """Per dimension, the range of grid cells the box covers. Each endpoint
    must lie on a grid line (up to rounding); the edge it matches bounds the
    range, so edges such as ``-0.19999999999999996`` do not spill a label
    into the neighbouring cells."""
    spans = []
    for d in range(box.dim):
        edges = partition.edges[d]
        scale = max(1.0, abs(edges[-1] - edges[0]))
        matched = []
        for endpoint in (box.component(d).lo, box.component(d).hi):
            i = min(range(len(edges)), key=lambda j: abs(endpoint - edges[j]))
            if abs(endpoint - edges[i]) > _ALIGN_TOL * scale:
                raise InputError(
                    f"label {name!r}: endpoint {endpoint} in dimension {d} does "
                    f"not lie on a grid line"
                )
            matched.append(i)
        spans.append(range(*matched))
    return spans


def assign_labels(
    partition: StatePartition, label_boxes: Mapping[str, Sequence[Box]]
) -> tuple[frozenset[str], ...]:
    """Map label boxes onto grid cells; misaligned boxes are an error.

    A cell carries a label exactly when its interior intersects the label
    box. The unsafe state always carries the reserved unsafe label.
    """
    labels: list[set[str]] = [set() for _ in range(partition.n_states)]
    for name, boxes in label_boxes.items():
        if name == UNSAFE_LABEL:
            raise InputError(f"label name {UNSAFE_LABEL!r} is reserved")
        for box in boxes:
            if box.dim != partition.domain.dim:
                raise InputError(f"label {name!r}: box dimension mismatch")
            if not partition.domain.contains(box):
                raise InputError(f"label {name!r}: box {box} leaves the domain")
            for multi in itertools.product(*_aligned_spans(partition, box, name)):
                labels[partition.flat_index(multi)].add(name)
    labels[partition.unsafe_index].add(UNSAFE_LABEL)
    return tuple(frozenset(s) for s in labels)


# --- full build ----------------------------------------------------------------


def build_imc(
    partition: StatePartition,
    model: DynamicsModel,
    noise: NoiseModel,
    label_boxes: Mapping[str, Sequence[Box]],
    posterior_table: Optional[PosteriorTable] = None,
    noise_cells: Optional[NoiseGrid] = None,
) -> Imc:
    """Build the sound IMC abstraction over a grid partition: ``pair_bounds``
    over every source's candidate block (the cells near its posterior hull,
    row-major) in blocks of at most ``_BLOCK_PAIRS`` pairs, and once with
    the domain as every source's target for the unsafe column.

    Pairs with upper bound 0 are omitted; the unsafe column is always
    stored. Every row must satisfy sum(lower) <= 1 <= sum(upper); a
    violation indicates a bug and raises SoundnessError rather than being
    rescaled away.
    """
    posts = cell_posteriors(partition, model, noise, posterior_table, noise_cells)
    labels = assign_labels(partition, label_boxes)
    cells, unsafe = np.arange(partition.n_cells), partition.unsafe_index
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
        rest, multi = pair - starts[s], [None] * len(partition.resolution)
        for d in reversed(range(len(multi))):
            rest, m = np.divmod(rest, sizes[s, d])
            multi[d] = posts.first[s, d] + m
        target = np.ravel_multi_index(multi, partition.resolution)
        low, up = pair_bounds(posts, s, *partition.corners(target))
        keep = np.flatnonzero(up > 0.0)
        slot = counts.sum() + np.arange(len(keep)) + s[keep]
        dst[slot], lower[slot], upper[slot] = target[keep], low[keep], up[keep]
        counts += np.bincount(s[keep], minlength=partition.n_states)
    dom_lo, dom_hi = (np.tile(e, (len(cells), 1)) for e in partition.domain.endpoints())
    low_x, up_x = pair_bounds(posts, cells, dom_lo, dom_hi)
    low_u, up_u = _clamped(1.0 - up_x, 1.0 - low_x)
    indptr = np.concatenate([[0], np.cumsum(counts + 1)])
    # each row ends with the unsafe column; the unsafe state has only its certain self-loop
    last = indptr[1:] - 1
    dst[last], lower[last], upper[last] = unsafe, np.append(low_u, 1.0), np.append(up_u, 1.0)
    n = int(indptr[-1])
    imc = Imc(partition, indptr, dst[:n], lower[:n], upper[:n], labels)
    _check_rows(imc.indptr, imc.lower, imc.upper)
    return imc


def _rows_with_last(counts, entries, last) -> tuple[np.ndarray, list[np.ndarray]]:
    """CSR rows in which row r holds the next ``counts[r]`` of ``entries``
    (taken in row order), then ``last[r]``: ``indptr`` and one array per pair
    of arrays in ``entries`` and ``last``."""
    ends = np.cumsum(counts)
    indptr = np.concatenate([[0], ends + np.arange(1, len(ends) + 1)])
    return indptr, [np.insert(x, ends, y) for x, y in zip(entries, last)]


def _row_blocks(indptr: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per power-of-two row-length class, its rows and a (width, rows) array
    of their entry positions, padded with ``indptr[-1]``: at most 2 x nnz."""
    lengths = np.diff(indptr)
    widths = 2 ** np.arange(int(lengths.max(initial=1)).bit_length() + 1)
    width_class = np.searchsorted(widths, lengths)  # the least width >= the row length
    blocks = []
    for c in np.flatnonzero(np.bincount(width_class)).tolist():
        rows = np.flatnonzero(width_class == c)
        slot = indptr[rows] + np.arange(widths[c])[:, None]
        blocks.append((rows, np.where(slot < indptr[rows + 1], slot, indptr[-1])))
    return blocks


def _row_sums(indptr, *arrays) -> list[np.ndarray]:
    """Row sums of each array, left to right from 0.0 as a Python loop adds
    (``np.add.reduceat`` adds pairwise): np.cumsum runs down each row's column
    of its block, the padding adds 0 and + 0.0 only turns -0.0 into 0.0."""
    blocks, sums = _row_blocks(indptr), []
    for x in arrays:
        total, x = np.zeros(len(indptr) - 1), np.append(x, 0.0)
        for rows, slot in blocks:
            block = x[slot]
            total[rows] = np.cumsum(block, axis=0, out=block)[-1] + 0.0
        sums.append(total)
    return sums


def _check_rows(indptr, lower, upper, error: type = SoundnessError, states=None) -> np.ndarray:
    """Raise ``error`` at the first row with sum(lower) > 1 or sum(upper) < 1
    (up to a 1e-9 tolerance), naming its state (``states[row]``, or the row
    index); return the row sums of ``lower`` (``_row_sums``)."""
    total_lower, total_upper = _row_sums(indptr, lower, upper)
    bad = np.flatnonzero((total_lower > 1.0 + _ROW_TOL) | (total_upper < 1.0 - _ROW_TOL))
    if len(bad):
        row = int(bad[0])
        raise error(
            f"row {row if states is None else int(states[row])} violates sum(lower) <= 1 <= "
            f"sum(upper): sum(lower)={float(total_lower[row])}, sum(upper)={float(total_upper[row])}"
        )
    return total_lower


# --- file formats ---------------------------------------------------------------


def _read_csv(path, header: str, *types, maxsplit: int = -1):
    """Yield (line number, fields converted by ``types``) for each non-blank
    line of a delimited file with this header; a wrong header, field count or
    number is an InputError naming ``path:line``."""
    with open(path, "r", encoding="utf-8") as fh:
        found = fh.readline().strip()
        if found != header:
            raise InputError(f"{path}:1: expected header {header!r}, got {found!r}")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.strip().split(",", maxsplit)
            if len(parts) != len(types):
                raise InputError(f"{path}:{lineno}: expected {len(types)} fields")
            try:
                fields = [convert(p) for convert, p in zip(types, parts)]
            except (ValueError, OverflowError):
                raise InputError(f"{path}:{lineno}: malformed field") from None
            yield lineno, fields


def _read_columns(path, header: str, *types) -> list[np.ndarray]:
    """One array per field of a delimited file with this header, converted by
    ``types``; a file ``np.loadtxt`` refuses is read again by ``_read_csv``,
    which accepts blank lines and names the first malformed line."""
    dtype = [(f"f{i}", {int: np.int64, float: float, str: object}[t]) for i, t in enumerate(types)]
    with open(path, "r", encoding="utf-8") as fh:
        found = fh.readline().strip()
    if found != header:
        raise InputError(f"{path}:1: expected header {header!r}, got {found!r}")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a header without rows
            kwargs = dict(comments=None, delimiter=",", skiprows=1, encoding="utf-8", ndmin=1)
            table = np.loadtxt(path, dtype, **kwargs)
        return [table[name] for name, _ in dtype]
    except ValueError:
        converters = (np.int64 if t is int else t for t in types)  # an int64 overflow is malformed
        rows = [fields for _, fields in _read_csv(path, header, *converters)]
        return [np.array([r[i] for r in rows], dt) for i, (_, dt) in enumerate(dtype)]


def _repeats(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable sort order of ``key`` and the mask of repeats of a key."""
    order = np.argsort(key, kind="stable")
    repeat = np.zeros(len(key), dtype=bool)
    repeat[order[1:]] = key[order[1:]] == key[order[:-1]]
    return order, repeat


def _reject_first(path, *checks) -> None:
    """Raise an InputError naming ``path:line`` at the first entry of a table
    that fails a check; ``checks`` are (failure mask, message or
    message(entry)) in the order they apply to one line."""
    k = min((int(np.argmax(mask)) for mask, _ in checks if mask.any()), default=None)
    if k is None:
        return
    message = next(m for mask, m in checks if mask[k])
    with open(path, "r", encoding="utf-8") as fh:
        # entries are the non-blank lines after the header
        lineno = [i for i, line in enumerate(fh, start=1) if i > 1 and line.strip()][k]
    raise InputError(f"{path}:{lineno}: {message(k) if callable(message) else message}")


def write_imc(imc: Imc, bounds_path, labels_path) -> None:
    """Delimited exports: (from,to,lower,upper) sorted by (from,to), and one
    (state,label) row per label, sorted. Entries are formatted
    ``_WRITE_ROWS`` at a time, which bounds the memory the write takes."""
    with open(bounds_path, "w", encoding="utf-8") as fh:
        fh.write("from,to,lower,upper\n")
        for a in range(0, len(imc.dst), _WRITE_ROWS):
            b = min(a + _WRITE_ROWS, len(imc.dst))
            src = np.searchsorted(imc.indptr, np.arange(a, b), side="right") - 1
            block = (x.tolist() for x in (src, imc.dst[a:b], imc.lower[a:b], imc.upper[a:b]))
            fh.writelines(f"{s},{d},{lo!r},{up!r}\n" for s, d, lo, up in zip(*block))
    with open(labels_path, "w", encoding="utf-8") as fh:
        fh.write("state,label\n")
        for i, labs in enumerate(imc.labels):
            for name in sorted(labs):
                fh.write(f"{i},{name}\n")


def read_imc(bounds_path, labels_path, partition: StatePartition) -> Imc:
    """Load an exported IMC whose rows may come in any order; a malformed
    line, an out-of-range state, an invalid bound or a repeated (from, to)
    pair is an InputError naming ``path:line``."""
    n = partition.n_states
    src, dst, lo, hi = _read_columns(bounds_path, "from,to,lower,upper", int, int, float, float)
    in_range = (0 <= src) & (src < n) & (0 <= dst) & (dst < n)
    # out-of-range entries get distinct negative keys: they repeat nothing
    order, repeat = _repeats(np.where(in_range, src * n + dst, -1 - np.arange(len(src))))
    _reject_first(
        bounds_path,
        (~in_range, "state index out of range"),
        (~((0.0 <= lo) & (lo <= hi) & (hi <= 1.0)), "bound requires 0 <= lower <= upper <= 1"),
        (repeat, lambda k: f"duplicate pair ({src[k]},{dst[k]})"),
    )
    labels: list[set[str]] = [set() for _ in range(n)]
    for lineno, (state, label) in _read_csv(labels_path, "state,label", int, str, maxsplit=1):
        if not 0 <= state < n:
            raise InputError(f"{labels_path}:{lineno}: state index out of range")
        labels[state].add(label)
    src, dst, lo, hi = (x[order] for x in (src, dst, lo, hi))
    indptr = np.searchsorted(src, np.arange(n + 1))
    return Imc(partition, indptr, dst, lo, hi, tuple(frozenset(s) for s in labels))


def write_posterior_table(table: PosteriorTable, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("state,component,lo,hi\n")
        for state, (lo, hi) in enumerate(zip(table.lo.tolist(), table.hi.tolist())):
            fh.writelines(f"{state},{d},{a!r},{b!r}\n" for d, (a, b) in enumerate(zip(lo, hi)))


def read_posterior_table(path, n_states: int, dim: int) -> PosteriorTable:
    """Load a posterior table: one finite interval per state in [0, n_states)
    and component in [0, dim), each given once; anything else is an
    InputError naming ``path:line``, or ``path`` for a missing state."""
    state, comp, lo, hi = _read_columns(path, "state,component,lo,hi", int, int, float, float)
    in_range = (0 <= state) & (state < n_states) & (0 <= comp) & (comp < dim)
    _, repeat = _repeats(np.where(in_range, state * dim + comp, -1 - np.arange(len(state))))
    _reject_first(
        path,
        (~((0 <= state) & (state < n_states)), "state index out of range"),
        (~((0 <= comp) & (comp < dim)), "component index out of range"),
        (~(np.isfinite(lo) & np.isfinite(hi) & (lo <= hi)), "empty or invalid interval"),
        (repeat, lambda k: f"duplicate (state, component) ({state[k]},{comp[k]})"),
    )
    table = np.full((2, n_states, dim), np.nan)  # the rows are finite: a NaN is a missing row
    table[:, state, comp] = lo, hi
    missing = np.flatnonzero(np.isnan(table[0]).any(axis=1))
    if len(missing):
        raise InputError(f"{path}: missing state {missing[0]} or some of its components")
    return PosteriorTable(*table)
