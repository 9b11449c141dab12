"""Assembly of the sound IMC abstraction: transition probability bounds from
noise partitions, unsafe-state transitions, and the full model build with
hard row-validity checks.

An ``Imc`` holds CSR arrays: the row of state ``i`` is ``dst``, ``lower``
and ``upper`` over ``indptr[i]:indptr[i + 1]``. ``Imc.from_rows`` and the
``Imc.rows`` view are the only conversions to and from ``TransitionBound``.

The bound kernel of a source cell maps one span of target intervals per
dimension to the bounds toward every box of their product (row-major).
Structured systems (additive or multiplicative noise) get the optimal
three-cell partition per component, so a bound is a product of single
interval probabilities, one factor per dimension, and one vectorised
``interval_probability`` call per dimension and bound gives every factor.
General systems enumerate a uniform noise grid instead.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .dynamics import (
    ADDITIVE,
    GENERAL,
    MULTIPLICATIVE,
    DynamicsModel,
    combine_posterior,
    posterior,
    posterior_f,
)
from .errors import InputError, SoundnessError
from .geometry import Box, Interval, StatePartition
from .noise import (
    NoiseCell,
    NoiseModel,
    optimal_partition_affine,
    optimal_partition_multiplicative,
)

UNSAFE_LABEL = "unsafe"

_ROW_TOL = 1e-9
_ALIGN_TOL = 1e-9


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


def _padded(indptr: np.ndarray, *entries: np.ndarray) -> list[np.ndarray]:
    """Each per-entry array as a (rows, longest row) block: row i holds its
    entries from column 0 in storage order and zeros after them."""
    lengths = np.diff(indptr)
    rows = np.repeat(np.arange(len(lengths)), lengths)
    cols = np.arange(indptr[-1]) - np.repeat(indptr[:-1], lengths)
    blocks = []
    for x in entries:
        blocks.append(np.zeros((len(lengths), int(lengths.max(initial=0)))))
        blocks[-1][rows, cols] = x
    return blocks


def _row_sums(block: np.ndarray) -> np.ndarray:
    """Per-row sums of a padded block, added left to right from 0.0 as a
    Python ``sum`` would: ``np.cumsum`` runs sequentially along a row, while
    ``np.sum`` (pairwise) or a segmented cumsum over all rows rounds
    differently."""
    return np.cumsum(np.column_stack([np.zeros(len(block)), block]), axis=1)[:, -1]


@dataclass(frozen=True)
class PosteriorTable:
    """Externally supplied noise-free posterior intervals per abstract state.

    This is the ingestion point for data-driven systems whose noise-free map
    is known only through learned interval enclosures.
    """

    boxes: Mapping[int, Box]

    def postf(self, state: int) -> Box:
        if state not in self.boxes:
            raise InputError(f"posterior table has no entry for state {state}")
        return self.boxes[state]


# --- bound kernel -------------------------------------------------------------


class _Span(NamedTuple):
    """Target intervals of one dimension as endpoint arrays; the cut-point
    formulas read its ``lo``/``hi`` like an ``Interval``'s."""

    lo: np.ndarray
    hi: np.ndarray


def _clamped(lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lower = np.minimum(np.maximum(lower, 0.0), 1.0)
    upper = np.minimum(np.maximum(upper, 0.0), 1.0)
    return np.minimum(lower, upper), upper


def _structured_bounds(postf: Box, spans, noise: NoiseModel, structure: str):
    """lower = prod_d Pr(w_d in [eps3_d, eps4_d]) and
    upper = prod_d Pr(w_d in [eps1_d, eps2_d]) toward every box of the
    product of the spans; an empty containment interval gives the factor 0.
    """
    cut_points = (
        optimal_partition_affine if structure == ADDITIVE else optimal_partition_multiplicative
    )
    lower = upper = np.ones(1)
    for comp, ival, span in zip(noise.components, postf.intervals, spans):
        cuts = cut_points(ival, span)
        upper = np.multiply.outer(upper, comp.interval_probability(cuts.eps1, cuts.eps2))
        lower = np.multiply.outer(lower, comp.interval_probability(cuts.eps3, cuts.eps4))
    return _clamped(lower.ravel(), upper.ravel())


def _bound_kernel(
    q: Box,
    model: DynamicsModel,
    noise: NoiseModel,
    postf: Optional[Box] = None,
    noise_cells: Optional[Sequence[NoiseCell]] = None,
):
    """The bound kernel of source cell q: target spans -> (lower, upper)."""
    if model.structure != GENERAL:
        postf = posterior_f(model, q) if postf is None else postf
        return lambda spans: _structured_bounds(postf, spans, noise, model.structure)
    if noise_cells is None:
        raise ValueError("general structure requires a noise cell partition")
    return _noise_grid_kernel(model, noise_cells, q)


def _noise_grid_kernel(model: DynamicsModel, cells: Sequence[NoiseCell], q: Box):
    """Bound kernel that enumerates a noise partition. The posterior of q
    under each cell is computed here, once; the cell's mass then counts
    toward the upper bound of every target the posterior intersects and the
    lower bound of every target containing it."""
    posts = [posterior(model, q, cell.box()).intervals for cell in cells]
    post_lo = np.array([[ival.lo for ival in p] for p in posts])
    post_hi = np.array([[ival.hi for ival in p] for p in posts])

    def kernel(spans):
        meets = inside = np.ones((len(posts), 1), dtype=bool)
        for d, span in enumerate(spans):
            lo, hi = post_lo[:, d, None], post_hi[:, d, None]
            meets = _outer_and(meets, (lo <= span.hi) & (span.lo <= hi))
            inside = _outer_and(inside, (span.lo <= lo) & (hi <= span.hi))
        lower, upper = np.zeros(meets.shape[1]), np.zeros(meets.shape[1])
        # noise-cell order, one addition at a time (np.sum would round differently)
        for cell, meet, contained in zip(cells, meets, inside):
            upper[meet] += cell.probability
            lower[contained] += cell.probability
        return _clamped(lower, upper)

    return kernel


def _outer_and(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per noise cell, the row-major product of two target masks."""
    return (a[:, :, None] & b[:, None, :]).reshape(len(a), -1)


def _box_bounds(kernel, target: Box) -> tuple[float, float]:
    """One-target call: the bounds toward a single box."""
    lower, upper = kernel([_Span(np.array([i.lo]), np.array([i.hi])) for i in target.intervals])
    return float(lower[0]), float(upper[0])


def _unsafe_bounds(kernel, safe: Box) -> tuple[float, float]:
    low_x, up_x = _box_bounds(kernel, safe)
    return (min(max(1.0 - up_x, 0.0), 1.0), min(max(1.0 - low_x, 0.0), 1.0))


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
    return _box_bounds(lambda spans: _structured_bounds(postf, spans, noise, structure), target)


def transition_bounds_general(
    model: DynamicsModel,
    cells: Sequence[NoiseCell],
    q: Box,
    target: Box,
) -> tuple[float, float]:
    """Transition bounds by direct enumeration of a noise partition."""
    return _box_bounds(_noise_grid_kernel(model, cells, q), target)


def unsafe_transitions(
    q: Box,
    safe: Box,
    model: DynamicsModel,
    noise: NoiseModel,
    *,
    postf: Optional[Box] = None,
    noise_cells: Optional[Sequence[NoiseCell]] = None,
) -> tuple[float, float]:
    """Bounds on the transition from q to the unsafe state.

    Computed from the bounds toward the safe set itself:
    lower = 1 - upper(q -> X), upper = 1 - lower(q -> X).
    """
    return _unsafe_bounds(_bound_kernel(q, model, noise, postf, noise_cells), safe)


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


def _source_postf(
    model: DynamicsModel, partition: StatePartition, i: int, table: Optional[PosteriorTable]
) -> Optional[Box]:
    """The noise-free posterior of cell i (None for general systems)."""
    if model.structure == GENERAL:
        return None
    return table.postf(i) if table is not None else posterior_f(model, partition.cells[i])


def _posterior_hull(
    q: Box,
    model: DynamicsModel,
    noise: NoiseModel,
    postf: Optional[Box],
) -> Box:
    support = noise.support_box()
    if model.structure != GENERAL:
        assert postf is not None
        return combine_posterior(model.structure, postf, support)
    return posterior(model, q, support)


def _candidate_ranges(partition: StatePartition, hull: Box) -> list[tuple[int, int]]:
    """Per dimension, the index range of the cells possibly reachable: those
    within the posterior hull expanded by one cell. All other pairs provably
    have upper bound 0. Empty when some dimension has no such cell."""
    ranges = []
    for d, edges in enumerate(partition.edges):
        width = (edges[-1] - edges[0]) / partition.resolution[d]
        lo = hull.component(d).lo - width
        hi = hull.component(d).hi + width
        first, last = partition.grid_index_range(d, lo, hi)
        if first >= last:
            return []
        ranges.append((first, last))
    return ranges


def build_imc(
    partition: StatePartition,
    model: DynamicsModel,
    noise: NoiseModel,
    label_boxes: Mapping[str, Sequence[Box]],
    posterior_table: Optional[PosteriorTable] = None,
    noise_cells: Optional[Sequence[NoiseCell]] = None,
) -> Imc:
    """Build the sound IMC abstraction over a grid partition: one kernel
    call per source over the cells near its posterior hull, and one with
    the domain for the unsafe column.

    Pairs with upper bound 0 are omitted; the unsafe column is always
    stored. Every row must satisfy sum(lower) <= 1 <= sum(upper); a
    violation indicates a bug and raises SoundnessError rather than being
    rescaled away.
    """
    if model.structure == GENERAL and noise_cells is None:
        raise ValueError(
            "general structure requires noise_cells from uniform_noise_grid"
        )
    if posterior_table is not None and model.structure == GENERAL:
        raise ValueError(
            "posterior tables require an additive or multiplicative structure"
        )
    labels = assign_labels(partition, label_boxes)
    edges = [np.asarray(e) for e in partition.edges]
    unsafe = partition.unsafe_index

    dst, lower, upper = [], [], []
    for iq, q in enumerate(partition.cells):
        postf = _source_postf(model, partition, iq, posterior_table)
        kernel = _bound_kernel(q, model, noise, postf, noise_cells)
        ranges = _candidate_ranges(partition, _posterior_hull(q, model, noise, postf))
        # flat indices of the candidate block, row-major like the kernel output
        targets = np.zeros(1 if ranges else 0, dtype=np.int64)
        for r, (a, b) in zip(partition.resolution, ranges):
            targets = np.add.outer(targets * r, np.arange(a, b)).ravel()
        spans = [_Span(e[a:b], e[a + 1 : b + 1]) for e, (a, b) in zip(edges, ranges)]
        low, up = kernel(spans) if ranges else (np.zeros(0), np.zeros(0))
        keep = up > 0.0
        low_u, up_u = _unsafe_bounds(kernel, partition.domain)
        dst.append(np.append(targets[keep], unsafe))
        lower.append(np.append(low[keep], low_u))
        upper.append(np.append(up[keep], up_u))
    dst.append(np.array([unsafe]))
    lower.append(np.ones(1))
    upper.append(np.ones(1))

    indptr = np.cumsum([0] + [len(row) for row in dst])
    imc = Imc(partition, indptr, *map(np.concatenate, (dst, lower, upper)), labels)
    _check_rows(imc.indptr, imc.lower, imc.upper)
    return imc


def _check_rows(indptr, lower, upper, error: type = SoundnessError) -> np.ndarray:
    """Raise ``error`` at the first row with sum(lower) > 1 or sum(upper) < 1
    (up to a 1e-9 tolerance); return the row sums of ``lower``."""
    total_lower, total_upper = map(_row_sums, _padded(indptr, lower, upper))
    bad = np.flatnonzero((total_lower > 1.0 + _ROW_TOL) | (total_upper < 1.0 - _ROW_TOL))
    if len(bad):
        src = int(bad[0])
        raise error(
            f"row {src} violates sum(lower) <= 1 <= sum(upper): sum(lower)="
            f"{float(total_lower[src])}, sum(upper)={float(total_upper[src])}"
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
            except ValueError:
                raise InputError(f"{path}:{lineno}: malformed field") from None
            yield lineno, fields


def write_imc(imc: Imc, bounds_path, labels_path) -> None:
    """Delimited exports: (from,to,lower,upper) sorted by (from,to), and one
    (state,label) row per label, sorted."""
    src = np.repeat(np.arange(imc.n_states), np.diff(imc.indptr)).tolist()
    entries = zip(src, imc.dst.tolist(), imc.lower.tolist(), imc.upper.tolist())
    with open(bounds_path, "w", encoding="utf-8") as fh:
        fh.write("from,to,lower,upper\n")
        fh.writelines(f"{s},{d},{lo!r},{up!r}\n" for s, d, lo, up in entries)
    with open(labels_path, "w", encoding="utf-8") as fh:
        fh.write("state,label\n")
        for i, labs in enumerate(imc.labels):
            for name in sorted(labs):
                fh.write(f"{i},{name}\n")


def read_imc(bounds_path, labels_path, partition: StatePartition) -> Imc:
    """Load an exported IMC; a malformed line, an out-of-range state, an
    invalid bound or a repeated (from, to) pair is an InputError."""
    n = partition.n_states
    entries: dict[tuple[int, int], tuple[float, float]] = {}
    for lineno, (s, d, lo, hi) in _read_csv(
        bounds_path, "from,to,lower,upper", int, int, float, float
    ):
        where = f"{bounds_path}:{lineno}"
        if not (0 <= s < n and 0 <= d < n):
            raise InputError(f"{where}: state index out of range")
        if not 0.0 <= lo <= hi <= 1.0:
            raise InputError(f"{where}: bound requires 0 <= lower <= upper <= 1")
        if (s, d) in entries:
            raise InputError(f"{where}: duplicate pair ({s},{d})")
        entries[(s, d)] = (lo, hi)
    labels: list[set[str]] = [set() for _ in range(n)]
    for lineno, (state, label) in _read_csv(labels_path, "state,label", int, str, maxsplit=1):
        if not 0 <= state < n:
            raise InputError(f"{labels_path}:{lineno}: state index out of range")
        labels[state].add(label)
    pairs = sorted(entries)
    src = np.array([p[0] for p in pairs], dtype=np.int64)
    bounds = np.array([entries[p] for p in pairs], dtype=float).reshape(-1, 2)
    return Imc(
        partition,
        np.searchsorted(src, np.arange(n + 1)),
        np.array([p[1] for p in pairs], dtype=np.int64),
        bounds[:, 0],
        bounds[:, 1],
        tuple(frozenset(s) for s in labels),
    )


def write_posterior_table(table: PosteriorTable, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("state,component,lo,hi\n")
        for state in sorted(table.boxes):
            box = table.boxes[state]
            for d in range(box.dim):
                ival = box.component(d)
                fh.write(f"{state},{d},{ival.lo!r},{ival.hi!r}\n")


def read_posterior_table(path, n_states: int, dim: int) -> PosteriorTable:
    """Load a posterior table; every state in [0, n_states) must be complete."""
    raw: dict[int, dict[int, Interval]] = {}
    for lineno, (state, comp, lo, hi) in _read_csv(
        path, "state,component,lo,hi", int, int, float, float
    ):
        if not 0 <= comp < dim:
            raise InputError(f"{path}:{lineno}: component index out of range")
        if math.isnan(lo) or math.isnan(hi) or lo > hi:
            raise InputError(f"{path}:{lineno}: empty or invalid interval")
        raw.setdefault(state, {})[comp] = Interval(lo, hi)
    boxes: dict[int, Box] = {}
    for state in range(n_states):
        comps = raw.get(state)
        if comps is None or len(comps) != dim:
            raise InputError(
                f"posterior table is missing state {state} or some of its components"
            )
        boxes[state] = Box(tuple(comps[d] for d in range(dim)))
    return PosteriorTable(boxes=boxes)
