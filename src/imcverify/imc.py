"""Assembly of the sound IMC abstraction: per-pair transition probability
bounds from noise partitions, unsafe-state transitions, and the full model
build with hard row-validity checks.

Per-pair bounds come from one of two routes. Structured systems (additive or
multiplicative noise) get the optimal three-cell partition per component, so
the bounds are products of single interval probabilities. General systems
fall back to a uniform noise grid: each grid cell contributes its mass to
the lower bound when its posterior is contained in the target and to the
upper bound when it intersects the target.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

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
from .geometry import Box, Interval, StatePartition, box_contains, box_intersects
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


@dataclass(frozen=True)
class Imc:
    """Finite-state abstraction with sparse transition-bound rows.

    The last state (index ``partition.unsafe_index``) is the absorbing
    unsafe state. Rows are sorted by target index; pairs with upper bound 0
    are omitted except for the always-present unsafe column.
    """

    partition: StatePartition
    rows: tuple[tuple[TransitionBound, ...], ...]
    labels: tuple[frozenset[str], ...]

    @property
    def n_states(self) -> int:
        return self.partition.n_states

    @property
    def unsafe_index(self) -> int:
        return self.partition.unsafe_index

    def states_with_label(self, label: str) -> list[int]:
        return [i for i, labs in enumerate(self.labels) if label in labs]


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


# --- per-pair bounds ----------------------------------------------------------


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
    lower = 1.0
    upper = 1.0
    for i, comp in enumerate(noise.components):
        if structure == ADDITIVE:
            cuts = optimal_partition_affine(postf.component(i), target.component(i))
        else:
            cuts = optimal_partition_multiplicative(
                postf.component(i), target.component(i)
            )
        # Theorem budget: at most 3 cells per component are ever formed.
        assert len(cuts.upper_cells()) <= 3 and len(cuts.lower_cells()) <= 3
        upper *= comp.interval_probability(cuts.eps1, cuts.eps2)
        if cuts.lower_empty:
            lower = 0.0
        else:
            lower *= comp.interval_probability(cuts.eps3, cuts.eps4)
    lower = min(max(lower, 0.0), 1.0)
    upper = min(max(upper, 0.0), 1.0)
    return min(lower, upper), upper


def transition_bounds_general(
    model: DynamicsModel,
    cells: Sequence[NoiseCell],
    q: Box,
    target: Box,
) -> tuple[float, float]:
    """Transition bounds by direct enumeration of a noise partition."""
    lower = 0.0
    upper = 0.0
    for cell in cells:
        post = posterior(model, q, cell.box())
        if box_intersects(post, target):
            upper += cell.probability
            if box_contains(target, post):
                lower += cell.probability
    lower = min(max(lower, 0.0), 1.0)
    upper = min(max(upper, 0.0), 1.0)
    return min(lower, upper), upper


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
    low_x, up_x = _bounds_to_target(
        q, safe, model, noise, postf=postf, noise_cells=noise_cells
    )
    return (min(max(1.0 - up_x, 0.0), 1.0), min(max(1.0 - low_x, 0.0), 1.0))


def _bounds_to_target(
    q: Box,
    target: Box,
    model: DynamicsModel,
    noise: NoiseModel,
    *,
    postf: Optional[Box] = None,
    noise_cells: Optional[Sequence[NoiseCell]] = None,
) -> tuple[float, float]:
    if model.structure in (ADDITIVE, MULTIPLICATIVE):
        if postf is None:
            postf = posterior_f(model, q)
        return transition_bounds_structured(postf, target, noise, model.structure)
    if noise_cells is None:
        raise ValueError("general structure requires a noise cell partition")
    return transition_bounds_general(model, noise_cells, q, target)


# --- label handling -----------------------------------------------------------


def _aligned_spans(
    partition: StatePartition, box: Box, name: str
) -> list[range]:
    """Per dimension, the range of grid cells the box covers. Each endpoint
    must lie on a grid line (up to rounding); the edge it matches bounds the
    range, so edges such as ``-0.19999999999999996`` do not spill a label
    into the neighbouring cells."""
    if not partition.is_grid():
        raise InputError(
            f"label {name!r}: alignment checks require a uniform grid partition"
        )
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


def _posterior_hull(
    q: Box,
    model: DynamicsModel,
    noise: NoiseModel,
    postf: Optional[Box],
) -> Box:
    support = noise.support_box()
    if model.structure in (ADDITIVE, MULTIPLICATIVE):
        assert postf is not None
        return combine_posterior(model.structure, postf, support)
    return posterior(model, q, support)


def _candidate_targets(partition: StatePartition, hull: Box) -> list[int]:
    """Cells possibly reachable: everything within the posterior hull
    expanded by one cell. All other pairs provably have upper bound 0."""
    if not partition.is_grid():
        return list(range(partition.n_cells))
    ranges = []
    for d in range(partition.domain.dim):
        width = (
            partition.edges[d][-1] - partition.edges[d][0]
        ) / partition.resolution[d]
        lo = hull.component(d).lo - width
        hi = hull.component(d).hi + width
        first, last = partition.grid_index_range(d, lo, hi)
        if first >= last:
            return []
        ranges.append(range(first, last))
    out = []
    multi = [r.start for r in ranges]
    while True:
        out.append(partition.flat_index(multi))
        for d in reversed(range(len(ranges))):
            multi[d] += 1
            if multi[d] < ranges[d].stop:
                break
            multi[d] = ranges[d].start
        else:
            break
    return out


def build_imc(
    partition: StatePartition,
    model: DynamicsModel,
    noise: NoiseModel,
    label_boxes: Mapping[str, Sequence[Box]],
    posterior_table: Optional[PosteriorTable] = None,
    noise_cells: Optional[Sequence[NoiseCell]] = None,
) -> Imc:
    """Build the sound IMC abstraction over a state partition.

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
    domain = partition.domain
    unsafe = partition.unsafe_index

    rows: list[tuple[TransitionBound, ...]] = []
    for iq, q in enumerate(partition.cells):
        if model.structure in (ADDITIVE, MULTIPLICATIVE):
            postf = (
                posterior_table.postf(iq)
                if posterior_table is not None
                else posterior_f(model, q)
            )
        else:
            postf = None
        hull = _posterior_hull(q, model, noise, postf)
        entries: list[TransitionBound] = []
        for it in _candidate_targets(partition, hull):
            low, up = _bounds_to_target(
                q,
                partition.cells[it],
                model,
                noise,
                postf=postf,
                noise_cells=noise_cells,
            )
            if up > 0.0:
                entries.append(TransitionBound(iq, it, low, up))
        low_u, up_u = unsafe_transitions(
            q, domain, model, noise, postf=postf, noise_cells=noise_cells
        )
        entries.append(TransitionBound(iq, unsafe, low_u, up_u))
        entries.sort(key=lambda tb: tb.dst)
        _check_row(iq, entries)
        rows.append(tuple(entries))

    rows.append((TransitionBound(unsafe, unsafe, 1.0, 1.0),))
    return Imc(partition=partition, rows=tuple(rows), labels=labels)


def _check_row(src: int, entries: Sequence[TransitionBound]) -> None:
    total_lower = sum(tb.lower for tb in entries)
    total_upper = sum(tb.upper for tb in entries)
    if total_lower > 1.0 + _ROW_TOL or total_upper < 1.0 - _ROW_TOL:
        raise SoundnessError(
            f"row {src} violates sum(lower) <= 1 <= sum(upper): "
            f"sum(lower)={total_lower}, sum(upper)={total_upper}"
        )


# --- file formats ---------------------------------------------------------------


def write_imc(imc: Imc, bounds_path, labels_path) -> None:
    """Delimited exports: (from,to,lower,upper) sorted by (from,to), and one
    (state,label) row per label, sorted."""
    with open(bounds_path, "w", encoding="utf-8") as fh:
        fh.write("from,to,lower,upper\n")
        for row in imc.rows:
            for tb in row:
                fh.write(f"{tb.src},{tb.dst},{tb.lower!r},{tb.upper!r}\n")
    with open(labels_path, "w", encoding="utf-8") as fh:
        fh.write("state,label\n")
        for i, labs in enumerate(imc.labels):
            for name in sorted(labs):
                fh.write(f"{i},{name}\n")


def read_imc(bounds_path, labels_path, partition: StatePartition) -> Imc:
    rows: list[list[TransitionBound]] = [[] for _ in range(partition.n_states)]
    with open(bounds_path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "from,to,lower,upper":
            raise InputError(f"unexpected IMC header {header!r} in {bounds_path}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise InputError(f"{bounds_path}:{lineno}: expected 4 fields")
            src, dst = int(parts[0]), int(parts[1])
            if not (0 <= src < partition.n_states and 0 <= dst < partition.n_states):
                raise InputError(f"{bounds_path}:{lineno}: state index out of range")
            rows[src].append(
                TransitionBound(src, dst, float(parts[2]), float(parts[3]))
            )
    labels: list[set[str]] = [set() for _ in range(partition.n_states)]
    with open(labels_path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "state,label":
            raise InputError(f"unexpected label header {header!r} in {labels_path}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            state_text, label = line.split(",", 1)
            state = int(state_text)
            if not 0 <= state < partition.n_states:
                raise InputError(f"{labels_path}:{lineno}: state index out of range")
            labels[state].add(label)
    for row in rows:
        row.sort(key=lambda tb: tb.dst)
    return Imc(
        partition=partition,
        rows=tuple(tuple(row) for row in rows),
        labels=tuple(frozenset(s) for s in labels),
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
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "state,component,lo,hi":
            raise InputError(f"unexpected posterior-table header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise InputError(f"{path}:{lineno}: expected 4 fields")
            state, comp = int(parts[0]), int(parts[1])
            lo, hi = float(parts[2]), float(parts[3])
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
