"""Axis-aligned boxes, uniform grid partitions and the set predicates the
abstraction is built on.

All types are immutable and all operations are pure. Boxes are closed:
touching boundaries count as intersection and containment uses closed
inclusion, which keeps the transition upper/lower bounds conservative.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi]; endpoints may be infinite."""

    lo: float
    hi: float

    def __post_init__(self):
        lo, hi = float(self.lo), float(self.hi)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("interval endpoints must not be NaN")
        if lo > hi:
            raise ValueError(f"interval requires lo <= hi, got [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def is_bounded(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def contains_point(self, t: float) -> bool:
        return self.lo <= t <= self.hi

    def contains(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    @staticmethod
    def hull(intervals: Iterable["Interval"]) -> "Interval":
        items = list(intervals)
        if not items:
            raise ValueError("hull of an empty interval collection")
        return Interval(min(i.lo for i in items), max(i.hi for i in items))

    def __repr__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"


@dataclass(frozen=True)
class Box:
    """Axis-aligned hyperrectangle: a product of closed intervals."""

    intervals: tuple[Interval, ...]

    def __post_init__(self):
        ivals = tuple(self.intervals)
        if len(ivals) < 1:
            raise ValueError("box requires dimension >= 1")
        object.__setattr__(self, "intervals", ivals)

    @classmethod
    def from_bounds(cls, bounds: Sequence[Sequence[float]]) -> "Box":
        return cls(tuple(Interval(lo, hi) for lo, hi in bounds))

    @property
    def dim(self) -> int:
        return len(self.intervals)

    @property
    def volume(self) -> float:
        v = 1.0
        for ival in self.intervals:
            v *= ival.width
        return v

    def component(self, i: int) -> Interval:
        return self.intervals[i]

    def contains(self, inner: "Box") -> bool:
        _check_dims(self, inner)
        return all(o.contains(i) for o, i in zip(self.intervals, inner.intervals))

    def intersects(self, other: "Box") -> bool:
        _check_dims(self, other)
        return all(a.intersects(b) for a, b in zip(self.intervals, other.intervals))

    def contains_point(self, x: Sequence[float]) -> bool:
        if len(x) != self.dim:
            raise ValueError(f"point dimension {len(x)} != box dimension {self.dim}")
        return all(ival.contains_point(float(t)) for ival, t in zip(self.intervals, x))

    def center(self) -> tuple[float, ...]:
        return tuple(ival.midpoint for ival in self.intervals)

    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """The lower and the upper endpoints as two arrays of length dim."""
        return (
            np.array([ival.lo for ival in self.intervals]),
            np.array([ival.hi for ival in self.intervals]),
        )

    def __repr__(self) -> str:
        return "x".join(repr(ival) for ival in self.intervals)


def _check_dims(a: Box, b: Box) -> None:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


@dataclass(frozen=True)
class StatePartition:
    """Partition of a safe domain into cells, plus the implicit unsafe state.

    Cells tile the domain; any two distinct cells overlap only on their
    boundaries. The extra unsafe state (everything outside the domain) has
    index ``len(cells)``. The partition is a uniform grid: ``edges[d]`` holds
    the ``resolution[d] + 1`` cell boundaries of dimension d, and the cells
    are listed row-major over them, so cell lookups stay O(log resolution).
    """

    domain: Box
    cells: tuple[Box, ...]
    resolution: tuple[int, ...]
    edges: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if not self.cells:
            raise ValueError("partition requires at least one cell")
        for cell in self.cells:
            if cell.dim != self.domain.dim:
                raise ValueError("cell dimension differs from domain dimension")
            if not self.domain.contains(cell):
                raise ValueError(f"cell {cell} not contained in domain {self.domain}")
        total = sum(c.volume for c in self.cells)
        if abs(total - self.domain.volume) > 1e-9 * max(1.0, abs(self.domain.volume)):
            raise ValueError("cells do not tile the domain (volume mismatch)")

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def unsafe_index(self) -> int:
        return len(self.cells)

    @property
    def n_states(self) -> int:
        return len(self.cells) + 1

    def flat_index(self, multi: Sequence[int]) -> int:
        idx = 0
        for i, r in zip(multi, self.resolution):
            idx = idx * r + i
        return idx

    def cell_index_of_point(self, x: Sequence[float]) -> Optional[int]:
        """Index of the cell containing x, or None if x is outside the domain.

        Points on interior grid boundaries resolve to the higher-index cell;
        the result is always a cell whose closure contains x.
        """
        if not self.domain.contains_point(x):
            return None
        multi = []
        for d, t in enumerate(x):
            i = int(np.searchsorted(self.edges[d], float(t), side="right")) - 1
            multi.append(min(max(i, 0), self.resolution[d] - 1))
        return self.flat_index(multi)


def partition_domain(domain: Box, resolution: Sequence[int]) -> StatePartition:
    """Partition a box into a uniform grid of cells.

    Cell ordering is row-major by dimension index (the last dimension varies
    fastest), so identical inputs always give identical cell sequences.
    Adjacent cells share the exact same edge coordinate, which makes the
    tiling exact in floating point.
    """
    if len(resolution) != domain.dim:
        raise ValueError(
            f"resolution length {len(resolution)} != domain dimension {domain.dim}"
        )
    for d, (r, ival) in enumerate(zip(resolution, domain.intervals)):
        if int(r) != r or int(r) < 1:
            raise ValueError(f"resolution[{d}] must be a positive integer, got {r}")
        if not ival.is_bounded() or ival.width <= 0.0:
            raise ValueError(f"domain component {d} is degenerate: {ival}")
    resolution = tuple(int(r) for r in resolution)
    edges = tuple(
        tuple(np.linspace(ival.lo, ival.hi, r + 1))
        for ival, r in zip(domain.intervals, resolution)
    )
    cells = tuple(
        Box(tuple(Interval(edges[d][i], edges[d][i + 1]) for d, i in enumerate(multi)))
        for multi in itertools.product(*(range(r) for r in resolution))
    )
    return StatePartition(
        domain=domain, cells=cells, resolution=resolution, edges=edges
    )
