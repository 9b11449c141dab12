"""Axis-aligned boxes, uniform grid partitions and the set predicates the
abstraction is built on.

All types are immutable and all operations are pure. Boxes are closed:
touching boundaries count as intersection and containment uses closed
inclusion, which keeps the transition upper/lower bounds conservative.
"""

from __future__ import annotations

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


@dataclass(frozen=True, eq=False)
class StatePartition:
    """Uniform grid partition of a safe domain, plus the implicit unsafe state.

    ``edges[d]`` holds the ``resolution[d] + 1`` cell boundaries of
    dimension d as a read-only float array; the cells are listed row-major
    over them (the last dimension varies fastest), so they tile the domain
    and cell lookups stay O(log resolution). The extra unsafe state
    (everything outside the domain) has index ``n_cells``. ``corners`` maps
    cell indices to coordinates; ``cell`` gives one cell as a ``Box``.
    """

    domain: Box
    resolution: tuple[int, ...]
    edges: tuple[np.ndarray, ...]

    def __post_init__(self):
        # O(sum of resolution): each dimension's edges rise strictly from
        # the domain's lower to its upper end
        resolution = tuple(int(r) for r in self.resolution)
        edges = tuple(np.array(e, dtype=float) for e in self.edges)
        dims = len(edges) == len(resolution) == self.domain.dim
        if resolution != tuple(self.resolution) or not dims:
            raise ValueError(f"resolution {self.resolution} needs an integer per dimension")
        for d, (e, r, ival) in enumerate(zip(edges, resolution, self.domain.intervals)):
            shape = r >= 1 and e.shape == (r + 1,)
            if not (shape and e[0] == ival.lo and e[-1] == ival.hi and (e[:-1] < e[1:]).all()):
                raise ValueError(f"edges[{d}] must rise strictly from {ival.lo} to {ival.hi}")
            e.flags.writeable = False
        object.__setattr__(self, "resolution", resolution)
        object.__setattr__(self, "edges", edges)

    @property
    def n_cells(self) -> int:
        return math.prod(self.resolution)

    @property
    def unsafe_index(self) -> int:
        return self.n_cells

    @property
    def n_states(self) -> int:
        return self.n_cells + 1

    def corners(self, index) -> tuple[np.ndarray, np.ndarray]:
        """The lower and the upper corners of the cells with flat indices
        ``index``, as two arrays of shape ``(*np.shape(index), dim)``."""
        multi = np.unravel_index(index, self.resolution)
        return tuple(
            np.stack([e[m + k] for e, m in zip(self.edges, multi)], axis=-1) for k in (0, 1)
        )

    def cell(self, i: int) -> Box:
        """Cell ``i`` as a ``Box``; ``corners`` gives many cells at once as arrays."""
        return Box.from_bounds(zip(*(c.tolist() for c in self.corners(i))))

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
        multi = (int(np.searchsorted(e, t, side="right")) - 1 for e, t in zip(self.edges, x))
        return self.flat_index([min(i, r - 1) for i, r in zip(multi, self.resolution)])


def partition_domain(domain: Box, resolution: Sequence[int]) -> StatePartition:
    """Partition a box into a uniform grid of cells.

    Cell ordering is row-major by dimension index (the last dimension varies
    fastest), so identical inputs always give identical cell sequences.
    Adjacent cells share the exact same edge coordinate, which makes the
    tiling exact in floating point.
    """
    if not all(ival.is_bounded() for ival in domain.intervals):
        raise ValueError(f"domain {domain} must be bounded")
    ivals = zip(domain.intervals, resolution)
    edges = (np.linspace(ival.lo, ival.hi, int(r) + 1) for ival, r in ivals)
    return StatePartition(domain, tuple(resolution), tuple(edges))
