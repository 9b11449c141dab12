"""Uniform grid partitions of a box domain.

A box is a ``(lo, hi)`` pair of float arrays whose last axis is the
dimension: one box has shape ``(n,)``, many boxes ``(boxes, n)``. Boxes are
closed: touching boundaries count as intersection and containment uses
closed inclusion, which keeps the transition upper/lower bounds
conservative.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import Frozen


class StatePartition(Frozen):
    """Uniform grid partition of a safe domain, plus the implicit unsafe state.

    ``edges[d]`` holds the ``resolution[d] + 1`` cell boundaries of
    dimension d as a read-only float array, from the domain's lower end
    ``edges[d][0]`` to its upper end ``edges[d][-1]``; the cells are listed
    row-major over them (the last dimension varies fastest), so they tile
    the domain. The extra unsafe state (everything outside the domain) has
    index ``n_cells``. ``corners`` maps cell indices to coordinates and
    ``owner`` maps points to cells, in O(1) per point on evenly spaced edges.
    Partitions compare and hash by identity.
    """

    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, resolution: tuple[int, ...], edges: tuple[np.ndarray, ...]):
        # O(sum of resolution): each dimension's edges rise strictly
        ints = tuple(int(r) for r in resolution)
        edges = tuple(np.array(e, dtype=float) for e in edges)
        if ints != tuple(resolution) or len(edges) != len(ints) or not edges:
            raise ValueError(f"resolution {resolution} needs an integer per dimension")
        for d, (e, r) in enumerate(zip(edges, ints)):
            if not (r >= 1 and e.shape == (r + 1,) and (e[:-1] < e[1:]).all()):
                raise ValueError(f"edges[{d}] must rise strictly through {r + 1} points")
            e.flags.writeable = False
        vars(self).update(resolution=ints, edges=edges)

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

    def owner(self, x) -> np.ndarray:
        """The flat index of the cell that owns each point of ``x`` (last
        axis the dimension), the inverse of ``corners``: a cell owns its
        lower faces, and its upper faces only on the domain's upper end, so
        the cells tile the closed domain. A point outside it, or with a NaN
        coordinate, maps to ``unsafe_index``. A coordinate is binary-searched
        only if the cell guessed from even spacing fails its edge check."""
        x = np.asarray(x, dtype=float)
        points, outside = x.reshape(-1, x.shape[-1]), []
        m = len(points)  # one buffer g per call: the guess, then the edges that check it
        index, g, k = np.zeros(m, dtype=np.intp), np.empty(m), np.empty(m, dtype=np.intp)
        for e, r, c in zip(self.edges, self.resolution, points.T):
            # a span beyond the largest float overflows here; the edge check catches the guesses
            with np.errstate(over="ignore", invalid="ignore"):
                np.clip(c, e[0], e[-1], out=g)
                np.multiply(np.subtract(g, e[0], out=g), r / (e[-1] - e[0]), out=g)
                # a NaN guess becomes r - 1
                np.copyto(k, np.fmin(np.floor(g, out=g), r - 1, out=g), casting="unsafe")
            hit = e.take(k, out=g, mode="clip") <= c  # false on NaN
            miss = np.flatnonzero(~hit | (e[1:].take(k, out=g, mode="clip") <= c))
            k[miss] = np.searchsorted(e[1:-1], c[miss], side="right")
            outside.append(miss[~((e[0] <= c[miss]) & (c[miss] <= e[-1]))])
            index *= r
            index += k
        index[np.concatenate(outside)] = self.unsafe_index
        return index.reshape(x.shape[:-1])


def partition_domain(lo, hi, resolution: Sequence[int]) -> StatePartition:
    """Partition the box ``[lo, hi]`` into a uniform grid of cells.

    Cell ordering is row-major by dimension index (the last dimension varies
    fastest), so identical inputs always give identical cell sequences.
    Adjacent cells share the exact same edge coordinate, which makes the
    tiling exact in floating point.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if not lo.shape == hi.shape == (len(resolution),):
        raise ValueError(f"domain of shapes {lo.shape}, {hi.shape} for resolution {resolution}")
    if not (np.isfinite(lo) & np.isfinite(hi) & (lo < hi)).all():
        raise ValueError(f"domain needs finite lo < hi, got {lo.tolist()} and {hi.tolist()}")
    edges = (np.linspace(a, b, int(r) + 1) for a, b, r in zip(lo.tolist(), hi.tolist(), resolution))
    return StatePartition(tuple(resolution), tuple(edges))
