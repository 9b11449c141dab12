"""Boxes as the package takes them: a ``(lo, hi)`` pair of float arrays."""

import numpy as np


def box(bounds):
    """The ``(lo, hi)`` arrays of ``[[lo, hi], ...]`` (one box, shape (n,)
    each) or of a list of such boxes (shape (boxes, n) each)."""
    ends = np.array(bounds, dtype=float)
    return ends[..., 0].copy(), ends[..., 1].copy()
