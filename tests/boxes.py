"""Boxes as the package takes them: a ``(lo, hi)`` pair of float arrays,
and the noise-free image of boxes under a structured model."""

import numpy as np

from imcverify.dynamics import MULTIPLICATIVE, enclosure


def box(bounds):
    """The ``(lo, hi)`` arrays of ``[[lo, hi], ...]`` (one box, shape (n,)
    each) or of a list of such boxes (shape (boxes, n) each)."""
    ends = np.array(bounds, dtype=float)
    return ends[..., 0].copy(), ends[..., 1].copy()


def g_image(model, q):
    """g(q) of an additive or multiplicative model over the boxes ``q``: the
    enclosure of its components with the noise at 0 or at 1."""
    w = np.full(model.n, float(model.structure == MULTIPLICATIVE))
    return enclosure(model.components, q, (w, w))
