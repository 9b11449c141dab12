"""Hand-written IMC rows as CSR arrays and label masks, and the adversary on
one such row."""

import numpy as np

from imcverify.errors import InvalidModelError
from imcverify.imc import RowLayout
from imcverify.verify import _rank


def csr(rows):
    """``indptr, dst, lower, upper`` from one sequence of (dst, lower, upper) per row."""
    entries = [entry for row in rows for entry in row]
    dtypes = (np.int64, float, float)
    columns = (np.array([e[k] for e in entries], dtype=t) for k, t in enumerate(dtypes))
    return (np.cumsum([0] + [len(row) for row in rows]), *columns)


def label_masks(n_cells, goal=(), obstacle=()):
    """The label masks of an IMC over ``n_cells`` cells and the unsafe state:
    ``goal`` and ``obstacle`` list the cells that carry those labels."""
    states = np.arange(n_cells + 1)
    return {
        "goal": np.isin(states, goal),
        "obstacle": np.isin(states, obstacle),
        "unsafe": states == n_cells,
    }


def extremes(values, row):
    """The minimum and the maximum expectation of ``values`` over all
    adversaries of one (dst, lower, upper) row; an infeasible row raises
    InvalidModelError."""
    layout = RowLayout(*csr([row]), InvalidModelError)
    values = np.asarray(values, dtype=float)
    low, high = (layout.walk(_rank(values, sign), values) for sign in (1.0, -1.0))
    return float(low[0]), float(high[0])
