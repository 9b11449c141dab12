import bisect
import copy
import pickle
import warnings
from itertools import product

import numpy as np
import pytest

from imcverify.geometry import StatePartition, partition_domain
from boxes import box
from oracles import cell_index_of_point


def assert_box(actual, expected):
    assert all(np.array_equal(a, e) for a, e in zip(actual, expected))


def test_partition_identity_case():
    domain = box([[0, 1], [0, 1]])
    part = partition_domain(*domain, (1, 1))
    assert part.n_cells == 1
    assert_box(part.corners(0), domain)


def test_partition_two_by_two():
    part = partition_domain(*box([[0, 1], [0, 1]]), (2, 2))
    assert part.n_cells == 4
    lo, hi = part.corners(np.arange(part.n_cells))
    assert hi - lo == pytest.approx(np.full((4, 2), 0.5))


def test_partition_unit_cells():
    part = partition_domain(*box([[-2, 2], [-2, 2]]), (4, 4))
    assert part.n_cells == 16
    # row-major: last dimension varies fastest
    assert_box(part.corners(0), box([[-2, -1], [-2, -1]]))
    assert_box(part.corners(1), box([[-2, -1], [-1, 0]]))
    assert_box(part.corners(4), box([[-1, 0], [-2, -1]]))
    lo, hi = part.corners(np.arange(part.n_cells))
    assert hi - lo == pytest.approx(np.ones((16, 2)))


def test_partition_errors():
    domain = box([[0, 1]])
    with pytest.raises(ValueError):
        partition_domain(*domain, (0,))
    with pytest.raises(ValueError):
        partition_domain(*domain, (-1,))
    with pytest.raises(ValueError):
        partition_domain([0.0], [0.0], (2,))
    with pytest.raises(ValueError):
        partition_domain(*domain, (2, 2))
    for lo, hi in ([-np.inf], [1.0]), ([0.0], [np.inf]), ([np.nan], [1.0]), ([1.0], [0.0]):
        with pytest.raises(ValueError, match="finite lo < hi"):
            partition_domain(lo, hi, (2,))


def test_partition_tiling_volume():
    rng = np.random.default_rng(11)
    for _ in range(25):
        dim = int(rng.integers(1, 4))
        lows = rng.uniform(-5, 5, dim)
        widths = rng.uniform(0.1, 10, dim)
        res = tuple(int(r) for r in rng.integers(1, 7, dim))
        part = partition_domain(lows, lows + widths, res)
        assert part.n_cells == int(np.prod(res))
        lo, hi = part.corners(np.arange(part.n_cells))
        assert np.prod(hi - lo, axis=1).sum() == pytest.approx(np.prod(widths), rel=1e-9)


def test_partition_deterministic():
    domain = box([[-1.3, 2.7], [0.1, 0.9]])
    a = partition_domain(*domain, (3, 5))
    b = partition_domain(*domain, (3, 5))
    index = np.arange(a.n_cells)
    assert all(np.array_equal(x, y) for x, y in zip(a.corners(index), b.corners(index)))


def test_corners_are_edge_lookups():
    part = partition_domain(*box([[0, 1], [0, 2]]), (2, 4))
    lo, hi = part.corners(np.array([[0, 7], [5, 6]]))
    assert lo.shape == hi.shape == (2, 2, 2)
    assert lo[0, 1].tolist() == [0.5, 1.5] and hi[0, 1].tolist() == [1.0, 2.0]
    assert_box(part.corners(5), box([[0.5, 1.0], [0.5, 1.0]]))
    with pytest.raises(ValueError):
        part.edges[0][1] = 0.25  # read-only


@pytest.mark.parametrize("copy_of", [lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_copies_keep_the_edges_read_only(copy_of):
    # a copy is built through __init__, which checks its edges and locks them
    part = partition_domain(*box([[0, 1], [-2, 2]]), (4, 3))
    copied = copy_of(part)
    assert copied is not part and copied.resolution == part.resolution
    for mine, theirs in zip(copied.edges, part.edges):
        assert np.array_equal(mine, theirs) and not mine.flags.writeable
        with pytest.raises(ValueError):
            mine[1] = 0.25


def test_hand_built_partition_guard():
    assert_box(StatePartition((2,), ([0.0, 0.3, 1.0],)).corners(0), box([[0, 0.3]]))
    for resolution, edges in [
        ((2,), ([0.0, 1.0],)),  # too few edges
        ((2,), ([0.0, 0.6, 0.6],)),  # not strictly rising
        ((1.5,), ([0.0, 1.0],)),  # not an integer
        ((1, 1), ([0.0, 1.0],)),  # a dimension without edges
    ]:
        with pytest.raises(ValueError):
            StatePartition(resolution, edges)


def test_cell_index_of_point():
    part = partition_domain(*box([[0, 1], [0, 2]]), (2, 4))
    assert cell_index_of_point(part, (0.1, 0.1)) == 0
    assert cell_index_of_point(part, (0.9, 1.9)) == 7
    assert cell_index_of_point(part, (1.0, 2.0)) == 7  # upper corner clamps
    assert cell_index_of_point(part, (1.5, 0.5)) is None


def edge_probes(edges):
    """Per dimension: every edge, both float neighbours of each, the cell
    midpoints, NaN and both infinities."""
    values = []
    for e in edges:
        e = np.asarray(e, dtype=float)
        near = np.concatenate([np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf)])
        values.append(np.concatenate([near, 0.5 * (e[:-1] + e[1:]), [np.nan, -np.inf, np.inf]]))
    return values


def test_owner_matches_the_oracle_on_an_uneven_grid():
    edges = ([0.0, 0.1, 0.7, 1.0], [-1.0, 0.3, 2.0])
    part = StatePartition((3, 2), edges)
    points = np.array(list(product(*edge_probes(edges))))
    expected = [cell_index_of_point(part, x) for x in points.tolist()]
    expected = [part.unsafe_index if c is None else c for c in expected]
    assert part.owner(points).tolist() == expected
    assert set(expected) == set(range(part.n_states))
    # the owner of a point is a cell whose closure holds it
    inside = np.array(expected) != part.unsafe_index
    lo, hi = part.corners(part.owner(points[inside]))
    assert np.all((lo <= points[inside]) & (points[inside] <= hi))
    # any leading shape; the last axis is the dimension
    assert part.owner(points.reshape(-1, 3, 2)).tolist() == np.reshape(expected, (-1, 3)).tolist()


def test_owner_on_every_face_and_corner():
    """A cell owns its lower faces, and its upper faces only on the domain's
    upper end: here in dimensions 0 and 2, while dimension 1 has a second
    cell above the face at 2."""
    part = StatePartition((1, 2, 1), ([0.0, 1.0], [-2.0, 2.0, 5.0], [0.5, 3.0]))
    values = [
        [np.nextafter(a, -np.inf), a, 0.5 * (a + b), np.nextafter(b, -np.inf), b,
         np.nextafter(b, np.inf)]
        for a, b in ((0.0, 1.0), (-2.0, 2.0), (0.5, 3.0))
    ]
    points = np.array(list(product(*values)))
    expected = [cell_index_of_point(part, x) for x in points.tolist()]
    found = part.owner(points)
    assert found.tolist() == [part.unsafe_index if c is None else c for c in expected]
    assert 0 < np.count_nonzero(found == 0) < len(points)
    # the far corner of cell 0 on the top in dimensions 0 and 2 belongs to
    # it; on its upper face in dimension 1 the point belongs to cell 1
    assert part.owner(np.array([[1.0, 0.0, 3.0], [1.0, 2.0, 3.0]])).tolist() == [0, 1]
    nan = np.nan
    rows = np.array([[nan, 0.0, 1.0], [0.5, nan, 1.0], [0.5, 0.0, nan], [nan, nan, nan]])
    assert part.owner(rows).tolist() == [part.unsafe_index] * 4


def searchsorted_owner(part, x):
    """The binary-search cell lookup ``owner`` replaced, kept as its reference:
    per dimension the count of inner edges at or below the coordinate, and
    the unsafe state outside the closed domain or on NaN."""
    x = np.asarray(x, dtype=float)
    index, inside = np.zeros(x.shape[:-1], dtype=np.intp), np.ones(x.shape[:-1], dtype=bool)
    for e, r, c in zip(part.edges, part.resolution, np.moveaxis(x, -1, 0)):
        index = index * r + np.searchsorted(e[1:-1], c, side="right")
        inside &= (e[0] <= c) & (c <= e[-1])
    return np.where(inside, index, part.unsafe_index)


@pytest.mark.parametrize(
    "lo, hi, resolution",
    [([0.25], [2.25], (40,)), ([-1.0], [1.0], (3,)), ([-1.0], [1.0], (7,)),
     ([-1.0], [1.0], (120,)), ([0.25, -1.0], [2.25, 1.0], (40, 7)),
     ([-1.0, 0.25, -1.0], [1.0, 2.25, 1.0], (3, 40, 120))],
    ids=["0.25-2.25@40", "-1-1@3", "-1-1@7", "-1-1@120", "2-D", "3-D"],
)
def test_owner_matches_searchsorted_on_partition_domain_grids(lo, hi, resolution):
    """Every edge, both float neighbours of each, the cell midpoints, NaN
    and both infinities in each dimension, against the others' midpoints."""
    part = partition_domain(lo, hi, resolution)
    probes = edge_probes(part.edges)
    mids = [0.5 * (e[:-1] + e[1:]) for e in part.edges]
    for d, values in enumerate(probes):
        rng = np.random.default_rng(d)
        points = np.stack([values if j == d else rng.choice(m, len(values))
                           for j, m in enumerate(mids)], axis=-1)
        assert part.owner(points).tolist() == searchsorted_owner(part, points).tolist()
    if len(resolution) < 3:  # every combination of the probes
        grid = np.array(list(product(*probes)))
        assert part.owner(grid).tolist() == searchsorted_owner(part, grid).tolist()


def test_owner_falls_back_to_a_binary_search_where_the_guess_misses(monkeypatch):
    """On uneven edges the cell guessed from even spacing is often wrong:
    those coordinates take ``np.searchsorted``, and not every one does."""
    edges = ([0.0, 0.1, 0.7, 1.0], [-1.0, -0.9, -0.8, 2.0])
    part = StatePartition((3, 3), edges)
    points = np.array(list(product(*edge_probes(edges))))
    expected, searched, searchsorted = searchsorted_owner(part, points).tolist(), [], np.searchsorted

    def counting(a, v, side="left"):
        searched.append(len(v))
        return searchsorted(a, v, side=side)

    monkeypatch.setattr(np, "searchsorted", counting)
    assert part.owner(points).tolist() == expected
    assert 0 < sum(searched) < 2 * len(points)


def test_owner_on_a_span_beyond_the_largest_float():
    """Edges whose span exceeds the largest float overflow the guess from
    even spacing: no warning escapes, and every point gets the cell of a
    bisect over the inner edges (outside, infinite or NaN: unsafe)."""
    part = StatePartition((2,), ([-1e308, 0.0, 1e308],))
    edges = part.edges[0].tolist()
    points = [-1e308, -1.0, 0.0, 1.0, 1e308, np.nan, np.inf, -np.inf]

    def bisect_owner(c):
        if not edges[0] <= c <= edges[-1]:
            return part.unsafe_index
        return bisect.bisect_right(edges, c, 1, len(edges) - 1) - 1

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = part.owner(np.array(points)[:, None]).tolist()
    assert found == [bisect_owner(c) for c in points] == [0, 0, 1, 1, 1, 2, 2, 2]
