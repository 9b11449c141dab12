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
