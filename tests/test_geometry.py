import numpy as np
import pytest

from imcverify.geometry import (
    Box,
    Interval,
    StatePartition,
    partition_domain,
)


def test_partition_identity_case():
    domain = Box.from_bounds([[0, 1], [0, 1]])
    part = partition_domain(domain, (1, 1))
    assert part.n_cells == 1
    assert part.cell(0) == domain


def test_partition_two_by_two():
    part = partition_domain(Box.from_bounds([[0, 1], [0, 1]]), (2, 2))
    assert part.n_cells == 4
    for cell in map(part.cell, range(part.n_cells)):
        for d in range(2):
            assert cell.component(d).width == pytest.approx(0.5)


def test_partition_unit_cells():
    part = partition_domain(Box.from_bounds([[-2, 2], [-2, 2]]), (4, 4))
    assert part.n_cells == 16
    # row-major: last dimension varies fastest
    assert part.cell(0) == Box.from_bounds([[-2, -1], [-2, -1]])
    assert part.cell(1) == Box.from_bounds([[-2, -1], [-1, 0]])
    assert part.cell(4) == Box.from_bounds([[-1, 0], [-2, -1]])
    for cell in map(part.cell, range(part.n_cells)):
        for d in range(2):
            assert cell.component(d).width == pytest.approx(1.0)


def test_partition_errors():
    domain = Box.from_bounds([[0, 1]])
    with pytest.raises(ValueError):
        partition_domain(domain, (0,))
    with pytest.raises(ValueError):
        partition_domain(domain, (-1,))
    with pytest.raises(ValueError):
        partition_domain(Box((Interval(0.0, 0.0),)), (2,))
    with pytest.raises(ValueError):
        partition_domain(domain, (2, 2))


def test_partition_tiling_volume():
    rng = np.random.default_rng(11)
    for _ in range(25):
        dim = int(rng.integers(1, 4))
        lows = rng.uniform(-5, 5, dim)
        widths = rng.uniform(0.1, 10, dim)
        domain = Box.from_bounds([[lo, lo + w] for lo, w in zip(lows, widths)])
        res = tuple(int(r) for r in rng.integers(1, 7, dim))
        part = partition_domain(domain, res)
        assert part.n_cells == int(np.prod(res))
        total = sum(c.volume for c in map(part.cell, range(part.n_cells)))
        assert total == pytest.approx(domain.volume, rel=1e-9)


def test_partition_deterministic():
    domain = Box.from_bounds([[-1.3, 2.7], [0.1, 0.9]])
    a = partition_domain(domain, (3, 5))
    b = partition_domain(domain, (3, 5))
    index = np.arange(a.n_cells)
    assert all(np.array_equal(x, y) for x, y in zip(a.corners(index), b.corners(index)))


def test_corners_are_edge_lookups():
    part = partition_domain(Box.from_bounds([[0, 1], [0, 2]]), (2, 4))
    lo, hi = part.corners(np.array([[0, 7], [5, 6]]))
    assert lo.shape == hi.shape == (2, 2, 2)
    assert lo[0, 1].tolist() == [0.5, 1.5] and hi[0, 1].tolist() == [1.0, 2.0]
    assert part.cell(5) == Box.from_bounds([[0.5, 1.0], [0.5, 1.0]])
    with pytest.raises(ValueError):
        part.edges[0][1] = 0.25  # read-only


def test_hand_built_partition_guard():
    domain = Box.from_bounds([[0, 1]])
    assert StatePartition(domain, (2,), ([0.0, 0.3, 1.0],)).cell(0) == Box.from_bounds([[0, 0.3]])
    for resolution, edges in [
        ((2,), ([0.0, 1.0],)),  # too few edges
        ((2,), ([0.0, 0.6, 0.6],)),  # not strictly rising
        ((2,), ([0.0, 0.5, 0.9],)),  # not ending at the domain's end
        ((1.5,), ([0.0, 1.0],)),  # not an integer
        ((1, 1), ([0.0, 1.0], [0.0, 1.0])),  # a dimension too many
    ]:
        with pytest.raises(ValueError):
            StatePartition(domain, resolution, edges)


def test_contains_examples():
    assert Box.from_bounds([[0, 1]]).contains(Box.from_bounds([[0.2, 0.8]]))
    assert Box.from_bounds([[0, 1]]).contains(Box.from_bounds([[0, 1]]))
    assert not Box.from_bounds([[0, 1], [0, 1]]).contains(
        Box.from_bounds([[0.5, 1.5], [0, 1]]),
    )


def test_intersects_examples():
    assert Box.from_bounds([[0, 1]]).intersects(Box.from_bounds([[1, 2]]))
    assert not Box.from_bounds([[0, 1]]).intersects(Box.from_bounds([[2, 3]]))
    assert Box.from_bounds([[0, 1], [0, 1]]).intersects(
        Box.from_bounds([[0.5, 2], [0.9, 3]]),
    )


def test_dimension_mismatch_raises():
    a = Box.from_bounds([[0, 1]])
    b = Box.from_bounds([[0, 1], [0, 1]])
    with pytest.raises(ValueError):
        a.contains(b)
    with pytest.raises(ValueError):
        a.intersects(b)


def test_contains_implies_intersects():
    rng = np.random.default_rng(7)
    for _ in range(200):
        dim = int(rng.integers(1, 4))
        lo_a = rng.uniform(-2, 2, dim)
        a = Box.from_bounds(
            [[lo, lo + w] for lo, w in zip(lo_a, rng.uniform(0.01, 3, dim))]
        )
        lo_b = rng.uniform(-2, 2, dim)
        b = Box.from_bounds(
            [[lo, lo + w] for lo, w in zip(lo_b, rng.uniform(0.01, 3, dim))]
        )
        if a.contains(b):
            assert a.intersects(b)


def test_cell_index_of_point():
    part = partition_domain(Box.from_bounds([[0, 1], [0, 2]]), (2, 4))
    assert part.cell_index_of_point((0.1, 0.1)) == 0
    assert part.cell_index_of_point((0.9, 1.9)) == 7
    assert part.cell_index_of_point((1.0, 2.0)) == 7  # upper corner clamps
    assert part.cell_index_of_point((1.5, 0.5)) is None


def test_interval_invariants():
    with pytest.raises(ValueError):
        Interval(1.0, 0.0)
    with pytest.raises(ValueError):
        Interval(float("nan"), 1.0)
    unbounded = Interval(float("-inf"), float("inf"))
    assert not unbounded.is_bounded()
