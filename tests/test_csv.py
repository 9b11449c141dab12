"""The CSV kernel against ``repr``, byte for byte, and every export against
its f-string reference writer in ``oracles``."""

import numpy as np
import pytest

import imcverify._csv as csv_module
from imcverify._csv import csv_lines
from imcverify.geometry import StatePartition, partition_domain
from imcverify.imc import Imc, write_imc, write_posterior_table
from imcverify.mc import (
    TERM_AVOID,
    TERM_GOAL,
    TERM_HORIZON,
    TERM_LEFT,
    Trajectory,
    write_trajectories,
)
from imcverify.verify import _CLASSES, VerificationResult, classify_arrays, write_results
from oracles import (
    write_imc_lines,
    write_posterior_table_lines,
    write_results_lines,
    write_trajectories_lines,
)


def repr_lines(x) -> bytes:
    return "".join(f"{v!r}\n" for v in np.asarray(x, float).tolist()).encode()


def assert_repr(x):
    x = np.asarray(x, float)
    got, want = csv_lines(x).split(b"\n"), repr_lines(x).split(b"\n")
    bad = [(float(v), g, w) for v, g, w in zip(x, got, want) if g != w]
    assert not bad, f"{len(bad)} of {len(x)} differ, first {bad[:3]}"
    assert len(got) == len(want)


def random_finite(n: int, seed: int) -> np.ndarray:
    """n floats from uniform 64-bit patterns: every exponent, both signs,
    subnormals included; the non-finite patterns are dropped."""
    bits = np.random.default_rng(seed).integers(0, 2**64, n, dtype=np.uint64, endpoint=False)
    x = bits.view(np.float64)
    return x[np.isfinite(x)]


class TestFloatsMatchRepr:
    def test_random_bit_patterns(self):
        assert_repr(random_finite(2**20, seed=0))

    def test_subnormals(self):
        mantissas = np.random.default_rng(1).integers(1, 2**52, 2**14, dtype=np.uint64)
        x = mantissas.view(np.float64)
        assert_repr(np.concatenate([x, -x, [5e-324, -5e-324, 2.2250738585072009e-308]]))

    def test_powers_of_two_and_ten_and_neighbours(self):
        twos, tens = np.ldexp(1.0, np.arange(-1074, 1024)), 10.0 ** np.arange(-323, 309)
        powers = np.concatenate([twos, tens])
        assert_repr(np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)]))

    @pytest.mark.parametrize("digits", range(0, 18))
    def test_short_decimals(self, digits):
        u = np.random.default_rng(2 + digits).random(2**12)
        x = np.round(u, digits)
        assert_repr(np.concatenate([x, -x, x * 1e6, x * 1e-6]))

    def test_edge_values(self):
        assert_repr([
            0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308,
            1e-4, 9.999999999999999e-05, 1e15, 1e16, 9999999999999998.0, 2.0**53, 2.0**53 + 2,
            123456789012345680.0, 0.1, 0.2, 0.30000000000000004, 1.0, 100.0, 1e22, 1e23,
        ])

    def test_ties_round_to_even(self):
        assert csv_lines(np.array([0.5 + 2**-17, 0.5 + 3 * 2**-17])) == (
            b"0.5000076293945312\n0.5000228881835938\n"
        )


class TestColumns:
    def test_ints_strings_and_empty_fields(self):
        ints = np.array([0, 9, 10, 99, 100, 12345, 7, 1000000])
        names = ("satisfies", "", "unsafe")
        codes = np.arange(8) % 3
        x = np.linspace(-2.5, 2.5, 8)
        rows = zip(ints.tolist(), codes.tolist(), x.tolist())
        expect = "".join(f"{i},{names[c]},{v!r},,{i}\n" for i, c, v in rows)
        empty = ("",), np.zeros(8, np.intp)
        assert csv_lines(ints, (names, codes), x, empty, ints) == expect.encode()

    @pytest.mark.parametrize("top", [9, 9999, 10**4, 10**8 - 1, 10**12])
    def test_ints_match_str(self, top):
        rng = np.random.default_rng(top)
        powers = 10 ** rng.integers(0, len(str(top)), 50)
        v = np.minimum(np.concatenate([[0, top], rng.integers(0, top + 1, 500), powers]), top)
        assert csv_lines(v) == "".join(f"{i}\n" for i in v.tolist()).encode()

    def test_single_digit_int_column(self):
        assert csv_lines(np.array([3, 0]), np.array([0.5, 2.0])) == b"3,0.5\n0,2.0\n"

    def test_empty_table(self):
        assert csv_lines(np.zeros(0, np.int64), np.zeros(0), (("a",), np.zeros(0, np.intp))) == b""


def random_partition(rng, resolution) -> StatePartition:
    edges = []
    for (lo, hi), r in zip([(-1.3, 2.7), (0.1, 0.35)], resolution):
        inner = np.sort(rng.uniform(lo, hi, r - 1))
        edges.append(np.concatenate([[lo], inner, [hi]]))
    return StatePartition(tuple(resolution), tuple(edges))


def bounds_like(rng, n):
    """Probabilities as the exports hold them: many zeros and ones, short
    decimals, full-precision values and tiny ones."""
    kind = rng.integers(0, 5, n)
    u = rng.random(n)
    return np.choose(kind, [np.zeros(n), np.ones(n), np.round(u, 3), u, u * 1e-9])


class TestWritersMatchOracles:
    @pytest.mark.parametrize("seed", range(3))
    def test_imc(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        part = random_partition(rng, (5, 4))
        n = part.n_states
        rows = [np.sort(rng.choice(n, rng.integers(0, 6), replace=False)) for _ in range(n)]
        indptr = np.concatenate([[0], np.cumsum([len(r) for r in rows])])
        dst = np.concatenate(rows).astype(np.intp)
        lo, hi = np.sort([bounds_like(rng, len(dst)), bounds_like(rng, len(dst))], axis=0)
        labels = {name: rng.random(n) < 0.3 for name in ("goal", "unsafe", "obstacle")}
        imc = Imc(part, indptr, dst, lo, hi, labels)
        write_imc(imc, tmp_path / "imc.csv", tmp_path / "labels.csv")
        write_imc_lines(imc, tmp_path / "ref.csv", tmp_path / "ref_labels.csv")
        assert (tmp_path / "imc.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert (tmp_path / "labels.csv").read_bytes() == (tmp_path / "ref_labels.csv").read_bytes()

    @pytest.mark.parametrize("resolution", [(7,), (5, 4)])
    def test_results(self, tmp_path, monkeypatch, resolution):
        rng = np.random.default_rng(len(resolution))
        part = random_partition(rng, resolution)
        lo, hi = np.sort([bounds_like(rng, part.n_states), bounds_like(rng, part.n_states)], axis=0)
        result = VerificationResult(lo, hi)
        write_results(result, part, 0.5, tmp_path / "results.csv")
        write_results_lines(result, part, 0.5, tmp_path / "ref.csv")
        assert (tmp_path / "results.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        # the bounds are strings, so a row holds 2 floats: three or four rows per pass
        monkeypatch.setattr(csv_module, "_PASS", 7)
        write_results(result, part, 0.5, tmp_path / "passes.csv")
        assert (tmp_path / "passes.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize(
        "edges, text",
        [
            (partition_domain([1e-05, 1e16], [5e-05, 3e16], (4, 3)).edges, b",1e-05,2e-05,1e+16,"),
            ((np.array([-0.0, 0.25, 0.5, 0.7]), np.linspace(-2.5, 1e-3, 6)), b"\n0,-0.0,0.25,-2.5,"),
        ],
        ids=["exponent-notation", "negative-zero"],
    )
    def test_results_edge_texts(self, tmp_path, edges, text):
        # each bound is its grid edge's text, formatted once per edge
        part = StatePartition(tuple(len(e) - 1 for e in edges), edges)
        rng = np.random.default_rng(5)
        p = np.sort([bounds_like(rng, part.n_states), bounds_like(rng, part.n_states)], axis=0)
        result = VerificationResult(*p)
        write_results(result, part, 0.5, tmp_path / "results.csv")
        write_results_lines(result, part, 0.5, tmp_path / "ref.csv")
        assert (tmp_path / "results.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert text in (tmp_path / "results.csv").read_bytes()

    def test_results_class_column_follows_threshold(self, tmp_path):
        # one result written at two thresholds: each class column holds the
        # classes of the bounds at its threshold, bounds equal to it
        # included, and every other byte is the same
        rng = np.random.default_rng(6)
        part = random_partition(rng, (6, 5))
        lo, hi = np.sort([bounds_like(rng, part.n_states), bounds_like(rng, part.n_states)], axis=0)
        lo[:5], hi[:5] = [0.5, 0.9, 0.2, 0.3, 0.0], [0.9, 0.95, 0.5, 0.9, 0.49]
        result, rest, columns = VerificationResult(lo, hi), [], []
        for threshold in (0.5, 0.9):
            path, ref = tmp_path / f"results-{threshold}.csv", tmp_path / f"ref-{threshold}.csv"
            write_results(result, part, threshold, path)
            write_results_lines(result, part, threshold, ref)
            assert path.read_bytes() == ref.read_bytes()
            head, column = zip(*(line.rsplit(",", 1) for line in path.read_text().splitlines()))
            assert column[0] == "class"
            assert list(column[1:]) == np.take(_CLASSES, classify_arrays(lo, hi, threshold)).tolist()
            assert set(column[1:]) == set(_CLASSES)
            rest.append(head)
            columns.append(column)
        assert rest[0] == rest[1]
        assert columns[0][1:6] == ("satisfies", "satisfies", "undetermined", "undetermined",
                                   "violates")
        assert columns[1][1:6] == ("undetermined", "satisfies", "violates", "undetermined",
                                   "violates")

    @pytest.mark.parametrize("count", [0, 1, 5, 12])
    def test_trajectories(self, tmp_path, monkeypatch, count):
        rng = np.random.default_rng(count)
        terms = (TERM_GOAL, TERM_AVOID, TERM_LEFT, TERM_HORIZON)
        trajectories = [
            Trajectory(rng.normal(size=(int(rng.integers(0, 9)), 2)) * 10.0 ** rng.integers(-6, 6),
                       terms[rng.integers(0, 4)])
            for _ in range(count)
        ]
        write_trajectories(trajectories, tmp_path / "traj.csv", 2)
        write_trajectories_lines(trajectories, tmp_path / "ref.csv", 2)
        assert (tmp_path / "traj.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        monkeypatch.setattr(csv_module, "_WRITE_ROWS", 3)  # blocks end inside trajectories
        write_trajectories(trajectories, tmp_path / "blocks.csv", 2)
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_posterior_table(self, tmp_path):
        rng = np.random.default_rng(4)
        lo = rng.normal(size=(9, 3)) * 10.0 ** rng.integers(-5, 5, (9, 3))
        table = lo, lo + rng.random((9, 3))
        write_posterior_table(table, tmp_path / "table.csv")
        write_posterior_table_lines(table, tmp_path / "ref.csv")
        assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
