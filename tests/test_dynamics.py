import math
import re

import numpy as np
import pytest

from imcverify.dynamics import (
    enclosure,
    eval_point,
    interval_extension,
    parse_dynamics,
    parse_expression,
    posterior,
    posterior_f,
)
from imcverify.errors import EvaluationError, ParseError, StructureError
from imcverify.geometry import Box, Interval


def paper_multiplicative():
    return parse_dynamics(
        ["0.7*x1 + 0.1*x2", "0.1*x1 + 0.8*x2"], 2, "multiplicative"
    )


class TestParsing:
    def test_paper_model_structure(self):
        model = paper_multiplicative()
        assert model.structure == "multiplicative"
        assert model.g_components is not None
        # the implicit noise factor completes g(x) (.) w
        out = eval_point(model, [1.0, 1.0], [2.0, 3.0])
        assert out == pytest.approx([1.6, 2.7])

    def test_identity_plus_noise(self):
        model = parse_dynamics(["x1 + w1"], 1, "additive")
        assert eval_point(model, [0.5], [0.1]) == pytest.approx([0.6])

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_expression("x1 + ")
        assert err.value.column == 5

    def test_structure_violation_wrong_component(self):
        with pytest.raises(StructureError):
            parse_dynamics(["x1 + w2", "x2 + w2"], 2, "additive")

    def test_structure_violation_scaled_noise(self):
        with pytest.raises(StructureError):
            parse_dynamics(["x1 + 2*w1"], 1, "additive")

    def test_structure_violation_multiplicative(self):
        with pytest.raises(StructureError):
            parse_dynamics(["x1 + w1"], 1, "multiplicative")

    def test_variable_index_out_of_range(self):
        with pytest.raises(StructureError):
            parse_dynamics(["x3 + w1"], 1, "additive")

    def test_grammar_features(self):
        model = parse_dynamics(["(x1 + 1)^2 - abs(x1)/2"], 1, "general")
        assert eval_point(model, [1.0], [0.0]) == pytest.approx([3.5])

    def test_semicolon_and_newline_sources(self):
        a = parse_dynamics("x1 + w1\nx2 + w2", 2, "additive")
        b = parse_dynamics("x1 + w1; x2 + w2", 2, "additive")
        assert a.components == b.components


class TestEvalPoint:
    def test_paper_model_at_ones(self):
        out = eval_point(paper_multiplicative(), [1.0, 1.0], [1.0, 1.0])
        assert out == pytest.approx([0.8, 0.9])

    def test_sin(self):
        model = parse_dynamics(["sin(x1)"], 1, "general")
        assert eval_point(model, [0.0], [0.0]) == pytest.approx([0.0])

    def test_division_by_zero(self):
        model = parse_dynamics(["1/x1"], 1, "general")
        with pytest.raises(EvaluationError):
            eval_point(model, [0.0], [0.0])

    def test_sqrt_negative(self):
        model = parse_dynamics(["sqrt(x1)"], 1, "general")
        with pytest.raises(EvaluationError):
            eval_point(model, [-1.0], [0.0])

    def test_batch_matches_scalar(self):
        model = paper_multiplicative()
        rng = np.random.default_rng(3)
        xs = rng.uniform(0.5, 1.5, (50, 2))
        ws = rng.uniform(0.9, 1.1, (50, 2))
        batch = eval_point(model, xs, ws)
        for i in range(50):
            single = eval_point(model, xs[i], ws[i])
            assert np.array_equal(batch[i], single)


class TestIntervalExtension:
    def test_affine_exact(self):
        expr = parse_expression("x1 + x2")
        out = interval_extension(expr, Box.from_bounds([[0, 1], [0, 1]]))
        assert (out.lo, out.hi) == (0.0, 2.0)

    def test_square_natural_extension(self):
        expr = parse_expression("x1 * x1")
        out = interval_extension(expr, Box.from_bounds([[-1, 1]]))
        assert (out.lo, out.hi) == (-1.0, 1.0)

    def test_sin_critical_point(self):
        expr = parse_expression("sin(x1)")
        out = interval_extension(expr, Box.from_bounds([[0, math.pi]]))
        assert out.lo == pytest.approx(0.0, abs=1e-15)
        assert out.hi == 1.0

    def test_power_even_crossing_zero(self):
        expr = parse_expression("x1^2")
        out = interval_extension(expr, Box.from_bounds([[-2, 1]]))
        assert (out.lo, out.hi) == (0.0, 4.0)

    def test_division_guard(self):
        expr = parse_expression("1/x1")
        with pytest.raises(EvaluationError):
            interval_extension(expr, Box.from_bounds([[-1, 1]]))

    @pytest.mark.parametrize(
        "source",
        [
            "x1 + x2",
            "x1*x2 - 0.5*x1",
            "sin(x1) + cos(x2)",
            "exp(0.2*x1) - x2^3",
            "abs(x1 - x2) + sqrt(x2 + 3)",
            "(x1 + w1)^2 - w2",
        ],
    )
    def test_random_samples_enclosed(self, source):
        expr = parse_expression(source)
        xbox = Box.from_bounds([[-1.5, 0.5], [0.2, 2.0]])
        wbox = Box.from_bounds([[-0.3, 0.4], [-1.0, 1.0]])
        enclosure = interval_extension(expr, xbox, wbox)
        rng = np.random.default_rng(abs(hash(source)) % 2**32)
        xs = rng.uniform([-1.5, 0.2], [0.5, 2.0], (1000, 2))
        ws = rng.uniform([-0.3, -1.0], [0.4, 1.0], (1000, 2))
        from imcverify.dynamics import _eval

        vals = np.asarray(_eval(expr, xs, ws, 1), dtype=float)
        assert np.all(vals >= enclosure.lo - 1e-12)
        assert np.all(vals <= enclosure.hi + 1e-12)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def _random_boxes(rng, m):
    """m boxes in (x1, x2): x1 straddles 0, sits around the sin/cos critical
    points k*pi/2 or is wider than 2*pi; x2 stays positive so that division,
    negative powers and sqrt are defined."""
    centers = np.concatenate([
        rng.uniform(-10.0, 10.0, m - m // 2),
        rng.integers(-6, 7, m // 2) * (math.pi / 2.0) + rng.uniform(-1e-3, 1e-3, m // 2),
    ])
    widths = rng.choice([0.0, 1e-9, 1e-3, 0.5, 2.0, 7.0], m)
    x1 = np.stack([centers - widths / 2.0, centers + widths / 2.0], axis=-1)
    x1[:10] = [[-0.5, 0.5], [-1e-3, 0.0], [0.0, 2.0], [-7.0, 7.0], [1.5, 1.6],
               [-1.6, -1.5], [3.1, 3.2], [-3.2, 3.2], [0.0, 0.0], [-2.0, -1.0]]
    lo2 = rng.uniform(0.1, 3.0, m)
    x2 = np.stack([lo2, lo2 + rng.choice([0.0, 0.01, 1.0], m)], axis=-1)
    return np.stack([x1[:, 0], x2[:, 0]], axis=-1), np.stack([x1[:, 1], x2[:, 1]], axis=-1)


class TestBatchedEvaluation:
    """The array evaluator must give every box of a batch the same bits as a
    one-box call: elementwise numpy is exact per element, so a batch may not
    round differently from a single box."""

    @pytest.mark.parametrize(
        "source",
        [
            "2.5", "x1", "-x1", "x1 + x2", "x1 - x2", "x1 * x2", "x1 * x1",
            "x1 / x2", "x1^0", "x1^2", "x1^3", "x2^-2", "x2^-3", "sin(x1)",
            "cos(x1)", "exp(x1)", "sqrt(x2)", "abs(x1)", "sin(x1 * x2) - cos(x1)^2",
            "abs(x1 - 1) / (x2 + 1) + exp(-x2) * sin(3*x1)",
        ],
    )
    def test_batch_matches_one_box_calls(self, source):
        expr = parse_expression(source)
        lo, hi = _random_boxes(np.random.default_rng(11), 300)
        batch_lo, batch_hi = enclosure((expr,), (lo, hi))
        singles = [
            interval_extension(expr, Box.from_bounds(list(zip(a, b))))
            for a, b in zip(lo.tolist(), hi.tolist())
        ]
        assert np.array_equal(_bits(batch_lo[:, 0]), _bits([s.lo for s in singles]))
        assert np.array_equal(_bits(batch_hi[:, 0]), _bits([s.hi for s in singles]))

    def test_broadcast_noise_batch_matches_one_box_calls(self):
        # general posteriors: boxes of shape (cells, 1, n) against noise
        # cells of shape (noise cells, n)
        exprs = (parse_expression("x1*w1 + sin(w2 - x2)"), parse_expression("cos(x1 + w1) * x2"))
        rng = np.random.default_rng(12)
        xlo, xhi = _random_boxes(rng, 40)
        wlo, whi = _random_boxes(rng, 12)
        lo, hi = enclosure(exprs, (xlo[:, None, :], xhi[:, None, :]), (wlo, whi))
        assert lo.shape == hi.shape == (40, 12, 2)
        for i in range(40):
            xbox = Box.from_bounds(list(zip(xlo[i].tolist(), xhi[i].tolist())))
            for k in range(12):
                wbox = Box.from_bounds(list(zip(wlo[k].tolist(), whi[k].tolist())))
                for c, expr in enumerate(exprs):
                    one = interval_extension(expr, xbox, wbox)
                    batched = _bits([lo[i, k, c], hi[i, k, c]])
                    assert np.array_equal(batched, _bits([one.lo, one.hi]))

    @pytest.mark.parametrize(
        "source, bad, message",
        [
            ("1/x2", [-0.5, 0.5], "component 2: division by an interval containing 0"),
            ("x2^-2", [0.0, 1.0], "component 2: negative power of an interval containing 0"),
            ("sqrt(x2)", [-1e-9, 1.0], "component 2: sqrt of an interval below 0"),
            ("exp(1000*x2)", [0.8, 1.0],
             "component 2: the enclosure [inf, inf] is not a finite interval"),
        ],
    )
    def test_one_bad_box_names_component(self, source, bad, message):
        exprs = (parse_expression("x1 + 1"), parse_expression(source))
        lo = np.tile([0.0, 0.1], (50, 1))
        hi = np.tile([1.0, 0.2], (50, 1))
        enclosure(exprs, (lo, hi))
        lo[37, 1], hi[37, 1] = bad
        with pytest.raises(EvaluationError, match=re.escape(message)):
            enclosure(exprs, (lo, hi))

    def test_nan_and_empty_enclosures_rejected(self):
        exprs = (parse_expression("x1"),)
        with pytest.raises(EvaluationError, match="component 1"):
            enclosure(exprs, (np.array([[0.0], [np.nan]]), np.array([[1.0], [1.0]])))
        with pytest.raises(EvaluationError, match="component 1"):
            enclosure(exprs, (np.array([[0.0], [2.0]]), np.array([[1.0], [1.0]])))


class TestPosteriors:
    def test_identity(self):
        model = parse_dynamics(["x1 + w1"], 1, "additive")
        out = posterior_f(model, Box.from_bounds([[0, 0.2]]))
        assert (out.component(0).lo, out.component(0).hi) == (0.0, 0.2)

    def test_paper_model_component(self):
        out = posterior_f(paper_multiplicative(), Box.from_bounds([[1, 1.1], [1, 1.1]]))
        assert out.component(0).lo == pytest.approx(0.8)
        assert out.component(0).hi == pytest.approx(0.88)

    def test_square_conservative(self):
        # x1*x1 treats the occurrences independently: conservative [-1, 1]
        model = parse_dynamics(["x1*x1 + w1"], 1, "additive")
        out = posterior_f(model, Box.from_bounds([[-1, 1]]))
        assert (out.component(0).lo, out.component(0).hi) == (-1.0, 1.0)
        # the power operator applies sign analysis: exact [0, 1], also sound
        model2 = parse_dynamics(["x1^2 + w1"], 1, "additive")
        out2 = posterior_f(model2, Box.from_bounds([[-1, 1]]))
        assert (out2.component(0).lo, out2.component(0).hi) == (0.0, 1.0)

    def test_posterior_additive(self):
        model = parse_dynamics(["x1 + w1"], 1, "additive")
        out = posterior(model, Box.from_bounds([[0, 0.2]]), Box.from_bounds([[1, 1.8]]))
        assert (out.component(0).lo, out.component(0).hi) == (1.0, 2.0)

    def test_posterior_multiplicative(self):
        out = posterior(
            paper_multiplicative(),
            Box.from_bounds([[1, 1.1], [1, 1.1]]),
            Box.from_bounds([[0.9, 1.0], [0.9, 1.0]]),
        )
        assert out.component(0).lo == pytest.approx(0.72)
        assert out.component(0).hi == pytest.approx(0.88)

    def test_posterior_general_zero_noise(self):
        model = parse_dynamics(["x1 + w1"], 1, "general")
        out = posterior(model, Box.from_bounds([[0, 1]]), Box((Interval(0.0, 0.0),)))
        assert (out.component(0).lo, out.component(0).hi) == (0.0, 1.0)

    def test_posterior_encloses_samples(self):
        model = paper_multiplicative()
        q = Box.from_bounds([[0.8, 1.3], [0.6, 1.4]])
        c = Box.from_bounds([[0.9, 1.05], [0.95, 1.1]])
        post = posterior(model, q, c)
        rng = np.random.default_rng(42)
        xs = rng.uniform([0.8, 0.6], [1.3, 1.4], (1000, 2))
        ws = rng.uniform([0.9, 0.95], [1.05, 1.1], (1000, 2))
        ys = eval_point(model, xs, ws)
        for d in range(2):
            assert np.all(ys[:, d] >= post.component(d).lo - 1e-12)
            assert np.all(ys[:, d] <= post.component(d).hi + 1e-12)

    def test_structured_contained_in_general_for_affine(self):
        add = parse_dynamics(["0.5*x1 + 0.2*x2 + w1", "x2 + w2"], 2, "additive")
        gen = parse_dynamics(["0.5*x1 + 0.2*x2 + w1", "x2 + w2"], 2, "general")
        q = Box.from_bounds([[-1, 1], [0, 2]])
        c = Box.from_bounds([[-0.2, 0.1], [-0.4, 0.3]])
        strong = posterior(add, q, c)
        weak = posterior(gen, q, c)
        assert weak.contains(strong)

    def test_monotone_in_noise_cell(self):
        model = parse_dynamics(["x1 + w1"], 1, "additive")
        q = Box.from_bounds([[0, 1]])
        small = posterior(model, q, Box.from_bounds([[0.1, 0.2]]))
        large = posterior(model, q, Box.from_bounds([[0.0, 0.5]]))
        assert large.contains(small)

        mult = paper_multiplicative()
        q2 = Box.from_bounds([[1, 1.1], [1, 1.1]])
        small2 = posterior(mult, q2, Box.from_bounds([[0.95, 1.0], [0.95, 1.0]]))
        large2 = posterior(mult, q2, Box.from_bounds([[0.9, 1.1], [0.9, 1.1]]))
        assert large2.contains(small2)

    def test_posterior_f_requires_structure(self):
        model = parse_dynamics(["x1 + w1"], 1, "general")
        with pytest.raises(ValueError):
            posterior_f(model, Box.from_bounds([[0, 1]]))
