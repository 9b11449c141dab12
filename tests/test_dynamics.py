import math
import re
import zlib

import numpy as np
import pytest

from imcverify.dynamics import (
    _INTERVAL,
    _POINT,
    BinOp,
    Call,
    Neg,
    Num,
    Pow,
    Var,
    combine_posterior,
    enclosure,
    eval_point,
    parse_dynamics,
    parse_expression,
)
from imcverify.errors import EvaluationError, ParseError, StructureError
from boxes import box, g_image


def paper_multiplicative():
    return parse_dynamics(
        ["0.7*x1 + 0.1*x2", "0.1*x1 + 0.8*x2"], 2, "multiplicative"
    )


class TestParsing:
    def test_paper_model_structure(self):
        model = paper_multiplicative()
        assert model.structure == "multiplicative"
        # the implicit noise factor completes g(x) (.) w
        assert model.components[0] == parse_expression("(0.7*x1 + 0.1*x2) * w1")
        out = eval_point(model, [1.0, 1.0], [2.0, 3.0])
        assert out == pytest.approx([1.6, 2.7])

    def test_identity_plus_noise(self):
        model = parse_dynamics(["x1 + w1"], 1, "additive")
        assert eval_point(model, [0.5], [0.1]) == pytest.approx([0.6])

    @pytest.mark.parametrize("source, column, message", [
        ("x1 + ", 5, "expected operand"),
        ("x1 # 2", 3, "unexpected character '#'"),
        ("(x1 + 2", 7, "expected ')'"),
        ("x1 x2", 3, "unexpected token 'x2'"),
        ("x1^x2", 3, "expected integer exponent"),
        ("x1^1.5", 3, "exponent must be an integer"),
        ("x0 + 1", 0, "variable index must be >= 1: 'x0'"),
        ("sin x1", 4, "expected '(' after 'sin'"),
        ("foo(x1)", 0, "unknown identifier 'foo'"),
    ])
    def test_syntax_error_position(self, source, column, message):
        with pytest.raises(ParseError) as err:
            parse_expression(source, lineno=2)
        assert (err.value.line, err.value.column) == (2, column)
        assert str(err.value) == f"line 2, column {column}: {message}"

    def test_structure_violation_wrong_component(self):
        with pytest.raises(StructureError):
            parse_dynamics(["x1 + w2", "x2 + w2"], 2, "additive")

    def test_structure_violation_scaled_noise(self):
        with pytest.raises(StructureError):
            parse_dynamics(["x1 + 2*w1"], 1, "additive")

    def test_structure_violation_multiplicative(self):
        with pytest.raises(StructureError):
            parse_dynamics(["x1 + w1"], 1, "multiplicative")

    @pytest.mark.parametrize("structure, source, claim", [
        ("additive", "w2", "a noise-free part"),
        ("multiplicative", "w2", "a noise-free part"),
        ("additive", "x1 + w2 + w2", "the single term '+ w2' with coefficient 1"),
        ("additive", "x1 - w2", "the single term '+ w2' with coefficient 1"),
        ("multiplicative", "x1 + w2 + w2", "the single factor 'w2'"),
        ("multiplicative", "x1 - w2", "the single factor 'w2'"),
        ("multiplicative", "x1/w2", "the single factor 'w2'"),
    ])
    def test_structure_claim_refused(self, structure, source, claim):
        message = f"component 2: {structure} structure requires {claim}"
        with pytest.raises(StructureError, match=f"^{re.escape(message)}$"):
            parse_dynamics(["x1", source], 2, structure)

    @pytest.mark.parametrize("structure, source", [
        ("additive", "w2 - x1"),
        ("additive", "x1 + (w2 + 0)"),
        ("multiplicative", "0.5*w2*x1"),
    ])
    def test_structure_claim_accepted_as_written(self, structure, source):
        model = parse_dynamics(["x1", source], 2, structure)
        assert model.components[1] == parse_expression(source)

    def test_variable_index_out_of_range(self):
        with pytest.raises(StructureError):
            parse_dynamics(["x3 + w1"], 1, "additive")

    def test_grammar_features(self):
        model = parse_dynamics(["(x1 + 1)^2 - abs(x1)/2"], 1, "general")
        assert eval_point(model, [1.0], [0.0]) == pytest.approx([3.5])

    @pytest.mark.parametrize("exprs, separable", [
        (["0.8*x1 + 0.1*x2 + w1", "0.8*x2 - 0.2*sin(x1) + w2"], True),
        (["sin(w1) * x2", "x1"], True),  # a component may read no noise
        (["x1 + w1 + 0.5*w2", "x2 + w2"], False),
        (["x1 + w2", "x2 + w1"], False),
    ])
    def test_noise_separable(self, exprs, separable):
        assert parse_dynamics(exprs, 2, "general").noise_separable is separable

    def test_round_trip_of_random_trees(self):
        # random trees of depth <= 4, printed with each operation in parentheses,
        # parse back to themselves: (-x1)^2 and -(x1^2) stay apart
        assert parse_expression("(-x1)^2") == Pow(Neg(Var("x", 1)), 2)
        assert parse_expression("-(x1^2)") == Neg(Pow(Var("x", 1), 2))
        rng = np.random.default_rng(5)
        for _ in range(500):
            tree = _random_tree(rng, 4)
            assert parse_expression(_printed(tree)) == tree


def _random_tree(rng, depth):
    kind = rng.integers(2 if depth == 0 else 6)
    if kind == 0:  # the parser reads a minus sign as Neg, so a literal is >= 0
        return Num(float(rng.choice([0.0, 1.0, 0.5, 2.75e-7, 3.0e16])) * float(rng.uniform(0, 10)))
    if kind == 1:
        return Var(str(rng.choice(["x", "w"])), int(rng.integers(1, 13)))
    if kind == 2:
        op = str(rng.choice(["+", "-", "*", "/"]))
        return BinOp(op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    if kind == 3:
        return Pow(_random_tree(rng, depth - 1), int(rng.integers(-4, 5)))
    if kind == 4:
        return Neg(_random_tree(rng, depth - 1))
    func = str(rng.choice(["sin", "cos", "exp", "sqrt", "abs"]))
    return Call(func, _random_tree(rng, depth - 1))


def _printed(tree):
    if isinstance(tree, Num):
        return repr(tree.value)
    if isinstance(tree, Var):
        return f"{tree.kind}{tree.index}"
    if isinstance(tree, BinOp):
        return f"({_printed(tree.left)} {tree.op} {_printed(tree.right)})"
    if isinstance(tree, Pow):
        return f"({_printed(tree.base)}^{tree.exponent})"
    if isinstance(tree, Neg):
        return f"(-{_printed(tree.operand)})"
    return f"{tree.func}({_printed(tree.arg)})"


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
        (lo,), (hi,) = enclosure((expr,), box([[0, 1], [0, 1]]))
        assert (lo, hi) == (0.0, 2.0)

    def test_square_natural_extension(self):
        expr = parse_expression("x1 * x1")
        (lo,), (hi,) = enclosure((expr,), box([[-1, 1]]))
        assert (lo, hi) == (-1.0, 1.0)

    def test_sin_critical_point(self):
        expr = parse_expression("sin(x1)")
        (lo,), (hi,) = enclosure((expr,), box([[0, math.pi]]))
        assert lo == pytest.approx(0.0, abs=1e-15)
        assert hi == 1.0

    def test_power_even_crossing_zero(self):
        expr = parse_expression("x1^2")
        (lo,), (hi,) = enclosure((expr,), box([[-2, 1]]))
        assert (lo, hi) == (0.0, 4.0)

    def test_division_guard(self):
        expr = parse_expression("1/x1")
        with pytest.raises(EvaluationError):
            enclosure((expr,), box([[-1, 1]]))

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
        xbox = box([[-1.5, 0.5], [0.2, 2.0]])
        wbox = box([[-0.3, 0.4], [-1.0, 1.0]])
        (lo,), (hi,) = enclosure((expr,), xbox, wbox)
        rng = np.random.default_rng(zlib.crc32(source.encode()))
        xs = rng.uniform([-1.5, 0.2], [0.5, 2.0], (1000, 2))
        ws = rng.uniform([-0.3, -1.0], [0.4, 1.0], (1000, 2))
        vals = eval_point(parse_dynamics([source, "x2"], 2, "general"), xs, ws)[:, 0]
        assert np.all(vals >= lo - 1e-12)
        assert np.all(vals <= hi + 1e-12)

    @pytest.mark.parametrize(
        "source",
        ["x1 + x2", "x1 - x2", "x1 * x2", "x1 / x2", "x1 / 3", "x1^3", "x1^4", "(x1 - 2)^2",
         "(x1 - 2)^-3", "x1^-2", "x2^-3", "x1^-4", "x1^0", "-x1", "sin(x1)", "cos(x1)",
         "exp(x1)", "sqrt(abs(x1))", "abs(x1 - 2)"],
    )
    def test_point_box_holds_eval_point(self, source):
        # every operator and function: the enclosure of the box [x, x] holds
        # f(x) as eval_point computes it, with no tolerance, on 200,000
        # random points of [-4, -0.5]^2 and [0.5, 4]^2
        # one walk applies both tables, so no operation may have a rule in one only
        assert _POINT.keys() == _INTERVAL.keys()
        model = parse_dynamics([source, "x2"], 2, "general")
        rng = np.random.default_rng(41)
        x = rng.uniform(0.5, 4.0, (200_000, 2)) * rng.choice([-1.0, 1.0], (200_000, 1))
        lo, hi = enclosure(model.components, (x, x))
        value = eval_point(model, x, np.zeros_like(x))
        assert np.count_nonzero(~((lo <= value) & (value <= hi))) == 0


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
        singles = [enclosure((expr,), (a, b)) for a, b in zip(lo, hi)]
        assert np.array_equal(_bits(batch_lo[:, 0]), _bits([s[0][0] for s in singles]))
        assert np.array_equal(_bits(batch_hi[:, 0]), _bits([s[1][0] for s in singles]))

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
            for k in range(12):
                for c, expr in enumerate(exprs):
                    one = enclosure((expr,), (xlo[i], xhi[i]), (wlo[k], whi[k]))
                    batched = _bits([lo[i, k, c], hi[i, k, c]])
                    assert np.array_equal(batched, _bits([one[0][0], one[1][0]]))

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
    """Posteriors from the array API: ``enclosure`` of g over a box, then
    ``combine_posterior`` with a noise cell; general systems enclose f over
    the box and the noise cell together."""

    def test_identity(self):
        model = parse_dynamics(["x1 + w1"], 1, "additive")
        (lo,), (hi,) = g_image(model, box([[0, 0.2]]))
        assert (lo, hi) == (0.0, 0.2)

    def test_paper_model_component(self):
        q = box([[1, 1.1], [1, 1.1]])
        lo, hi = g_image(paper_multiplicative(), q)
        assert lo[0] == pytest.approx(0.8)
        assert hi[0] == pytest.approx(0.88)

    def test_square_conservative(self):
        # x1*x1 treats the occurrences independently: conservative [-1, 1]
        q = box([[-1, 1]])
        model = parse_dynamics(["x1*x1 + w1"], 1, "additive")
        (lo,), (hi,) = g_image(model, q)
        assert (lo, hi) == (-1.0, 1.0)
        # the power operator applies sign analysis: exact [0, 1], also sound
        model2 = parse_dynamics(["x1^2 + w1"], 1, "additive")
        (lo2,), (hi2,) = g_image(model2, q)
        assert (lo2, hi2) == (0.0, 1.0)

    def test_posterior_additive(self):
        model = parse_dynamics(["x1 + w1"], 1, "additive")
        postf = g_image(model, box([[0, 0.2]]))
        (lo,), (hi,) = combine_posterior("additive", postf, box([[1, 1.8]]))
        assert (lo, hi) == (1.0, 2.0)

    def test_posterior_multiplicative(self):
        q = box([[1, 1.1], [1, 1.1]])
        postf = g_image(paper_multiplicative(), q)
        c = box([[0.9, 1.0], [0.9, 1.0]])
        lo, hi = combine_posterior("multiplicative", postf, c)
        assert lo[0] == pytest.approx(0.72)
        assert hi[0] == pytest.approx(0.88)

    def test_posterior_general_zero_noise(self):
        model = parse_dynamics(["x1 + w1"], 1, "general")
        zero = (np.zeros(1), np.zeros(1))
        (lo,), (hi,) = enclosure(model.components, box([[0, 1]]), zero)
        assert (lo, hi) == (0.0, 1.0)

    def test_posterior_encloses_samples(self):
        model = paper_multiplicative()
        q = box([[0.8, 1.3], [0.6, 1.4]])
        c = box([[0.9, 1.05], [0.95, 1.1]])
        lo, hi = combine_posterior(model.structure, g_image(model, q), c)
        rng = np.random.default_rng(42)
        xs = rng.uniform([0.8, 0.6], [1.3, 1.4], (1000, 2))
        ws = rng.uniform([0.9, 0.95], [1.05, 1.1], (1000, 2))
        ys = eval_point(model, xs, ws)
        for d in range(2):
            assert np.all(ys[:, d] >= lo[d] - 1e-12)
            assert np.all(ys[:, d] <= hi[d] + 1e-12)

    def test_structured_contained_in_general_for_affine(self):
        add = parse_dynamics(["0.5*x1 + 0.2*x2 + w1", "x2 + w2"], 2, "additive")
        gen = parse_dynamics(["0.5*x1 + 0.2*x2 + w1", "x2 + w2"], 2, "general")
        q = box([[-1, 1], [0, 2]])
        c = box([[-0.2, 0.1], [-0.4, 0.3]])
        strong_lo, strong_hi = combine_posterior("additive", g_image(add, q), c)
        weak_lo, weak_hi = enclosure(gen.components, q, c)
        assert np.all(weak_lo <= strong_lo) and np.all(strong_hi <= weak_hi)

    def test_monotone_in_noise_cell(self):
        model = parse_dynamics(["x1 + w1"], 1, "additive")
        postf = g_image(model, box([[0, 1]]))
        small = combine_posterior("additive", postf, box([[0.1, 0.2]]))
        large = combine_posterior("additive", postf, box([[0.0, 0.5]]))
        assert np.all(large[0] <= small[0]) and np.all(small[1] <= large[1])

        mult = paper_multiplicative()
        postf2 = g_image(mult, box([[1, 1.1], [1, 1.1]]))
        c_small = box([[0.95, 1.0], [0.95, 1.0]])
        c_large = box([[0.9, 1.1], [0.9, 1.1]])
        small2 = combine_posterior("multiplicative", postf2, c_small)
        large2 = combine_posterior("multiplicative", postf2, c_large)
        assert np.all(large2[0] <= small2[0]) and np.all(small2[1] <= large2[1])
