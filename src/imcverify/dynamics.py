"""Dynamics expressions: parsing, pointwise and interval evaluation, and
over-approximated posteriors of boxes under the noise-free map.

The expression grammar (whitespace insignificant):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' integer)?
    base   := number | 'x'k | 'w'k | func '(' expr ')' | '(' expr ')' | '-' base
    func   := sin | cos | exp | sqrt | abs

Variable indices k are 1-based. One tree walk, ``_walk``, evaluates an
expression both ways: it applies one rule per operation, looked up by
operator or function name in a table, ``_POINT`` for ``eval_point`` and
``_INTERVAL`` for ``enclosure``, and the two tables have the same keys.
The interval rules are the natural interval extension: monotone elementary
functions at endpoints, sin/cos by critical-point analysis, integer powers
by sign analysis. The extension may over-approximate the true range, which
is the sound direction for every consumer in this package.

``enclosure`` works on endpoint arrays over a whole batch of boxes, and
``combine_posterior`` puts noise cells onto the noise-free images it gives;
one box is a batch of one. A structured model keeps only its full
expressions: its noise-free image g(q) is their enclosure with the noise
fixed at the identity, 0 for additive and 1 for multiplicative noise. A
non-finite enclosure (an overflow, say), a division by an interval
containing 0, a negative power of one and sqrt below 0 raise
EvaluationError naming the component, whichever box of the batch they
occur in.
"""

from __future__ import annotations

import functools
import math
import re
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import EvaluationError, Frozen, ParseError, StructureError

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"
GENERAL = "general"
STRUCTURES = (ADDITIVE, MULTIPLICATIVE, GENERAL)


# --- abstract syntax ---------------------------------------------------------


class Num(NamedTuple):
    value: float


class Var(NamedTuple):
    kind: str  # 'x' or 'w'
    index: int  # 1-based


class BinOp(NamedTuple):
    op: str  # '+', '-', '*', '/'
    left: "Expr"
    right: "Expr"


class Pow(NamedTuple):
    base: "Expr"
    exponent: int


class Neg(NamedTuple):
    operand: "Expr"


class Call(NamedTuple):
    func: str
    arg: "Expr"


Expr = Union[Num, Var, BinOp, Pow, Neg, Call]

_FUNCS = ("sin", "cos", "exp", "sqrt", "abs")


# --- tokenizer and parser ----------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<space>\s+)|(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)|(?P<ident>[A-Za-z]+\d*)"
    r"|(?P<op>[-+*/^])|(?P<lparen>\()|(?P<rparen>\))"
)


class _Token(NamedTuple):
    kind: str  # 'num', 'ident', 'op', 'lparen', 'rparen', 'end'
    text: str
    column: int


def _tokenize(line: str, lineno: int) -> list[_Token]:
    tokens, pos = [], 0
    while pos < len(line):
        m = _TOKEN_RE.match(line, pos)
        if m is None:
            raise ParseError(f"unexpected character {line[pos]!r}", lineno, pos)
        if m.lastgroup != "space":
            tokens.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens + [_Token("end", "", len(line))]


class _Parser:
    def __init__(self, line: str, lineno: int):
        self.lineno = lineno
        self.tokens = _tokenize(line, lineno)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: Optional[_Token] = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, self.lineno, tok.column)

    def closed(self, node: Expr) -> Expr:
        """``node``, once the ')' that must follow it is consumed."""
        if self.peek().kind != "rparen":
            raise self.error("expected ')'")
        self.advance()
        return node

    def parse(self) -> Expr:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise self.error(f"unexpected token {tok.text!r}")
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Expr:
        node = self.base()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            node = Pow(node, self.integer())
        return node

    def integer(self) -> int:
        sign = 1
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            sign = -1
            tok = self.peek()
        if tok.kind != "num":
            raise self.error("expected integer exponent")
        self.advance()
        value = float(tok.text)
        if value != int(value):
            raise self.error("exponent must be an integer", tok)
        return sign * int(value)

    def base(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.base())
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "lparen":
            self.advance()
            return self.closed(self.expr())
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            m = re.fullmatch(r"([xw])(\d+)", name)
            if m:
                index = int(m.group(2))
                if index < 1:
                    raise self.error(f"variable index must be >= 1: {name!r}", tok)
                return Var(m.group(1), index)
            if name in _FUNCS:
                if self.peek().kind != "lparen":
                    raise self.error(f"expected '(' after {name!r}")
                self.advance()
                return Call(name, self.closed(self.expr()))
            raise self.error(f"unknown identifier {name!r}", tok)
        raise self.error("expected operand")


def parse_expression(text: str, lineno: int = 1) -> Expr:
    """Parse a single expression; raises ParseError with line/column."""
    return _Parser(text, lineno).parse()


# --- AST utilities -----------------------------------------------------------


def _vars(node: Expr, kind: str) -> set[int]:
    """Indices of the variables of one kind ('x' or 'w') in an expression."""
    if type(node) is Var:
        return {node.index} if node.kind == kind else set()
    return set().union(*(_vars(child, kind) for child in node if isinstance(child, tuple)))


def _flatten_sum(node: Expr, sign: int = 1) -> list[tuple[int, Expr]]:
    """The signed terms of a sum, left to right."""
    if isinstance(node, BinOp) and node.op in "+-":
        right_sign = sign if node.op == "+" else -sign
        return _flatten_sum(node.left, sign) + _flatten_sum(node.right, right_sign)
    return [(sign, node)]


def _flatten_product(node: Expr) -> list[tuple[int, Expr]]:
    """The factors of a product, left to right, each with sign 1."""
    if isinstance(node, BinOp) and node.op == "*":
        return _flatten_product(node.left) + _flatten_product(node.right)
    return [(1, node)]


# --- dynamics model ----------------------------------------------------------


class DynamicsModel(Frozen):
    """Parsed per-component dynamics with a declared noise structure.

    ``components`` are the full expressions f_i. For the additive and
    multiplicative structures f_i is g_i(x) + w_i or g_i(x) * w_i (the noise
    term or factor may stand anywhere in the sum or product), so the
    noise-free image g(q) of boxes q is ``enclosure(components, q, (w, w))``
    with ``w`` all zeros or all ones: adding an exact 0 or multiplying by an
    exact 1 rounds nothing.
    """

    def __init__(self, n: int, structure: str, components: tuple[Expr, ...]):
        vars(self).update(n=n, structure=structure, components=components)

    @property
    def noise_separable(self) -> bool:
        """Whether component d reads no noise but w_d, so that the kernel
        factorises over the dimensions."""
        return all(_vars(c, "w") <= {d + 1} for d, c in enumerate(self.components))


def _extract_structured(expr: Expr, component: int, structure: str) -> Expr:
    """Check a component against its structure claim and return its full
    expression f_i.

    A component may mention its own noise variable explicitly in the
    declared pattern, or omit noise entirely, in which case the structure
    tag supplies it (g + w_i or g * w_i).
    """
    wvars = _vars(expr, "w")
    wi = component + 1
    if not wvars:
        return BinOp("+" if structure == ADDITIVE else "*", expr, Var("w", wi))
    if wvars != {wi}:
        raise StructureError(
            f"component {wi}: noise variables {sorted(wvars)} violate the "
            f"component-wise requirement (only w{wi} may appear)"
        )
    if structure == ADDITIVE:
        parts, claim = _flatten_sum(expr), f"the single term '+ w{wi}' with coefficient 1"
    else:
        parts, claim = _flatten_product(expr), f"the single factor 'w{wi}'"
    if [p for p in parts if _vars(p[1], "w")] != [(1, Var("w", wi))]:
        raise StructureError(f"component {wi}: {structure} structure requires {claim}")
    if len(parts) == 1:
        raise StructureError(f"component {wi}: {structure} structure requires a noise-free part")
    return expr


def parse_dynamics(sources: Sequence[str], n: int, structure: str = GENERAL) -> DynamicsModel:
    """Parse one expression per component, component i + 1 from
    ``sources[i]`` (line i + 1 in a ParseError), and validate the structure
    claim."""
    if structure not in STRUCTURES:
        raise ValueError(f"unknown structure {structure!r}; expected {STRUCTURES}")
    if len(sources) != n:
        raise ValueError(f"expected {n} component expressions, got {len(sources)}")
    components = []
    for comp, source in enumerate(sources):
        expr = parse_expression(source, comp + 1)
        bad_x = [i for i in _vars(expr, "x") if i > n]
        bad_w = [i for i in _vars(expr, "w") if i > n]
        if bad_x or bad_w:
            names = [f"x{i}" for i in bad_x] + [f"w{i}" for i in bad_w]
            raise StructureError(
                f"component {comp + 1}: variables {names} exceed dimension {n}"
            )
        if structure in (ADDITIVE, MULTIPLICATIVE):
            expr = _extract_structured(expr, comp, structure)
        components.append(expr)
    return DynamicsModel(n=n, structure=structure, components=tuple(components))


# --- evaluation --------------------------------------------------------------


def _walk(node: Expr, x, w, component: int, ops: dict):
    """The value of ``node`` at ``x`` and ``w`` under the rules ``ops``
    (``_POINT`` or ``_INTERVAL``): each rule takes the component number (for
    its error messages) and its operands, the values of the node's children
    (and a power's exponent)."""
    kind = type(node)
    if kind is Num:
        return ops["num"](component, node.value)
    if kind is Var:
        source = x if node.kind == "x" else w
        if source is None:  # ``enclosure`` may leave out the noise box
            raise EvaluationError(f"component {component}: {node.kind}{node.index} has no interval")
        return ops["var"](component, source, node.index - 1)
    if kind is BinOp:
        left = _walk(node.left, x, w, component, ops)
        return ops[node.op](component, left, _walk(node.right, x, w, component, ops))
    if kind is Pow:
        return ops["^"](component, _walk(node.base, x, w, component, ops), node.exponent)
    if kind is Neg:
        return ops["neg"](component, _walk(node.operand, x, w, component, ops))
    return ops[node.func](component, _walk(node.arg, x, w, component, ops))


def _point_div(component, a, b):
    if np.any(np.asarray(b) == 0.0):
        raise EvaluationError(f"component {component}: division by zero")
    return a / b


def _point_pow(component, base, k: int):
    if k < 0 and np.any(np.asarray(base) == 0.0):
        raise EvaluationError(f"component {component}: zero raised to a negative power")
    return np.power(np.asarray(base, dtype=float), k)


def _point_sqrt(component, a):
    if np.any(np.asarray(a) < 0.0):
        raise EvaluationError(f"component {component}: sqrt of a negative value")
    return np.sqrt(a)


_POINT = {
    "num": lambda c, value: value,
    "var": lambda c, x, k: x[..., k],
    "+": lambda c, a, b: a + b,
    "-": lambda c, a, b: a - b,
    "*": lambda c, a, b: a * b,
    "/": _point_div,
    "^": _point_pow,
    "neg": lambda c, a: -a,
    "sin": lambda c, a: np.sin(a),
    "cos": lambda c, a: np.cos(a),
    "exp": lambda c, a: np.exp(a),
    "sqrt": _point_sqrt,
    "abs": lambda c, a: np.abs(a),
}


def eval_point(model: DynamicsModel, x, w) -> np.ndarray:
    """Evaluate f(x, w) component-wise.

    ``x`` and ``w`` are vectors of length n, or arrays of shape (m, n) for a
    batch of m points; the result matches that leading shape, with each
    component's values contiguous (the result of a batch is the transpose
    of an (n, m) array).
    """
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    if x.shape[-1] != model.n or w.shape[-1] != model.n:
        raise ValueError(
            f"expected vectors of dimension {model.n}, got {x.shape} and {w.shape}"
        )
    cols = [
        np.broadcast_to(
            np.asarray(_walk(expr, x, w, i + 1, _POINT), dtype=float), x.shape[:-1]
        )
        for i, expr in enumerate(model.components)
    ]
    return np.moveaxis(np.stack(cols), 0, -1)


# --- interval rules ----------------------------------------------------------

_TWO_PI = 2.0 * math.pi


def _has_extremum(lo, hi, at: float):
    # Is there an integer k with at + 2*pi*k in [lo, hi]?
    return np.ceil((lo - at) / _TWO_PI) <= np.floor((hi - at) / _TWO_PI)


def _periodic_interval(f, lo, hi, lowest: float, highest: float):
    """The range of sin or cos (``f``) over [lo, hi]: ``f`` at the ends, or -1 and 1
    where it holds a minimum (lowest + 2*pi*k) or a maximum (highest + 2*pi*k)."""
    wide = hi - lo >= _TWO_PI
    flo, fhi = f(lo), f(hi)
    fmin = np.where(wide | _has_extremum(lo, hi, lowest), -1.0, np.minimum(flo, fhi))
    fmax = np.where(wide | _has_extremum(lo, hi, highest), 1.0, np.maximum(flo, fhi))
    return fmin, fmax


def _hull(values):
    """The least intervals that hold each of ``values``, elementwise."""
    return functools.reduce(np.minimum, values), functools.reduce(np.maximum, values)


def _mul(a, b):
    """Product rule: min and max over the four endpoint products, where
    0 * inf reads as 0 (the degenerate factor contributes nothing)."""
    return _hull([np.where((u == 0.0) | (v == 0.0), 0.0, u * v) for u in a for v in b])


def _interval_abs(component, a):
    lo, hi = a
    alo, ahi = np.abs(lo), np.abs(hi)
    return np.where((lo <= 0.0) & (0.0 <= hi), 0.0, np.minimum(alo, ahi)), np.maximum(alo, ahi)


def _interval_div(component, a, b):
    if np.any((b[0] <= 0.0) & (0.0 <= b[1])):
        raise EvaluationError(f"component {component}: division by an interval containing 0")
    return _hull([u / v for u in a for v in b])


def _interval_pow(component, a, k: int):
    """x^k is monotone on an interval of one sign and for odd k; an even
    power of an interval that holds 0 has its minimum there."""
    if k == 0:
        return 1.0, 1.0
    lo, hi = a
    holds_zero = (lo <= 0.0) & (0.0 <= hi)
    if k < 0 and np.any(holds_zero):
        raise EvaluationError(f"component {component}: negative power of an interval containing 0")
    low, high = _hull([np.power(lo, k), np.power(hi, k)])
    return (np.where(holds_zero, 0.0, low) if k % 2 == 0 else low), high


def _interval_sqrt(component, a):
    if np.any(a[0] < 0.0):
        raise EvaluationError(f"component {component}: sqrt of an interval below 0")
    return np.sqrt(a[0]), np.sqrt(a[1])


_INTERVAL = {
    "num": lambda c, value: (value, value),
    "var": lambda c, box, k: (box[0][..., k], box[1][..., k]),
    "+": lambda c, a, b: (a[0] + b[0], a[1] + b[1]),
    "-": lambda c, a, b: (a[0] - b[1], a[1] - b[0]),
    "*": lambda c, a, b: _mul(a, b),
    "/": _interval_div,
    "^": _interval_pow,
    "neg": lambda c, a: (-a[1], -a[0]),
    "sin": lambda c, a: _periodic_interval(np.sin, *a, -math.pi / 2.0, math.pi / 2.0),
    "cos": lambda c, a: _periodic_interval(np.cos, *a, math.pi, 0.0),
    "exp": lambda c, a: (np.exp(a[0]), np.exp(a[1])),
    "sqrt": _interval_sqrt,
    "abs": _interval_abs,
}


def _checked(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The endpoints, if every interval is finite with lo <= hi (an overflow
    gives an infinite or NaN endpoint); else an EvaluationError naming the
    component, the last axis, of the first one that is not."""
    bad = ~(np.isfinite(lo) & np.isfinite(hi) & (lo <= hi))
    if np.any(bad):
        first = tuple(np.argwhere(bad)[0])
        raise EvaluationError(
            f"component {first[-1] + 1}: the enclosure [{float(lo[first])!r}, "
            f"{float(hi[first])!r}] is not a finite interval"
        )
    return lo, hi


def enclosure(exprs: Sequence[Expr], x, w=None) -> tuple[np.ndarray, np.ndarray]:
    """Interval enclosures of expressions over a batch of boxes: ``x`` and
    ``w`` are (lo, hi) pairs of arrays whose last axis is the variable index
    and whose leading axes broadcast; so is the result, with one entry per
    expression (component i + 1 in error messages) on the last axis."""
    shape = np.broadcast_shapes(*(b[0].shape[:-1] for b in (x, w) if b is not None))
    with np.errstate(over="ignore", invalid="ignore"):
        pairs = [_walk(expr, x, w, i + 1, _INTERVAL) for i, expr in enumerate(exprs)]
    lo = np.stack([np.broadcast_to(p[0], shape) for p in pairs], axis=-1)
    hi = np.stack([np.broadcast_to(p[1], shape) for p in pairs], axis=-1)
    return _checked(lo, hi)


# --- posteriors --------------------------------------------------------------


def combine_posterior(structure: str, postf, c) -> tuple[np.ndarray, np.ndarray]:
    """Posteriors of regions from their noise-free images and noise cells:
    g(q) + c or g(q) (.) c component-wise. ``postf`` and ``c`` are (lo, hi)
    pairs of arrays as in ``enclosure``, and so is the result."""
    with np.errstate(over="ignore", invalid="ignore"):
        if structure == ADDITIVE:
            return _checked(postf[0] + c[0], postf[1] + c[1])
        if structure == MULTIPLICATIVE:
            return _checked(*_mul(postf, c))
    raise ValueError(f"cannot combine posteriors for structure {structure!r}")
