"""Dynamics expressions: parsing, pointwise and interval evaluation, and
over-approximated posteriors of boxes under the noise-free map.

The expression grammar (whitespace insignificant):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' integer)?
    base   := number | 'x'k | 'w'k | func '(' expr ')' | '(' expr ')' | '-' base
    func   := sin | cos | exp | sqrt | abs

Variable indices k are 1-based. Interval evaluation uses the natural
interval extension: monotone elementary functions at endpoints, sin/cos by
critical-point analysis, integer powers by sign analysis. The extension may
over-approximate the true range, which is the sound direction for every
consumer in this package.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import EvaluationError, ParseError, StructureError
from .geometry import Box, Interval

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"
GENERAL = "general"
STRUCTURES = (ADDITIVE, MULTIPLICATIVE, GENERAL)


# --- abstract syntax ---------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    kind: str  # 'x' or 'w'
    index: int  # 1-based


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*', '/'
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Num, Var, BinOp, Pow, Neg, Call]

_FUNCS = ("sin", "cos", "exp", "sqrt", "abs")


# --- tokenizer and parser ----------------------------------------------------

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z]+\d*")


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num', 'ident', 'op', 'lparen', 'rparen', 'end'
    text: str
    column: int


def _tokenize(line: str, lineno: int) -> list[_Token]:
    tokens = []
    pos = 0
    n = len(line)
    while pos < n:
        ch = line[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in "+-*/^":
            tokens.append(_Token("op", ch, pos))
            pos += 1
            continue
        if ch == "(":
            tokens.append(_Token("lparen", ch, pos))
            pos += 1
            continue
        if ch == ")":
            tokens.append(_Token("rparen", ch, pos))
            pos += 1
            continue
        m = _NUMBER_RE.match(line, pos)
        if m:
            tokens.append(_Token("num", m.group(0), pos))
            pos = m.end()
            continue
        m = _IDENT_RE.match(line, pos)
        if m:
            tokens.append(_Token("ident", m.group(0), pos))
            pos = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", lineno, pos)
    tokens.append(_Token("end", "", n))
    return tokens


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
            node = self.expr()
            if self.peek().kind != "rparen":
                raise self.error("expected ')'")
            self.advance()
            return node
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
                arg = self.expr()
                if self.peek().kind != "rparen":
                    raise self.error("expected ')'")
                self.advance()
                return Call(name, arg)
            raise self.error(f"unknown identifier {name!r}", tok)
        raise self.error("expected operand")


def parse_expression(text: str, lineno: int = 1) -> Expr:
    """Parse a single expression; raises ParseError with line/column."""
    return _Parser(text, lineno).parse()


# --- AST utilities -----------------------------------------------------------


def _vars(node: Expr, kind: str) -> set[int]:
    """Indices of the variables of one kind ('x' or 'w') in an expression."""
    if isinstance(node, Var):
        return {node.index} if node.kind == kind else set()
    if isinstance(node, Num):
        return set()
    if isinstance(node, BinOp):
        return _vars(node.left, kind) | _vars(node.right, kind)
    if isinstance(node, Pow):
        return _vars(node.base, kind)
    if isinstance(node, (Neg, Call)):
        return _vars(node.operand if isinstance(node, Neg) else node.arg, kind)
    raise TypeError(f"unknown node type {type(node)!r}")


def _flatten_sum(node: Expr, sign: int = 1) -> list[tuple[int, Expr]]:
    if isinstance(node, BinOp) and node.op in "+-":
        right_sign = sign if node.op == "+" else -sign
        return _flatten_sum(node.left, sign) + _flatten_sum(node.right, right_sign)
    return [(sign, node)]


def _rebuild_sum(terms: list[tuple[int, Expr]]) -> Expr:
    node: Optional[Expr] = None
    for sign, term in terms:
        if node is None:
            node = term if sign > 0 else Neg(term)
        else:
            node = BinOp("+" if sign > 0 else "-", node, term)
    if node is None:
        node = Num(0.0)
    return node


def _flatten_product(node: Expr) -> list[Expr]:
    if isinstance(node, BinOp) and node.op == "*":
        return _flatten_product(node.left) + _flatten_product(node.right)
    return [node]


def _rebuild_product(factors: list[Expr]) -> Expr:
    node: Optional[Expr] = None
    for factor in factors:
        node = factor if node is None else BinOp("*", node, factor)
    if node is None:
        node = Num(1.0)
    return node


# --- dynamics model ----------------------------------------------------------


@dataclass(frozen=True)
class DynamicsModel:
    """Parsed per-component dynamics with a declared noise structure.

    For additive and multiplicative structures, ``g_components`` holds the
    noise-free part g_i, and the full map is g(x) + w or g(x) (.) w
    component-wise. For the general structure the full expressions are used
    directly and ``g_components`` is None.
    """

    n: int
    structure: str
    components: tuple[Expr, ...]
    g_components: Optional[tuple[Expr, ...]]


def _extract_structured(
    expr: Expr, component: int, structure: str
) -> tuple[Expr, Expr]:
    """Split a component into (full f expression, noise-free g part).

    A component may mention its own noise variable explicitly in the
    declared pattern, or omit noise entirely, in which case the structure
    tag supplies it (g + w_i or g * w_i).
    """
    wvars = _vars(expr, "w")
    wi = component + 1
    if not wvars:
        g = expr
        w = Var("w", wi)
        full = BinOp("+", g, w) if structure == ADDITIVE else BinOp("*", g, w)
        return full, g
    if wvars != {wi}:
        raise StructureError(
            f"component {wi}: noise variables {sorted(wvars)} violate the "
            f"component-wise requirement (only w{wi} may appear)"
        )
    if structure == ADDITIVE:
        terms = _flatten_sum(expr)
        w_terms = [(s, t) for s, t in terms if _vars(t, "w")]
        if len(w_terms) != 1 or w_terms[0][0] != 1 or w_terms[0][1] != Var("w", wi):
            raise StructureError(
                f"component {wi}: additive structure requires the single term "
                f"'+ w{wi}' with coefficient 1"
            )
        g_terms = [(s, t) for s, t in terms if not _vars(t, "w")]
        if not g_terms:
            raise StructureError(
                f"component {wi}: additive structure requires a noise-free part"
            )
        return expr, _rebuild_sum(g_terms)
    # multiplicative
    factors = _flatten_product(expr)
    w_factors = [f for f in factors if _vars(f, "w")]
    if len(w_factors) != 1 or w_factors[0] != Var("w", wi):
        raise StructureError(
            f"component {wi}: multiplicative structure requires the single "
            f"factor 'w{wi}'"
        )
    g_factors = [f for f in factors if not _vars(f, "w")]
    if not g_factors:
        raise StructureError(
            f"component {wi}: multiplicative structure requires a noise-free part"
        )
    return expr, _rebuild_product(g_factors)


def parse_dynamics(
    text: Union[str, Sequence[str]],
    n: int,
    structure: str = GENERAL,
) -> DynamicsModel:
    """Parse one expression per component and validate the structure claim.

    ``text`` is either a single string with one component per line (or
    semicolon-separated) or a sequence of component strings.
    """
    if structure not in STRUCTURES:
        raise ValueError(f"unknown structure {structure!r}; expected {STRUCTURES}")
    if isinstance(text, str):
        lines = [piece for raw in text.splitlines() for piece in raw.split(";")]
        sources = [(i + 1, s) for i, s in enumerate(lines)]
        sources = [(ln, s) for ln, s in sources if s.strip()]
    else:
        sources = [(i + 1, s) for i, s in enumerate(text)]
    if len(sources) != n:
        raise ValueError(f"expected {n} component expressions, got {len(sources)}")

    components = []
    g_components = []
    for comp, (lineno, source) in enumerate(sources):
        expr = parse_expression(source, lineno)
        bad_x = [i for i in _vars(expr, "x") if i > n]
        bad_w = [i for i in _vars(expr, "w") if i > n]
        if bad_x or bad_w:
            names = [f"x{i}" for i in bad_x] + [f"w{i}" for i in bad_w]
            raise StructureError(
                f"component {comp + 1}: variables {names} exceed dimension {n}"
            )
        if structure in (ADDITIVE, MULTIPLICATIVE):
            full, g = _extract_structured(expr, comp, structure)
            components.append(full)
            g_components.append(g)
        else:
            components.append(expr)

    return DynamicsModel(
        n=n,
        structure=structure,
        components=tuple(components),
        g_components=tuple(g_components) if g_components else None,
    )


# --- pointwise evaluation ----------------------------------------------------


def _eval(node: Expr, x, w, component: int):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        source = x if node.kind == "x" else w
        if source is None:
            raise EvaluationError(
                f"component {component}: {node.kind}{node.index} has no value"
            )
        return source[..., node.index - 1]
    if isinstance(node, BinOp):
        a = _eval(node.left, x, w, component)
        b = _eval(node.right, x, w, component)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if np.any(np.asarray(b) == 0.0):
            raise EvaluationError(f"component {component}: division by zero")
        return a / b
    if isinstance(node, Pow):
        base = _eval(node.base, x, w, component)
        if node.exponent < 0 and np.any(np.asarray(base) == 0.0):
            raise EvaluationError(
                f"component {component}: zero raised to a negative power"
            )
        return np.power(np.asarray(base, dtype=float), node.exponent)
    if isinstance(node, Neg):
        return -_eval(node.operand, x, w, component)
    if isinstance(node, Call):
        arg = _eval(node.arg, x, w, component)
        if node.func == "sin":
            return np.sin(arg)
        if node.func == "cos":
            return np.cos(arg)
        if node.func == "exp":
            return np.exp(arg)
        if node.func == "sqrt":
            if np.any(np.asarray(arg) < 0.0):
                raise EvaluationError(
                    f"component {component}: sqrt of a negative value"
                )
            return np.sqrt(arg)
        if node.func == "abs":
            return np.abs(arg)
    raise TypeError(f"unknown node type {type(node)!r}")


def eval_point(model: DynamicsModel, x, w) -> np.ndarray:
    """Evaluate f(x, w) component-wise.

    ``x`` and ``w`` are vectors of length n, or arrays of shape (m, n) for a
    batch of m points; the result matches that leading shape.
    """
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    if x.shape[-1] != model.n or w.shape[-1] != model.n:
        raise ValueError(
            f"expected vectors of dimension {model.n}, got {x.shape} and {w.shape}"
        )
    cols = [
        np.broadcast_to(
            np.asarray(_eval(expr, x, w, i + 1), dtype=float), x.shape[:-1]
        )
        for i, expr in enumerate(model.components)
    ]
    return np.stack(cols, axis=-1)


# --- interval evaluation -----------------------------------------------------

_TWO_PI = 2.0 * math.pi


def _has_extremum(lo: float, hi: float, at: float) -> bool:
    # Is there an integer k with at + 2*pi*k in [lo, hi]?
    return math.ceil((lo - at) / _TWO_PI) <= math.floor((hi - at) / _TWO_PI)


def _sin_interval(lo: float, hi: float) -> tuple[float, float]:
    if hi - lo >= _TWO_PI:
        return (-1.0, 1.0)
    smin = min(math.sin(lo), math.sin(hi))
    smax = max(math.sin(lo), math.sin(hi))
    if _has_extremum(lo, hi, math.pi / 2.0):
        smax = 1.0
    if _has_extremum(lo, hi, -math.pi / 2.0):
        smin = -1.0
    return (smin, smax)


def _pow_interval(lo: float, hi: float, k: int, component: int) -> tuple[float, float]:
    if k == 0:
        return (1.0, 1.0)
    if k < 0:
        if lo <= 0.0 <= hi:
            raise EvaluationError(
                f"component {component}: negative power of an interval containing 0"
            )
        rlo, rhi = 1.0 / hi, 1.0 / lo
        return _pow_interval(rlo, rhi, -k, component)
    if k % 2 == 1:
        return (lo**k, hi**k)
    top = max(abs(lo), abs(hi)) ** k
    bottom = 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi)) ** k
    return (bottom, top)


def _ieval(node: Expr, xbox: Box, wbox: Optional[Box], component: int) -> tuple[float, float]:
    if isinstance(node, Num):
        return (node.value, node.value)
    if isinstance(node, Var):
        box = xbox if node.kind == "x" else wbox
        if box is None:
            raise EvaluationError(
                f"component {component}: {node.kind}{node.index} has no interval"
            )
        ival = box.component(node.index - 1)
        return (ival.lo, ival.hi)
    if isinstance(node, BinOp):
        alo, ahi = _ieval(node.left, xbox, wbox, component)
        blo, bhi = _ieval(node.right, xbox, wbox, component)
        if node.op == "+":
            return (alo + blo, ahi + bhi)
        if node.op == "-":
            return (alo - bhi, ahi - blo)
        if node.op == "*":
            r = Interval(alo, ahi).mul(Interval(blo, bhi))
            return (r.lo, r.hi)
        if blo <= 0.0 <= bhi:
            raise EvaluationError(
                f"component {component}: division by an interval containing 0"
            )
        r = Interval(alo, ahi).mul(Interval(1.0 / bhi, 1.0 / blo))
        return (r.lo, r.hi)
    if isinstance(node, Pow):
        lo, hi = _ieval(node.base, xbox, wbox, component)
        return _pow_interval(lo, hi, node.exponent, component)
    if isinstance(node, Neg):
        lo, hi = _ieval(node.operand, xbox, wbox, component)
        return (-hi, -lo)
    if isinstance(node, Call):
        lo, hi = _ieval(node.arg, xbox, wbox, component)
        if node.func == "sin":
            return _sin_interval(lo, hi)
        if node.func == "cos":
            return _sin_interval(lo + math.pi / 2.0, hi + math.pi / 2.0)
        if node.func == "exp":
            return (math.exp(lo), math.exp(hi))
        if node.func == "sqrt":
            if lo < 0.0:
                raise EvaluationError(
                    f"component {component}: sqrt of an interval below 0"
                )
            return (math.sqrt(lo), math.sqrt(hi))
        if node.func == "abs":
            top = max(abs(lo), abs(hi))
            bottom = 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi))
            return (bottom, top)
    raise TypeError(f"unknown node type {type(node)!r}")


def interval_extension(expr: Expr, xbox: Box, wbox: Optional[Box] = None) -> Interval:
    """Interval enclosing the range of expr over xbox (and wbox, if given)."""
    lo, hi = _ieval(expr, xbox, wbox, component=0)
    return Interval(lo, hi)


# --- posteriors --------------------------------------------------------------


def posterior_f(model: DynamicsModel, q: Box) -> Box:
    """Over-approximation of the noise-free image {g(x) : x in q}.

    Exact when g is affine in x; conservative otherwise.
    """
    if model.g_components is None:
        raise ValueError("posterior_f requires an additive or multiplicative model")
    if q.dim != model.n:
        raise ValueError(f"region dimension {q.dim} != model dimension {model.n}")
    return Box(
        tuple(
            interval_extension(g, q, None) for g in model.g_components
        )
    )


def combine_posterior(structure: str, postf: Box, c: Box) -> Box:
    """Posterior of a region from its noise-free image and a noise cell."""
    if structure == ADDITIVE:
        return Box(
            tuple(p.add(ci) for p, ci in zip(postf.intervals, c.intervals))
        )
    if structure == MULTIPLICATIVE:
        return Box(
            tuple(p.mul(ci) for p, ci in zip(postf.intervals, c.intervals))
        )
    raise ValueError(f"cannot combine posteriors for structure {structure!r}")


def posterior(model: DynamicsModel, q: Box, c: Box) -> Box:
    """Over-approximation of Post(q, c) = {f(x, w) : x in q, w in c}."""
    if c.dim != model.n:
        raise ValueError(f"noise cell dimension {c.dim} != model dimension {model.n}")
    if model.structure in (ADDITIVE, MULTIPLICATIVE):
        return combine_posterior(model.structure, posterior_f(model, q), c)
    return Box(
        tuple(
            interval_extension(expr, q, c) for expr in model.components
        )
    )
