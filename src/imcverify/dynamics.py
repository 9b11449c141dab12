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

The one interval evaluator, ``enclosure``, works on endpoint arrays over a
whole batch of boxes, and ``combine_posterior`` puts noise cells onto the
noise-free images it gives; one box is a batch of one. A structured model
keeps only its full expressions: its noise-free image g(q) is their
enclosure with the noise fixed at the identity, 0 for additive and 1 for
multiplicative noise. A non-finite enclosure (an overflow, say), a
division by an interval containing 0, a negative power of one and sqrt
below 0 raise EvaluationError naming the component, whichever box of the
batch they occur in.
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

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z]+\d*")


class _Token(NamedTuple):
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
            expr = _extract_structured(expr, comp, structure)
        components.append(expr)
    return DynamicsModel(n=n, structure=structure, components=tuple(components))


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
            np.asarray(_eval(expr, x, w, i + 1), dtype=float), x.shape[:-1]
        )
        for i, expr in enumerate(model.components)
    ]
    return np.moveaxis(np.stack(cols), 0, -1)


# --- interval evaluation -----------------------------------------------------

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


def _abs_interval(lo, hi):
    alo, ahi = np.abs(lo), np.abs(hi)
    return np.where((lo <= 0.0) & (0.0 <= hi), 0.0, np.minimum(alo, ahi)), np.maximum(alo, ahi)


def _pow_interval(lo, hi, k: int, component: int):
    """x^k is monotone on an interval of one sign and for odd k; an even
    power of an interval that holds 0 has its minimum there."""
    if k == 0:
        return 1.0, 1.0
    holds_zero = (lo <= 0.0) & (0.0 <= hi)
    if k < 0 and np.any(holds_zero):
        raise EvaluationError(f"component {component}: negative power of an interval containing 0")
    low, high = _hull([np.power(lo, k), np.power(hi, k)])
    return (np.where(holds_zero, 0.0, low) if k % 2 == 0 else low), high


def _ieval(node: Expr, x, w, component: int):
    """Natural interval extension of node over the boxes x (and w)."""
    if isinstance(node, Num):
        return node.value, node.value
    if isinstance(node, Var):
        box = x if node.kind == "x" else w
        if box is None:
            raise EvaluationError(
                f"component {component}: {node.kind}{node.index} has no interval"
            )
        return box[0][..., node.index - 1], box[1][..., node.index - 1]
    if isinstance(node, BinOp):
        alo, ahi = _ieval(node.left, x, w, component)
        blo, bhi = _ieval(node.right, x, w, component)
        if node.op == "+":
            return alo + blo, ahi + bhi
        if node.op == "-":
            return alo - bhi, ahi - blo
        if node.op == "*":
            return _mul((alo, ahi), (blo, bhi))
        if np.any((blo <= 0.0) & (0.0 <= bhi)):
            raise EvaluationError(
                f"component {component}: division by an interval containing 0"
            )
        return _hull([u / v for u in (alo, ahi) for v in (blo, bhi)])
    if isinstance(node, Pow):
        lo, hi = _ieval(node.base, x, w, component)
        return _pow_interval(lo, hi, node.exponent, component)
    if isinstance(node, Neg):
        lo, hi = _ieval(node.operand, x, w, component)
        return -hi, -lo
    if isinstance(node, Call):
        lo, hi = _ieval(node.arg, x, w, component)
        if node.func == "sin":
            return _periodic_interval(np.sin, lo, hi, -math.pi / 2.0, math.pi / 2.0)
        if node.func == "cos":
            return _periodic_interval(np.cos, lo, hi, math.pi, 0.0)
        if node.func == "exp":
            return np.exp(lo), np.exp(hi)
        if node.func == "sqrt":
            if np.any(lo < 0.0):
                raise EvaluationError(
                    f"component {component}: sqrt of an interval below 0"
                )
            return np.sqrt(lo), np.sqrt(hi)
        if node.func == "abs":
            return _abs_interval(lo, hi)
    raise TypeError(f"unknown node type {type(node)!r}")


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
        pairs = [_ieval(expr, x, w, i + 1) for i, expr in enumerate(exprs)]
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
