"""Function oracles: rational expressions over named variables x1..xn,
with an optional single guard value covering a removable-singularity
point.

Grammar (whitespace between tokens is ignored):

    expr     := term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := '-' factor | base ('^' factor)?
    base     := rational | var | '(' expr ')'
    var      := 'x' digits
    rational := digits ('/' digits)? | digits '.' digits

Power binds tighter than unary minus and is right-associative; the other
binary operators are left-associative.  A rational literal uses maximal
munch: "2/3" with no intervening whitespace is one literal, so "2/3^2"
is (2/3)^2, while "2 / 3^2" divides by 3^2.  Exponents must fold to
non-negative integers at parse time.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from ._linalg import frac
from .geometry import PoleError


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class Const:
    value: Fraction


@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Neg:
    arg: "Expression"


@dataclass(frozen=True)
class Add:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Sub:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Mul:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Div:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Pow:
    base: "Expression"
    exponent: int


Expression = Union[Const, Var, Neg, Add, Sub, Mul, Div, Pow]


# ---------------------------------------------------------------------------
# parser

_LITERAL = re.compile(r"([0-9]+)(?:\.([0-9]*)|/([0-9]+))?")
_INDEX = re.compile(r"[0-9]*")
_SUMS = {"+": Add, "-": Sub}
_PRODUCTS = {"*": Mul, "/": Div}


class _Parser:
    """One recursive-descent pass over the text; `pos` is the offset of the
    next unread character."""

    def __init__(self, text: str, dimension: int):
        self.text = text
        self.pos = 0
        self.n = dimension

    def peek(self) -> tuple[str, int]:
        """Skips whitespace and classifies the next character without
        consuming it: 'number', 'x', an operator character, 'bad' or 'end'."""
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos == len(self.text):
            return "end", self.pos
        ch = self.text[self.pos]
        if ch in "0123456789":
            return "number", self.pos
        return (ch if ch in "x+-*/^()" else "bad"), self.pos

    def chain(self, operand, ops: dict) -> Expression:
        """operand (op operand)*, grouped to the left."""
        e = operand()
        while (kind := self.peek()[0]) in ops:
            self.pos += 1
            e = ops[kind](e, operand())
        return e

    def term(self) -> Expression:
        return self.chain(self.factor, _PRODUCTS)

    def factor(self) -> Expression:
        kind, pos = self.peek()
        if kind == "-":
            self.pos += 1
            return Neg(self.factor())
        if kind == "(":
            self.pos += 1
            base = self.chain(self.term, _SUMS)
            kind, pos = self.peek()
            if kind != ")":
                raise ParseError("expected ')'", pos)
            self.pos += 1
        else:
            base = self.atom(kind, pos)
        if self.peek()[0] != "^":
            return base
        self.pos += 1
        exp_pos = self.peek()[1]
        value = constant_value(self.factor())
        if value is None:
            raise ParseError("exponent must be a constant", exp_pos)
        if value.denominator != 1 or value < 0:
            raise ParseError("exponent must be a non-negative integer", exp_pos)
        return Pow(base, int(value))

    def atom(self, kind: str, pos: int) -> Expression:
        """The literal or variable that starts at pos."""
        if kind == "number":
            m = _LITERAL.match(self.text, pos)
            self.pos = m.end()
            whole, decimals, denominator = m.groups()
            if decimals == "":
                raise ParseError("expected digits after decimal point", self.pos)
            if decimals:
                return Const(Fraction(f"{whole}.{decimals}"))
            if denominator and not int(denominator):
                raise ParseError("rational literal with zero denominator", pos)
            return Const(Fraction(int(whole), int(denominator or 1)))
        if kind == "x":
            m = _INDEX.match(self.text, pos + 1)
            self.pos = m.end()
            if not m.group():
                raise ParseError("expected a variable index after 'x'", self.pos)
            index = int(m.group())
            if index < 1:
                raise ParseError("variable indices start at x1", pos)
            if index > self.n:
                raise ParseError(f"variable x{index} exceeds dimension {self.n}", pos)
            return Var(index)
        raise ParseError("unknown identifier" if kind == "bad" else "expected an operand", pos)


def parse_expression(text: str, dimension: int) -> Expression:
    if dimension < 1:
        raise OracleError("dimension must be at least 1")
    parser = _Parser(text, dimension)
    try:
        e = parser.chain(parser.term, _SUMS)
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.pos) from None
    kind, pos = parser.peek()
    if kind != "end":
        raise ParseError("unexpected trailing input", pos)
    return e


# ---------------------------------------------------------------------------
# compiled programs

# A program is a tuple of ops (kind, args, payload), operands first: kind is
# the node class, args are the slots of its operands, and payload is the
# constant, the variable index, the exponent, or None.
Program = tuple
_BINARY = frozenset((Add, Sub, Mul, Div))
_READY = object()  # on compile_expression's stack: the node below has compiled operands


def compile_expression(e: Expression) -> Program:
    """The expression as a hash-consed post-order program, left operands
    before right ones.  Structurally equal subtrees share one op, so the
    |y|^2 that an inversion pullback repeats for every variable is one op.
    This is the only place that dispatches on node types.  The walk keeps
    its own stack, so tree depth is limited by memory, not by recursion."""
    ops: list = []
    slots: dict = {}
    seen: dict[int, int] = {}  # id(node) -> slot, for trees that share nodes
    stack = [e]
    pop, ready = stack.pop, _READY
    while stack:
        node = pop()
        if node is ready:
            node = pop()
            kind = type(node)
            if kind is Pow:
                op = (Pow, (seen[id(node.base)],), node.exponent)
            elif kind is Neg:
                op = (Neg, (seen[id(node.arg)],), None)
            else:
                op = (kind, (seen[id(node.left)], seen[id(node.right)]), None)
        else:
            if id(node) in seen:
                continue
            kind = type(node)
            # operands go above the marker, the left one on top
            if kind in _BINARY:
                stack += (node, ready, node.right, node.left)
                continue
            if kind is Pow:
                stack += (node, ready, node.base)
                continue
            if kind is Neg:
                stack += (node, ready, node.arg)
                continue
            if kind is Const:
                op = (Const, (), node.value)
            elif kind is Var:
                op = (Var, (), node.index)
            else:
                raise TypeError(f"not an expression node: {node!r}")
        slot = slots.setdefault(op, len(ops))
        if slot == len(ops):
            ops.append(op)
        seen[id(node)] = slot
    return tuple(ops)


def fold(program: Program, algebra: dict) -> list:
    """Run the program in an algebra.  algebra[kind] is called the way the
    node class is: with the operand values, then the payload if there is
    one.  Returns every op's value in program order; the root's is last."""
    values: list = []
    push = values.append
    for kind, args, payload in program:
        step = algebra[kind]
        if len(args) == 2:
            push(step(values[args[0]], values[args[1]]))
        elif not args:
            push(step(payload))
        elif payload is None:
            push(step(values[args[0]]))
        else:
            push(step(values[args[0]], payload))
    return values


# ---------------------------------------------------------------------------
# printing

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_NEG, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _wrap(operand: tuple[str, int], minimum: int) -> str:
    text, level = operand
    return f"({text})" if level < minimum else text


def _infix(symbol: str, level: int, right_minimum: int):
    return lambda a, b: (f"{_wrap(a, level)} {symbol} {_wrap(b, right_minimum)}", level)


_TEXT = {  # values: (text, precedence level); a p/q literal binds like a quotient
    Const: lambda v: (str(v), _LEVEL_ATOM if v.denominator == 1 else _LEVEL_MUL),
    Var: lambda i: (f"x{i}", _LEVEL_ATOM),
    Neg: lambda a: ("-" + _wrap(a, _LEVEL_NEG), _LEVEL_NEG),
    Add: _infix("+", _LEVEL_ADD, _LEVEL_MUL),
    Sub: _infix("-", _LEVEL_ADD, _LEVEL_MUL),
    Mul: _infix("*", _LEVEL_MUL, _LEVEL_NEG),
    Div: _infix("/", _LEVEL_MUL, _LEVEL_NEG),
    Pow: lambda a, k: (f"{_wrap(a, _LEVEL_ATOM)}^{k}", _LEVEL_POW),
}


def to_text(e: Expression) -> str:
    """Canonical rendering; parsing the output reproduces any parser-built
    tree.  Division is spaced ("a / b") so it never fuses with adjacent
    digits into a rational literal; only literals print as "p/q"."""
    return fold(compile_expression(e), _TEXT)[-1][0]


# ---------------------------------------------------------------------------
# analysis, substitution and evaluation

def _defined(op):
    return lambda *xs: None if None in xs else op(*xs)


_CONSTANT = {  # values: the rational value, or None
    Const: lambda v: v,
    Var: lambda i: None,
    Neg: _defined(operator.neg),
    Add: _defined(operator.add),
    Sub: _defined(operator.sub),
    Mul: _defined(operator.mul),
    Div: lambda a, b: None if a is None or not b else a / b,
    Pow: _defined(operator.pow),
}

_DEGREE = {
    Const: lambda v: 0,
    Var: lambda i: 1,
    Neg: lambda a: a,
    Add: max,
    Sub: max,
    Mul: operator.add,
    Div: lambda a, b: a,
    Pow: operator.mul,
}


def constant_value(e: Expression) -> Fraction | None:
    """Fold to a rational constant, or None when variables occur or a
    constant subexpression divides by zero."""
    return fold(compile_expression(e), _CONSTANT)[-1]


def degree_bound(e: Expression) -> int | None:
    """Total-degree bound when e is polynomial (all divisors fold to nonzero
    constants); None otherwise."""
    program = compile_expression(e)
    constants = fold(program, _CONSTANT)
    if any(kind is Div and not constants[args[1]] for kind, args, _ in program):
        return None
    return fold(program, _DEGREE)[-1]


def substitute(e: Expression, mapping: dict[int, Expression]) -> Expression:
    """Replace variables by expressions (indices absent from the mapping are
    kept).  Subexpressions shared in the program stay shared in the result."""
    rebuild = {kind: kind for kind in (Const, Neg, Add, Sub, Mul, Div, Pow)}
    return fold(compile_expression(e), {**rebuild, Var: lambda i: mapping.get(i, Var(i))})[-1]


# Python's operators on the operand values: exact evaluation over Fractions,
# and the base of the float algebra and of its grid form (evaluate_grid).  A
# division by an exact zero raises ZeroDivisionError for Fractions and floats
# alike.
ARITHMETIC = {
    Const: lambda v: v,
    Neg: operator.neg,
    Add: operator.add,
    Sub: operator.sub,
    Mul: operator.mul,
    Div: operator.truediv,
    Pow: operator.pow,
}


def to_float(value) -> float:
    """float(value), going to +-inf beyond binary64 range as a product does."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _float_pow(a: float, k: int) -> float:
    try:
        return a**k
    except OverflowError:
        return math.copysign(math.inf, a) if k % 2 else math.inf


_FLOAT = {**ARITHMETIC, Const: to_float, Pow: _float_pow}


def _pow_each(a, k: int):
    """_float_pow on every element of an array (or on one float).  numpy's
    a**k rounds differently from Python's float ** k on a few percent of
    inputs, so each element takes Python's operation."""
    if not isinstance(a, np.ndarray):
        return _float_pow(a, k)
    xs = a.tolist()
    try:
        return np.array([x**k for x in xs])
    except OverflowError:
        return np.array([_float_pow(x, k) for x in xs])


def evaluate_grid(f: FunctionOracle, coords: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """Float evaluation at many points at once: coords holds one array per
    coordinate, all of one shape.  Returns the values and a boolean mask of
    the points where a divisor was exactly zero, which evaluate_oracle
    reports as a PoleError; values there mean nothing.  Every other value
    has the bits of evaluate_oracle(f, point, "float") at that point:
    + - * / are one elementwise float64 operation each, which rounds as
    Python's scalar operation does, constant subexpressions stay Python
    floats, a power goes element by element, and points on the guard point
    take the guard value."""
    if len(coords) != f.dimension:
        raise OracleError(f"got {len(coords)} coordinate arrays, oracle dimension is {f.dimension}")
    arrays = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in coords))
    shape = arrays[0].shape
    flat = [a.ravel() for a in arrays]  # 1-d, so no operation returns a numpy scalar
    pole = np.zeros(flat[0].size, dtype=bool)

    def divide(a, b):
        if isinstance(b, np.ndarray):
            pole[b == 0.0] = True
        elif b == 0.0:
            pole[:] = True
            return math.nan
        return a / b

    algebra = {**_FLOAT, Var: lambda i: flat[i - 1], Div: divide, Pow: _pow_each}
    with np.errstate(all="ignore"):
        value = fold(f.program, algebra)[-1]
    values = np.array(np.broadcast_to(value, pole.shape))  # a copy: for "x1", value is flat[0]
    if f.guard is not None:
        point, guard_value = f.guard
        on_guard = np.logical_and.reduce([c == float(g) for c, g in zip(flat, point)])
        values[on_guard] = float(guard_value)
        pole[on_guard] = False
    return values.reshape(shape), pole.reshape(shape)


@dataclass(frozen=True)
class FunctionOracle:
    """A rational expression in n variables with an optional guard: a single
    point where the expression may be undefined but the function value is
    pinned explicitly.  `program` holds the compiled expression."""

    expression: Expression
    dimension: int
    guard: tuple[tuple[Fraction, ...], Fraction] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "program", compile_expression(self.expression))
        if self.guard is not None:
            point, value = self.guard
            point = tuple(frac(x) for x in point)
            if len(point) != self.dimension:
                raise OracleError("guard point dimension mismatch")
            object.__setattr__(self, "guard", (point, frac(value)))

    def evaluate(self, point: Sequence, mode: str = "exact"):
        return evaluate_oracle(self, point, mode)

    def __call__(self, point: Sequence):
        return evaluate_oracle(self, point, "exact")


def oracle_from_text(text: str, dimension: int, guard=None) -> FunctionOracle:
    expr = parse_expression(text, dimension)
    return FunctionOracle(expr, dimension, guard)


def evaluate_oracle(f: FunctionOracle, point: Sequence, mode: str = "exact"):
    """Evaluate with the guard applied first.  Exact mode coerces the point
    to Fractions and returns a Fraction; float mode works in binary64 and
    matches the guard on exact input bits."""
    if len(point) != f.dimension:
        raise OracleError(
            f"point has length {len(point)}, oracle dimension is {f.dimension}"
        )
    if mode == "exact":
        p = tuple(map(frac, point))
        if f.guard is not None and p == f.guard[0]:
            return f.guard[1]
        algebra = ARITHMETIC
    elif mode == "float":
        p = tuple(map(float, point))
        if f.guard is not None and p == tuple(map(float, f.guard[0])):
            return float(f.guard[1])
        algebra = _FLOAT
    else:
        raise OracleError(f"unknown evaluation mode {mode!r}")
    try:
        return fold(f.program, {**algebra, Var: lambda i: p[i - 1]})[-1]
    except ZeroDivisionError:
        raise PoleError("division by zero", p) from None


def translate(f: FunctionOracle, base: Sequence) -> FunctionOracle:
    """The oracle g(x) = f(base + x); the guard point moves with it."""
    b = tuple(frac(x) for x in base)
    if len(b) != f.dimension:
        raise OracleError("translation vector dimension mismatch")
    mapping = {
        i + 1: (Add(Var(i + 1), Const(b[i])) if b[i] != 0 else Var(i + 1))
        for i in range(f.dimension)
    }
    expr = substitute(f.expression, mapping)
    guard = None
    if f.guard is not None:
        point, value = f.guard
        guard = (tuple(x - y for x, y in zip(point, b)), value)
    return FunctionOracle(expr, f.dimension, guard)


def builtin_counterexample(name: str, dimension: int = 3) -> FunctionOracle:
    """The two standard stress oracles.

    "hartogs-f" (any n >= 2): product of coordinates over the sum of 2n-th
    powers, guarded to 0 at the origin.  Restricted to any translate of a
    coordinate hyperplane it is real analytic, yet it is unbounded near the
    origin along the diagonal.

    "curve-g" (n = 3): analytic along every nonsingular analytic curve but
    discontinuous at the origin, blowing up along a cusp.
    """
    if name == "hartogs-f":
        n = dimension
        if n < 2:
            raise OracleError("hartogs-f needs dimension at least 2")
        num = "*".join(f"x{i}" for i in range(1, n + 1))
        den = " + ".join(f"x{i}^{2 * n}" for i in range(1, n + 1))
        return oracle_from_text(f"({num})/({den})", n, guard=((0,) * n, 0))
    if name == "curve-g":
        if dimension != 3:
            raise OracleError("curve-g is defined in dimension 3")
        text = (
            "(x1^8 + x2*(x1^2 - x2^3)^2 + x3^4)"
            "/(x1^10 + (x1^2 - x2^3)^2 + x3^2)"
        )
        return oracle_from_text(text, 3, guard=((0, 0, 0), 0))
    raise OracleError(f"unknown builtin oracle {name!r}")
