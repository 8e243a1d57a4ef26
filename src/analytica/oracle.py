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

The parser, the eight constructors (Const, Var, Neg, Add, Sub, Mul, Div,
Pow) and `substitute` all build one representation, a hash-consed program
(see Expression), and every analysis is a `fold` of it.  `fold_fraction`
folds a program into an unreduced numerator over a factored denominator,
a product of powers of divisor atoms, over a `FractionRing`; chart
pullbacks (`certify`) and the line-series fallback (`taylor`) are its
rings.  Exact evaluation folds over Fractions, and
`evaluate_grid` is the one float evaluation: the Chebyshev fit, the valley
walk, the tower's diagnostic lines and `evaluate_oracle`'s float mode all
run it.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ._linalg import frac
from .geometry import PoleError


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class OracleError(ValueError):
    pass


# ---------------------------------------------------------------------------
# expressions

# An expression is a program: a tuple of ops (kind, args, payload) in post
# order, left operand before right.  kind is one of the eight constructors
# below, args are the slots of the op's operands, and payload is the
# constant, the variable index, the exponent, or None.  The root is the last
# op.  Programs are hash-consed: no op occurs twice, so structurally equal
# subexpressions share one slot, and the |y|^2 that an inversion pullback
# repeats for every variable is one op.
Expression = tuple


def _operand(e) -> Expression:
    if not isinstance(e, tuple) or not e:
        raise TypeError(f"not an expression: {e!r}")
    return e


def _emit(table: dict, kind, args: tuple, payload=None) -> int:
    """The slot of an op in an intern table, which maps each op to its slot
    and so holds the program in its key order; a new op is appended."""
    return table.setdefault((kind, args, payload), len(table))


def _splice(table: dict, e: Expression, mapping: dict) -> int:
    """Emit the ops of e into the table, with Var(i) replaced by the
    expression mapping[i] where there is one; returns the slot of e's root."""
    slots: list[int] = []
    for kind, args, payload in _operand(e):
        if kind is Var and payload in mapping:
            slots.append(_splice(table, mapping[payload], {}))
        else:
            slots.append(_emit(table, kind, tuple(slots[j] for j in args), payload))
    return slots[-1]


def Const(value: Fraction) -> Expression:
    return ((Const, (), value),)


def Var(index: int) -> Expression:
    """The variable x<index>; indices are 1-based."""
    return ((Var, (), index),)


def Neg(arg: Expression) -> Expression:
    # no op of arg reads its root, so a unary op is always new
    return _operand(arg) + ((Neg, (len(arg) - 1,), None),)


def Pow(base: Expression, exponent: int) -> Expression:
    return _operand(base) + ((Pow, (len(base) - 1,), exponent),)


def _join(kind, left: Expression, right: Expression) -> Expression:
    table: dict = {}
    _emit(table, kind, (_splice(table, left, {}), _splice(table, right, {})))
    return tuple(table)


def Add(left: Expression, right: Expression) -> Expression:
    return _join(Add, left, right)


def Sub(left: Expression, right: Expression) -> Expression:
    return _join(Sub, left, right)


def Mul(left: Expression, right: Expression) -> Expression:
    return _join(Mul, left, right)


def Div(left: Expression, right: Expression) -> Expression:
    return _join(Div, left, right)


# ---------------------------------------------------------------------------
# parser

_LITERAL = re.compile(r"([0-9]+)(?:\.([0-9]*)|/([0-9]+))?")
_INDEX = re.compile(r"[0-9]*")
_SUMS = {"+": Add, "-": Sub}
_PRODUCTS = {"*": Mul, "/": Div}


class _Parser:
    """One recursive-descent pass over the text that emits the program into
    one table; `pos` is the offset of the next unread character.  The
    parsing methods return slots in the table."""

    def __init__(self, text: str, dimension: int):
        self.text = text
        self.pos = 0
        self.n = dimension
        self.table: dict = {}

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

    def chain(self, operand, ops: dict) -> int:
        """operand (op operand)*, grouped to the left."""
        e = operand()
        while (kind := self.peek()[0]) in ops:
            self.pos += 1
            e = _emit(self.table, ops[kind], (e, operand()))
        return e

    def term(self) -> int:
        return self.chain(self.factor, _PRODUCTS)

    def factor(self) -> int:
        kind, pos = self.peek()
        if kind == "-":
            self.pos += 1
            return _emit(self.table, Neg, (self.factor(),))
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
        # the exponent is folded in a table of its own, so it leaves no ops behind
        table, self.table = self.table, {}
        self.factor()
        value = constant_value(tuple(self.table))
        self.table = table
        if value is None:
            raise ParseError("exponent must be a constant", exp_pos)
        if value.denominator != 1 or value < 0:
            raise ParseError("exponent must be a non-negative integer", exp_pos)
        return _emit(table, Pow, (base,), int(value))

    def atom(self, kind: str, pos: int) -> int:
        """The literal or variable that starts at pos."""
        if kind == "number":
            m = _LITERAL.match(self.text, pos)
            self.pos = m.end()
            whole, decimals, denominator = m.groups()
            if decimals == "":
                raise ParseError("expected digits after decimal point", self.pos)
            if decimals:
                value = Fraction(f"{whole}.{decimals}")
            elif denominator and not int(denominator):
                raise ParseError("rational literal with zero denominator", pos)
            else:
                value = Fraction(int(whole), int(denominator or 1))
            return _emit(self.table, Const, (), value)
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
            return _emit(self.table, Var, (), index)
        raise ParseError("unknown identifier" if kind == "bad" else "expected an operand", pos)


def parse_expression(text: str, dimension: int) -> Expression:
    if dimension < 1:
        raise OracleError("dimension must be at least 1")
    parser = _Parser(text, dimension)
    try:
        parser.chain(parser.term, _SUMS)
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.pos) from None
    kind, pos = parser.peek()
    if kind != "end":
        raise ParseError("unexpected trailing input", pos)
    return tuple(parser.table)


# ---------------------------------------------------------------------------
# folding

def fold(e: Expression, algebra: dict) -> list:
    """Run the program in an algebra.  algebra[kind] is called the way the
    constructor is: with the operand values, then the payload if there is
    one.  Returns every op's value in program order; the root's is last."""
    values: list = []
    push = values.append
    for kind, args, payload in e:
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


class FractionRing(NamedTuple):
    """The coefficient operations of one pass of `fold_fraction`: a
    polynomial in the restriction's coordinates and how to add, negate and
    multiply two of them.  `const` and `var` return a (numerator,
    denominator) pair whose denominator is `one` itself where there is
    none, and `divisor` sees the numerator of every divisor before it
    becomes an atom of a denominator."""

    one: object
    const: Callable  # Fraction -> (numerator, denominator)
    var: Callable  # variable index -> (numerator, denominator)
    add: Callable
    neg: Callable
    mul: Callable
    divisor: Callable = lambda d: d


def _ring_power(ring: FractionRing, p, k: int):
    """p**k in the ring by repeated squaring; k >= 1."""
    if k == 1:
        return p
    half = _ring_power(ring, ring.mul(p, p), k // 2)
    return ring.mul(half, p) if k % 2 else half


def multiply_out(ring: FractionRing, factors) -> object:
    """The product of the (atom, power) pairs in the ring; `one` for none."""
    terms = [_ring_power(ring, atom, k) for atom, k in factors]
    return reduce(ring.mul, terms) if terms else ring.one


def fold_fraction(e: Expression, ring: FractionRing):
    """The program as one fraction in the ring's polynomials, with a
    factored denominator: returns (numerator, factors), where factors is a
    tuple of (atom, power) pairs whose product (`multiply_out`) is the
    denominator.  An atom is the numerator of a divisor, through
    `ring.divisor`, keyed by the divisor's program slot, or the
    denominator of a constant or a variable that is not `ring.one`.

    A denominator is a Counter of atom powers.  A sum brings both
    numerators over the lcm of the powers, each multiplied by the powers
    the other side has more of; a product adds the powers; a quotient
    cancels the divisor's powers against the dividend's, multiplies what is
    left into the numerator and adds the divisor's atom; a power scales the
    powers.  No gcd is taken, so the fraction is unreduced, but a divisor
    the program repeats is one atom whose powers do not pile up: an
    inversion pullback divides every variable by the same |y|^2, which is
    one op.  Exponents are non-negative, as `FunctionOracle` checks."""
    atoms: dict = {}
    raised: dict = {}  # (key, k) -> the atom to the power k
    leaves = itertools.count(-1, -1)  # keys apart from the program's slots
    divisors = iter([args[1] for kind, args, _ in e if kind is Div])  # in the order fold runs them

    def over(n, powers: Counter):
        """n times each atom to its power."""
        for key, k in powers.items():
            if (key, k) not in raised:
                raised[key, k] = _ring_power(ring, atoms[key], k)
            n = ring.mul(raised[key, k], n)
        return n

    def leaf(pair):
        n, d = pair
        if d is ring.one:
            return n, Counter()
        key = next(leaves)
        atoms[key] = d
        return n, Counter({key: 1})

    def add(negate):
        def step(a, b):
            (n1, d1), (n2, d2) = a, b
            n2 = over(n2, d1 - d2)
            return ring.add(over(n1, d2 - d1), ring.neg(n2) if negate else n2), d1 | d2

        return step

    def div(a, b):
        (n1, d1), (n2, d2) = a, b
        key = next(divisors)
        if key not in atoms:
            atoms[key] = ring.divisor(n2)
        return over(n1, d2 - d1), d1 - d2 + Counter({key: 1})

    def power(a, k):
        if not k:
            return ring.one, Counter()
        return _ring_power(ring, a[0], k), Counter({key: p * k for key, p in a[1].items()})

    algebra = {
        Const: lambda v: leaf(ring.const(v)),
        Var: lambda i: leaf(ring.var(i)),
        Neg: lambda a: (ring.neg(a[0]), a[1]),
        Add: add(False),
        Sub: add(True),
        Mul: lambda a, b: (ring.mul(a[0], b[0]), a[1] + b[1]),
        Div: div,
        Pow: power,
    }
    n, d = fold(e, algebra)[-1]
    return n, tuple((atoms[key], k) for key, k in d.items())


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
    program.  Division is spaced ("a / b") so it never fuses with adjacent
    digits into a rational literal; only literals print as "p/q"."""
    return fold(e, _TEXT)[-1][0]


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
    return fold(e, _CONSTANT)[-1]


def degree_bound(e: Expression) -> int | None:
    """Total-degree bound when e is polynomial (all divisors fold to nonzero
    constants); None otherwise."""
    constants = fold(e, _CONSTANT)
    if any(kind is Div and not constants[args[1]] for kind, args, _ in e):
        return None
    return fold(e, _DEGREE)[-1]


def substitute(e: Expression, mapping: dict[int, Expression]) -> Expression:
    """Replace variables by expressions (indices absent from the mapping are
    kept), in one pass that emits the result into one table."""
    table: dict = {}
    _splice(table, e, mapping)
    return tuple(table)


# Python's operators on the operand values: exact evaluation runs them over
# Fractions, where a division by zero raises ZeroDivisionError, and
# evaluate_grid, the float evaluation, replaces the constants, the division
# and the power.
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
    """The float evaluation of a program, at many points at once: coords
    holds one array (or float) per coordinate, broadcast to one shape.
    Returns the values and a boolean mask of the points where a divisor was
    exactly zero, the poles; values there mean nothing.  A value is what
    Python's scalar float arithmetic gives at that point: + - * / are one
    elementwise float64 operation each, which rounds as Python's scalar
    operation does, constant subexpressions stay Python floats, a power
    goes element by element through Python's float ** k, a constant or a
    power beyond binary64 range is +-inf, and a point whose coordinates
    equal the guard point's takes the guard value and is no pole."""
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

    algebra = {**ARITHMETIC, Const: to_float, Var: lambda i: flat[i - 1], Div: divide, Pow: _pow_each}
    with np.errstate(all="ignore"):
        value = fold(f.expression, algebra)[-1]
    values = np.array(np.broadcast_to(value, pole.shape))  # a copy: for "x1", value is flat[0]
    if f.guard is not None:
        point, guard_value = f.guard
        on_guard = np.logical_and.reduce([c == float(g) for c, g in zip(flat, point)])
        values[on_guard] = float(guard_value)
        pole[on_guard] = False
    return values.reshape(shape), pole.reshape(shape)


@dataclass(frozen=True)
class FunctionOracle:
    """A rational expression (a program) in n variables with an optional
    guard: a single point where the expression may be undefined but the
    function value is pinned explicitly."""

    expression: Expression
    dimension: int
    guard: tuple[tuple[Fraction, ...], Fraction] | None = None

    def __post_init__(self) -> None:
        _operand(self.expression)
        # the parser refuses these; a program built in code may carry one
        for kind, _, k in self.expression:
            if kind is Pow and not (isinstance(k, int) and k >= 0):
                raise OracleError(f"exponent {k!r}: a negative exponent or a non-integer one is refused")
            if kind is Var and not (isinstance(k, int) and 1 <= k <= self.dimension):
                raise OracleError(f"variable index {k!r} is outside 1..{self.dimension}")
        if self.guard is not None:
            point, value = self.guard
            point = tuple(frac(x) for x in point)
            if len(point) != self.dimension:
                raise OracleError("guard point dimension mismatch")
            object.__setattr__(self, "guard", (point, frac(value)))

    def __repr__(self) -> str:
        # the program's op kinds are functions, whose reprs carry addresses
        return (
            f"FunctionOracle(expression={to_text(self.expression)!r}, dimension={self.dimension}, "
            f"guard={self.guard!r})"
        )

    def evaluate(self, point: Sequence, mode: str = "exact"):
        return evaluate_oracle(self, point, mode)

    def __call__(self, point: Sequence):
        return evaluate_oracle(self, point, "exact")


def oracle_from_text(text: str, dimension: int, guard=None) -> FunctionOracle:
    expr = parse_expression(text, dimension)
    return FunctionOracle(expr, dimension, guard)


def evaluate_oracle(f: FunctionOracle, point: Sequence, mode: str = "exact"):
    """Evaluate with the guard applied first.  Exact mode coerces the point
    to Fractions and returns a Fraction; float mode is evaluate_grid at the
    point's floats and returns a float.  A pole raises PoleError with the
    point, as Fractions or as floats."""
    if len(point) != f.dimension:
        raise OracleError(
            f"point has length {len(point)}, oracle dimension is {f.dimension}"
        )
    if mode == "float":
        p = tuple(map(float, point))
        values, pole = evaluate_grid(f, p)
        if pole:
            raise PoleError("division by zero", p)
        return float(values)
    if mode != "exact":
        raise OracleError(f"unknown evaluation mode {mode!r}")
    p = tuple(map(frac, point))
    if f.guard is not None and p == f.guard[0]:
        return f.guard[1]
    try:
        return fold(f.expression, {**ARITHMETIC, Var: lambda i: p[i - 1]})[-1]
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
