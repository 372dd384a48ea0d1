"""Expression language for candidate distributions.

Candidates are real-valued functions of a complex overlap z, written in
terms of r = |z|, phi = arg(z), re = Re(z), im = Im(z).  Grammar (LL(1),
also published in docs/grammar.ebnf):

    expr    = term { ("+" | "-") term } ;
    term    = factor { ("*" | "/") factor } ;
    factor  = "-" factor | power ;
    power   = atom [ "^" factor ] ;
    atom    = NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")" ;

"^" is right-associative and binds tighter than unary minus, which binds
tighter than "*" and "/".  Known identifiers: variables r, phi, re, im;
constants pi, e; unary functions abs, sqrt, sin, cos, exp, ln.  A candidate
holds at most MAX_TOKENS tokens and MAX_NESTING levels of nesting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Union

import numpy as np

from .errors import EvalError, ParseError, UnknownNameError

VARIABLES = ("r", "phi", "re", "im")
CONSTANTS = {"pi": math.pi, "e": math.e}
FUNCTIONS = ("abs", "sqrt", "sin", "cos", "exp", "ln")
# The parser recurses once per level of nesting (a parenthesis, call, unary
# minus or "^" exponent inside another); _eval, _compile and pretty once per
# tree level, and a tree is at most MAX_NESTING + MAX_TOKENS / 2 levels deep.
MAX_NESTING = 100
MAX_TOKENS = 1000


class _Node:
    """A syntax-tree node.  Equality, hashing and repr walk the tree with a
    stack of their own: the dataclass-generated methods recurse two to three
    interpreter levels per tree level, past the recursion limit for the
    deepest trees that parse.  Two trees are equal when they have the same
    node classes and the same field values, in the same places."""

    __slots__ = ()

    def _fields(self) -> list:
        return [getattr(self, f.name) for f in fields(self)]

    def _preorder(self) -> tuple:
        """Each node's class and non-node fields, in preorder: since each
        class has a fixed number of children, this determines the tree."""
        flat, stack = [], [self]
        while stack:
            node = stack.pop()
            values = node._fields()
            flat.append((type(node), *(v for v in values if not isinstance(v, _Node))))
            stack.extend(v for v in reversed(values) if isinstance(v, _Node))
        return tuple(flat)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._preorder() == other._preorder()

    def __hash__(self):
        return hash(self._preorder())

    def __repr__(self) -> str:
        done, stack = [], [(self, False)]  # done: the reprs of finished subtrees
        while stack:
            node, expanded = stack.pop()
            values = node._fields()
            children = [v for v in values if isinstance(v, _Node)]
            if not expanded:
                stack.append((node, True))
                stack.extend((child, False) for child in reversed(children))
                continue
            reprs = iter(done[len(done) - len(children):])
            del done[len(done) - len(children):]
            parts = (f"{f.name}={next(reprs) if isinstance(v, _Node) else repr(v)}"
                     for f, v in zip(fields(node), values))
            done.append(f"{type(node).__qualname__}({', '.join(parts)})")
        return done[0]


@dataclass(frozen=True, eq=False, repr=False)
class Lit(_Node):
    value: float


@dataclass(frozen=True, eq=False, repr=False)
class Var(_Node):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Const(_Node):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Neg(_Node):
    arg: "Expr"


@dataclass(frozen=True, eq=False, repr=False)
class Bin(_Node):
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, eq=False, repr=False)
class Call(_Node):
    func: str
    arg: "Expr"


Expr = Union[Lit, Var, Const, Neg, Bin, Call]


# --- lexer -----------------------------------------------------------------

_OPS = set("+-*/^()")


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    """Return (kind, text, position) triples; kinds: num, ident, op, end."""
    tokens = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            start = i
            while i < n and source[i].isdigit():
                i += 1
            if i < n and source[i] == ".":
                i += 1
                while i < n and source[i].isdigit():
                    i += 1
            if i < n and source[i] in "eE":
                j = i + 1
                if j < n and source[j] in "+-":
                    j += 1
                if j < n and source[j].isdigit():
                    i = j
                    while i < n and source[i].isdigit():
                        i += 1
            text = source[start:i]
            try:
                float(text)
            except ValueError:
                raise ParseError(start, "a number", text)
            tokens.append(("num", text, start))
            continue
        if c.isalpha() or c == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            tokens.append(("ident", source[start:i], start))
            continue
        raise ParseError(i, "a token", c)
    tokens.append(("end", "", n))
    return tokens


# --- parser ----------------------------------------------------------------


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.factors = 0  # being parsed: one more per level of nesting
        if len(self.tokens) > MAX_TOKENS + 1:  # and the end token
            raise ParseError(self.tokens[MAX_TOKENS][2], f"at most {MAX_TOKENS} tokens")

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, text, at = self.peek()
        if kind != "op" or text != op:
            raise ParseError(at, repr(op), text)
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, at = self.peek()
        if kind != "end":
            raise ParseError(at, "end of input", text)
        return e

    def expr(self) -> Expr:
        left = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                left = Bin(text, left, self.term())
            else:
                return left

    def term(self) -> Expr:
        left = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                left = Bin(text, left, self.factor())
            else:
                return left

    def factor(self) -> Expr:
        kind, text, at = self.peek()
        self.factors += 1
        if self.factors > MAX_NESTING + 1:
            raise ParseError(at, f"at most {MAX_NESTING} levels of nesting", text)
        if kind == "op" and text == "-":
            self.advance()
            e = Neg(self.factor())
        else:
            e = self.power()
        self.factors -= 1
        return e

    def power(self) -> Expr:
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return Bin("^", base, self.factor())
        return base

    def atom(self) -> Expr:
        kind, text, at = self.advance()
        if kind == "num":
            return Lit(float(text))
        if kind == "ident":
            nkind, ntext, _ = self.peek()
            if nkind == "op" and ntext == "(":
                if text not in FUNCTIONS:
                    raise UnknownNameError(at, text)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            if text in VARIABLES:
                return Var(text)
            if text in CONSTANTS:
                return Const(text)
            raise UnknownNameError(at, text)
        if kind == "op" and text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(at, "a number, identifier, or '('", text)


def parse_candidate(source: str) -> Expr:
    """Parse a candidate expression into its syntax tree."""
    if not source or not source.strip():
        raise ParseError(0, "a nonempty expression")
    return _Parser(source).parse()


# --- evaluation ------------------------------------------------------------


def _apply_func(name: str, x: float) -> float:
    if name == "abs":
        return abs(x)
    if name == "sqrt":
        if x < 0.0:
            raise EvalError(f"sqrt of negative value {x!r}")
        return math.sqrt(x)
    if name in ("sin", "cos"):
        if math.isinf(x):
            raise EvalError(f"{name} of {x!r}")
        return math.sin(x) if name == "sin" else math.cos(x)
    if name == "exp":
        try:
            return math.exp(x)
        except OverflowError:
            raise EvalError(f"exp overflow at {x!r}")
    if name == "ln":
        if x <= 0.0:
            raise EvalError(f"ln of non-positive value {x!r}")
        return math.log(x)
    raise EvalError(f"unknown function {name!r}")


def _pow(a: float, b: float) -> float:
    if a == 0.0 and b < 0.0:
        raise EvalError("zero raised to a negative power")
    if a < 0.0 and not (math.isfinite(b) and b == int(b)):
        # real-valued candidates only: no complex excursions
        raise EvalError(f"negative base {a!r} with non-integer exponent {b!r}")
    try:
        return math.pow(a, b)
    except (ValueError, OverflowError) as exc:
        raise EvalError(str(exc))


def eval_expr(e: Expr, z: complex) -> float:
    """Evaluate an expression at overlap z.

    Environment: r = |z|, phi = arg(z) with arg(0) defined as 0,
    re = Re(z), im = Im(z).  Undefined operations raise EvalError.
    """
    z = complex(z)
    env = {
        "r": abs(z),
        "phi": 0.0 if z == 0 else math.atan2(z.imag, z.real),
        "re": z.real,
        "im": z.imag,
    }
    return _eval(e, env)


def _eval(e: Expr, env: dict) -> float:
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Const):
        return CONSTANTS[e.name]
    if isinstance(e, Neg):
        return -_eval(e.arg, env)
    if isinstance(e, Call):
        return _apply_func(e.func, _eval(e.arg, env))
    if isinstance(e, Bin):
        a = _eval(e.left, env)
        b = _eval(e.right, env)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if b == 0.0:
                raise EvalError("division by zero")
            return a / b
        if e.op == "^":
            return _pow(a, b)
    raise EvalError(f"malformed expression node {e!r}")


# --- vectorised evaluation -------------------------------------------------
#
# A compiled node maps (z, bad) to the node's values at every overlap in
# the array z.  It ORs into the boolean array ``bad`` each position where
# the scalar evaluator above raises (EvalError, or a math domain error such
# as sin(inf)), so both paths leave the same overlaps undefined.

_VARIABLES = {
    # np.hypot matches abs(complex) bit for bit; np.abs does not
    "r": lambda z: np.hypot(z.real, z.imag),
    "phi": lambda z: np.where(z == 0, 0.0, np.arctan2(z.imag, z.real)),
    "re": lambda z: z.real,
    "im": lambda z: z.imag,
}


def _array_sqrt(x, bad):
    bad |= x < 0.0
    return np.sqrt(x)


def _array_periodic(func):
    def apply(x, bad):
        bad |= np.isinf(x)
        return func(x)

    return apply


def _array_exp(x, bad):
    values = np.exp(x)
    _flag_overflow(values, bad, x)
    return values


def _flag_overflow(values, bad, *args):
    """Flag an inf that came from finite arguments (math raises OverflowError)."""
    overflow = np.isinf(values)
    if overflow.any():  # rare: test the cheap guard first
        for arg in args:
            overflow = overflow & np.isfinite(arg)
        bad |= overflow


def _array_ln(x, bad):
    bad |= x <= 0.0
    return np.log(x)


_ARRAY_FUNCS = {
    "abs": lambda x, bad: np.abs(x),
    "sqrt": _array_sqrt,
    "sin": _array_periodic(np.sin),
    "cos": _array_periodic(np.cos),
    "exp": _array_exp,
    "ln": _array_ln,
}


def _array_divide(a, b, bad):
    bad |= b == 0.0
    return np.divide(a, b)


def _array_pow(a, b, bad):
    nonpositive = a <= 0.0
    if nonpositive.any():  # rare: test the cheap guard first
        zero_to_negative = (a == 0.0) & (b < 0.0)
        non_integer = np.isinf(b) | (b != np.floor(b))
        bad |= nonpositive & (zero_to_negative | (a < 0.0) & non_integer)
    values = np.power(a, b)
    _flag_overflow(values, bad, a, b)
    return values


_ARRAY_OPS = {
    "+": lambda a, b, bad: np.add(a, b),
    "-": lambda a, b, bad: np.subtract(a, b),
    "*": lambda a, b, bad: np.multiply(a, b),
    "/": _array_divide,
    "^": _array_pow,
}


def compile_expr(e: Expr) -> Callable[[np.ndarray], np.ndarray]:
    """Compile an expression once into a function of an array of overlaps.

    The function returns eval_expr's value at every overlap as float64,
    with inf wherever eval_expr raises or gives a non-finite value.
    Values may differ from eval_expr's in the last bits, where numpy's
    transcendental functions round differently from math's.
    """
    node = _compile(e)

    def evaluate(zs) -> np.ndarray:
        z = np.asarray(zs, dtype=np.complex128)
        bad = np.zeros(z.shape, dtype=bool)
        values = np.empty(z.shape)
        with np.errstate(all="ignore"):
            values[...] = node(z, bad)
        values[bad | ~np.isfinite(values)] = math.inf
        return values

    return evaluate


def _compile(e: Expr):
    if isinstance(e, (Lit, Const)):
        value = np.float64(e.value if isinstance(e, Lit) else CONSTANTS[e.name])
        return lambda z, bad: value
    if isinstance(e, Var):
        variable = _VARIABLES[e.name]
        return lambda z, bad: variable(z)
    if isinstance(e, Neg):
        arg = _compile(e.arg)
        return lambda z, bad: np.negative(arg(z, bad))
    if isinstance(e, Call):
        func, arg = _ARRAY_FUNCS[e.func], _compile(e.arg)
        return lambda z, bad: func(arg(z, bad), bad)
    if isinstance(e, Bin):
        op, left, right = _ARRAY_OPS[e.op], _compile(e.left), _compile(e.right)
        return lambda z, bad: op(left(z, bad), right(z, bad), bad)
    raise EvalError(f"malformed expression node {e!r}")


# --- pretty printing -------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def pretty(e: Expr) -> str:
    """Render an expression; parse(pretty(parse(s))) == parse(s)."""
    return _pretty(e, 0)


def _pretty(e: Expr, parent_prec: int) -> str:
    if isinstance(e, Lit):
        v = e.value
        if math.isinf(v):  # a literal past the float range, such as 1e310
            return "1e999"
        return repr(int(v)) if v == int(v) and abs(v) < 1e16 else repr(v)
    if isinstance(e, (Var, Const)):
        return e.name
    if isinstance(e, Neg):
        s = "-" + _pretty(e.arg, _PREC["neg"])
        return f"({s})" if parent_prec > _PREC["neg"] else s
    if isinstance(e, Call):
        return f"{e.func}({_pretty(e.arg, 0)})"
    if isinstance(e, Bin):
        prec = _PREC[e.op]
        if e.op == "^":
            # right-associative; the right side re-enters at unary level
            s = _pretty(e.left, prec + 1) + e.op + _pretty(e.right, _PREC["neg"])
        else:
            s = f"{_pretty(e.left, prec)} {e.op} {_pretty(e.right, prec + 1)}"
        return f"({s})" if parent_prec > prec else s
    raise ValueError(f"unknown node {e!r}")
