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
# minus or "^" exponent inside another); _compile, a compiled tree and pretty
# once per tree level, and a tree is at most MAX_NESTING + MAX_TOKENS / 2
# levels deep.
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
#
# A compiled node maps (z, undefined) to the node's values at every overlap
# in the array z.  Each guard flags in ``undefined`` the overlaps where its
# operation is undefined; at a single overlap it also keeps the reason of the
# first failure in evaluation order, which eval_expr raises as EvalError.


class _Undefined:
    """Where the guards of one evaluation failed: ``mask`` over the overlaps
    and, when there is a single overlap, the first failure's ``reason``."""

    __slots__ = ("mask", "reason")

    def __init__(self, shape):
        self.mask = np.zeros(shape, dtype=bool)
        self.reason = None

    def flag(self, failed, reason: str, *values):
        """OR failed into the mask; at a single overlap that fails first, keep
        reason formatted with values as Python floats (numpy's repr of a
        scalar is np.float64(...))."""
        self.mask |= failed
        if self.mask.size == 1 and failed and self.reason is None:
            self.reason = reason.format(*(v.item() for v in values))


_VARIABLES = {
    # np.hypot matches abs(complex) bit for bit; np.abs does not
    "r": lambda z: np.hypot(z.real, z.imag),
    "phi": lambda z: np.where(z == 0, 0.0, np.arctan2(z.imag, z.real)),
    "re": lambda z: z.real,
    "im": lambda z: z.imag,
}


def _array_sqrt(x, undefined):
    undefined.flag(x < 0.0, "sqrt of negative value {!r}", x)
    return np.sqrt(x)


def _array_periodic(func, name):
    def apply(x, undefined):
        undefined.flag(np.isinf(x), name + " of {!r}", x)
        return func(x)

    return apply


def _array_exp(x, undefined):
    values = np.exp(x)
    _flag_overflow(values, undefined, "exp overflow at {!r}", x)
    return values


def _flag_overflow(values, undefined, reason, *args):
    """Flag an inf that came from finite arguments, an overflow; reason is
    formatted with the arguments."""
    overflow = np.isinf(values)
    if overflow.any():  # rare: test the cheap guard first
        for arg in args:
            overflow = overflow & np.isfinite(arg)
        undefined.flag(overflow, reason, *args)


def _array_ln(x, undefined):
    undefined.flag(x <= 0.0, "ln of non-positive value {!r}", x)
    return np.log(x)


_ARRAY_FUNCS = {
    "abs": lambda x, undefined: np.abs(x),
    "sqrt": _array_sqrt,
    "sin": _array_periodic(np.sin, "sin"),
    "cos": _array_periodic(np.cos, "cos"),
    "exp": _array_exp,
    "ln": _array_ln,
}


def _array_divide(a, b, undefined):
    undefined.flag(b == 0.0, "division by zero")
    return np.divide(a, b)


def _array_pow(a, b, undefined):
    # real-valued candidates only: no complex excursions
    if (a <= 0.0).any():  # rare: test the cheap guard first
        undefined.flag((a == 0.0) & (b < 0.0), "zero raised to a negative power")
        non_integer = np.isinf(b) | (b != np.floor(b))
        undefined.flag((a < 0.0) & non_integer,
                       "negative base {!r} with non-integer exponent {!r}", a, b)
    values = np.power(a, b)
    _flag_overflow(values, undefined, "math range error", a, b)
    return values


_ARRAY_OPS = {
    "+": lambda a, b, undefined: np.add(a, b),
    "-": lambda a, b, undefined: np.subtract(a, b),
    "*": lambda a, b, undefined: np.multiply(a, b),
    "/": _array_divide,
    "^": _array_pow,
}


def compile_expr(e: Expr) -> Callable[[np.ndarray], np.ndarray]:
    """Compile an expression once into a function of an array of overlaps.

    Environment: r = |z|, phi = arg(z) with arg(0) defined as 0,
    re = Re(z), im = Im(z).  The function returns the value at every
    overlap as float64, with inf wherever an operation is undefined or the
    value is not finite.
    """
    node = _compile(e)

    def evaluate(zs) -> np.ndarray:
        values, undefined = _run(node, np.asarray(zs, dtype=np.complex128))
        values[undefined.mask | ~np.isfinite(values)] = math.inf
        return values

    return evaluate


def eval_expr(e: Expr, z: complex) -> float:
    """Evaluate an expression at one overlap z: compile_expr's tree and bits.

    Raises EvalError with the first undefined operation's reason, in
    evaluation order; otherwise returns the value, finite or not.  The
    overlap is a one-element array, not a 0-d one: numpy's power of two
    0-d operands can round differently in the last bit.
    """
    values, undefined = _run(_compile(e), np.array([complex(z)]))
    if undefined.reason is not None:
        raise EvalError(undefined.reason)
    return float(values[0])


def _run(node, z: np.ndarray):
    """A compiled node's values at the overlaps z, and where they are undefined."""
    undefined = _Undefined(z.shape)
    values = np.empty(z.shape)
    with np.errstate(all="ignore"):
        values[...] = node(z, undefined)
    return values, undefined


def _compile(e: Expr):
    if isinstance(e, (Lit, Const)):
        value = np.float64(e.value if isinstance(e, Lit) else CONSTANTS[e.name])
        return lambda z, undefined: value
    if isinstance(e, Var):
        variable = _VARIABLES[e.name]
        return lambda z, undefined: variable(z)
    if isinstance(e, Neg):
        arg = _compile(e.arg)
        return lambda z, undefined: np.negative(arg(z, undefined))
    if isinstance(e, Call):
        func, arg = _ARRAY_FUNCS[e.func], _compile(e.arg)
        return lambda z, undefined: func(arg(z, undefined), undefined)
    if isinstance(e, Bin):
        op, left, right = _ARRAY_OPS[e.op], _compile(e.left), _compile(e.right)
        return lambda z, undefined: op(left(z, undefined), right(z, undefined), undefined)
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
