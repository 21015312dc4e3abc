"""Scalar expression engine over space-time variables.

Expressions are parsed from infix text into an immutable DAG over the
variables ``x1..xn`` and ``t``.  Nodes are hash-consed, so equal
subexpressions are one object, and a node's exact symbolic derivatives and
simplified form are computed once and kept on it: Laplacian powers grow
with their distinct subexpressions, not as trees.

There is one evaluator: one code generator turns a DAG into a numpy
function that computes each distinct node once, reading coordinate k as
the k-th of a sequence of arrays.  It serves vectorized fields
(:func:`compile_field`), on stacked points or on an open mesh of
per-axis coordinates, and single real or complex points
(:func:`eval_real`, :func:`eval_complex`) alike, and a non-finite value,
a domain violation among them, raises :class:`DomainError`.

Grammar (EBNF)::

    expr    = term { ("+" | "-") term } ;
    term    = unary { ("*" | "/") unary } ;
    unary   = "-" unary | power ;
    power   = atom [ "^" unary ] ;            (* right associative *)
    atom    = NUMBER | NAME "(" expr ")" | NAME | "(" expr ")" ;
    NAME    = "t" | "x" DIGITS | function name ;
    NUMBER  = decimal or scientific literal ;

There is no implicit multiplication.  Whitespace is insignificant.  Error
messages carry byte offsets into the source text.

Complex points use numpy's principal branches, which are C99's: ``log``,
``sqrt`` and non-integer powers are cut along the negative real axis, and
``atan`` along ``(-i inf, -i] and [i, i inf)``, each continuous from the
side that the sign of the zero on the cut selects.  At real points a
negative base with a non-integer exponent is a :class:`DomainError`.
"""

from __future__ import annotations

import math
import operator
import weakref
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import DimensionError, DomainError, ExprSyntaxError, UnknownSymbol

__all__ = [
    "Expr",
    "parse",
    "eval_real",
    "eval_complex",
    "differentiate",
    "laplacian",
    "laplacian_power",
    "to_string",
    "compile_field",
    "Mesh",
]

# each function's numpy name: the generated code and constant folding both
# call it, so a folded constant is the value the compiled field computes
_NUMPY_FN = dict(sin="sin", cos="cos", tan="tan", exp="exp", log="log",
                 sqrt="sqrt", sinh="sinh", cosh="cosh", atan="arctan", abs="abs")
FUNCTIONS = tuple(_NUMPY_FN)

_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv, "^": operator.pow}


# ---------------------------------------------------------------------------
# DAG

_INTERNED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class _Interned:
    """Equal fields give the one node object, so identity is equality.

    Numbers are keyed by their ``repr``, which keeps -0.0 apart from 0.0.
    A node lives while anything refers to it; the caches of :func:`_memo`
    live in its ``__dict__`` and die with it.
    """

    def __new__(cls, *fields):
        key = (cls,) + tuple(repr(f) if isinstance(f, float) else f for f in fields)
        node = _INTERNED.get(key)
        if node is None:
            node = _INTERNED[key] = super().__new__(cls)
        return node


@dataclass(frozen=True, eq=False)
class Num(_Interned):
    value: float


@dataclass(frozen=True, eq=False)
class Var(_Interned):
    name: str  # "t" or "x<k>"


@dataclass(frozen=True, eq=False)
class Neg(_Interned):
    arg: "Node"


@dataclass(frozen=True, eq=False)
class Bin(_Interned):
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True, eq=False)
class Call(_Interned):
    fn: str
    arg: "Node"


Node = Union[Num, Var, Neg, Bin, Call]


def _memo(rule):
    """Compute ``rule(node, *args)`` once per node and arguments, kept on the node."""

    def cached(node, *args):
        cache = node.__dict__.setdefault(rule.__name__, {})
        if args not in cache:
            cache[args] = rule(node, *args)
        return cache[args]

    return cached


def _children(node: Node) -> tuple:
    if isinstance(node, Bin):
        return (node.left, node.right)
    if isinstance(node, (Neg, Call)):
        return (node.arg,)
    return ()


@dataclass(frozen=True)
class Expr:
    """Immutable parsed expression with its declared spatial dimension."""

    root: Node
    ndim: int

    def __str__(self):
        return to_string(self)


# ---------------------------------------------------------------------------
# Parsing


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise ExprSyntaxError(self.pos, f"expected '{ch}'")
        self.pos += 1

    def number(self) -> float:
        start = self.pos
        text = self.text
        n = len(text)
        i = self.pos
        while i < n and (text[i].isdigit() or text[i] == "."):
            i += 1
        if i < n and text[i] in "eE":
            j = i + 1
            if j < n and text[j] in "+-":
                j += 1
            if j < n and text[j].isdigit():
                i = j
                while i < n and text[i].isdigit():
                    i += 1
        lit = text[start:i]
        try:
            value = float(lit)
        except ValueError:
            raise ExprSyntaxError(start, f"bad numeric literal '{lit}'") from None
        self.pos = i
        return value

    def name(self) -> tuple[str, int]:
        start = self.pos
        text = self.text
        i = self.pos
        while i < len(text) and (text[i].isalnum() or text[i] == "_"):
            i += 1
        self.pos = i
        return text[start:i], start


class _Parser:
    def __init__(self, text: str, ndim: int):
        self.tk = _Tokenizer(text)
        self.ndim = ndim

    def parse(self) -> Node:
        node = self.expr()
        self.tk.skip_ws()
        if self.tk.pos < len(self.tk.text):
            raise ExprSyntaxError(self.tk.pos, "unexpected trailing input")
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            ch = self.tk.peek()
            if ch and ch in "+-":
                self.tk.pos += 1
                node = Bin(ch, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            ch = self.tk.peek()
            if ch and ch in "*/":
                self.tk.pos += 1
                node = Bin(ch, node, self.unary())
            else:
                return node

    def unary(self) -> Node:
        if self.tk.peek() == "-":
            self.tk.pos += 1
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self.tk.peek() == "^":
            self.tk.pos += 1
            return Bin("^", base, self.unary())
        return base

    def atom(self) -> Node:
        ch = self.tk.peek()
        if ch == "(":
            self.tk.pos += 1
            node = self.expr()
            self.tk.expect(")")
            return node
        if ch.isdigit() or ch == ".":
            return Num(self.tk.number())
        if ch.isalpha() or ch == "_":
            name, start = self.tk.name()
            if self.tk.peek() == "(":
                if name not in FUNCTIONS:
                    raise UnknownSymbol(start, f"unknown function '{name}'")
                self.tk.pos += 1
                arg = self.expr()
                self.tk.expect(")")
                return Call(name, arg)
            return self.variable(name, start)
        if ch == "":
            raise ExprSyntaxError(self.tk.pos, "unexpected end of input")
        raise ExprSyntaxError(self.tk.pos, f"unexpected character '{ch}'")

    def variable(self, name: str, start: int) -> Node:
        if name == "t":
            return Var("t")
        if name == "pi":
            return Num(math.pi)
        if name.startswith("x") and name[1:].isdigit():
            index = int(name[1:])
            if index < 1 or index > self.ndim:
                raise DimensionError(
                    f"variable '{name}' out of range for dimension {self.ndim}"
                )
            return Var(f"x{index}")  # x01 is x1
        raise UnknownSymbol(start, f"unknown identifier '{name}'")


def parse(text: str, n: int) -> Expr:
    """Parse ``text`` into an expression over x1..xn and t."""
    if n < 0:
        raise DimensionError("dimension must be nonnegative")
    return Expr(_Parser(text, n).parse(), n)


# ---------------------------------------------------------------------------
# Printing


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _fmt(node: Node, parent_prec: int) -> str:
    if isinstance(node, Num):
        value = node.value
        if value == int(value) and abs(value) < 1e16:
            text = repr(int(value))
        else:
            text = repr(value)
        if value < 0 and parent_prec > 1:
            return f"({text})"
        return text
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = _fmt(node.arg, 3)
        text = f"-{inner}"
        return f"({text})" if parent_prec > 1 else text
    if isinstance(node, Call):
        return f"{node.fn}({_fmt(node.arg, 0)})"
    prec = _PREC[node.op]
    # right-assoc '^', left-assoc everything else
    if node.op == "^":
        text = f"{_fmt(node.left, prec + 1)}^{_fmt(node.right, prec)}"
    else:
        text = f"{_fmt(node.left, prec)}{node.op}{_fmt(node.right, prec + 1)}"
    return f"({text})" if prec < parent_prec else text


def to_string(e: Expr) -> str:
    return _fmt(e.root, 0)


# ---------------------------------------------------------------------------
# Differentiation


# d fn(u) / du
_OUTER = {
    "sin": lambda u: Call("cos", u),
    "cos": lambda u: Neg(Call("sin", u)),
    "tan": lambda u: Bin("/", Num(1.0), Bin("^", Call("cos", u), Num(2.0))),
    "exp": lambda u: Call("exp", u),
    "log": lambda u: Bin("/", Num(1.0), u),
    "sqrt": lambda u: Bin("/", Num(1.0), Bin("*", Num(2.0), Call("sqrt", u))),
    "sinh": lambda u: Call("cosh", u),
    "cosh": lambda u: Call("sinh", u),
    "atan": lambda u: Bin("/", Num(1.0), Bin("+", Num(1.0), Bin("^", u, Num(2.0)))),
    # kink at 0 surfaces as DomainError on evaluation
    "abs": lambda u: Bin("/", u, Call("abs", u)),
}


@_memo
def _d(node: Node, var: str) -> Node:
    if isinstance(node, Num):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0) if node.name == var else Num(0.0)
    if isinstance(node, Neg):
        return Neg(_d(node.arg, var))
    if isinstance(node, Call):
        return Bin("*", _OUTER[node.fn](node.arg), _d(node.arg, var))
    op = node.op
    a, b = node.left, node.right
    if op == "+":
        return Bin("+", _d(a, var), _d(b, var))
    if op == "-":
        return Bin("-", _d(a, var), _d(b, var))
    if op == "*":
        return Bin("+", Bin("*", _d(a, var), b), Bin("*", a, _d(b, var)))
    if op == "/":
        # d(a/c^k) = a'/c^k - k a c'/c^(k+1), so exponents add, where
        # (a'b - ab')/b^2 would square the denominator on every derivative
        c, k = (b.left, b.right.value) if (
            isinstance(b, Bin) and b.op == "^" and isinstance(b.right, Num)) else (b, 1.0)
        rest = Bin("*", Bin("*", Num(k), a), _d(c, var))
        return Bin("-", Bin("/", _d(a, var), b), Bin("/", rest, Bin("^", c, Num(k + 1.0))))
    # power: constant exponent gets the monomial rule, the general case
    # goes through exp/log
    if isinstance(b, Num):
        return Bin("*", Bin("*", b, Bin("^", a, Num(b.value - 1.0))), _d(a, var))
    rewritten = Call("exp", Bin("*", b, Call("log", a)))
    return _d(rewritten, var)


def _is_num(node: Node, value=None) -> bool:
    return isinstance(node, Num) and (value is None or node.value == value)


@_memo
def _simplify(node: Node) -> Node:
    if isinstance(node, (Num, Var)):
        return node
    if isinstance(node, Neg):
        arg = _simplify(node.arg)
        if isinstance(arg, Num):
            return Num(-arg.value)
        if isinstance(arg, Neg):
            return arg.arg
        return Neg(arg)
    if isinstance(node, Call):
        arg = _simplify(node.arg)
        if isinstance(arg, Num):
            with np.errstate(all="ignore"):
                value = float(getattr(np, _NUMPY_FN[node.fn])(arg.value))
            if math.isfinite(value):
                return Num(value)
        return Call(node.fn, arg)
    a = _simplify(node.left)
    b = _simplify(node.right)
    op = node.op
    if isinstance(a, Num) and isinstance(b, Num):
        try:
            value = _ARITH[op](a.value, b.value)
        except ArithmeticError:  # division by zero, overflow
            value = math.nan
        # a negative base to a non-integer power gives a complex value
        if isinstance(value, float) and math.isfinite(value):
            return Num(value)
    if op == "+":
        if _is_num(a, 0.0):
            return b
        if _is_num(b, 0.0):
            return a
    elif op == "-":
        if _is_num(b, 0.0):
            return a
        if _is_num(a, 0.0):
            return _simplify(Neg(b))
    elif op == "*":
        if _is_num(a, 0.0) or _is_num(b, 0.0):
            return Num(0.0)
        if _is_num(a, 1.0):
            return b
        if _is_num(b, 1.0):
            return a
    elif op == "/":
        if _is_num(a, 0.0) and not _is_num(b, 0.0):
            return Num(0.0)
        if _is_num(b, 1.0):
            return a
    elif op == "^":
        if _is_num(b, 1.0):
            return a
        if _is_num(b, 0.0):
            return Num(1.0)
    return Bin(op, a, b)


def differentiate(e: Expr, var: str) -> Expr:
    """Exact symbolic derivative with respect to ``var`` ('x1'..'xn' or 't')."""
    if var != "t":
        if not (var.startswith("x") and var[1:].isdigit()):
            raise DimensionError(f"unknown variable '{var}'")
        if not 1 <= int(var[1:]) <= e.ndim:
            raise DimensionError(f"variable '{var}' out of range")
        var = f"x{int(var[1:])}"  # x01 is x1
    return Expr(_simplify(_d(e.root, var)), e.ndim)


def laplacian(e: Expr) -> Expr:
    """Sum of second spatial derivatives."""
    total: Node = Num(0.0)
    for i in range(e.ndim):
        var = f"x{i + 1}"
        second = _d(_simplify(_d(e.root, var)), var)
        total = Bin("+", total, second)
    return Expr(_simplify(total), e.ndim)


def laplacian_power(e: Expr, p: int) -> Expr:
    """Lap^p applied symbolically to an expression."""
    for _ in range(p):
        e = laplacian(e)
    return e


# ---------------------------------------------------------------------------
# Code generation and evaluation


def _source(root: Node, literal: Callable[[float], str]) -> tuple[str, bool]:
    """Source of ``f(X, t)`` computing the DAG at ``root``, and whether it
    reads ``t``.  ``X`` is the sequence of coordinate arrays: x_k is
    ``X[k - 1]``.

    Distinct nodes are emitted once, in post-order.  A node with several
    parents is assigned to a temporary, deleted after the last statement
    that reads it; every other node is inlined into its parent, so a DAG
    without shared nodes gives a single expression.
    """
    uses: dict = {}
    order = []

    def visit(node):
        for child in _children(node):
            uses[child] = uses.get(child, 0) + 1
            if uses[child] == 1:
                visit(child)
        order.append(node)

    visit(root)
    text, temps = {}, {}  # per node: its code, and the temporaries it reads
    body = []  # (temporary, code, temporaries read)
    for node in order:
        args = []
        read = set()
        for child in _children(node):
            shared = uses[child] > 1
            args.append(text[child] if shared else text.pop(child))
            read |= temps[child] if shared else temps.pop(child)
        if isinstance(node, Num):
            code = literal(node.value)
        elif isinstance(node, Var):
            code = "t" if node.name == "t" else f"X[{int(node.name[1:]) - 1}]"
        elif isinstance(node, Neg):
            code = f"(-{args[0]})"
        elif isinstance(node, Call):
            code = f"np.{_NUMPY_FN[node.fn]}({args[0]})"
        elif node.op == "^":
            code = f"({args[0]})**({args[1]})"
        else:
            code = f"({args[0]}{node.op}{args[1]})"
        if uses.get(node, 0) > 1 and _children(node):
            name = f"_{len(body)}"
            body.append((name, code, read))
            code, read = name, {name}
        text[node], temps[node] = code, read
    last = {}
    for i, (_, _, read) in enumerate(body):
        last.update(dict.fromkeys(read, i))
    lines = ["def f(X, t):"]
    for i, (name, code, read) in enumerate(body):
        lines.append(f"    {name} = {code}")
        dead = sorted(v for v in read if last[v] == i and v not in temps[root])
        if dead:
            lines.append(f"    del {', '.join(dead)}")
    lines.append(f"    return {text[root]}")
    reads_t = any(isinstance(n, Var) and n.name == "t" for n in order)
    return "\n".join(lines) + "\n", reads_t


@_memo
def _compiled(root: Node, complex_mode: bool) -> tuple[Callable, bool]:
    """The generated function of a simplified root, real or complex, and
    whether it reads ``t``."""
    # complex constants keep the principal value of an unfolded sqrt(-4)
    literal = (lambda v: f"complex({v!r})") if complex_mode else repr
    source, reads_t = _source(root, literal)
    namespace = {"np": np, "inf": math.inf, "nan": math.nan}
    exec(compile(source, "<expr>", "exec"), namespace)
    return namespace["f"], reads_t


def _call(fn: Callable, X: Sequence, t, dtype) -> np.ndarray:
    """``fn(X, t)`` as an array, ``X`` the coordinates built with ``dtype``;
    a non-finite value, or a complex value from real coordinates, raises
    DomainError."""
    try:
        with np.errstate(all="ignore"):
            out = np.asarray(fn(X, t))
    except ArithmeticError as exc:  # Python arithmetic on two constants
        raise DomainError(f"evaluation failed: {exc}") from None
    if out.dtype.kind == "c" and np.dtype(dtype).kind != "c":
        raise DomainError("real evaluation produced a complex value")
    if not np.isfinite(out).all():
        raise DomainError("evaluation produced non-finite values")
    return out


def _axes(X: np.ndarray) -> tuple:
    """The coordinates of (..., n) points, as the n views ``X[..., k]``."""
    return tuple(X[..., k] for k in range(X.shape[-1]))


def _at_point(e: Expr, coords, t, dtype):
    X = np.asarray(coords, dtype=dtype)
    if X.shape != (e.ndim,):
        raise DimensionError(f"expected {e.ndim} coordinates, got {X.size}")
    fn, reads_t = _compiled(_simplify(e.root), dtype is complex)
    if t is None and reads_t:
        raise DomainError("unbound variable 't'")
    return _call(fn, _axes(X), dtype(0.0 if t is None else t), dtype)[()]


def eval_real(e: Expr, coords: Sequence[float], t: float | None = None) -> float:
    """Evaluate at a real point; domain violations raise DomainError."""
    return float(_at_point(e, coords, t, float))


def eval_complex(e: Expr, coords: Sequence[complex], t=None) -> complex:
    """Evaluate at a complex point using principal branches."""
    return complex(_at_point(e, coords, t, complex))


class Mesh(tuple):
    """An open mesh: n coordinate arrays that broadcast against each other,
    as ``np.meshgrid(..., indexing="ij", sparse=True)`` returns.

    ``shape`` is the shape of the (..., n) array of the points it spans,
    so code that sizes a field call by ``np.shape(X)[:-1]`` counts them
    without stacking them.
    """

    @property
    def shape(self) -> tuple:
        return np.broadcast_shapes(*(np.shape(x) for x in self)) + (len(self),)


def compile_field(e: Expr) -> Callable:
    """Compile to a numpy-vectorized callable ``f(X, t=0.0)``.

    ``X`` is an array of points, shape ``(..., n)``, or an open mesh: a
    tuple of n coordinate arrays that broadcast against each other, such
    as a :class:`Mesh`.  On a mesh a subexpression is computed on the
    coordinates it reads, so one of x1 alone costs as many values as x1
    has.  ``t`` may be a scalar or an array that broadcasts against the
    points; the result has the broadcast shape of the points and ``t``.
    Non-finite results, and complex ones, raise :class:`DomainError`.
    The result never shares memory with ``X`` or ``t``.
    """
    root = _simplify(e.root)
    fn, _ = _compiled(root, False)
    # a bare x_k or t returns the caller's array itself; every other root
    # computes a new one, copied only to broadcast it or to put it in C order
    bare = isinstance(root, Var)
    ndim = e.ndim

    def field(X, t=0.0):
        if isinstance(X, tuple):
            coords = tuple(np.asarray(x, dtype=float) for x in X)
            if len(coords) != ndim:
                raise DimensionError(
                    f"expected {ndim} coordinate arrays, got {len(coords)}"
                )
            shape = np.broadcast_shapes(*(x.shape for x in coords), np.shape(t))
        else:
            X = np.asarray(X, dtype=float)
            if X.shape[-1] != ndim:
                raise DimensionError(
                    f"expected trailing axis of length {ndim}, got {X.shape[-1]}"
                )
            coords = _axes(X)
            shape = np.broadcast_shapes(X.shape[:-1], np.shape(t))
        out = _call(fn, coords, t, float).astype(float, copy=False)
        if out.shape == shape and out.flags.c_contiguous and not bare:
            return out
        return np.broadcast_to(out, shape).copy()

    return field
