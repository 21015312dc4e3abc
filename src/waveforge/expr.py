"""Scalar expression engine over space-time variables.

Expressions are parsed from infix text into an immutable DAG over the
variables ``x1..xn`` and ``t``.  Nodes are hash-consed, so equal
subexpressions are one object, and a node's exact symbolic derivatives and
simplified form are computed once and kept on it: Laplacian powers grow
with their distinct subexpressions, not as trees.  Derivatives take the
sum, product, chain and power rules only, so ``a/c^k`` is ``a*c^-k``.  The
simplified form is a normal form: numbers that meet in a product are one
coefficient, and the terms of a sum with equal factors are collected, so
each Laplacian power of a plane wave is one term; a collected sum is
rebuilt as a balanced tree, which keeps it shallow enough to compile.

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
    NAME    = "t" | "pi" | "x" DIGITS | function name ;
    NUMBER  = { DIGIT | "." } [ ("e" | "E") [ "+" | "-" ] DIGITS ] ;
    DIGITS  = DIGIT { DIGIT } ;
    DIGIT   = "0" | "1" | "2" | "3" | "4" | "5" | "6" | "7" | "8" | "9" ;

Digits are ASCII: ``x`` followed by DIGITS k names x_k for 1 <= k <= n,
``x01`` being ``x1``.  There is no implicit multiplication.  Whitespace is
insignificant.  Error messages carry offsets into the source text.  Text
that nests more than :data:`MAX_DEPTH` (200) levels, in parentheses,
calls, unary minuses or operands, or whose DAG is taller than that, is
refused with :class:`ExprSyntaxError` at the offset that passes the bound;
an expression derived from it that Python's recursion limit or compiler
cannot handle raises :class:`DomainError`.

Complex points use numpy's principal branches, which are C99's: ``log``,
``sqrt`` and non-integer powers are cut along the negative real axis, and
``atan`` along ``(-i inf, -i] and [i, i inf)``, each continuous from the
side that the sign of the zero on the cut selects.  At real points a
negative base with a non-integer exponent is a :class:`DomainError`.
"""

from __future__ import annotations

import functools
import math
import operator
import re
import weakref
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, Union

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
        key = (cls, repr(fields[0])) if cls is Num else (cls, *fields)
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


# Levels of nesting and DAG height parse accepts.  At 200 levels, parsing
# takes up to 620 frames of Python's default limit of 1000 (three per nested
# group) and a pass over the DAG up to 410 (two per level), which leaves the
# caller 380; past that, the parser would raise RecursionError.
MAX_DEPTH = 200

# binding power of each binary operator, for parsing and printing alike; a
# unary minus binds between '*' and '^', so -x*y is (-x)*y and -x^2 is -(x^2)
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEG = 3

# after any whitespace: a number in ASCII digits, a run of word characters,
# or any other single character
_TOKEN = re.compile(
    r"\s*(?:(?P<num>[0-9.]+(?:[eE][+-]?[0-9]+)?)|(?P<name>\w+)|(?P<char>\S))")


def _tokens(text: str) -> Iterator[tuple[int, str, str]]:
    """The (offset, kind, text) tokens of ``text``, whitespace skipped.

    kind is "num" for a number, "name" for a name, and otherwise the
    character itself; a last token of kind "" marks the end of the text.
    """
    pos = 0
    while match := _TOKEN.match(text, pos):
        kind = match.lastgroup
        start, tok = match.start(kind), match[kind]
        # a name starts with a letter or '_', so a numeral like '½' or '²'
        # is a character of its own
        if kind == "char" or (kind == "name" and not (tok[0].isalpha() or tok[0] == "_")):
            kind = tok = tok[0]
        yield start, kind, tok
        pos = start + len(tok)
    yield len(text), "", ""


def _axis(name: str, ndim: int) -> str | None:
    """The variable 'x<k>' that ``name`` names, if it is 'x' and ASCII
    digits, or None; k outside 1..ndim raises DimensionError.  x01 is x1."""
    digits = name[1:]
    if name[:1] != "x" or not (digits.isascii() and digits.isdigit()):
        return None
    k = digits.lstrip("0")
    # int() refuses over 4300 digits, so a long index is compared by length
    if not k or len(k) > len(str(ndim)) or int(k) > ndim:
        raise DimensionError(f"variable '{name}' out of range for dimension {ndim}")
    return f"x{k}"


@_memo
def _height(node: Node) -> int:
    return max((_height(child) + 1 for child in _children(node)), default=0)


def _check_depth(offset: int, levels: int):
    if levels > MAX_DEPTH:
        raise ExprSyntaxError(offset, f"more than {MAX_DEPTH} levels deep")


class _Parser:
    """Precedence climbing over the tokens of one text."""

    def __init__(self, text: str, ndim: int):
        self.tokens = _tokens(text)
        self.tok = next(self.tokens)  # the current token
        self.ndim = ndim
        self.depth = 0  # the level of the next call of expr

    def take(self) -> tuple[int, str, str]:
        """The current token; the next one becomes current."""
        tok, self.tok = self.tok, next(self.tokens)
        return tok

    def bounded(self, offset: int, node: Node) -> Node:
        """``node``, built at ``offset``, refused if it is too tall."""
        _check_depth(offset, _height(node))
        return node

    def expr(self, min_prec: int) -> Node:
        """Operands joined by the binary operators that bind at least as
        tightly as ``min_prec``."""
        _check_depth(self.tok[0], self.depth)
        self.depth += 1
        node = self.unary()
        while _PREC.get(self.tok[1], 0) >= min_prec:
            offset, op, _ = self.take()
            prec = _PREC[op]
            # '^' groups to the right, every other operator to the left
            right = self.expr(prec if op == "^" else prec + 1)
            node = self.bounded(offset, Bin(op, node, right))
        self.depth -= 1
        return node

    def unary(self) -> Node:
        offset, kind, _ = self.tok
        if kind == "-":
            self.take()
            return self.bounded(offset, Neg(self.expr(_NEG + 1)))
        return self.atom()

    def atom(self) -> Node:
        offset, kind, text = self.tok
        if kind == "":
            raise ExprSyntaxError(offset, "unexpected end of input")
        if kind not in ("(", "num", "name"):
            raise ExprSyntaxError(offset, f"unexpected character '{kind}'")
        self.take()
        if kind == "num":
            try:
                return Num(float(text))
            except ValueError:
                raise ExprSyntaxError(offset, f"bad numeric literal '{text}'") from None
        if kind == "name":
            if self.tok[1] != "(":
                return self.variable(text, offset)
            if text not in FUNCTIONS:
                raise UnknownSymbol(offset, f"unknown function '{text}'")
            self.take()
        # a parenthesised group, or the argument of a call
        node = self.expr(1)
        if self.tok[1] != ")":
            raise ExprSyntaxError(self.tok[0], "expected ')'")
        self.take()
        return node if kind == "(" else self.bounded(offset, Call(text, node))

    def variable(self, name: str, start: int) -> Node:
        if name == "t":
            return Var("t")
        if name == "pi":
            return Num(math.pi)
        axis = _axis(name, self.ndim)
        if axis is None:
            raise UnknownSymbol(start, f"unknown identifier '{name}'")
        return Var(axis)


def parse(text: str, n: int) -> Expr:
    """Parse ``text`` into an expression over x1..xn and t."""
    if n < 0:
        raise DimensionError("dimension must be nonnegative")
    parser = _Parser(text, n)
    root = parser.expr(1)
    offset, kind, _ = parser.tok
    if kind:
        raise ExprSyntaxError(offset, "unexpected trailing input")
    return Expr(root, n)


# ---------------------------------------------------------------------------
# Printing


def _fmt(node: Node, parent_prec: int) -> str:
    if isinstance(node, Num):
        value = node.value
        if value.is_integer() and abs(value) < 1e16:
            text = repr(int(value))
        else:
            text = repr(value)
        if value < 0 and parent_prec > 1:
            return f"({text})"
        return text
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = _fmt(node.arg, _NEG)
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


# d fn(u) / du, each reciprocal a power, as the power rule writes it
_OUTER = {
    "sin": lambda u: Call("cos", u),
    "cos": lambda u: Neg(Call("sin", u)),
    "tan": lambda u: Bin("^", Call("cos", u), Num(-2.0)),
    "exp": lambda u: Call("exp", u),
    "log": lambda u: Bin("^", u, Num(-1.0)),
    "sqrt": lambda u: Bin("*", Num(0.5), Bin("^", u, Num(-0.5))),
    "sinh": lambda u: Call("cosh", u),
    "cosh": lambda u: Call("sinh", u),
    "atan": lambda u: Bin("^", Bin("+", Num(1.0), Bin("^", u, Num(2.0))), Num(-1.0)),
    # kink at 0 surfaces as DomainError on evaluation
    "abs": lambda u: Bin("*", u, Bin("^", Call("abs", u), Num(-1.0))),
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
    if op == "*" and isinstance(a, Num):  # a coefficient, as _simplify leaves it
        return Bin("*", a, _d(b, var))
    if op == "*":
        return Bin("+", Bin("*", _d(a, var), b), Bin("*", a, _d(b, var)))
    if op == "/":
        # a/c^k is a*c^-k: one DAG for both spellings, whose exponents add
        # where a quotient rule would square the denominator every time
        c, k = (b.left, b.right.value) if (
            isinstance(b, Bin) and b.op == "^" and isinstance(b.right, Num)) else (b, 1.0)
        return _d(Bin("*", a, Bin("^", c, Num(-k))), var)
    # power: constant exponent gets the monomial rule, the general case
    # goes through exp/log
    if isinstance(b, Num):
        return Bin("*", Bin("*", b, Bin("^", a, Num(b.value - 1.0))), _d(a, var))
    rewritten = Call("exp", Bin("*", b, Call("log", a)))
    return _d(rewritten, var)


def _is_num(node: Node, value=None) -> bool:
    return isinstance(node, Num) and (value is None or node.value == value)


def _coefficient(node: Node) -> tuple[float, Node | None]:
    """A simplified node as c·core: (value, None) for a number, (-1, x)
    for -x, (c, x) for c*x and (1, x) for any other x."""
    if isinstance(node, Num):
        return node.value, None
    if isinstance(node, Neg):
        return -1.0, node.arg
    if isinstance(node, Bin) and node.op == "*" and isinstance(node.left, Num):
        return node.left.value, node.right
    return 1.0, node


def _scaled(c: float, node: Node) -> Node:
    """c·node in normal form, for a simplified ``node``."""
    if c == 1:
        return node
    cn, core = _coefficient(node)
    c *= cn
    if core is None or c == 0:
        return Num(c if core is None else 0.0)
    return core if c == 1 else Neg(core) if c == -1 else Bin("*", Num(c), core)


@_memo
def _terms(node: Node) -> dict:
    """A simplified node as a sum through '+', '-' and negation: the
    coefficients of its nonzero terms, each keyed by the tuple of its
    factors that are not numbers, read through nested products."""
    if isinstance(node, Num):
        return {(): node.value} if node.value else {}
    if isinstance(node, Neg):
        return {k: -c for k, c in _terms(node.arg).items()}
    if isinstance(node, Bin) and node.op in "+-":  # whose sides share no factors
        right = _terms(node.right)
        return _terms(node.left) | (right if node.op == "+" else {k: -c for k, c in right.items()})
    if isinstance(node, Bin) and node.op == "*":  # a sum is one factor
        (ka, ca), (kb, cb) = (next(iter(t.items())) if len(t := _terms(x)) == 1
                              else ((x,), 1.0) for x in (node.left, node.right))
        return {ka + kb: ca * cb}
    return {(node,): 1.0}


def _gather(node: Node, common: set, sign: float, out: dict):
    """Add sign·node to ``out``: its terms with ``common`` factors as
    {factors: coefficient}, and each addend that holds none as {node: ±1}."""
    terms = _terms(node)
    if terms.keys().isdisjoint(common):
        if terms:
            out[node] = out.get(node, 0.0) + sign
    elif isinstance(node, Neg):
        _gather(node.arg, common, -sign, out)
    elif isinstance(node, Bin) and node.op in "+-":
        _gather(node.left, common, sign, out)
        _gather(node.right, common, sign if node.op == "+" else -sign, out)
    else:
        for k, c in terms.items():
            out[k] = out.get(k, 0.0) + sign * c


def _balanced(items: list) -> tuple[float, Node]:
    """(s, node), s·node the sum of :func:`_gather`'s (key, coefficient)
    ``items`` as a balanced tree; a chain would nest as deep as they are many."""
    if len(items) > 1:
        (sa, a), (sb, b) = _balanced(items[: len(items) // 2]), _balanced(items[len(items) // 2:])
        return sa, Bin("+" if sa == sb else "-", a, b)
    key, c = items[0]
    if isinstance(key, tuple):  # collected: the product of its factors
        key = functools.reduce(lambda x, y: Bin("*", x, y), key) if key else Num(1.0)
    return (c, key) if abs(c) == 1 else (1.0, _scaled(c, key))


@_memo
def _simplify(node: Node) -> Node:
    """The normal form of ``node``: constants folded, numbers that meet in
    a product one coefficient, and the coefficients of a sum's terms with
    equal factors, one object by hash-consing, added.  Only the sums that
    hold such terms are taken apart; every other addend keeps its node,
    which keeps the DAG shared.  The sum is rebuilt balanced, so that it
    stays shallow enough to compile."""
    if isinstance(node, (Num, Var)):
        return node
    if isinstance(node, Neg):
        return _scaled(-1.0, _simplify(node.arg))
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
    if op in "+-":
        ta, tb = _terms(a), _terms(b)
        common = ta.keys() & tb.keys()
        if ta and tb and not common:  # nothing to collect, the common case
            return Bin(op, a, b)
        out: dict = {}
        _gather(a, common, 1.0, out)
        _gather(b, common, 1.0 if op == "+" else -1.0, out)
        items = [(key, c) for key, c in out.items() if c]
        return _scaled(*_balanced(items)) if items else Num(0.0)
    if op == "*":
        (ca, A), (cb, B) = _coefficient(a), _coefficient(b)
        if (A is None) != (B is None):  # a number times a node
            return _scaled(ca * cb, A or B)
        if A is not None and A is not a and B is not b:  # two coefficients meet
            return _scaled(ca * cb, Bin("*", A, B))
    if op == "/":
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


def _recursion_checked(fn):
    """``fn``, raising DomainError where a DAG nests too deeply for
    Python's recursion limit; a derived one can outgrow parse's bound."""

    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except RecursionError:
            raise DomainError(f"{fn.__name__}: the expression nests too deeply") from None

    return checked


@_recursion_checked
def differentiate(e: Expr, var: str) -> Expr:
    """Exact symbolic derivative with respect to ``var`` ('x1'..'xn' or 't')."""
    if var != "t":
        axis = _axis(var, e.ndim)
        if axis is None:
            raise DimensionError(f"unknown variable '{var}'")
        var = axis
    return Expr(_simplify(_d(_simplify(e.root), var)), e.ndim)


@_recursion_checked
def laplacian(e: Expr) -> Expr:
    """Sum of second spatial derivatives."""
    root = _simplify(e.root)
    total: Node = Num(0.0)
    for i in range(e.ndim):
        var = f"x{i + 1}"
        second = _d(_simplify(_d(root, var)), var)
        total = Bin("+", total, second)
    return Expr(_simplify(total), e.ndim)


def laplacian_power(e: Expr, p: int) -> Expr:
    """Lap^p applied symbolically to an expression."""
    for _ in range(p):
        e = laplacian(e)
    return e


# ---------------------------------------------------------------------------
# Code generation and evaluation


# inlined operations one statement nests at most; each adds one level of
# parentheses, and Python's compiler refuses 200
_INLINE_DEPTH = 100
# temporaries one statement reads at most: each stays alive until the
# statement runs, so a balanced sum inlined whole would hold all its terms'
_INLINE_READS = 4


def _source(roots: Sequence[Node], literal: Callable[[float], str]) -> tuple[str, bool]:
    """Source of ``f(X, t)`` computing the DAG at ``roots``, which returns
    their values as a tuple, and whether it reads ``t``.  ``X`` is the
    sequence of coordinate arrays: x_k is ``X[k - 1]``.

    Distinct nodes are emitted once, in post-order, so a node that several
    roots share is computed once.  A node with several parents, the return
    counting as a root's parent, is assigned to a temporary, deleted after
    the last statement that reads it; every other node is inlined into its
    parent, so a DAG without shared nodes gives a single expression,
    unless it nests more than _INLINE_DEPTH operations or reads more than
    _INLINE_READS temporaries: the node past that is assigned to a
    temporary too, which keeps every statement within Python's limit of
    200 nested parentheses and frees temporaries as a sum goes.
    """
    uses: dict = {}
    order = []

    def visit(node):
        uses[node] = uses.get(node, 0) + 1
        if uses[node] == 1:
            for child in _children(node):
                visit(child)
            order.append(node)

    for root in roots:
        visit(root)
    # per node: its code, the temporaries it reads, and how many inlined
    # operations its code nests
    text, temps, levels = {}, {}, {}
    body = []  # (temporary, code, temporaries read)
    for node in order:
        args = []
        read = set()
        depth = 0
        for child in _children(node):
            shared = uses[child] > 1
            args.append(text[child] if shared else text.pop(child))
            read |= temps[child] if shared else temps.pop(child)
            depth = max(depth, 1 + (levels[child] if shared else levels.pop(child)))
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
        if args and (uses[node] > 1 or depth > _INLINE_DEPTH or len(read) > _INLINE_READS):
            name = f"_{len(body)}"
            body.append((name, code, read))
            code, read, depth = name, {name}, 0
        text[node], temps[node], levels[node] = code, read, depth
    last = {}
    for i, (_, _, read) in enumerate(body):
        last.update(dict.fromkeys(read, i))
    live = set().union(*(temps[root] for root in roots))
    lines = ["def f(X, t):"]
    for i, (name, code, read) in enumerate(body):
        lines.append(f"    {name} = {code}")
        dead = sorted(v for v in read if last[v] == i and v not in live)
        if dead:
            lines.append(f"    del {', '.join(dead)}")
    lines.append(f"    return ({''.join(text[root] + ',' for root in roots)})")
    reads_t = any(isinstance(n, Var) and n.name == "t" for n in order)
    return "\n".join(lines) + "\n", reads_t


@_memo
def _compiled(root: Node, more: tuple, complex_mode: bool) -> tuple[Callable, bool]:
    """The generated function of the simplified roots ``(root, *more)``,
    real or complex, and whether it reads ``t``."""
    # complex constants keep the principal value of an unfolded sqrt(-4)
    literal = (lambda v: f"complex({v!r})") if complex_mode else repr
    source, reads_t = _source((root,) + more, literal)
    try:
        code = compile(source, "<expr>", "exec")
    except (SyntaxError, MemoryError, RecursionError):
        raise DomainError("the expression is too deep to compile") from None
    namespace = {"np": np, "inf": math.inf, "nan": math.nan}
    exec(code, namespace)
    return namespace["f"], reads_t


def _call(fn: Callable, X: Sequence, t, dtype) -> list:
    """The values of ``fn(X, t)`` as arrays, ``X`` the coordinates built
    with ``dtype``; a non-finite value, or a complex value from real
    coordinates, raises DomainError."""
    try:
        with np.errstate(all="ignore"):
            outs = [np.asarray(v) for v in fn(X, t)]
    except ArithmeticError as exc:  # Python arithmetic on two constants
        raise DomainError(f"evaluation failed: {exc}") from None
    for out in outs:
        if out.dtype.kind == "c" and np.dtype(dtype).kind != "c":
            raise DomainError("real evaluation produced a complex value")
        if not np.isfinite(out).all():
            raise DomainError("evaluation produced non-finite values")
    return outs


def _axes(X: np.ndarray) -> tuple:
    """The coordinates of (..., n) points, as the n views ``X[..., k]``."""
    return tuple(X[..., k] for k in range(X.shape[-1]))


def _at_point(e: Expr, coords, t, dtype):
    X = np.asarray(coords, dtype=dtype)
    if X.shape != (e.ndim,):
        raise DimensionError(f"expected {e.ndim} coordinates, got {X.size}")
    fn, reads_t = _compiled(_simplify(e.root), (), dtype is complex)
    if t is None and reads_t:
        raise DomainError("unbound variable 't'")
    return _call(fn, _axes(X), dtype(0.0 if t is None else t), dtype)[0][()]


@_recursion_checked
def eval_real(e: Expr, coords: Sequence[float], t: float | None = None) -> float:
    """Evaluate at a real point; domain violations raise DomainError."""
    return float(_at_point(e, coords, t, float))


@_recursion_checked
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


@_recursion_checked
def compile_field(e: Expr | Sequence[Expr]) -> Callable:
    """Compile a field, or Q of one dimension, to a vectorized ``f(X, t=0.0)``.

    ``X`` is an array of points, shape ``(..., n)``, or an open mesh: a
    tuple of n coordinate arrays that broadcast against each other, such
    as a :class:`Mesh`.  On a mesh a subexpression is computed on the
    coordinates it reads, so one of x1 alone costs as many values as x1
    has.  ``t`` may be a scalar or an array that broadcasts against the
    points; the result has the broadcast shape of the points and ``t``,
    then Q fields on a new last axis, each node they share computed once.
    Non-finite results, and complex ones, raise :class:`DomainError`.  The
    result never shares memory with ``X`` or ``t``.
    """
    fields = (e,) if isinstance(e, Expr) else tuple(e)
    ndim = fields[0].ndim
    if any(f.ndim != ndim for f in fields):
        raise DimensionError(f"fields of dimensions {[f.ndim for f in fields]}")
    roots = tuple(_simplify(f.root) for f in fields)
    fn, _ = _compiled(roots[0], roots[1:], False)
    # a bare x_k or t returns the caller's array itself; every other root
    # computes a new one, copied only to broadcast it or to put it in C order
    bare = isinstance(roots[0], Var)

    def field(X, t=0.0):
        coords = tuple(np.asarray(x, dtype=float) for x in (
            X if isinstance(X, tuple) else _axes(np.asarray(X, dtype=float))))
        if len(coords) != ndim:
            raise DimensionError(f"expected {ndim} coordinates, got {len(coords)}")
        shape = np.broadcast_shapes(*(x.shape for x in coords), np.shape(t))
        outs = _call(fn, coords, t, float)
        if not isinstance(e, Expr):
            out = np.empty(shape + (len(outs),))
            for k, v in enumerate(outs):
                out[..., k] = v
            return out
        out = outs[0].astype(float, copy=False)
        if out.shape == shape and out.flags.c_contiguous and not bare:
            return out
        return np.broadcast_to(out, shape).copy()

    return field
