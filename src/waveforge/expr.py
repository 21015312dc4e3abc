"""Scalar expression engine over space-time variables.

Expressions are parsed from infix text into an immutable AST over the
variables ``x1..xn`` and ``t``.  They evaluate at real points (IEEE double,
with domain violations reported as :class:`DomainError` rather than silent
NaN), at complex points (principal branches throughout, which is what the
complex-shift operators need), and differentiate exactly by symbolic rules.

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

Branch conventions in complex mode: ``log``, ``sqrt``, ``atan`` and
non-integer powers use the principal branch (cut along the negative real
axis for log/sqrt/pow, along ``(-i inf, -i] and [i, i inf)`` for atan).
In real mode a negative base with a non-integer exponent is a
:class:`DomainError`.
"""

from __future__ import annotations

import cmath
import math
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
]

FUNCTIONS = (
    "sin",
    "cos",
    "tan",
    "exp",
    "log",
    "sqrt",
    "sinh",
    "cosh",
    "atan",
    "abs",
)

_REAL_FN = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "atan": math.atan,
    "abs": abs,
}

_COMPLEX_FN = {
    "sin": cmath.sin,
    "cos": cmath.cos,
    "tan": cmath.tan,
    "exp": cmath.exp,
    "log": cmath.log,
    "sqrt": cmath.sqrt,
    "sinh": cmath.sinh,
    "cosh": cmath.cosh,
    "atan": cmath.atan,
    "abs": abs,
}

_NUMPY_FN = {
    "sin": "np.sin",
    "cos": "np.cos",
    "tan": "np.tan",
    "exp": "np.exp",
    "log": "np.log",
    "sqrt": "np.sqrt",
    "sinh": "np.sinh",
    "cosh": "np.cosh",
    "atan": "np.arctan",
    "abs": "np.abs",
}


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str  # "t" or "x<k>"


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Node"


Node = Union[Num, Var, Neg, Bin, Call]


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
            return Var(name)
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
# Evaluation


def _bindings(ndim: int, coords: Sequence, t=None) -> dict:
    coords = list(coords)
    if len(coords) != ndim:
        raise DimensionError(f"expected {ndim} coordinates, got {len(coords)}")
    env = {f"x{i + 1}": coords[i] for i in range(ndim)}
    if t is not None:
        env["t"] = t
    return env


def _eval(node: Node, env: dict, fns: dict, complex_mode: bool):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise DomainError(f"unbound variable '{node.name}'") from None
    if isinstance(node, Neg):
        return -_eval(node.arg, env, fns, complex_mode)
    if isinstance(node, Call):
        arg = _eval(node.arg, env, fns, complex_mode)
        if not complex_mode:
            if node.fn == "log" and arg <= 0:
                raise DomainError(f"log of non-positive value {arg}")
            if node.fn == "sqrt" and arg < 0:
                raise DomainError(f"sqrt of negative value {arg}")
        else:
            if node.fn == "log" and arg == 0:
                raise DomainError("log branch point at 0")
        try:
            return fns[node.fn](arg)
        except (ValueError, OverflowError) as exc:
            raise DomainError(f"{node.fn}: {exc}") from None
    left = _eval(node.left, env, fns, complex_mode)
    right = _eval(node.right, env, fns, complex_mode)
    op = node.op
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise DomainError("division by zero")
            return left / right
        # power
        if not complex_mode and left < 0 and right != int(right):
            raise DomainError(
                f"negative base {left} with non-integer exponent {right}"
            )
        if left == 0 and (right.real if complex_mode else right) < 0:
            raise DomainError("zero base with negative exponent")
        return left ** right
    except OverflowError as exc:
        raise DomainError(f"overflow in '{op}': {exc}") from None


def eval_real(e: Expr, coords: Sequence[float], t: float | None = None) -> float:
    """Evaluate at a real point; domain violations raise DomainError."""
    env = _bindings(e.ndim, coords, t)
    value = _eval(e.root, env, _REAL_FN, complex_mode=False)
    if isinstance(value, float) and math.isnan(value):
        raise DomainError("evaluation produced NaN")
    return float(value)


def eval_complex(e: Expr, coords: Sequence[complex], t=None) -> complex:
    """Evaluate at a complex point using principal branches."""
    env = {k: complex(v) for k, v in _bindings(e.ndim, coords, t).items()}
    return complex(_eval(e.root, env, _COMPLEX_FN, complex_mode=True))


# ---------------------------------------------------------------------------
# Differentiation


def _d(node: Node, var: str) -> Node:
    if isinstance(node, Num):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0) if node.name == var else Num(0.0)
    if isinstance(node, Neg):
        return Neg(_d(node.arg, var))
    if isinstance(node, Call):
        inner = _d(node.arg, var)
        u = node.arg
        fn = node.fn
        if fn == "sin":
            outer = Call("cos", u)
        elif fn == "cos":
            outer = Neg(Call("sin", u))
        elif fn == "tan":
            outer = Bin("/", Num(1.0), Bin("^", Call("cos", u), Num(2.0)))
        elif fn == "exp":
            outer = Call("exp", u)
        elif fn == "log":
            outer = Bin("/", Num(1.0), u)
        elif fn == "sqrt":
            outer = Bin("/", Num(1.0), Bin("*", Num(2.0), Call("sqrt", u)))
        elif fn == "sinh":
            outer = Call("cosh", u)
        elif fn == "cosh":
            outer = Call("sinh", u)
        elif fn == "atan":
            outer = Bin("/", Num(1.0), Bin("+", Num(1.0), Bin("^", u, Num(2.0))))
        elif fn == "abs":
            # kink at 0 surfaces as DomainError on evaluation
            outer = Bin("/", u, Call("abs", u))
        else:  # pragma: no cover - parser rejects unknown functions
            raise UnknownSymbol(0, fn)
        return Bin("*", outer, inner)
    op = node.op
    a, b = node.left, node.right
    if op == "+":
        return Bin("+", _d(a, var), _d(b, var))
    if op == "-":
        return Bin("-", _d(a, var), _d(b, var))
    if op == "*":
        return Bin("+", Bin("*", _d(a, var), b), Bin("*", a, _d(b, var)))
    if op == "/":
        num = Bin("-", Bin("*", _d(a, var), b), Bin("*", a, _d(b, var)))
        return Bin("/", num, Bin("^", b, Num(2.0)))
    # power: constant exponent gets the monomial rule, the general case
    # goes through exp/log
    if isinstance(b, Num):
        power = Bin("*", Bin("*", b, Bin("^", a, Num(b.value - 1.0))), _d(a, var))
        return power
    rewritten = Call("exp", Bin("*", b, Call("log", a)))
    return _d(rewritten, var)


def _is_num(node: Node, value=None) -> bool:
    return isinstance(node, Num) and (value is None or node.value == value)


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
            try:
                return Num(float(_REAL_FN[node.fn](arg.value)))
            except (ValueError, OverflowError):
                pass
        return Call(node.fn, arg)
    a = _simplify(node.left)
    b = _simplify(node.right)
    op = node.op
    if isinstance(a, Num) and isinstance(b, Num):
        try:
            if op == "+":
                return Num(a.value + b.value)
            if op == "-":
                return Num(a.value - b.value)
            if op == "*":
                return Num(a.value * b.value)
            if op == "/" and b.value != 0:
                return Num(a.value / b.value)
            if op == "^" and not (a.value < 0 and b.value != int(b.value)):
                return Num(a.value ** b.value)
        except (OverflowError, ZeroDivisionError):
            pass
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
# Vectorized compilation (the hot path for quadrature pipelines)


def _codegen(node: Node) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        if node.name == "t":
            return "t"
        return f"X[..., {int(node.name[1:]) - 1}]"
    if isinstance(node, Neg):
        return f"(-{_codegen(node.arg)})"
    if isinstance(node, Call):
        return f"{_NUMPY_FN[node.fn]}({_codegen(node.arg)})"
    a = _codegen(node.left)
    b = _codegen(node.right)
    if node.op == "^":
        return f"({a})**({b})"
    return f"({a}{node.op}{b})"


def compile_field(e: Expr) -> Callable:
    """Compile to a numpy-vectorized callable ``f(X, t=0.0)``.

    ``X`` has shape ``(..., n)``; the result has shape ``(...,)``.  ``t``
    may be a scalar or any array broadcastable against ``X[..., 0]``.
    Non-finite results raise :class:`DomainError`, matching the scalar
    evaluator's contract.
    """
    source = _codegen(_simplify(e.root))
    raw = eval(f"lambda X, t: {source}", {"np": np})
    ndim = e.ndim

    def field(X, t=0.0):
        X = np.asarray(X, dtype=float)
        if X.shape[-1] != ndim:
            raise DimensionError(
                f"expected trailing axis of length {ndim}, got {X.shape[-1]}"
            )
        with np.errstate(all="ignore"):
            out = raw(X, t)
        out = np.broadcast_to(np.asarray(out, dtype=float), X.shape[:-1]).copy()
        if not np.all(np.isfinite(out)):
            raise DomainError("vectorized evaluation produced non-finite values")
        return out

    return field
