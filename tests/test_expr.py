"""Expression parsing, evaluation, and symbolic differentiation."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveforge.errors import (
    DimensionError,
    DomainError,
    ExprSyntaxError,
    UnknownSymbol,
)
from waveforge.expr import (
    Mesh,
    Num,
    compile_field,
    differentiate,
    eval_complex,
    eval_real,
    laplacian,
    laplacian_power,
    parse,
    to_string,
)


class TestParsing:
    def test_simple_arithmetic(self):
        e = parse("1 + 2*3", 1)
        assert eval_real(e, [0.0]) == 7.0

    def test_power_right_associative(self):
        e = parse("2^3^2", 1)
        assert eval_real(e, [0.0]) == 512.0

    def test_unary_minus(self):
        assert eval_real(parse("-x1^2", 1), [3.0]) == -9.0

    def test_pi_literal(self):
        assert eval_real(parse("pi", 1), [0.0]) == pytest.approx(math.pi)

    def test_variables_and_t(self):
        e = parse("x1*x2 + t", 2)
        assert eval_real(e, [2.0, 5.0], 3.0) == 13.0

    def test_dimension_bound(self):
        with pytest.raises(DimensionError):
            parse("x3", 2)

    def test_unknown_identifier_position(self):
        with pytest.raises(UnknownSymbol) as info:
            parse("sin(x1) + frob(x1)", 1)
        assert info.value.position == 10

    def test_unbalanced_paren(self):
        with pytest.raises(ExprSyntaxError):
            parse("sin(x1", 1)

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse("x1 )", 1)

    def test_empty_input(self):
        with pytest.raises(ExprSyntaxError):
            parse("", 1)

    def test_leading_zero_names_the_same_axis(self):
        # x01 is x1 to every path: evaluation, derivatives and compilation
        e = parse("x01^2", 1)
        assert eval_real(e, [3.0]) == 9.0
        assert compile_field(e)(np.array([[3.0]]))[0] == 9.0
        assert eval_real(laplacian(e), [3.0]) == pytest.approx(2.0)
        assert eval_real(differentiate(parse("x1^2", 1), "x01"), [3.0]) == 6.0


class TestEvaluation:
    def test_functions(self):
        e = parse("sin(x1) + cos(x1) + exp(x1)", 1)
        x = 0.37
        assert eval_real(e, [x]) == pytest.approx(
            math.sin(x) + math.cos(x) + math.exp(x), abs=1e-15
        )

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            eval_real(parse("1/x1", 1), [0.0])

    def test_log_of_nonpositive(self):
        with pytest.raises(DomainError):
            eval_real(parse("log(x1)", 1), [-1.0])

    def test_sqrt_of_negative(self):
        with pytest.raises(DomainError):
            eval_real(parse("sqrt(x1)", 1), [-4.0])

    def test_complex_euler_identity(self):
        # exp(i pi) = -1 through the complex evaluator
        e = parse("exp(x1)", 1)
        v = eval_complex(e, [1j * math.pi])
        assert v == pytest.approx(-1.0 + 0.0j, abs=1e-15)

    def test_complex_shift_of_cos(self):
        # cos continued to x + i h picks up a cosh factor
        e = parse("cos(x1)", 1)
        v = eval_complex(e, [0.5 + 0.25j])
        assert v.real == pytest.approx(math.cosh(0.25) * math.cos(0.5))

    @pytest.mark.parametrize("text, reference, z", [
        # the sign of a zero imaginary part picks the side of the cut
        ("log(x1)", cmath.log, complex(-1.0, 0.0)),
        ("log(x1)", cmath.log, complex(-1.0, -0.0)),
        ("log(x1)", cmath.log, 2.0 - 3.0j),
        ("sqrt(x1)", cmath.sqrt, complex(-4.0, 0.0)),
        ("sqrt(x1)", cmath.sqrt, complex(-4.0, -0.0)),
        ("sqrt(x1)", cmath.sqrt, 1.0j),
        ("atan(x1)", cmath.atan, complex(0.0, 2.0)),
        ("atan(x1)", cmath.atan, complex(-0.0, 2.0)),
        ("atan(x1)", cmath.atan, complex(0.0, -2.0)),
        ("atan(x1)", cmath.atan, complex(-0.0, -2.0)),
        ("atan(x1)", cmath.atan, 0.5 + 0.5j),
        ("x1^0.5", lambda z: cmath.exp(0.5 * cmath.log(z)), complex(-4.0, 0.0)),
        ("x1^0.5", lambda z: cmath.exp(0.5 * cmath.log(z)), complex(-4.0, -0.0)),
        ("x1^(1/3)", lambda z: cmath.exp(cmath.log(z) / 3), complex(-8.0, -0.0)),
        ("x1^(1+2*t)", lambda z: cmath.exp((1 + 1j) * cmath.log(z)), 0.5 - 2.0j),
    ])
    def test_principal_branches(self, text, reference, z):
        got = eval_complex(parse(text, 1), [z], 0.5j)
        assert got == pytest.approx(reference(z), rel=1e-14, abs=1e-15)

    def test_complex_constant_keeps_its_branch(self):
        # sqrt(-4) is not folded at real points; at complex ones it is 2i
        assert eval_complex(parse("sqrt(-4)*x1", 1), [2.0]) == pytest.approx(4.0j)

    @pytest.mark.parametrize("evaluate", [eval_real, eval_complex])
    def test_unbound_time(self, evaluate):
        with pytest.raises(DomainError, match="'t'"):
            evaluate(parse("x1 + t", 1), [1.0])
        assert evaluate(parse("x1 + 0*t", 1), [1.0]) == 1.0

    @pytest.mark.parametrize("text", ["sqrt(-4)*x1", "1/0 + x1", "(-8)^(1/3)*x1"])
    def test_constant_domain_error(self, text):
        e = parse(text, 1)
        with pytest.raises(DomainError):
            eval_real(e, [2.0])
        with pytest.raises(DomainError):
            compile_field(e)(np.array([[2.0]]))

    @pytest.mark.parametrize("text", ["log(x1)", "1/x1", "x1^(-2)"])
    def test_complex_pole(self, text):
        with pytest.raises(DomainError):
            eval_complex(parse(text, 1), [0.0j])

    def test_wrong_coordinate_count(self):
        with pytest.raises(DimensionError):
            eval_real(parse("x1", 2), [1.0])
        with pytest.raises(DimensionError):
            eval_complex(parse("x1", 1), [1.0, 2.0])


class TestDifferentiation:
    def test_polynomial(self):
        e = differentiate(parse("x1^3", 1), "x1")
        assert eval_real(e, [2.0]) == pytest.approx(12.0)

    def test_chain_rule(self):
        e = differentiate(parse("sin(x1^2)", 1), "x1")
        x = 0.8
        assert eval_real(e, [x]) == pytest.approx(2 * x * math.cos(x * x))

    def test_quotient(self):
        e = differentiate(parse("sin(x1)/x1", 1), "x1")
        x = 1.3
        exact = (x * math.cos(x) - math.sin(x)) / x**2
        assert eval_real(e, [x]) == pytest.approx(exact, abs=1e-14)

    def test_time_derivative(self):
        e = differentiate(parse("t^2*x1", 1), "t")
        assert eval_real(e, [3.0], 2.0) == pytest.approx(12.0)

    def test_laplacian_of_quadratic(self):
        e = laplacian(parse("x1^2 + x2^2 + x3^2", 3))
        assert eval_real(e, [0.3, -0.4, 0.9]) == pytest.approx(6.0)

    def test_laplacian_of_plane_wave(self):
        # Lap sin(k.x) = -|k|^2 sin(k.x)
        e = parse("sin(2*x1 + x2)", 2)
        lap = laplacian(e)
        x = [0.3, 0.7]
        assert eval_real(lap, x) == pytest.approx(-5.0 * eval_real(e, x))

    def test_unknown_variable(self):
        with pytest.raises(DimensionError):
            differentiate(parse("x1", 1), "x2")


class TestCompiledField:
    def test_matches_math_reference(self):
        e = parse("sin(x1)*exp(-x2^2) + x1*x2", 2)
        f = compile_field(e)
        pts = np.array([[0.1, 0.2], [1.0, -1.0], [0.0, 0.0]])
        got = f(pts)
        for i, (x, y) in enumerate(pts):
            want = math.sin(x) * math.exp(-y * y) + x * y
            assert got[i] == pytest.approx(want, abs=1e-15)

    def test_time_broadcast(self):
        e = parse("x1 + t", 1)
        f = compile_field(e)
        pts = np.zeros((3, 1))
        got = f(pts, np.array([1.0, 2.0, 3.0]))
        assert np.allclose(got, [1.0, 2.0, 3.0])

    def test_constant_broadcast(self):
        f = compile_field(parse("2", 3))
        assert f(np.zeros((4, 3))).shape == (4,)

    def test_domain_violation(self):
        f = compile_field(parse("log(x1)", 1))
        with pytest.raises(DomainError):
            f(np.array([[-1.0]]))

    def test_wrong_trailing_axis(self):
        f = compile_field(parse("x1", 2))
        with pytest.raises(DimensionError):
            f(np.zeros((4, 3)))

    def test_bare_variable_is_a_copy(self):
        # x1 alone returns the caller's coordinates, so that one result is
        # copied; changing it leaves the points as they were
        f = compile_field(parse("x1", 2))
        pts = np.array([[0.5, 1.0], [2.0, -1.0]])
        axes = (np.array([[0.5], [2.0]]), np.array([[1.0, -1.0]]))
        for X, want in ((pts, [0.5, 2.0]), (axes, [[0.5, 0.5], [2.0, 2.0]])):
            got = f(X)
            assert got.tolist() == want
            assert not any(np.may_share_memory(got, x) for x in (pts, *axes))
            got[...] = 7.0
        assert pts.tolist() == [[0.5, 1.0], [2.0, -1.0]]
        assert axes[0].tolist() == [[0.5], [2.0]]

    def test_bare_time_is_a_copy(self):
        f = compile_field(parse("t", 1))
        t = np.array([0.25, 0.5, 0.75])
        got = f(np.zeros((3, 1)), t)
        assert got.tolist() == [0.25, 0.5, 0.75]
        assert not np.may_share_memory(got, t)
        got[:] = 7.0
        assert t.tolist() == [0.25, 0.5, 0.75]


class TestOpenMesh:
    """On an open mesh a field equals, bit for bit, the field on the
    stacked grid, and keeps its domain checks."""

    @staticmethod
    def _grids(d, q=5, lo=-0.9):
        axes = [np.linspace(lo, 1.3, q) + 0.1 * i for i in range(d)]
        mesh = Mesh(np.meshgrid(*axes, indexing="ij", sparse=True))
        return mesh, np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)

    @pytest.mark.parametrize("text", [
        "sin(2*x1)", "0", "2",
        "sin(x1)*exp(-x2^2) + x1*x3^2 - cos(x2*x3)/(2 + x1)"])
    def test_matches_stacked_grid(self, text):
        f = compile_field(parse(text, 3))
        mesh, stacked = self._grids(3)
        got = f(mesh)
        assert got.shape == (5, 5, 5)
        assert got.tolist() == f(stacked).tolist()

    @pytest.mark.parametrize("text", ["cos(3*t) + t^2", "sin(x1 - t)*x2 + t"])
    def test_time_axis(self, text):
        f = compile_field(parse(text, 2))
        mesh, stacked = self._grids(2)
        t = np.linspace(0.0, 1.0, 4)[:, None, None]
        got = f(mesh, t)
        assert got.shape == (4, 5, 5)
        assert got.tolist() == f(stacked, t).tolist()

    def test_plain_tuple(self):
        f = compile_field(parse("x1*x2", 2))
        mesh, stacked = self._grids(2)
        assert f(tuple(mesh)).tolist() == f(stacked).tolist()

    def test_shape_is_the_stacked_shape(self):
        mesh, stacked = self._grids(3)
        assert np.shape(mesh) == stacked.shape == (5, 5, 5, 3)

    def test_domain_checks(self):
        mesh, _ = self._grids(2, lo=0.0)
        assert mesh[0].min() == 0.0
        with pytest.raises(DomainError, match="non-finite"):
            compile_field(parse("log(x1)", 2))(mesh)
        with pytest.raises(DomainError, match="complex"):
            compile_field(parse("(0-8)^(1/3)*x1", 2))(mesh)

    def test_coordinate_count(self):
        mesh, _ = self._grids(2)
        with pytest.raises(DimensionError):
            compile_field(parse("x1", 3))(mesh)


def _distinct_nodes(root) -> int:
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(getattr(node, f) for f in ("arg", "left", "right")
                         if hasattr(node, f))
    return len(seen)


class TestDag:
    def test_gaussian_laplacian_power(self):
        # as a tree, Lap^4 of this Gaussian has about 1.7e5 node objects
        e = laplacian_power(parse("exp(-(x1^2 + x2^2 + x3^2)/4)", 3), 4)
        assert _distinct_nodes(e.root) < 2000
        X = np.random.default_rng(4).uniform(-1.5, 1.5, (8, 3))
        got = compile_field(e)(X)
        # the heat flow exp(s Lap) takes the Gaussian to
        # g(s) = (1+s)^(-3/2) exp(-|x|^2/(4(1+s))), so Lap^4 is the fourth
        # s-derivative of g at 0: 4! times its Taylor coefficient, here by
        # the trapezoid rule on the circle |s| = 1/2
        s = 0.5 * np.exp(2j * np.pi * np.arange(64) / 64)
        r2 = np.sum(X**2, axis=1)[:, None]
        g = (1 + s) ** -1.5 * np.exp(-r2 / (4 * (1 + s)))
        want = 24 * np.mean(g / s**4, axis=1).real
        assert np.max(np.abs(got - want)) < 1e-11 * np.max(np.abs(want))

    def test_rational_laplacian_powers(self):
        # for radial f(s), s = |x|^2 in three dimensions, Lap f = 4 s f'' +
        # 6 f', which takes (1+s)^-j to (4j^2 - 2j)(1+s)^-(j+1) -
        # 4j(j+1)(1+s)^-(j+2): exact integer coefficients per power
        e = parse("1/(1 + x1^2 + x2^2 + x3^2)", 3)
        X = np.array([[0.0, 3.9, 0.0], [0.3, -1.2, 2.5], [7.0, 0.0, -0.5],
                      [-6.0, 5.0, 5.0], [0.0, 0.0, 0.0]])
        s = np.sum(X**2, axis=1)
        coeffs = {1: 1}
        for q in range(1, 5):
            nxt = dict.fromkeys(range(1, 2 * q + 2), 0)
            for j, c in coeffs.items():
                nxt[j + 1] += c * (4 * j * j - 2 * j)
                nxt[j + 2] -= c * 4 * j * (j + 1)
            coeffs = nxt
            want = sum(c * (1 + s) ** -j for j, c in coeffs.items())
            # Lap^4 at (0, 3.9, 0) overflowed while every derivative squared
            # its denominator
            got = compile_field(laplacian_power(e, q))(X)
            assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12
        # exponents add: Lap^3 had 2,551 nodes when denominators squared
        assert _distinct_nodes(laplacian_power(e, 3).root) < 1000

    def test_equal_subexpressions_are_one_node(self):
        e = parse("sin(x1)*x2 + sin(x1)", 2).root
        assert e.left.left is e.right
        assert Num(2.5) is Num(2.5)
        assert Num(-0.0) is not Num(0.0)


# hand-written references for the property tests
_REFERENCE = {
    "x1": lambda x: x,
    "x1^2 + 3*x1": lambda x: x * x + 3 * x,
    "sin(x1)*cos(x1)": lambda x: math.sin(x) * math.cos(x),
    "exp(-x1^2)": lambda x: math.exp(-x * x),
    "x1/(1 + x1^2)": lambda x: x / (1 + x * x),
    "sin(x1^2) - x1*cos(x1)": lambda x: math.sin(x * x) - x * math.cos(x),
    "sinh(x1) + cosh(x1)": lambda x: math.sinh(x) + math.cosh(x),
    "atan(x1)": math.atan,
}
_expr_texts = st.sampled_from(sorted(_REFERENCE))


class TestProperties:
    @given(_expr_texts, st.floats(-2.0, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_print_parse_roundtrip(self, text, x):
        e = parse(text, 1)
        back = parse(to_string(e), 1)
        assert eval_real(back, [x]) == pytest.approx(
            eval_real(e, [x]), abs=1e-12, rel=1e-12
        )

    @given(_expr_texts, st.floats(-1.5, 1.5))
    @settings(max_examples=60, deadline=None)
    def test_derivative_matches_difference_quotient(self, text, x):
        e = parse(text, 1)
        d = differentiate(e, "x1")
        h = 1e-5
        fd = (eval_real(e, [x + h]) - eval_real(e, [x - h])) / (2 * h)
        assert eval_real(d, [x]) == pytest.approx(fd, abs=1e-7, rel=1e-6)

    @given(_expr_texts, st.floats(-2.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_matches_math_reference(self, text, x):
        e = parse(text, 1)
        want = _REFERENCE[text](x)
        assert compile_field(e)(np.array([[x]]))[0] == pytest.approx(
            want, abs=1e-13, rel=1e-13
        )
        assert eval_real(e, [x]) == pytest.approx(want, abs=1e-13, rel=1e-13)
