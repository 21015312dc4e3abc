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
    WaveforgeError,
)
from waveforge.expr import (
    MAX_DEPTH,
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
from waveforge import expr


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


# Each text's printed form, or its error's class, offset and message, as
# the parser before the token pass gave them (an error without an offset,
# DimensionError, gives its whole text).  The texts reach every branch of
# the grammar and of the tokens: operators at each precedence, '^' to the
# right, unary minus either side of '^', calls, variables, numbers and the
# ways each of them fails.
_GOLDEN = [
    ('1 + 2*3', 1, '1+2*3'),
    ('2^3^2', 1, '2^3^2'),
    ('-x1^2', 1, '-x1^2'),
    ('-x1*x2', 2, '(-x1)*x2'),
    ('x1 - -x2', 2, 'x1-(-x2)'),
    ('2^-x1^2', 1, '2^(-x1^2)'),
    ('(x1 + x2)*t', 2, '(x1+x2)*t'),
    ('x1/x2/t', 2, 'x1/x2/t'),
    ('x1-(x2-t)', 2, 'x1-(x2-t)'),
    ('x1*-x2*t', 2, 'x1*(-x2)*t'),
    ('x1+-x2*t', 2, 'x1+(-x2)*t'),
    ('-(-x1)', 1, '-(-x1)'),
    ('--x1', 1, '-(-x1)'),
    ('-2^2', 1, '-2^2'),
    ('x1 * 2 ^ - 3', 1, 'x1*2^(-3)'),
    ('(x1)^2', 1, 'x1^2'),
    ('sin(x1)^2', 1, 'sin(x1)^2'),
    ('x1^x2^t', 2, 'x1^x2^t'),
    ('pi', 1, '3.141592653589793'),
    ('t', 0, 't'),
    ('x01', 1, 'x1'),
    ('x00', 1, (DimensionError, None, "variable 'x00' out of range for dimension 1")),
    ('x3', 2, (DimensionError, None, "variable 'x3' out of range for dimension 2")),
    ('x0', 2, (DimensionError, None, "variable 'x0' out of range for dimension 2")),
    ('x', 1, (UnknownSymbol, 0, "unknown identifier 'x'")),
    ('y1', 1, (UnknownSymbol, 0, "unknown identifier 'y1'")),
    ('X1', 1, (UnknownSymbol, 0, "unknown identifier 'X1'")),
    ('_a', 1, (UnknownSymbol, 0, "unknown identifier '_a'")),
    ('é', 1, (UnknownSymbol, 0, "unknown identifier 'é'")),
    ('e', 1, (UnknownSymbol, 0, "unknown identifier 'e'")),
    ('sin(x1) + frob(x1)', 1, (UnknownSymbol, 10, "unknown function 'frob'")),
    ('frob', 1, (UnknownSymbol, 0, "unknown identifier 'frob'")),
    ('sin', 1, (UnknownSymbol, 0, "unknown identifier 'sin'")),
    ('sin (x1)', 1, 'sin(x1)'),
    ('atan(abs(x1))', 1, 'atan(abs(x1))'),
    ('pi(x1)', 1, (UnknownSymbol, 0, "unknown function 'pi'")),
    ('t(x1)', 1, (UnknownSymbol, 0, "unknown function 't'")),
    ('x1(2)', 1, (UnknownSymbol, 0, "unknown function 'x1'")),
    ('sqrt(x1', 1, (ExprSyntaxError, 7, "expected ')'")),
    ('(x1', 1, (ExprSyntaxError, 3, "expected ')'")),
    ('((x1)', 1, (ExprSyntaxError, 5, "expected ')'")),
    ('x1 )', 1, (ExprSyntaxError, 3, 'unexpected trailing input')),
    ('', 1, (ExprSyntaxError, 0, 'unexpected end of input')),
    ('   ', 1, (ExprSyntaxError, 3, 'unexpected end of input')),
    ('x1 +', 1, (ExprSyntaxError, 4, 'unexpected end of input')),
    ('x1^', 1, (ExprSyntaxError, 3, 'unexpected end of input')),
    ('x1 + * x2', 2, (ExprSyntaxError, 5, "unexpected character '*'")),
    ('+x1', 1, (ExprSyntaxError, 0, "unexpected character '+'")),
    (')', 1, (ExprSyntaxError, 0, "unexpected character ')'")),
    ('abs()', 1, (ExprSyntaxError, 4, "unexpected character ')'")),
    ('x1 + ( )', 1, (ExprSyntaxError, 7, "unexpected character ')'")),
    ('#', 1, (ExprSyntaxError, 0, "unexpected character '#'")),
    ('1.5e3', 1, '1500'),
    ('1e-3', 1, '0.001'),
    ('1E+2', 1, '100'),
    ('.5', 1, '0.5'),
    ('1.', 1, '1'),
    ('1.2.3', 1, (ExprSyntaxError, 0, "bad numeric literal '1.2.3'")),
    ('.', 1, (ExprSyntaxError, 0, "bad numeric literal '.'")),
    ('1e', 1, (ExprSyntaxError, 1, 'unexpected trailing input')),
    ('1e+', 1, (ExprSyntaxError, 1, 'unexpected trailing input')),
    ('2x1', 1, (ExprSyntaxError, 1, 'unexpected trailing input')),
    ('x1.5', 1, (ExprSyntaxError, 2, 'unexpected trailing input')),
    ('1e5x', 1, (ExprSyntaxError, 3, 'unexpected trailing input')),
    ('1/0', 1, '1/0'),
    ('0.1+1e16', 1, '0.1+1e+16'),
    ('x1 x2', 2, (ExprSyntaxError, 3, 'unexpected trailing input')),
    ('sin(x1)(x2)', 1, (ExprSyntaxError, 7, 'unexpected trailing input')),
    ('x1 ½', 1, (ExprSyntaxError, 3, 'unexpected trailing input')),
    ('½', 1, (ExprSyntaxError, 0, "unexpected character '½'")),
    ('x1\t*\nx2', 2, 'x1*x2'),
    ('x1\xa0+\u2003x2', 2, 'x1+x2'),
    ("(" * 50 + "x1" + ")" * 50, 1, 'x1'),
]


class TestParserTable:
    @pytest.mark.parametrize("text, n, want", _GOLDEN)
    def test_as_before(self, text, n, want):
        if isinstance(want, str):
            assert to_string(parse(text, n)) == want
            return
        cls, position, message = want
        with pytest.raises(WaveforgeError) as info:
            parse(text, n)
        assert type(info.value) is cls
        assert getattr(info.value, "position", None) == position
        assert (info.value.message if position is not None
                else str(info.value)) == message

    # digits are ASCII: the parser before the token pass read any Unicode
    # digit, so 'x²' raised a bare ValueError, and '²' or '1²' a bad literal
    @pytest.mark.parametrize("text, cls, position, message", [
        ("x\u00b2", UnknownSymbol, 0, "unknown identifier 'x\u00b2'"),
        ("x1\u00b2", UnknownSymbol, 0, "unknown identifier 'x1\u00b2'"),
        ("x\u0661", UnknownSymbol, 0, "unknown identifier 'x\u0661'"),
        ("\u00b2", ExprSyntaxError, 0, "unexpected character '\u00b2'"),
        ("\u0663", ExprSyntaxError, 0, "unexpected character '\u0663'"),
        ("1\u00b2", ExprSyntaxError, 1, "unexpected trailing input"),
    ])
    def test_digits_are_ascii(self, text, cls, position, message):
        with pytest.raises(cls) as info:
            parse(text, 2)
        assert (info.value.position, info.value.message) == (position, message)

    def test_long_index_out_of_range(self):
        # int() refuses a 5000-digit string; the index is out of range
        with pytest.raises(DimensionError, match="out of range"):
            parse("x" + "1" * 5000, 3)
        assert to_string(parse("x" + "0" * 5000 + "2", 3)) == "x2"

    @pytest.mark.parametrize("var", ["x\u00b9", "x\u0661", "y1", "x"])
    def test_differentiate_reads_ascii_digits(self, var):
        with pytest.raises(DimensionError, match="unknown variable"):
            differentiate(parse("x1^2", 1), var)

    def test_differentiate_out_of_range(self):
        with pytest.raises(DimensionError, match="out of range for dimension 1"):
            differentiate(parse("x1^2", 1), "x2")

    def test_infinite_literal_prints(self):
        # the printer took int() of inf and raised OverflowError
        assert to_string(parse("-1e400*x1", 1)) == "(-inf)*x1"


def _chain(op, count):
    """x1 followed by ``count`` more x1, each after ``op``."""
    return "x1" + f"{op}x1" * count


class TestDepthBound:
    @pytest.mark.parametrize("op", ["+", "*", "^"])
    def test_chain_height(self, op):
        assert parse(_chain(op, MAX_DEPTH), 1)
        text = _chain(op, MAX_DEPTH + 1)
        with pytest.raises(ExprSyntaxError, match="levels deep") as info:
            parse(text, 1)
        # a left chain is refused at the operator that makes it too tall,
        # 602; '^' groups to the right, so at the operand nested too deep
        assert info.value.position == 3 * MAX_DEPTH + (3 if op == "^" else 2)

    @pytest.mark.parametrize("text", [
        "(" * 300 + "x1" + ")" * 300,
        "-" * 2000 + "x1",
        "sin(" * 300 + "x1" + ")" * 300,
        _chain("+", 5000),
        _chain("^", 400),
    ])
    def test_deep_text_refused(self, text):
        with pytest.raises(ExprSyntaxError, match=f"more than {MAX_DEPTH} levels"):
            parse(text, 1)

    def test_polynomial_of_200_terms(self):
        e = parse("+".join(f"{k}*x1" for k in range(1, 201)), 1)
        x = np.array([[0.5], [-2.0]])
        assert np.array_equal(compile_field(e)(x), 20100 * x[:, 0])
        assert eval_real(laplacian(e), [0.3]) == 0.0

    def test_stacked_polynomials_of_200_terms(self):
        # long chains as several roots of one function: each is cut into
        # temporaries as it would be alone
        one = "+".join(f"{k}*x1" for k in range(1, 201))
        two = "+".join(f"{k}*x1^2" for k in range(1, 200))  # as deep as parse takes
        fields = [parse(one, 1), parse(two, 1)]
        f = compile_field(fields + [laplacian(fields[1]), fields[0]])
        x = np.array([[0.5], [-2.0]])
        want = [[20100 * v, 19900 * v * v, 39800, 20100 * v] for v in x[:, 0]]
        assert np.array_equal(f(x), want)

    def test_shallow_code_unchanged(self):
        # no statement nests deeper than expr._INLINE_DEPTH operations:
        # below that a DAG without shared nodes is one expression
        def source(count):
            return expr._source((parse(_chain("+", count), 1).root,), repr)[0]

        assert source(expr._INLINE_DEPTH).count("\n") == 2  # def, return
        # past it, the node at that depth becomes a temporary
        lines = source(150).splitlines()
        assert [line.split(" = ")[0] for line in lines[1:-1]] == ["    _0"]
        assert compile_field(parse(_chain("+", 150), 1))(np.array([[2.0]]))[0] == 302.0

    def test_derived_expression_too_deep(self):
        # within the bound, but a derivative of the tower x1^x1^...^x1
        # nests past Python's recursion limit
        e = parse(_chain("^", MAX_DEPTH - 1), 1)
        with pytest.raises(DomainError, match="nests too deeply"):
            laplacian(e)


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

    @pytest.mark.parametrize("text, x, want", [
        ("x1^-2", -1.0, 2.0),
        ("x1^(-2)", -1.0, 2.0),
        ("x1^(4/2)", -1.5, -3.0),
        ("(x1-5)^-2", 0.0, 2 / 125),
    ])
    def test_constant_exponent_takes_the_power_rule(self, text, x, want):
        # -2 parses as a negation and 4/2 as a quotient; differentiated on
        # the unsimplified DAG they took exp(b*log(a)), not finite for a < 0
        e = differentiate(parse(text, 1), "x1")
        assert eval_real(e, [x]) == pytest.approx(want, rel=1e-15)


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

    def test_fields_stack_on_a_last_axis(self):
        # each column is the field compiled alone, bit for bit, on points and
        # on a mesh, and no column shares memory with the coordinates
        texts = ["sin(x1)*x2 + t", "x2", "3", "sin(x1)*x2 + t", "t"]
        fields = [parse(text, 2) for text in texts]
        f = compile_field(fields)
        pts = np.array([[0.5, 1.0], [2.0, -1.0], [-0.3, 0.2]])
        mesh = (np.array([[0.5], [2.0]]), np.array([[1.0, -1.0, 0.2]]))
        t = np.array([0.25, 0.5, 0.75])
        for X, shape in ((pts, (3, 5)), (mesh, (2, 3, 5))):
            got = f(X, t)
            assert got.shape == shape
            for k, e in enumerate(fields):
                assert np.array_equal(got[..., k], compile_field(e)(X, t))
            assert not any(np.may_share_memory(got, x) for x in (pts, *mesh, t))
        assert compile_field(fields[:1])(pts).shape == (3, 1)

    def test_shared_nodes_computed_once(self):
        # sin(x1) and its product with x2 are read by two roots: each is one
        # temporary, and a root the return reads is never deleted
        roots = tuple(parse(text, 2).root for text in
                      ("sin(x1)*x2 + 1", "cos(sin(x1)*x2)", "sin(x1)"))
        source = expr._source(roots, repr)[0]
        assert source.count("np.sin(X[0])") == 1
        assert source.count("(_0*X[1])") == 1
        assert "del" not in source
        assert source.splitlines()[-1] == "    return ((_1+1.0),np.cos(_1),_0,)"

    def test_stacked_dimensions_must_agree(self):
        with pytest.raises(DimensionError):
            compile_field([parse("x1", 1), parse("x1", 2)])

    def test_one_stacked_field_not_finite(self):
        f = compile_field([parse("x1", 1), parse("log(x1)", 1)])
        assert f(np.array([[2.0]])).tolist() == [[2.0, math.log(2.0)]]
        with pytest.raises(DomainError):
            f(np.array([[-1.0]]))


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


def _radial_laplacian(coeffs: dict) -> dict:
    """Lap of sum_a c_a (1+s)^a, s = |x|^2 in three dimensions, as {a: c_a}.

    For radial f(s), Lap f = 4 s f'' + 6 f', which takes (1+s)^a to
    (4a^2 + 2a)(1+s)^(a-1) - 4a(a-1)(1+s)^(a-2).
    """
    out = {}
    for a, c in coeffs.items():
        out[a - 1] = out.get(a - 1, 0) + c * (4 * a * a + 2 * a)
        out[a - 2] = out.get(a - 2, 0) - c * 4 * a * (a - 1)
    return out


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
        # exact integer coefficients per power of (1+s)^-1
        e = parse("1/(1 + x1^2 + x2^2 + x3^2)", 3)
        X = np.array([[0.0, 3.9, 0.0], [0.3, -1.2, 2.5], [7.0, 0.0, -0.5],
                      [-6.0, 5.0, 5.0], [0.0, 0.0, 0.0]])
        s = np.sum(X**2, axis=1)
        coeffs = {-1: 1}
        for q in range(1, 5):
            coeffs = _radial_laplacian(coeffs)
            want = sum(c * (1 + s) ** a for a, c in coeffs.items())
            # Lap^4 at (0, 3.9, 0) overflowed while every derivative squared
            # its denominator
            got = compile_field(laplacian_power(e, q))(X)
            assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12
        # exponents add: Lap^3 had 2,551 nodes when denominators squared
        assert _distinct_nodes(laplacian_power(e, 3).root) <= 487

    @pytest.mark.parametrize("text, lap", [
        # Lap (1+s)^(1/2) by the recursion, and Lap log(1+s) = 4s(-(1+s)^-2)
        # + 6(1+s)^-1
        ("sqrt(1 + x1^2 + x2^2 + x3^2)", _radial_laplacian({0.5: 1})),
        ("log(1 + x1^2 + x2^2 + x3^2)", {-1: 2, -2: 4}),
    ])
    def test_radial_laplacian_powers(self, text, lap):
        # within |x| < 4: Lap^2 sqrt(1+s) = -15(1+s)^-3.5 is (1+s)^2 times
        # smaller than its terms, so a far point keeps fewer digits
        e = parse(text, 3)
        X = np.array([[0.0, 3.9, 0.0], [0.3, -1.2, 2.5], [0.0, 0.0, 0.0],
                      [1.0, -0.5, 0.25], [2.0, 1.5, -1.0]])
        s = np.sum(X**2, axis=1)
        for q in range(1, 4):
            want = sum(c * (1 + s) ** a for a, c in lap.items())
            got = compile_field(laplacian_power(e, q))(X)
            assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12
            lap = _radial_laplacian(lap)

    @pytest.mark.parametrize("quotient, power", [
        ("1/(1+x1^2+x2^2+x3^2)", "(1+x1^2+x2^2+x3^2)^-1"),
        ("1/(1+x1^2+x2^2+x3^2)^2", "(1+x1^2+x2^2+x3^2)^-2"),
        ("x1/(1+x1^2+x2^2+x3^2)^2", "x1*(1+x1^2+x2^2+x3^2)^-2"),
        ("sqrt(1+x1^2+x2^2+x3^2)", "(1+x1^2+x2^2+x3^2)^0.5"),
        ("sin(x1)/(2+cos(x2))", "sin(x1)*(2+cos(x2))^-1"),
    ])
    def test_one_spelling_one_dag(self, quotient, power):
        # a quotient takes the product and power rules, and sqrt's
        # derivative is a power, so both spellings give the one node
        a, b = parse(quotient, 3), parse(power, 3)
        for _ in range(4):
            a, b = laplacian(a), laplacian(b)
            assert a.root is b.root

    def test_negative_exponent_laplacian_powers(self):
        # through exp(-log(1 + s)), Lap^1..4 had 56, 430, 3,851 and 33,906
        # distinct nodes; with the power rule they match 1/(1 + s)'s values
        e = parse("(1 + x1^2 + x2^2 + x3^2)^-1", 3)
        ref = parse("1/(1 + x1^2 + x2^2 + x3^2)", 3)
        X = np.array([[0.0, 3.9, 0.0], [0.3, -1.2, 2.5], [-6.0, 5.0, 5.0]])
        for q, bound in zip(range(1, 5), (36, 119, 487, 2094)):
            lap = laplacian_power(e, q)
            assert _distinct_nodes(lap.root) <= bound
            want = compile_field(laplacian_power(ref, q))(X)
            assert np.max(np.abs(compile_field(lap)(X) - want) / np.abs(want)) < 1e-12

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
    # any characters, often the grammar's pieces and Unicode digits
    @given(st.lists(st.characters() | st.sampled_from(
        ["x", "x1", "t", "sin", "1", ".", "e", "(", ")", "-", "^", "*", " ",
         "\u00b2", "\u0661"])).map("".join), st.integers(0, 4))
    @settings(max_examples=300, deadline=None)
    def test_any_text_parses_or_is_refused(self, text, n):
        try:
            parse(text, n)
        except WaveforgeError:
            pass

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
