import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import expr_jet, expr_jets, fd_gradient, fd_hessian, random_poly_source
from momsec.expressions import (
    Add,
    Call,
    MAX_DEPTH,
    DomainError,
    ExpressionError,
    LexError,
    Mul,
    Neg,
    Num,
    ParseError,
    Pow,
    Sub,
    UnknownSymbolError,
    Var,
    parse,
    pretty,
)

XY = ("x", "y")


class TestParser:
    def test_grammar_forced_shape(self):
        tree = parse("x^2 + 3*y", XY)
        assert tree == Add(Pow(Var(0, "x"), Num(2.0)), Mul(Num(3.0), Var(1, "y")))

    def test_incomplete_input_position(self):
        with pytest.raises(ParseError) as err:
            parse("x +", ("x",))
        assert err.value.position == 3

    def test_unary_minus_shape(self):
        assert parse("-y", XY) == Neg(Var(1, "y"))

    def test_power_binds_tighter_than_unary_minus(self):
        assert parse("-x^2", XY) == Neg(Pow(Var(0, "x"), Num(2.0)))

    def test_power_right_associative(self):
        tree = parse("x^y^2", XY)
        assert tree == Pow(Var(0, "x"), Pow(Var(1, "y"), Num(2.0)))

    def test_negative_exponent(self):
        assert parse("x^-2", XY) == Pow(Var(0, "x"), Neg(Num(2.0)))

    def test_subtraction_left_associative(self):
        tree = parse("x - y - 1", XY)
        assert tree == Sub(Sub(Var(0, "x"), Var(1, "y")), Num(1.0))

    def test_function_application(self):
        assert parse("sin(x)^2", XY) == Pow(Call("sin", Var(0, "x")), Num(2.0))

    def test_unknown_identifier(self):
        with pytest.raises(UnknownSymbolError):
            parse("x + q", XY)

    def test_unknown_function(self):
        with pytest.raises(UnknownSymbolError):
            parse("sinh(x)", XY)

    def test_lex_error_position(self):
        with pytest.raises(LexError) as err:
            parse("x + $", XY)
        assert err.value.position == 4

    def test_deterministic(self):
        assert parse("x*y + sin(x)/2", XY) == parse("x*y + sin(x)/2", XY)

    def test_scientific_notation(self):
        assert parse("1.5e-3", XY) == Num(1.5e-3)

    @pytest.mark.parametrize(
        "shape",
        [lambda n: "+".join(["x"] * n), lambda n: "-" * (n - 1) + "x", lambda n: "(" * (n - 1) + "x" + ")" * (n - 1)],
        ids=["chain", "signs", "parens"],
    )
    def test_nesting_limit_is_100_levels(self, shape):
        # the chain is n tree levels deep, the signs and parens nest n levels
        parse(shape(MAX_DEPTH), XY)
        with pytest.raises(ExpressionError, match="more than 100 levels"):
            parse(shape(MAX_DEPTH + 1), XY)


# Random AST generation for the round-trip property.
_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False).map(Num),
    st.sampled_from([Var(0, "x"), Var(1, "y")]),
)


def _trees(depth):
    if depth == 0:
        return _leaf
    sub = _trees(depth - 1)
    return st.one_of(
        _leaf,
        st.tuples(sub, sub).map(lambda ab: Add(*ab)),
        st.tuples(sub, sub).map(lambda ab: Sub(*ab)),
        st.tuples(sub, sub).map(lambda ab: Mul(*ab)),
        st.tuples(sub, sub).map(lambda ab: Pow(*ab)),
        sub.map(Neg),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "tanh"]), sub).map(lambda fa: Call(*fa)),
    )


@given(_trees(4))
@settings(max_examples=150, deadline=None)
def test_pretty_print_round_trip(tree):
    assert parse(pretty(tree), XY) == tree


class TestJets:
    def test_polynomial_jet_frozen(self):
        # f = x^2 y at (2,3): value 12, grad (12, 4), hess [[6,4],[4,0]]
        jet = expr_jet(parse("x^2*y", XY), (2.0, 3.0))
        assert jet.value == pytest.approx(12.0, abs=1e-12)
        assert jet.grad == pytest.approx([12.0, 4.0], abs=1e-12)
        assert np.allclose(jet.hess, [[6.0, 4.0], [4.0, 0.0]], atol=1e-12)

    def test_polynomial_jet_vs_fd_oracle(self):
        # a constant and exp(x) ride along with the polynomial
        for source in ("x^2*y", "7", "exp(x)"):
            expr = parse(source, XY)
            jet = expr_jet(expr, (2.0, 3.0))
            assert jet.grad == pytest.approx(fd_gradient(expr, (2.0, 3.0)), abs=1e-7)
            assert jet.hess == pytest.approx(fd_hessian(expr, (2.0, 3.0)), abs=1e-6)

    def test_trig_jet(self):
        jet = expr_jet(parse("sin(x)*y", XY), (0.0, 2.0))
        assert jet.value == pytest.approx(0.0, abs=1e-15)
        assert jet.grad == pytest.approx([2.0, 0.0], abs=1e-14)

    def test_constant_jet(self):
        jet = expr_jet(parse("5", XY), (0.3, -0.7))
        assert jet.value == 5.0
        assert np.all(jet.grad == 0.0)
        assert np.all(jet.hess == 0.0)

    def test_hessian_exactly_symmetric(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            src = random_poly_source(rng, XY)
            pt = rng.uniform(-2, 2, size=2)
            jet = expr_jet(parse(src, XY), pt)
            assert np.array_equal(jet.hess, jet.hess.T)

    def test_division_and_sqrt(self):
        expr = parse("sqrt(x)/y", XY)
        pt = (4.0, 2.0)
        jet = expr_jet(expr, pt)
        assert jet.value == pytest.approx(1.0)
        assert jet.grad == pytest.approx(fd_gradient(expr, pt), abs=1e-8)
        assert np.allclose(jet.hess, fd_hessian(expr, pt), atol=1e-7)

    def test_variable_exponent(self):
        expr = parse("x^y", XY)
        pt = (1.7, 2.3)
        jet = expr_jet(expr, pt)
        assert jet.value == pytest.approx(1.7**2.3)
        assert jet.grad == pytest.approx(fd_gradient(expr, pt), abs=1e-8)

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("p", [2.0, -1.0, 0.0, 0.5, -1.5])
    def test_number_exponent_is_a_constant_exponent(self, order, p):
        # a Num exponent is used as a number; any other exponent without a
        # coordinate is evaluated to one when lowered, and both take one path
        x = Var(0, "x")
        points = np.array([[0.3, 0.0], [1.7, 2.0], [2.5, -1.0]])
        number = expr_jets(Pow(x, Num(p)), points, order)
        folded = expr_jets(Pow(x, Add(Num(p / 2), Num(p / 2))), points, order)
        for part in ("value", "grad", "hess"):
            a, b = getattr(number, part), getattr(folded, part)
            assert (a is None and b is None) or a.tobytes() == b.tobytes()

    @pytest.mark.parametrize(
        "p, x0, reason",
        [(-1.0, 0.0, "zero base with negative exponent"), (0.5, -2.0, "real exponent requires a positive base")],
    )
    def test_number_exponent_domain_errors(self, p, x0, reason):
        x = Var(0, "x")
        points = np.array([[1.0, 0.0], [x0, 0.0], [x0, 1.0]])
        for node in (Pow(x, Num(p)), Pow(x, Add(Num(p / 2), Num(p / 2)))):
            for order in (0, 1, 2):
                with pytest.raises(DomainError) as err:
                    expr_jets(node, points, order)
                assert (err.value.reason, err.value.subexpression, err.value.point) == (reason, node, 1)

    def test_exponent_with_a_coordinate_is_variable(self):
        # y - y + 2 is 2 at every point, but the syntax decides
        expr = parse("x^(y - y + 2)", XY)
        with pytest.raises(DomainError, match="variable exponent requires a positive base"):
            expr_jet(expr, (-1.0, 0.5))
        assert expr_jet(expr, (1.5, 0.5)).value == pytest.approx(2.25, rel=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            expr_jet(parse("log(x)", XY), (-1.0, 0.0))
        with pytest.raises(DomainError):
            expr_jet(parse("1/x", XY), (0.0, 1.0))
        with pytest.raises(DomainError):
            expr_jet(parse("x^0.5", XY), (-2.0, 0.0))
        with pytest.raises(DomainError):
            expr_jet(parse("abs(x)", XY), (0.0, 0.0))

    def test_domain_error_names_subexpression(self):
        with pytest.raises(DomainError) as err:
            expr_jet(parse("y + log(x - 1)", XY), (0.5, 0.0))
        assert "log" in str(err.value)

    def test_pythagorean_identity_jets(self):
        # d(sin^2 + cos^2) = 0 to near machine precision
        expr = parse("sin(x)^2 + cos(x)^2", ("x",))
        rng = np.random.default_rng(5)
        for _ in range(100):
            jet = expr_jet(expr, rng.uniform(-3, 3, size=1))
            assert abs(jet.value - 1.0) < 1e-12
            assert abs(jet.grad[0]) < 1e-12
            assert abs(jet.hess[0, 0]) < 1e-12


def test_random_polynomials_match_fd():
    # gradient and Hessian agree with value-only central differences
    rng = np.random.default_rng(2024)
    for _ in range(60):
        d = int(rng.integers(1, 5))
        coords = tuple("abcd"[:d])
        expr = parse(random_poly_source(rng, coords), coords)
        pt = rng.uniform(-2, 2, size=d)
        jet = expr_jet(expr, pt)
        g_ref = fd_gradient(expr, pt)
        h_ref = fd_hessian(expr, pt)
        scale = max(1.0, np.max(np.abs(g_ref)), np.max(np.abs(h_ref)))
        assert np.max(np.abs(jet.grad - g_ref)) / scale < 1e-6
        assert np.max(np.abs(jet.hess - h_ref)) / scale < 1e-6
