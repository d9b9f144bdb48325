import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import expr_values, fd_gradient, fd_hessian, gradient, hessian, node, random_poly_source
from momsec.expressions import (
    MAX_DEPTH,
    DomainError,
    ExpressionError,
    LexError,
    ParseError,
    UnknownSymbolError,
    parse,
)
from momsec.fields import ConstField, RuleField

XY = ("x", "y")


class TestParser:
    # equal subexpressions are one node, so a node built by the algebra
    # from the nodes of its operands is the node its source parses to
    def test_grammar_forced_shape(self):
        whole = node("x^2 + 3*y", XY)
        assert whole is node("x^2", XY) + node("3*y", XY)
        assert whole is not node("x^(2 + 3*y)", XY)
        assert whole is not node("(x^2 + 3)*y", XY)

    def test_incomplete_input_position(self):
        with pytest.raises(ParseError) as err:
            node("x +", ("x",))
        assert err.value.position == 3

    def test_unary_minus_shape(self):
        assert node("-y", XY) is node("y", XY).scaled(-1.0)

    def test_power_binds_tighter_than_unary_minus(self):
        minus_square = node("-x^2", XY)
        assert minus_square is node("x^2", XY).scaled(-1.0)
        assert minus_square is not node("(-x)^2", XY)

    def test_power_right_associative(self):
        tower = node("x^y^2", XY)
        assert tower.inputs == (node("x", XY), node("y^2", XY))
        assert tower is node("x^(y^2)", XY)
        assert tower is not node("(x^y)^2", XY)

    def test_negative_exponent(self):
        inverse_square = node("x^-2", XY)
        assert isinstance(inverse_square, RuleField)
        assert inverse_square._kind[1] == -2.0
        assert inverse_square.inputs == (node("x", XY),)
        assert inverse_square.text == "x^-2.0"

    def test_subtraction_left_associative(self):
        whole = node("x - y - 1", XY)
        assert whole is node("x - y", XY) - node("1", XY)
        assert whole is not node("x - (y - 1)", XY)

    def test_function_application(self):
        square = node("sin(x)^2", XY)
        assert square.inputs == (node("sin(x)", XY),)
        assert square.text == "sin(x)^2.0"

    def test_unknown_identifier(self):
        with pytest.raises(UnknownSymbolError):
            node("x + q", XY)

    def test_unknown_function(self):
        with pytest.raises(UnknownSymbolError):
            node("sinh(x)", XY)

    def test_lex_error_position(self):
        with pytest.raises(LexError) as err:
            node("x + $", XY)
        assert err.value.position == 4

    @pytest.mark.parametrize(
        "source, position",
        [("1e400*x", 0), ("x - 1e309", 4), ("log(x - 1e400)", 8), ("1e400 + q", 0), ("1.8e308 +", 0)],
    )
    def test_a_number_beyond_the_float_range_is_a_lex_error(self, source, position):
        # a lexical error comes before a parse or unknown-symbol error
        with pytest.raises(LexError, match="beyond the float range") as err:
            node(source, XY)
        assert err.value.position == position

    def test_the_float_range_ends_at_the_largest_float(self):
        number = node("1.7976931348623157e308", XY)
        assert isinstance(number, ConstField) and number.c == np.finfo(float).max

    def test_deterministic(self):
        assert node("x*y + sin(x)/2", XY) is node("x*y + sin(x)/2", XY)

    def test_scientific_notation(self):
        number = node("1.5e-3", XY)
        assert isinstance(number, ConstField) and number.c == 1.5e-3

    @pytest.mark.parametrize(
        "shape",
        [lambda n: "+".join(["x"] * n), lambda n: "-" * (n - 1) + "x", lambda n: "(" * (n - 1) + "x" + ")" * (n - 1)],
        ids=["chain", "signs", "parens"],
    )
    def test_nesting_limit_is_100_levels(self, shape):
        # the chain is n tree levels deep, the signs and parens nest n levels
        node(shape(MAX_DEPTH), XY)
        with pytest.raises(ExpressionError, match="more than 100 levels"):
            node(shape(MAX_DEPTH + 1), XY)

    def test_a_source_too_high_to_load_stops_building(self):
        # once a subexpression is more than 100 levels high the source is
        # rejected whatever follows, so the rest of a long chain costs no
        # node and no text
        built = []
        with pytest.raises(ExpressionError, match="more than 100 levels"):
            parse(" + ".join(["x"] * 10_000), ("x",), lambda op, param, text, *_: built.append(text))
        assert len(built) <= 2 * MAX_DEPTH + 2
        assert max(map(len, built)) < 5 * MAX_DEPTH

    @pytest.mark.parametrize(
        "source, error, message",
        [
            ("1/0 +", ParseError, "unexpected end of input (offset 5)"),
            ("1/0 + q", UnknownSymbolError, "unknown identifier 'q' (offset 6)"),
            ("1/0 + " + " + ".join(["x"] * 100), ExpressionError, "expression nested more than 100 levels deep"),
            ("x + 1/0", DomainError, "division by zero in '1.0 / 0.0'"),
            ("log(-1) + 1/0", DomainError, "log of a non-positive value in 'log(-1.0)'"),
        ],
        ids=["syntax", "unknown-symbol", "too-deep", "domain", "first-domain"],
    )
    def test_a_source_with_two_faults_reports_the_first_in_the_error_order(self, source, error, message):
        # a syntax or symbol error, then the height, then the first domain
        # error in post-order, although 1/0 is built before the parser
        # reaches the other fault
        with pytest.raises(ExpressionError) as err:
            node(source, ("x",))
        assert type(err.value) is error
        assert str(err.value) == message


# Random sources, with and without the parentheses they need, for the
# round-trip property.
_leaf = st.one_of(st.integers(0, 9).map(str), st.sampled_from(XY))


def _sources(depth):
    if depth == 0:
        return _leaf
    sub = _sources(depth - 1)
    operand = st.one_of(sub, sub.map(lambda s: f"({s})"))
    return st.one_of(
        _leaf,
        st.tuples(operand, st.sampled_from(["+", "-", "*", "/", "^"]), operand).map(" ".join),
        operand.map(lambda s: "-" + s),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "tanh"]), sub).map(lambda fa: f"{fa[0]}({fa[1]})"),
    )


def _rule_nodes(root):
    seen, stack = set(), [root]
    while stack:
        n = stack.pop()
        if n not in seen:
            seen.add(n)
            stack.extend(n.inputs)
    return [n for n in seen if isinstance(n, RuleField)]


@given(_sources(4))
@example("x - (y - 1)")
@example("x / (y * 2)")
@example("-(x + 1)^(y - 1)")
@example("(-x)^-2 * (x^y)^2")
@settings(max_examples=150, deadline=None)
def test_every_rule_text_parses_back_to_its_node(source):
    # inside sin(...), the text of the whole source is a rule node's text
    try:
        root = node(f"sin(x + ({source}))", XY)
    except ExpressionError:
        return  # rejected at load, as 1/0 is
    for rule in _rule_nodes(root):
        assert node(rule.text, XY) is rule


class TestJets:
    # a field's derivatives are its partial nodes, read at a point

    def test_polynomial_jet_frozen(self):
        # f = x^2 y at (2,3): value 12, grad (12, 4), hess [[6,4],[4,0]]
        expr = node("x^2*y", XY)
        assert expr.value((2.0, 3.0)) == pytest.approx(12.0, abs=1e-12)
        assert gradient(expr, (2.0, 3.0)) == pytest.approx([12.0, 4.0], abs=1e-12)
        assert np.allclose(hessian(expr, (2.0, 3.0)), [[6.0, 4.0], [4.0, 0.0]], atol=1e-12)

    def test_polynomial_jet_vs_fd_oracle(self):
        # a constant and exp(x) ride along with the polynomial
        for source in ("x^2*y", "7", "exp(x)"):
            expr = node(source, XY)
            assert gradient(expr, (2.0, 3.0)) == pytest.approx(fd_gradient(expr, (2.0, 3.0)), abs=1e-7)
            assert hessian(expr, (2.0, 3.0)) == pytest.approx(fd_hessian(expr, (2.0, 3.0)), abs=1e-6)

    def test_trig_jet(self):
        expr = node("sin(x)*y", XY)
        assert expr.value((0.0, 2.0)) == pytest.approx(0.0, abs=1e-15)
        assert gradient(expr, (0.0, 2.0)) == pytest.approx([2.0, 0.0], abs=1e-14)

    def test_constant_jet(self):
        expr = node("5", XY)
        assert expr.value((0.3, -0.7)) == 5.0
        assert all(expr.partial(i).is_zero and expr.partial(i).partial(j).is_zero for i in range(2) for j in range(2))

    def test_hessian_exactly_symmetric(self):
        # for a polynomial the two orders of a mixed partial agree to rounding
        rng = np.random.default_rng(11)
        for _ in range(25):
            src = random_poly_source(rng, XY)
            pt = rng.uniform(-2, 2, size=2)
            h = hessian(node(src, XY), pt)
            assert h[0, 1] == pytest.approx(h[1, 0], rel=1e-13, abs=1e-13)

    def test_division_and_sqrt(self):
        expr = node("sqrt(x)/y", XY)
        pt = (4.0, 2.0)
        assert expr.value(pt) == pytest.approx(1.0)
        assert gradient(expr, pt) == pytest.approx(fd_gradient(expr, pt), abs=1e-8)
        assert np.allclose(hessian(expr, pt), fd_hessian(expr, pt), atol=1e-7)

    def test_variable_exponent(self):
        expr = node("x^y", XY)
        pt = (1.7, 2.3)
        assert expr.value(pt) == pytest.approx(1.7**2.3)
        assert gradient(expr, pt) == pytest.approx(fd_gradient(expr, pt), abs=1e-8)

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("p", [2.0, -1.0, 0.0, 0.5, -1.5])
    def test_number_exponent_is_a_constant_exponent(self, order, p):
        # a number exponent is used as a number; any other exponent without
        # a coordinate is evaluated to one when built, and both take one
        # path, to every order of partial along x
        points = np.array([[0.3, 0.0], [1.7, 2.0], [2.5, -1.0]])
        number, folded = node(f"x^{p!r}", XY), node(f"x^({p / 2!r} + {p / 2!r})", XY)
        for _ in range(order):
            number, folded = number.partial(0), folded.partial(0)
        assert expr_values(number, points).tobytes() == expr_values(folded, points).tobytes()

    @pytest.mark.parametrize(
        "p, x0, reason",
        [(-1.0, 0.0, "zero base with negative exponent"), (0.5, -2.0, "real exponent requires a positive base")],
    )
    def test_number_exponent_domain_errors(self, p, x0, reason):
        points = np.array([[1.0, 0.0], [x0, 0.0], [x0, 1.0]])
        # each source is written as a domain error names it, in its
        # partials too
        for source in (f"x^{p!r}", f"x^({p / 2!r} + {p / 2!r})"):
            field = node(source, XY)
            for _ in range(3):
                with pytest.raises(DomainError) as err:
                    expr_values(field, points)
                assert (err.value.reason, err.value.subexpression, err.value.point) == (reason, source, 1)
                field = field.partial(0)

    def test_exponent_with_a_coordinate_is_variable(self):
        # y - y + 2 is 2 at every point, but the syntax decides
        expr = node("x^(y - y + 2)", XY)
        with pytest.raises(DomainError, match="variable exponent requires a positive base"):
            expr.value((-1.0, 0.5))
        assert expr.value((1.5, 0.5)) == pytest.approx(2.25, rel=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            node("log(x)", XY).value((-1.0, 0.0))
        with pytest.raises(DomainError):
            node("1/x", XY).value((0.0, 1.0))
        with pytest.raises(DomainError):
            node("x^0.5", XY).value((-2.0, 0.0))
        with pytest.raises(DomainError):
            node("abs(x)", XY).value((0.0, 0.0))

    def test_domain_error_names_subexpression(self):
        with pytest.raises(DomainError) as err:
            node("y + log(x - 1)", XY).value((0.5, 0.0))
        assert "log" in str(err.value)

    def test_pythagorean_identity_jets(self):
        # d(sin^2 + cos^2) = 0 to near machine precision
        expr = node("sin(x)^2 + cos(x)^2", ("x",))
        rng = np.random.default_rng(5)
        for _ in range(100):
            pt = rng.uniform(-3, 3, size=1)
            assert abs(expr.value(pt) - 1.0) < 1e-12
            assert abs(gradient(expr, pt)[0]) < 1e-12
            assert abs(hessian(expr, pt)[0, 0]) < 1e-12


def test_random_polynomials_match_fd():
    # gradient and Hessian agree with value-only central differences
    rng = np.random.default_rng(2024)
    for _ in range(60):
        d = int(rng.integers(1, 5))
        coords = tuple("abcd"[:d])
        expr = node(random_poly_source(rng, coords), coords)
        pt = rng.uniform(-2, 2, size=d)
        g_ref = fd_gradient(expr, pt)
        h_ref = fd_hessian(expr, pt)
        scale = max(1.0, np.max(np.abs(g_ref)), np.max(np.abs(h_ref)))
        assert np.max(np.abs(gradient(expr, pt) - g_ref)) / scale < 1e-6
        assert np.max(np.abs(hessian(expr, pt) - h_ref)) / scale < 1e-6
