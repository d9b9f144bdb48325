"""The derivative oracle: a field's partials are nodes built from the field
algebra, and at seeded points their values match closed forms, to the
third order, for every rule of the expression language and both paths of
the matrix inverse."""

import math

import numpy as np
import pytest

from conftest import f
from momsec.fields import Chart, const_field, matrix_inverse_fields

# every subexpression below keeps to its domain on this box
CHART = Chart(("x", "y"), ((0.5, 1.5), (0.5, 1.5)))
RTOL, ATOL = 1e-12, 1e-13


def _chain(g):
    """Closed forms of g(u) for u = x y / 2 and its partials, from the
    derivatives (g, g', g'', g''') of g at u."""

    def forms(x, y):
        u = x * y / 2
        g0, g1, g2, g3 = g(u)
        return {
            (): g0,
            (0,): g1 * y / 2,
            (1,): g1 * x / 2,
            (0, 0): g2 * y * y / 4,
            (0, 1): g2 * x * y / 4 + g1 / 2,
            (1, 1): g2 * x * x / 4,
            (0, 0, 1): g3 * x * y * y / 8 + g2 * y / 2,
        }

    return forms


def _tan(u):
    t = np.tan(u)
    return t, 1 + t * t, 2 * t * (1 + t * t), 2 * (1 + t * t) * (1 + 3 * t * t)


def _tanh(u):
    t = np.tanh(u)
    return t, 1 - t * t, -2 * t * (1 - t * t), (1 - t * t) * (6 * t * t - 2)


def _variable_power(x, y):
    p, log = x**y, np.log(x)
    return {
        (): p,
        (0,): y * x ** (y - 1),
        (1,): p * log,
        (0, 0): y * (y - 1) * x ** (y - 2),
        (0, 1): x ** (y - 1) * (1 + y * log),
        (1, 1): p * log * log,
        (0, 0, 1): x ** (y - 2) * ((2 * y - 1) + y * (y - 1) * log),
    }


def _real_power(x, y):
    u = x * y
    return {
        (): u**1.5,
        (0,): 1.5 * u**0.5 * y,
        (1,): 1.5 * u**0.5 * x,
        (0, 0): 0.75 * u**-0.5 * y * y,
        (0, 1): 2.25 * u**0.5,
        (1, 1): 0.75 * u**-0.5 * x * x,
        (0, 0, 1): 1.125 * y * u**-0.5,
    }


CASES = {
    "x/y": lambda x, y: {
        (): x / y,
        (0,): 1 / y,
        (1,): -x / y**2,
        (0, 0): 0 * x,
        (0, 1): -1 / y**2,
        (1, 1): 2 * x / y**3,
        (0, 0, 1): 0 * x,
    },
    "(x + 2*y)^3": lambda x, y: {
        (): (x + 2 * y) ** 3,
        (0,): 3 * (x + 2 * y) ** 2,
        (1,): 6 * (x + 2 * y) ** 2,
        (0, 0): 6 * (x + 2 * y),
        (0, 1): 12 * (x + 2 * y),
        (1, 1): 24 * (x + 2 * y),
        (0, 0, 1): 12 + 0 * x,
    },
    "(x + y)^-2": lambda x, y: {
        (): (x + y) ** -2,
        (0,): -2 * (x + y) ** -3,
        (1,): -2 * (x + y) ** -3,
        (0, 0): 6 * (x + y) ** -4,
        (0, 1): 6 * (x + y) ** -4,
        (1, 1): 6 * (x + y) ** -4,
        (0, 0, 1): -24 * (x + y) ** -5,
    },
    "(x*y)^1.5": _real_power,
    "x^y": _variable_power,
    "sin(x*y/2)": _chain(lambda u: (np.sin(u), np.cos(u), -np.sin(u), -np.cos(u))),
    "cos(x*y/2)": _chain(lambda u: (np.cos(u), -np.sin(u), -np.cos(u), np.sin(u))),
    "tan(x*y/2)": _chain(_tan),
    "exp(x*y/2)": _chain(lambda u: (np.exp(u),) * 4),
    "log(x*y/2)": _chain(lambda u: (np.log(u), 1 / u, -1 / u**2, 2 / u**3)),
    "sqrt(x*y/2)": _chain(lambda u: (np.sqrt(u), 0.5 * u**-0.5, -0.25 * u**-1.5, 0.375 * u**-2.5)),
    "tanh(x*y/2)": _chain(_tanh),
    # x y / 2 - 2 is negative on the box
    "abs(x*y/2 - 2)": lambda x, y: {
        (): 2 - x * y / 2,
        (0,): -y / 2,
        (1,): -x / 2,
        (0, 0): 0 * x,
        (0, 1): -0.5 + 0 * x,
        (1, 1): 0 * x,
        (0, 0, 1): 0 * x,
    },
}


def _derivative(field, index):
    for i in index:
        field = field.partial(i)
    return field


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("source", CASES)
def test_partials_match_closed_forms(source, seed):
    field = f(source, CHART)
    points = CHART.sample(16, seed)
    expected = CASES[source](*points.T)
    for index, closed in expected.items():
        got = _derivative(field, index).eval(points)
        np.testing.assert_allclose(got, closed, rtol=RTOL, atol=ATOL, err_msg=f"{source} {index}")
    # the two orders of the mixed partial agree to rounding
    np.testing.assert_allclose(
        _derivative(field, (1, 0)).eval(points), _derivative(field, (0, 1)).eval(points), rtol=1e-13, atol=ATOL
    )
    # a partial asked for again is the node built the first time
    assert field.partial(0) is field.partial(0)
    assert field.partial(0).partial(1) is field.partial(0).partial(1)


def _metric(diagonal: bool):
    """Entries of a symmetric field matrix, diagonal or dense, and their
    closed-form values and partials at points."""
    if diagonal:
        sources = [["2 + x^2", "0"], ["0", "3 + x*y"]]
    else:
        sources = [["2 + x^2", "x*y/2"], ["x*y/2", "2 + y^2"]]

    def closed(x, y):
        zero, one = 0 * x, 1 + 0 * x
        off = zero if diagonal else x * y / 2
        m = np.array([[2 + x * x, off], [off, (3 + x * y) if diagonal else (2 + y * y)]])
        dx = np.array([[2 * x, zero if diagonal else y / 2], [zero if diagonal else y / 2, y if diagonal else zero]])
        dy = np.array([[zero, zero if diagonal else x / 2], [zero if diagonal else x / 2, x if diagonal else 2 * y]])
        dxx = np.array([[2 * one, zero], [zero, zero]])
        half = zero if diagonal else 0.5 * one
        dxy = np.array([[zero, half], [half, one if diagonal else zero]])
        return m, (dx, dy), dxx, dxy

    return [[f(s, CHART) for s in row] for row in sources], closed


@pytest.mark.parametrize("diagonal", [True, False])
def test_inverse_partials_match_closed_forms(diagonal):
    entries, closed = _metric(diagonal)
    inverse = matrix_inverse_fields(entries)
    assert (inverse[0][0].core.diagonal is not None) == diagonal
    points = CHART.sample(12, 3)
    # each (2, 2, P): one matrix per point, point last
    m_all, (dx_all, dy_all), dxx_all, dxy_all = closed(*points.T)
    for p, point in enumerate(points):
        m, dm, dxx, dxy = m_all[..., p], (dx_all[..., p], dy_all[..., p]), dxx_all[..., p], dxy_all[..., p]
        n = np.linalg.inv(m)
        dn = [-n @ dm[k] @ n for k in range(2)]
        # d_j d_k N = -(d_j N d_k M N + N d_j d_k M N + N d_k M d_j N)
        dnxx = -(dn[0] @ dm[0] @ n + n @ dxx @ n + n @ dm[0] @ dn[0])
        dnxy = -(dn[1] @ dm[0] @ n + n @ dxy @ n + n @ dm[0] @ dn[1])
        for i in range(2):
            for j in range(2):
                entry = inverse[i][j]
                if diagonal and i != j:
                    assert entry.is_zero
                    continue
                got = [entry.value(point), entry.partial(0).value(point), entry.partial(1).value(point)]
                got += [entry.partial(0).partial(0).value(point), entry.partial(0).partial(1).value(point)]
                want = [n[i, j], dn[0][i, j], dn[1][i, j], dnxx[i, j], dnxy[i, j]]
                np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)
                assert entry.partial(1).partial(0).value(point) == pytest.approx(want[4], rel=1e-12, abs=ATOL)


def test_a_third_partial_evaluates():
    # a field may be differentiated any number of times
    field = f("x^3*y + sin(y)", CHART)
    third = field.partial(0).partial(1).partial(0)
    points = CHART.sample(8, 4)
    np.testing.assert_allclose(third.eval(points), 6 * points[:, 0], rtol=RTOL)
    assert field.partial(0).partial(0).partial(0).partial(0).is_zero


def test_a_field_with_no_path_to_a_coordinate_has_the_zero_partial():
    zero = const_field(0.0, 2)
    assert f("x*y", CHART).partial(0).partial(0) is zero
    assert f("x^2 + exp(x)", CHART).partial(1) is zero
    assert f("3", CHART).partial(0) is zero
    assert f("sin(y)/y", CHART).partial(0).partial(1) is zero
    assert math.isclose(f("x*y", CHART).partial(0).partial(1).value(np.array([0.7, 0.9])), 1.0)
