import math

import numpy as np
import pytest
from scipy import integrate

from biharm.errors import ExpressionError
from biharm.expressions import Expression, parse_coefficient

# int of max(0.5 - cos(2 pi x), 0) over one period: support (1/6, 5/6)
F_MINUS_COS_HALF = 1.0 / 3.0 + math.sqrt(3.0) / (2.0 * math.pi)


def test_constant(geom64):
    f = parse_coefficient("-1", geom64)
    assert np.all(f.samples == -1.0)


def test_single_mode(geom64):
    f = parse_coefficient("sin(2*pi*x1)", geom64)
    x = geom64.coordinates()[0]
    assert np.allclose(f.samples, np.sin(2 * math.pi * x), atol=1e-12)


def test_grammar_functions(geom64):
    f = parse_coefficient("exp(abs(x1 - 0.5)) / (2 + cos(2*pi*x1))", geom64)
    x = geom64.coordinates()[0]
    want = np.exp(np.abs(x - 0.5)) / (2.0 + np.cos(2 * math.pi * x))
    # band projection touches the kink modes only at spectral-tail level
    assert np.allclose(f.samples, want, atol=1e-3)


def test_f_minus_integral_matches_adaptive_quadrature(geom64):
    from biharm.problem import ProblemData

    p = ProblemData.from_expressions(geom64, "0", "-1", "cos(2*pi*x1) - 0.5")
    oracle, _ = integrate.quad(
        lambda x: max(0.5 - math.cos(2 * math.pi * x), 0.0),
        0.0,
        1.0,
        limit=400,
        epsabs=1e-13,
    )
    assert oracle == pytest.approx(F_MINUS_COS_HALF, abs=1e-12)
    assert p.int_f_minus == pytest.approx(oracle, abs=1e-8)
    # fixed-grid quadrature of the kink is visibly worse than adaptive
    assert abs(p.int_f_minus_grid - oracle) > 1e-7


def test_syntax_error_position():
    with pytest.raises(ExpressionError) as exc:
        Expression("1 + * 2", 1)
    assert exc.value.position is not None


def test_f_minus_integral_2d_matches_closed_form(geom2d):
    from biharm.problem import ProblemData

    for f in ("cos(2*pi*x1) - 0.5", "cos(2*pi*x2) - 0.5"):
        p = ProblemData.from_expressions(geom2d, "0", "-1", f)
        assert p.int_f_minus == pytest.approx(F_MINUS_COS_HALF, abs=1e-9), f


def test_division_by_zero_reports_position(geom64):
    with pytest.raises(ExpressionError) as exc:
        parse_coefficient("1/(x1 - 0.5)", geom64)   # 0.5 is a grid node
    assert "division by zero" in str(exc.value)
    assert exc.value.position is not None


def test_integer_literal_beyond_float_range_is_expression_error():
    text = "0.5 + 1" + "0" * 400
    with pytest.raises(ExpressionError, match="out of float range") as exc:
        Expression(text, 1)
    assert exc.value.position == 6


def test_scalar_division_by_zero_is_expression_error():
    with pytest.raises(ExpressionError) as exc:
        Expression("1/(x1 - 0.5)", 1)(0.5)
    assert "division by zero" in str(exc.value)
    assert exc.value.position is not None


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("d_eff", [1, 2])
def test_scalar_non_finite_rejected(d_eff):
    expr = Expression("exp(1000) + " + " + ".join(("x1", "x2")[:d_eff]), d_eff)
    with pytest.raises(ExpressionError, match="not finite at the evaluation points"):
        expr(*[0.25] * d_eff)


def test_compiled_matches_hand_written_numpy():
    x1, x2 = np.random.default_rng(3).random((2, 50))
    text = "exp(abs(x1 - 0.5)) / (2 + cos(2*pi*x1)) - 3*sin(pi*x2)"
    want = np.exp(np.abs(x1 - 0.5)) / (2.0 + np.cos(2.0 * math.pi * x1))
    want -= 3.0 * np.sin(math.pi * x2)
    assert np.array_equal(Expression(text, 2)(x1, x2), want)


@pytest.mark.parametrize(
    "text",
    [
        "sin(2*pi*x1) * cos(3*pi*x2)",
        "exp(-abs(x1 - x2)) / (2 + cos(2*pi*x1*x2))",
        "-x1 / 3 + +x2 * 7 - pi",
        "abs(sin(5*x1) - 0.25) * exp(x2)",
    ],
)
@pytest.mark.parametrize("d_eff", [1, 2])
def test_scalar_and_array_evaluation_agree_bitwise(text, d_eff):
    if d_eff == 1:
        text = text.replace("x2", "(1 - x1)")
    expr = Expression(text, d_eff)
    pts = np.random.default_rng(5).random((d_eff, 97))
    array = expr(*pts)
    scalar = np.array([expr(*(float(c) for c in col)) for col in pts.T])
    assert array.shape == (97,)
    assert np.array_equal(array, scalar)


def test_x2_rejected_on_1d(geom64):
    with pytest.raises(ExpressionError):
        parse_coefficient("x2", geom64)


def test_x2_allowed_on_2d(geom2d):
    f = parse_coefficient("sin(2*pi*x2) * cos(2*pi*x1)", geom2d)
    x1, x2 = geom2d.coordinates()
    want = np.sin(2 * math.pi * x2) * np.cos(2 * math.pi * x1)
    assert np.allclose(f.samples, want, atol=1e-12)


@pytest.mark.parametrize(
    "bad",
    ["x1 ** 2", "foo(x1)", "sin(x1, x1)", "'a'", "x1 if 1 else x1", "lambda: 1"],
)
def test_grammar_rejects_everything_else(bad):
    with pytest.raises(ExpressionError):
        Expression(bad, 2)


@pytest.mark.parametrize("text, col", [("True", 0), ("False*x1 + 2", 0), ("x1 + True", 5)])
def test_boolean_literals_are_rejected(text, col):
    # True/False parse as constants of an int subclass; they are not numbers here
    with pytest.raises(ExpressionError, match="only numeric literals allowed") as exc:
        Expression(text, 1)
    assert exc.value.position == col


def test_pi_constant(geom64):
    f = parse_coefficient("pi", geom64)
    assert np.all(f.samples == pytest.approx(math.pi, rel=1e-15))
