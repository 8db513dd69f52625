import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biharm import geometry as geo
from biharm import problem as prob
from biharm.problem import (
    ExponentPair,
    ProblemData,
    einstein_preset,
    eval_F,
    el_residual,
    grad_F,
)
from conftest import eval_G

TWO_PI = 2.0 * math.pi


def test_exponent_pair():
    e = ExponentPair(2.5, 6)
    assert e.critical == pytest.approx(6.0)
    assert ExponentPair(6.0, 6).q == 6.0        # q = N is admitted
    with pytest.raises(ValueError):
        ExponentPair(2.0, 6)
    with pytest.raises(ValueError):
        ExponentPair(6.5, 6)


def test_problem_data_splits(bundled64):
    p = bundled64
    assert np.all(p.f_plus_fine * p.f_minus_fine == 0.0)
    assert np.allclose(p.f_fine, p.f_plus_fine - p.f_minus_fine, atol=1e-14)
    assert p.h_negative
    assert p.f_minus_positive
    assert p.int_f_minus > 0.4
    assert p.a_plus_sup == pytest.approx(0.2, rel=1e-12)
    assert p.h_sup == pytest.approx(1.0, rel=1e-12)


def test_eval_F_zero_and_constant(bundled64, geom64):
    q = 2.5
    assert eval_F(geom64.constant(0.0), bundled64, q) == 0.0
    for k in (0.5, 3.3, 40.0):
        c = geom64.constant(k ** (1.0 / q))
        want = k ** (2.0 / q) * bundled64.int_h - k * bundled64.int_f
        assert eval_F(c, bundled64, q) == pytest.approx(want, rel=1e-12)


def test_eval_F_single_mode(geom64):
    p = ProblemData.from_expressions(geom64, "0", "-1", "0")
    x = geom64.coordinates()[0]
    u = geom64.field(math.sqrt(2.0) * np.sin(TWO_PI * x))
    for q in (2.3, 3.0, 6.0):
        assert eval_F(u, p, q) == pytest.approx(TWO_PI**4 - 1.0, rel=1e-12)


def test_eval_G_decomposition(bundled64, geom64, rng):
    q = 2.5
    for _ in range(10):
        u = geom64.random_smooth(rng)
        F = eval_F(u, bundled64, q)
        G = eval_G(u, bundled64, q)
        fplus = geom64.integrate_fine(
            bundled64.f_plus_fine * np.abs(u.fine_values) ** q
        )
        assert F == pytest.approx(G - fplus, rel=1e-10, abs=1e-12)


def test_eval_G_nonnegative_f(geom64, rng):
    p = ProblemData.from_expressions(geom64, "0.1", "-1", "1 + 0.5*cos(2*pi*x1)")
    u = geom64.random_smooth(rng)
    assert eval_G(u, p, 2.5) == pytest.approx(prob.quadratic_part(u, p), rel=1e-12)


def test_eval_G_constant_one(bundled64, geom64):
    got = eval_G(geom64.constant(1.0), bundled64, 2.5)
    want = bundled64.int_h + bundled64.int_f_minus_grid
    assert got == pytest.approx(want, rel=1e-10)


def test_grad_zero_field(bundled64, geom64):
    g = grad_F(geom64.constant(0.0), bundled64, 2.5)
    assert np.max(np.abs(g.samples)) == 0.0


def test_grad_constant_field(geom64):
    p = ProblemData.from_expressions(geom64, "0.7", "-2", "3")
    q, c = 2.5, 1.3
    g = grad_F(geom64.constant(c), p, q)
    want = 2.0 * (-2.0) * c - q * 3.0 * c * abs(c) ** (q - 2.0)
    assert np.allclose(g.samples, want, atol=1e-10)


@pytest.mark.parametrize(
    "dim, q",
    [pytest.param(1, q, id=str(q)) for q in (2.3, 2.5, 3.0, 6.0)]
    + [pytest.param(2, q, id=f"2d-{q}") for q in (2.3, 3.0, 4.5)],
)
def test_gradient_matches_finite_differences(bundled64, plate2d, dim, q, rng):
    problem = bundled64 if dim == 1 else plate2d
    g = problem.geometry
    worst = 0.0
    for _ in range(25):
        u = g.random_smooth(rng, decay=2.5)
        phi = g.random_smooth(rng, decay=2.5)
        lhs = geo.inner(grad_F(u, problem, q), phi)
        t = 1e-5
        fd = (
            eval_F(geo.add(u, phi, t), problem, q)
            - eval_F(geo.add(u, phi, -t), problem, q)
        ) / (2.0 * t)
        worst = max(worst, abs(lhs - fd) / max(1.0, abs(fd)))
    assert worst <= 1e-5


def test_evenness_and_scaling(bundled64, geom64, rng):
    q = 2.5
    for _ in range(5):
        u = geom64.random_smooth(rng)
        F = eval_F(u, bundled64, q)
        assert eval_F(geo.scale(u, -1.0), bundled64, q) == pytest.approx(F, rel=1e-12)
        Q = prob.quadratic_part(u, bundled64)
        fw = prob.f_weighted_mass(u, bundled64, q)
        for t in (-1.7, 0.3, 2.4):
            want = t * t * Q - abs(t) ** q * fw
            assert eval_F(geo.scale(u, t), bundled64, q) == pytest.approx(
                want, rel=1e-11, abs=1e-12
            )


def test_lower_bound_inequality(bundled64, geom64, rng):
    # F >= (1 - 2 s A+) |Du|^2 + (min h - 2 C(s) A+) k^(2/q) - k max f
    from biharm.certifier import grad_interp_constant

    q = 2.5
    a_plus = bundled64.a_plus_sup
    sigma = 0.25 / a_plus
    C = grad_interp_constant(sigma, geom64)
    for _ in range(25):
        amplitude = rng.uniform(0.2, 5.0)
        u = geo.scale(geom64.random_smooth(rng, decay=2.0), amplitude)
        k = geo.lp_mass(u, q)
        F = eval_F(u, bundled64, q)
        rhs = (
            (1.0 - 2.0 * sigma * a_plus) * geo.bilap_energy(u)
            + (bundled64.h_min - 2.0 * C * a_plus) * k ** (2.0 / q)
            - k * bundled64.f_max
        )
        assert F >= rhs - 1e-9 * (1.0 + abs(rhs))


@pytest.mark.parametrize("dim", [1, 2])
def test_grad_samples_and_weighted_sq_per_row(bundled64, plate2d, dim):
    # each row: the per-component reference sum and the single-field value, bit for bit
    problem = bundled64 if dim == 1 else plate2d
    g = problem.geometry
    rng = np.random.default_rng(11)
    fields = [g.random_smooth(rng, decay=2.5) for _ in range(3)]
    du, values = prob.grad_samples_and_weighted_sq(problem, geo.stack(fields).coeffs)
    assert du.shape == (g.d_eff, 3) + g.fine_shape
    for row, u in enumerate(fields):
        want = 0.0
        for i in range(g.d_eff):
            du_i = g.fine_samples(g.deriv_mult[i] * u.coeffs)
            assert np.array_equal(du[i, row], du_i)
            want += g.integrate_fine(problem.a_fine * du_i * du_i)
        assert values[row] == want == prob._grad_weighted_sq(problem, u)


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), q=st.floats(2.1, 4.5), n=st.integers(1, 5))
def test_stacked_energy_rows_match_single_fields_bitwise(bundled64, plate2d, dim, seed, q, n):
    # rows with and without carried refined-grid values, as the path sweep makes them
    problem = bundled64 if dim == 1 else plate2d
    g = problem.geometry
    rng = np.random.default_rng(seed)
    fields = [geo.scale(g.random_smooth(rng, decay=2.5), rng.uniform(0.2, 3.0)) for _ in range(n)]
    nodes = [g.field_from_coeffs(f.coeffs) for f in fields]
    for f in nodes:
        f.fine_values
    t = rng.uniform(0.0, 1.0, size=n)
    blends = geo.add(geo.scale(geo.stack(nodes), 1.0 - t), geo.stack(nodes[::-1]), t)
    blend_rows = [geo.add(geo.scale(a, 1.0 - ti), b, ti) for a, b, ti in zip(nodes, nodes[::-1], t)]
    for u, rows in ((geo.stack(fields), fields), (blends, blend_rows)):
        energies = eval_F(u, problem, q)
        quad = prob.quadratic_part(u, problem)
        mass = prob.f_weighted_mass(u, problem, q)
        bilap = geo.bilap_energy(u)
        grads = grad_F(u, problem, q)
        assert len(energies) == n and all(isinstance(e, float) for e in energies)
        for i, f in enumerate(rows):
            assert energies[i] == eval_F(f, problem, q)
            assert quad[i] == prob.quadratic_part(f, problem)
            assert mass[i] == prob.f_weighted_mass(f, problem, q)
            assert bilap[i] == geo.bilap_energy(f)
            assert np.array_equal(grads.coeffs[i], grad_F(f, problem, q).coeffs)


def test_stacked_eval_F_raises_on_a_non_finite_row(bundled64):
    g = bundled64.geometry
    u = geo.stack([g.constant(1.0), g.constant(1e200)])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
        eval_F(u, bundled64, 4.0)


def test_el_residual_zero_field(bundled64, geom64):
    assert el_residual(geom64.constant(0.0), bundled64, 2.5, 0.0) == 0.0


def _manufactured(geom, q):
    """Exact-coefficient positive profile and the f that balances it."""
    coeffs = np.zeros(geom.shape, dtype=np.complex128)
    coeffs[(0,) * geom.d_eff] = 2.0
    idx = (1,) + (0,) * (geom.d_eff - 1)
    coeffs[idx] = 0.25
    coeffs[tuple(-i for i in idx)] = 0.25
    u = geom.field_from_coeffs(coeffs)
    a = geom.constant(0.2)
    h = geom.constant(-1.0)
    # div(a grad u) for constant a: the multiplier -a |2 pi m|^2
    div = geom.field_from_coeffs(-0.2 * geom.lam * u.coeffs)
    lhs = geo.add(geo.add(geo.bilaplacian(u), div), geo.scale(u, -1.0))
    f = geom.field(lhs.samples / prob.signed_power(u.samples, q - 1.0))
    return u, ProblemData(geom, a, h, f)


@pytest.mark.parametrize("q", [2.5, 4.0])
def test_el_residual_manufactured(geom64, q):
    u, p = _manufactured(geom64, q)
    assert el_residual(u, p, q, 0.0, equation_normalized=True) <= 1e-10


def test_el_residual_variational_weighting(geom64):
    # residual with the q/2 weighting vanishes for f scaled by 2/q
    q = 2.5
    u, p = _manufactured(geom64, q)
    f_var = geom64.field((2.0 / q) * p.f.samples)
    p_var = ProblemData(geom64, p.a, p.h, f_var)
    assert el_residual(u, p_var, q, 0.0) <= 1e-10


def test_variational_to_equation_rescaling(geom64):
    q = 2.5
    u, p = _manufactured(geom64, q)
    # v solves the q/2-weighted form; u = (q/2)^(1/(q-2)) v the plain one
    v = geo.scale(u, (0.5 * q) ** (-1.0 / (q - 2.0)))
    assert el_residual(v, p, q, 0.0) <= 1e-10
    u_back = prob.variational_to_equation(v, q)
    assert np.allclose(u_back.samples, u.samples, rtol=1e-12)


def test_einstein_preset_values():
    assert einstein_preset(6, 0.0) == (0.0, 0.0)
    alpha, a0 = einstein_preset(6, -1.0)
    assert alpha == pytest.approx(-1.0 / 3.0, rel=1e-14)
    assert a0 == pytest.approx(2.0 * 32.0 / (16.0 * 6.0 * 25.0), rel=1e-14)
    for R in (-2.0, 0.5, 3.0):
        assert einstein_preset(7, R)[1] >= 0.0
    with pytest.raises(ValueError):
        einstein_preset(4, 1.0)


def test_einstein_preset_operator_reproduction(geom64):
    # with a = -alpha the middle term equals alpha * laplacian exactly
    alpha, a0 = einstein_preset(6, -1.0)
    a = geom64.constant(-alpha)
    h = geom64.constant(a0)
    p = ProblemData(geom64, a, h, geom64.constant(1.0))
    x = geom64.coordinates()[0]
    u = geom64.field(np.cos(TWO_PI * 3 * x))
    lhs = geom64.field_from_coeffs(prob.apply_operator(p, u, np.zeros(geom64.fine_shape)))
    lam = (TWO_PI * 3) ** 2
    want = (lam**2 + alpha * lam + a0) * u.samples
    assert np.allclose(lhs.samples, want, rtol=1e-10, atol=1e-6)
    assert not p.h_negative   # preset violates the h < 0 hypothesis: flagged


# ----------------------------------------------------------------------
# int f^- by the batched Gauss-Kronrod rule

GEOM_1D = geo.TorusGeometry(6, 1, 16)
GEOM_2D = geo.TorusGeometry(7, 2, 8)
# int_0^1 max(c - A cos 2 pi t, 0) dt is the same for t = x1 and for the
# measure-preserving shears t = x1 + x2 and t = x1 - 2 x2 of the torus
COSINE_CASES = [
    pytest.param("{A!r}*cos(2*pi*x1) - {c!r}", GEOM_1D, id="1d"),
    pytest.param("{A!r}*cos(2*pi*(x1 + x2)) - {c!r}", GEOM_2D, id="2d-sum"),
    pytest.param("{A!r}*cos(2*pi*(x1 - 2*x2)) - {c!r}", GEOM_2D, id="2d-shear"),
]


def _f_minus_closed_form(A, c):
    """int_0^1 max(c - A cos 2 pi t, 0) dt for A > 0."""
    if c >= A:
        return c
    if c <= -A:
        return 0.0
    phi = math.acos(c / A)
    return (c * (math.pi - phi) + A * math.sin(phi)) / math.pi


def _int_f_minus(pattern, geometry, A, c):
    f = pattern.format(A=float(A), c=float(c))
    return ProblemData.from_expressions(geometry, "0", "-1", f).int_f_minus


def test_gauss_kronrod_pair_is_exact_on_polynomials():
    # K21 integrates degree 31 exactly and G10 degree 19; G10's nodes are Gauss-Legendre's
    nodes, kronrod, gauss = prob._GK_NODES, prob._GK_KRONROD, prob._GK_GAUSS
    for k in range(32):
        assert kronrod @ nodes**k == pytest.approx(1.0 / (k + 1), rel=1e-14, abs=1e-15)
    for k in range(20):
        assert gauss @ nodes**k == pytest.approx(1.0 / (k + 1), rel=1e-14, abs=1e-15)
    legendre = 0.5 * (1.0 + np.polynomial.legendre.leggauss(10)[0])
    assert np.allclose(nodes[gauss > 0], legendre, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("pattern, geometry", COSINE_CASES)
@settings(max_examples=20, deadline=None)
@given(A=st.floats(0.25, 4.0), ratio=st.floats(-0.9, 0.9))
@example(A=1.0, ratio=0.8031531995439228)   # 1-D: a kink 1.5e-5 into a 1/128 interval
def test_int_f_minus_matches_closed_form(pattern, geometry, A, ratio):
    want = _f_minus_closed_form(A, ratio * A)
    assert _int_f_minus(pattern, geometry, A, ratio * A) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("pattern, geometry", COSINE_CASES)
@settings(max_examples=10, deadline=None)
@given(A=st.floats(0.25, 4.0), ratio=st.floats(1.0, 3.0), negative=st.booleans())
def test_int_f_minus_of_one_sign(pattern, geometry, A, ratio, negative):
    # f <= 0 everywhere gives int f^- = c; f >= 0 everywhere gives 0
    c = ratio * A if negative else -ratio * A
    got = _int_f_minus(pattern, geometry, A, c)
    if negative:
        assert got == pytest.approx(c, rel=1e-12)
    else:
        assert got == 0.0


@pytest.mark.parametrize("pattern, geometry", COSINE_CASES)
def test_int_f_minus_of_a_large_cancelling_f(pattern, geometry):
    # values near the kinks are differences of numbers near 1e8: the
    # rounding bound, not GK_TOL, accepts those intervals
    A, c = 1e8, 3e7
    want = _f_minus_closed_form(A, c)
    assert _int_f_minus(pattern, geometry, A, c) == pytest.approx(want, rel=1e-12)


def _count_expression_calls(monkeypatch):
    from biharm import expressions

    calls = []
    call = expressions.Expression.__call__

    def counted(self, *coords):
        calls.append(np.size(coords[0]))
        return call(self, *coords)

    monkeypatch.setattr(expressions.Expression, "__call__", counted)
    return calls


def test_plate_int_f_minus_is_a_few_thousand_array_calls(monkeypatch):
    # nested scalar quadrature made 1,389,720 calls of the expression here
    calls = _count_expression_calls(monkeypatch)
    p = ProblemData.from_expressions(
        geo.TorusGeometry(7, 2, 16), "0.1", "-1", "cos(2*pi*x1)*cos(2*pi*x2) - 0.25"
    )
    assert len(calls) <= 5000
    # the closed-form oracle of test_certifier.test_certify_2d_smoke; the
    # end gaps matter here: without them the value is 6e-13 rel low
    assert p.int_f_minus == pytest.approx(0.354738170622633016, rel=1e-13)


@pytest.mark.parametrize(
    "f, geometry",
    [
        ("1/(x1 - 0.3)", GEOM_1D),
        ("1/(x1 - 0.31)", GEOM_1D),
        ("-1/((x1 - 0.31)*(x1 - 0.31))", GEOM_1D),
        ("1/(x1 - 0.3)", GEOM_2D),
        ("1/(x2 - 0.31) + 1/(x1 - 0.77)", GEOM_2D),
        ("1/abs(x1 - 0.31) - 1/abs(x2 - 0.52)", GEOM_2D),
    ],
)
def test_int_f_minus_of_a_pole_finishes(monkeypatch, f, geometry):
    # a pole either lands on a node (division by zero) or is cut off at
    # the depth cap; either way the work stays bounded
    from biharm.errors import ExpressionError

    calls = _count_expression_calls(monkeypatch)
    try:
        value = ProblemData.from_expressions(geometry, "0", "-1", f).int_f_minus
    except ExpressionError:
        value = 0.0
    assert math.isfinite(value)
    assert len(calls) <= 5000
    assert max(calls) <= 200_000
