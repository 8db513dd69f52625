"""Property tests of the operator kernel L_w = Delta^2 + div(a grad) + h - w.

Every solver object (gradient, Euler-Lagrange residual, Newton Hessian)
is ``apply_operator`` with some zero-order weight, so these properties
cover all of them, on one and two effective axes.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from biharm import geometry as geo
from biharm import problem as prob
from biharm.mountainpass import _hessian_apply

PROPERTY = settings(max_examples=20, deadline=None, database=None, derandomize=True)
SEEDS = st.integers(0, 2**32 - 1)
DIMS = pytest.mark.parametrize("dim", [1, 2])


def _pick(dim, bundled64, plate2d):
    return bundled64 if dim == 1 else plate2d


def _fields(problem, seed, n):
    rng = np.random.default_rng(seed)
    g = problem.geometry
    return [g.random_smooth(rng, decay=2.5) for _ in range(n)]


def _apply(problem, v, w):
    return problem.geometry.field_from_coeffs(prob.apply_operator(problem, v, w))


@DIMS
@PROPERTY
@given(seed=SEEDS, q=st.floats(2.1, 4.5), c=st.floats(-3.0, 3.0))
def test_operator_self_adjoint(bundled64, plate2d, dim, seed, q, c):
    problem = _pick(dim, bundled64, plate2d)
    u, v, z = _fields(problem, seed, 3)
    zero = np.zeros(problem.geometry.fine_shape)
    for w in (zero, c * problem.f_fine * np.abs(u.fine_values) ** (q - 2.0)):
        lhs = geo.inner(_apply(problem, v, w), z)
        rhs = geo.inner(v, _apply(problem, z, w))
        scale = geo.h2_norm(v) * geo.h2_norm(z)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), scale)


@DIMS
@PROPERTY
@given(seed=SEEDS, q=st.floats(2.3, 4.5), offset=st.floats(1.0, 3.0))
def test_hessian_matches_gradient_differences(bundled64, plate2d, dim, seed, q, offset):
    # |u|^(q-2) is smooth only away from u = 0, so u is kept off zero
    problem = _pick(dim, bundled64, plate2d)
    g = problem.geometry
    bump, v = _fields(problem, seed, 2)
    u = geo.add(g.constant(offset), bump, 0.5)
    assume(np.min(np.abs(u.fine_values)) > 0.2)
    t = 1e-5
    fd = geo.scale(
        geo.add(
            prob.grad_F(geo.add(u, v, t), problem, q),
            prob.grad_F(geo.add(u, v, -t), problem, q),
            -1.0,
        ),
        1.0 / (2.0 * t),
    )
    hv = geo.scale(_hessian_apply(problem, q, u, v), 2.0)
    err = geo.l2_norm(geo.add(hv, fd, -1.0))
    assert err <= 1e-7 * max(1.0, geo.l2_norm(hv))


@DIMS
@PROPERTY
@given(seed=SEEDS, q=st.floats(2.1, 4.5))
def test_energy_and_grad_agree_with_quadrature(bundled64, plate2d, dim, seed, q):
    problem = _pick(dim, bundled64, plate2d)
    (u,) = _fields(problem, seed, 1)
    value, grad = prob.energy_and_grad(u, problem, q)
    scale = 1.0 + geo.h2_norm(u) ** 2 + problem.f_sup * geo.lp_mass(u, q)
    assert abs(value - prob.eval_F(u, problem, q)) <= 1e-12 * scale
    ref = prob.grad_F(u, problem, q)
    assert geo.l2_norm(geo.add(grad, ref, -1.0)) <= 1e-12 * max(1.0, geo.l2_norm(ref))


@DIMS
def test_operator_constant_coefficients(geom64, geom2d, dim, rng):
    # a, h constant: L_0 multiplies mode m by |w|^4 - a |w|^2 + h
    g = geom64 if dim == 1 else geom2d
    p = prob.ProblemData(g, g.constant(0.3), g.constant(-2.0), g.constant(1.0))
    v = g.random_smooth(rng)
    want = (g.lam_sq - 0.3 * g.lam - 2.0) * v.coeffs
    got = prob.apply_operator(p, v, np.zeros(g.fine_shape))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_el_residual_matches_gradient_and_constraint(bundled64, geom64, rng):
    # variational residual = |grad F / 2 - lam P(|u|^(q-2) u)|
    q, lam = 2.5, 0.7
    u = geom64.random_smooth(rng)
    half = geo.scale(prob.grad_F(u, bundled64, q), 0.5)
    want = geo.l2_norm(geo.add(half, prob.constraint_direction(u, q), -lam))
    got = prob.el_residual(u, bundled64, q, lam)
    assert got == pytest.approx(want, rel=1e-12)


@DIMS
@PROPERTY
@given(seed=SEEDS, q=st.floats(2.1, 4.5), n=st.integers(1, 4))
def test_stacked_kernel_matches_single_fields_bitwise(bundled64, plate2d, dim, seed, q, n):
    problem = _pick(dim, bundled64, plate2d)
    fields = _fields(problem, seed, n)
    u = geo.stack(fields)
    w = problem.f_fine * np.abs(u.fine_values) ** (q - 2.0)
    values, grad = prob.energy_and_grad(u, problem, q)
    applied = prob.apply_operator(problem, u, w)
    psi = prob.constraint_direction(u, q)
    assert len(values) == n and all(isinstance(v, float) for v in values)
    for i, f in enumerate(fields):
        value, g_i = prob.energy_and_grad(f, problem, q)
        assert values[i] == value
        assert np.array_equal(grad.coeffs[i], g_i.coeffs)
        assert np.array_equal(applied[i], prob.apply_operator(problem, f, w[i]))
        assert np.array_equal(psi.coeffs[i], prob.constraint_direction(f, q).coeffs)


def test_stacked_energy_returns_non_finite_values(bundled64):
    g = bundled64.geometry
    u = geo.stack([g.constant(1.0), g.constant(1e200)])
    with np.errstate(over="ignore", invalid="ignore"):
        values, _ = prob.energy_and_grad(u, bundled64, 4.0)
        assert math.isfinite(values[0]) and not math.isfinite(values[1])
        with pytest.raises(ValueError):
            prob.energy_and_grad(g.constant(1e200), bundled64, 4.0)
