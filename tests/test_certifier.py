import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh
from scipy.optimize import brentq

from biharm import certifier
from biharm import geometry as geo
from biharm import problem as prob
from biharm.certifier import (
    CoercivityConstants,
    certify,
    coercivity_constants,
    embedding_remainder,
    grad_interp_constant,
    masked_rayleigh,
    moment_rayleigh,
    sharp_sobolev_constant,
)
from biharm.certifier import _brentq, _MaskedForm, _moment_descent, _MomentSet
from biharm.errors import BadSigma, InfeasibleConstraint, NonPositiveEps0
from biharm.geometry import TorusGeometry
from biharm.problem import ProblemData

TWO_PI = 2.0 * math.pi


# ----------------------------------------------------------------------
# closed-form constants


def test_sharp_constant_against_high_precision_gamma():
    import mpmath as mp

    mp.mp.dps = 60
    for n in range(5, 13):
        want = 1 / mp.sqrt(
            mp.pi**2
            * n
            * (n - 4)
            * (n * n - 4)
            * mp.gamma(mp.mpf(n) / 2) ** (mp.mpf(4) / n)
            * mp.gamma(n) ** (-mp.mpf(4) / n)
        )
        got = sharp_sobolev_constant(n)
        assert abs(got - float(want)) <= 1e-12 * float(want)
        assert got > 0.0 and math.isfinite(got)


def test_sharp_constant_second_gamma_implementation():
    # scipy's log-gamma as an independent second implementation
    from scipy.special import gammaln

    for n in range(5, 13):
        inv_sq = (
            math.pi**2
            * n
            * (n - 4)
            * (n * n - 4)
            * math.exp((4.0 / n) * (gammaln(n / 2.0) - gammaln(float(n))))
        )
        assert sharp_sobolev_constant(n) == pytest.approx(
            inv_sq ** (-0.5), rel=1e-12
        )


def test_sharp_constant_n8_closed_form():
    # K2^-2 = 1920 pi^2 (6/5040)^(1/2) at n = 8
    want = (1920.0 * math.pi**2 * math.sqrt(6.0 / 5040.0)) ** (-0.5)
    assert sharp_sobolev_constant(8) == pytest.approx(want, rel=1e-13)


def test_sharp_constant_rejects_small_n():
    with pytest.raises(ValueError):
        sharp_sobolev_constant(4)


def test_grad_interp_constant_bounds(geom64):
    for sigma in (1e-3, 1e-2, 0.1, 1.25):
        C = grad_interp_constant(sigma, geom64)
        assert 0.0 <= C <= 1.0 / (16.0 * sigma) + 1e-12
    # large sigma: only the low modes can compete
    sigma = 1.0 / (8.0 * math.pi**2)
    C = grad_interp_constant(sigma, geom64)
    cap = max(0.0, (TWO_PI**2 - 2.0 * sigma * TWO_PI**4) / 2.0)
    assert C <= cap + 1e-12
    with pytest.raises(ValueError):
        grad_interp_constant(0.0, geom64)


def test_grad_interp_inequality_on_random_fields(geom64, rng):
    for sigma in (0.01, 0.3):
        C = grad_interp_constant(sigma, geom64)
        for _ in range(100):
            u = geom64.random_smooth(rng, decay=1.5)
            lhs = geo.grad_sq_integral(u)
            rhs = 2.0 * sigma * geo.bilap_energy(u) + 2.0 * C * geo.l2_norm(u) ** 2
            assert lhs <= rhs * (1.0 + 1e-12) + 1e-12


def test_embedding_remainder_covers_probes(geom64, rng, monkeypatch):
    eps = 0.1
    monkeypatch.setattr(certifier, "_N_PROBE", 200)
    A = embedding_remainder(geom64, eps, seed=0)
    assert A >= 1.0 - 1e-12        # the constant field forces A >= 1
    k2_sq = sharp_sobolev_constant(geom64.n_ambient) ** 2
    N = geom64.critical_exponent
    for _ in range(100):
        u = geom64.random_smooth(rng, decay=2.0)
        lhs = geo.lp_norm(u, N) ** 2
        rhs = k2_sq * (1.0 + eps) * geo.bilap_energy(u) + A * geo.l2_norm(u) ** 2
        assert lhs <= rhs * (1.0 + 1e-9)


def test_embedding_remainder_stops_at_a_stationary_probe(geom64, monkeypatch):
    # the constant probe wins with ratio 1 and an exactly zero ratio
    # gradient: one gradient evaluation, no ascent trials
    calls = []
    direction = prob.constraint_direction

    def counted(u, p):
        calls.append(p)
        return direction(u, p)

    monkeypatch.setattr(prob, "constraint_direction", counted)
    assert embedding_remainder(geom64, 0.1, seed=0) == 1.0
    assert len(calls) == 1


@pytest.mark.parametrize("n", [6, 7])
@pytest.mark.parametrize("eps", [0.1, 0.01])
def test_constant_probe_is_a_strict_local_maximum_of_the_ratio(n, eps):
    # along u = 1 + t sqrt2 cos(2 pi x1) the probe ratio is
    # 1 + t^2 (N - 2 - K2^2 (1+eps) (2 pi)^4) + O(t^4) (odd orders vanish
    # by the half-period shift), so the constant is a strict local
    # maximum exactly when K2^2 (1+eps) (2 pi)^4 > N - 2
    g = TorusGeometry(n, 1, 64)
    N = g.critical_exponent
    k2_term = sharp_sobolev_constant(n) ** 2 * (1.0 + eps)
    assert k2_term * TWO_PI**4 > N - 2.0
    phi = g.field(math.sqrt(2.0) * np.cos(TWO_PI * g.coordinates()[0]))

    def ratio(t):
        u = geo.add(g.constant(1.0), phi, t)
        return (geo.lp_norm(u, N) ** 2 - k2_term * geo.bilap_energy(u)) / geo.l2_norm(u) ** 2

    t = 1e-3
    assert ratio(0.0) == pytest.approx(1.0, abs=1e-14)
    assert ratio(t) < 1.0 and ratio(-t) < 1.0
    second_difference = (ratio(t) - 2.0 * ratio(0.0) + ratio(-t)) / t**2
    assert second_difference == pytest.approx(
        2.0 * (N - 2.0 - k2_term * TWO_PI**4), rel=1e-5
    )


# ----------------------------------------------------------------------
# masked Rayleigh quotient


def _dense_masked_oracle(problem):
    """Assemble the masked quadratic form and eigensolve it densely."""
    g = problem.geometry
    form = _MaskedForm(problem, "bilap-a")
    mask = np.maximum(-problem.f.samples, 0.0) <= 1e-12 * problem.f_sup
    idx = np.nonzero(mask.ravel())[0]
    n = g.size
    A = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        A[:, j] = form.apply(e.reshape(g.shape)).ravel()
    A = 0.5 * (A + A.T) * g.weight
    B = np.eye(n) * g.weight
    sub = np.ix_(idx, idx)
    return eigh(A[sub], B[sub], eigvals_only=True)[0]


@pytest.mark.parametrize(
    "a_expr,f_expr",
    [
        ("0", "0.5 - sin(2*pi*x1)"),
        ("0.2", "cos(2*pi*x1) - 0.25"),
        ("0", "cos(4*pi*x1) - 0.3"),
    ],
)
def test_masked_rayleigh_matches_dense_oracle(geom64, a_expr, f_expr, seed):
    p = ProblemData.from_expressions(geom64, a_expr, "-1", f_expr)
    oracle = _dense_masked_oracle(p)
    lam_n, lam_u = masked_rayleigh(p, "bilap-a", seed)
    assert lam_u == pytest.approx(oracle, rel=1e-4)
    assert lam_n >= lam_u - 1e-9 * abs(lam_u)   # sign constraint can only raise


@pytest.mark.parametrize(
    "exc, falls_back",
    [(np.linalg.LinAlgError("B is not positive definite"), True), (ValueError("NaN in A"), False)],
    ids=["linalg-error", "value-error"],
)
def test_ritz_step_falls_back_only_on_linalg_error(bundled64, monkeypatch, exc, falls_back):
    # a LAPACK failure keeps the iterate; any other fault must not end the
    # recurrence silently, since stopping early overestimates lambda
    import biharm.certifier as cert

    form = _MaskedForm(bundled64, "bilap-a")
    rng = np.random.default_rng(5)
    basis = [rng.standard_normal(form.g.shape) for _ in range(3)]
    Av = form.apply(basis[0])
    w, val = cert._ritz_step(form, basis, Av)
    assert val <= cert._quotient(form, basis[0])

    def failing(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cert, "_eigh", failing)
    if falls_back:
        w, val = cert._ritz_step(form, basis, Av)
        assert w is basis[0] and val == cert._quotient(form, basis[0])
    else:
        with pytest.raises(type(exc)):
            cert._ritz_step(form, basis, Av)


def test_masked_rayleigh_empty_mask(geom64, seed):
    p = ProblemData.from_expressions(geom64, "0", "-1", "-1")
    assert masked_rayleigh(p, "bilap-a", seed)[0] == math.inf


def test_masked_rayleigh_positive_f(geom64, seed):
    p = ProblemData.from_expressions(geom64, "0", "-1", "1 + 0.5*cos(2*pi*x1)")
    assert masked_rayleigh(p, "bilap-a", seed)[0] == pytest.approx(0.0, abs=1e-10)


def test_masked_rayleigh_scale_invariance(geom64, bundled64, seed):
    lam1 = masked_rayleigh(bundled64, "bilap-a", seed)[0]
    p2 = ProblemData(
        geom64,
        bundled64.a,
        bundled64.h,
        geom64.field(2.0 * bundled64.f.samples),
    )
    lam2 = masked_rayleigh(p2, "bilap-a", seed)[0]
    assert lam2 == pytest.approx(lam1, rel=1e-9)


def test_masked_rayleigh_monotone_in_a(geom64, seed):
    f = "cos(2*pi*x1) - 0.25"
    lam_small = masked_rayleigh(
        ProblemData.from_expressions(geom64, "0.1", "-1", f), "bilap-a", seed
    )[0]
    lam_big = masked_rayleigh(
        ProblemData.from_expressions(geom64, "0.4", "-1", f), "bilap-a", seed
    )[0]
    assert lam_big <= lam_small + 1e-6 * abs(lam_small)


def test_measure_criterion_trend(geom64, seed):
    # shrinking the positivity set drives the quotient up
    values = []
    for c in (0.25, 0.6, 0.9):
        p = ProblemData.from_expressions(geom64, "0", "-1", f"cos(2*pi*x1) - {c}")
        values.append(masked_rayleigh(p, "bilap-a", seed)[0])
    assert values[0] < values[1] < values[2]


# ----------------------------------------------------------------------
# moment-constrained quotient


def test_moment_rayleigh_monotone_and_bounded(bundled64, seed):
    q = 2.5
    lam_af = masked_rayleigh(bundled64, "bilap-a", seed)[0]
    vals = [moment_rayleigh(bundled64, eta, q, seed) for eta in (0.5, 0.1, 0.02)]
    tol = 1e-6 * (1.0 + abs(vals[0]))
    assert vals[0] <= vals[1] + tol
    assert vals[1] <= vals[2] + tol
    assert all(v <= lam_af * (1.0 + 1e-6) for v in vals)


def test_moment_rayleigh_limit_trend(bundled64, seed):
    q = 2.5
    vals = [moment_rayleigh(bundled64, eta, q, seed) for eta in (1e-1, 1e-2, 1e-3)]
    assert vals[0] < vals[1] < vals[2]


def test_moment_rayleigh_feasibility(bundled64, seed):
    actual = prob.f_minus_moment(
        bundled64.geometry.constant(1.0), bundled64, 2.5
    )
    assert actual == pytest.approx(bundled64.int_f_minus_grid, rel=1e-12)


# the retraction's call: _MomentSet.retract solves for t on [0, 1] with these
RETRACT_TOL = {"xtol": 1e-15, "rtol": 8.9e-16, "maxiter": 200}


def _smooth_root_function(kind, root, slope, bend, power):
    """A smooth function with its one sign change at ``root`` in [0, 1]."""
    if kind == "tanh":
        return lambda t: math.tanh(slope * (t - root)) + bend * (t - root) ** 3
    if kind == "exp":
        return lambda t: math.expm1(slope * (t - root))
    if kind == "sine":
        return lambda t: (t - root) * (1.0 + abs(bend) + math.sin(slope * t) ** 2)
    # the retraction's shape: a signed sum of q-th powers of two linear mixes
    a, b = 1.0 - root, root + 0.5
    return lambda t: abs((1.0 - t) + t * a) ** power * b - abs((1.0 - t) * b + t) ** power * a


def _calls(solver, f, *args, **kwargs):
    """The root and the hex of every point the solver evaluated f at."""
    points = []

    def recorded(x):
        points.append(float(x).hex())
        return f(x)

    return solver(recorded, *args, **kwargs).hex(), points


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    kind=st.sampled_from(["tanh", "exp", "sine", "mix"]),
    root=st.floats(0.0, 1.0),
    slope=st.floats(0.05, 60.0),
    bend=st.floats(-3.0, 3.0),
    power=st.sampled_from([2.5, 3.0, 4.0, 6.0]),
    xtol=st.sampled_from([RETRACT_TOL["xtol"], 1e-2, 0.1]),
)
# a coarse tolerance reaches the edge of the short-step test 2|s| < 3|sbis| - delta
@example(kind="exp", root=0.37, slope=5.0, bend=0.0, power=3.0, xtol=0.1)
def test_brentq_matches_scipy_bit_for_bit(kind, root, slope, bend, power, xtol):
    f = _smooth_root_function(kind, root, slope, bend, power)
    tol = {**RETRACT_TOL, "xtol": xtol}
    try:
        want = _calls(brentq, f, 0.0, 1.0, **tol)
    except ValueError:
        # no sign change at the ends: both refuse
        with pytest.raises(ValueError):
            _brentq(f, 0.0, 1.0, **tol)
        return
    assert _calls(_brentq, f, 0.0, 1.0, **tol) == want


@pytest.mark.parametrize("root", [0.0, 1.0])
def test_brentq_returns_an_exact_zero_end(root):
    f = lambda t: (t - root) * (2.0 + t)
    assert _calls(_brentq, f, 0.0, 1.0, **RETRACT_TOL) == _calls(brentq, f, 0.0, 1.0, **RETRACT_TOL)
    assert _brentq(f, 0.0, 1.0, **RETRACT_TOL) == root


@pytest.mark.parametrize(
    "f",
    [
        lambda t: 1.0 + t,                                  # one sign at both ends
        lambda t: -1.0 - t * t,
        lambda t: math.nan if t == 1.0 else t - 0.5,        # NaN at an end
        lambda t: math.nan if 0.0 < t < 1.0 else t - 0.3,   # NaN inside the bracket
    ],
)
def test_brentq_raises_value_error_like_scipy(f):
    with pytest.raises(ValueError):
        brentq(f, 0.0, 1.0, **RETRACT_TOL)
    with pytest.raises(ValueError):
        _brentq(f, 0.0, 1.0, **RETRACT_TOL)


def test_brentq_raises_after_maxiter_like_scipy():
    f = lambda t: math.tanh(40.0 * (t - 0.3))
    tol = {**RETRACT_TOL, "maxiter": 3}
    with pytest.raises(RuntimeError):
        brentq(f, 0.0, 1.0, **tol)
    with pytest.raises(RuntimeError):
        _brentq(f, 0.0, 1.0, **tol)


def _moment_case(dim, bundled64, plate2d):
    return (bundled64, 2.5) if dim == 1 else (plate2d, 3.0)


def test_moment_retraction_of_a_zero_field_is_infeasible(bundled64):
    mset = _MomentSet(bundled64, 0.5, 2.5)
    with pytest.raises(InfeasibleConstraint):
        mset.retract(bundled64.geometry.constant(0.0))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("eta", [0.5, 0.1, 0.02])
def test_moment_retraction_meets_both_constraints(bundled64, plate2d, dim, eta):
    problem, q = _moment_case(dim, bundled64, plate2d)
    g = problem.geometry
    mset = _MomentSet(problem, eta, q)
    target = eta * problem.int_f_minus
    rng = np.random.default_rng(5)
    fields = [
        g.constant(1.0),                    # moment above the target
        mset.z_lo,                          # moment below it
        mset.z_hi,
        geo.add(g.constant(1.0), g.random_smooth(rng, decay=2.5), 0.3),
        g.random_smooth(rng, decay=2.0),
    ]
    for w in fields:
        u = mset.retract(w)
        # the carried refined values and a fresh transform of the coefficients
        for v in (u, g.field_from_coeffs(u.coeffs)):
            assert geo.lp_mass(v, q) == pytest.approx(1.0, rel=1e-12)
            assert prob.f_minus_moment(v, problem, q) == pytest.approx(target, rel=1e-10)


def _outcome(run):
    return run.r_val, run.iterations, run.exit, run.stall, run.tau


@pytest.mark.parametrize("dim", [1, 2])
def test_moment_descent_rows_are_independent(bundled64, plate2d, dim):
    # the lockstep stack, each start alone and the reversed stack agree bit for bit
    problem, q = _moment_case(dim, bundled64, plate2d)
    g = problem.geometry
    mset = _MomentSet(problem, 0.5, q)
    rng = np.random.default_rng(3)
    starts = [
        mset.z_lo,
        g.constant(1.0),
        geo.add(g.constant(1.0), g.random_smooth(rng, decay=2.5), 0.3),
    ]
    stacked = _moment_descent(problem, q, mset, starts, 150)
    assert {run.exit for run in stacked} == {"stalled"}
    for start, got in zip(starts, stacked):
        [alone] = _moment_descent(problem, q, mset, [start], 150)
        assert _outcome(got) == _outcome(alone)
        assert np.array_equal(got.u.coeffs, alone.u.coeffs)
    backward = _moment_descent(problem, q, mset, starts[::-1], 150)
    assert [_outcome(run) for run in backward[::-1]] == [_outcome(run) for run in stacked]


def test_moment_descent_skips_an_infeasible_start(bundled64):
    g = bundled64.geometry
    mset = _MomentSet(bundled64, 0.5, 2.5)
    runs = _moment_descent(bundled64, 2.5, mset, [g.constant(0.0), g.constant(1.0)], 20)
    assert runs[0] is None
    [alone] = _moment_descent(bundled64, 2.5, mset, [g.constant(1.0)], 20)
    assert _outcome(runs[1]) == _outcome(alone)


def _unbracketed(problem, monkeypatch):
    # z_lo swapped for z_hi: a start above the target moment mixes toward a
    # profile that is above it too, so phi keeps one sign on [0, 1]
    mset = _MomentSet(problem, 0.5, 2.5)
    monkeypatch.setattr(mset, "z_lo", mset.z_hi)
    return mset


def test_moment_retraction_without_a_bracket_is_infeasible(bundled64, monkeypatch):
    mset = _unbracketed(bundled64, monkeypatch)
    with pytest.raises(InfeasibleConstraint, match="no bracket"):
        mset.retract(bundled64.geometry.constant(1.0))


def test_moment_descent_skips_a_start_without_a_bracket(bundled64, monkeypatch):
    start = _MomentSet(bundled64, 0.5, 2.5).z_lo    # below the target: mixes toward z_hi
    mset = _unbracketed(bundled64, monkeypatch)
    g = bundled64.geometry
    runs = _moment_descent(bundled64, 2.5, mset, [g.constant(1.0), start], 20)
    assert runs[0] is None
    [alone] = _moment_descent(bundled64, 2.5, mset, [start], 20)
    assert _outcome(runs[1]) == _outcome(alone)


def test_moment_rayleigh_transform_count(bundled64, seed, monkeypatch):
    # the one-start loop the lockstep stack replaced made 1,277 transforms here
    calls = []
    for name in ("forward", "inverse"):
        real = getattr(TorusGeometry, name)
        monkeypatch.setattr(
            TorusGeometry, name,
            lambda self, *a, _real=real, **k: calls.append(1) or _real(self, *a, **k),
        )
    moment_rayleigh(bundled64, 0.5, 2.5, seed)
    assert 0 < len(calls) <= 640


# ----------------------------------------------------------------------
# coercivity constants


def test_window_ratio_exact(bundled64, seed):
    # k2/k1 = 2^(q/(q-2)): equals 4 at q = 4
    cc = coercivity_constants(
        bundled64, 4.0, 0.5, 1.25, 0.1,
        lam_eta_q=moment_rayleigh(bundled64, 0.5, 4.0, seed),
        remainder=embedding_remainder(bundled64.geometry, 0.1, seed=seed),
    )
    assert cc.k_high / cc.k_low == pytest.approx(4.0, rel=1e-12)


def test_window_exponent_limit():
    # q/(q-2) tends to n/4 as q -> N = 2n/(n-4)
    for n in (6, 8, 10):
        N = 2.0 * n / (n - 4.0)
        assert N / (N - 2.0) == pytest.approx(n / 4.0, rel=1e-12)


def test_coercivity_b_formula_symbolic(geom64, seed):
    # a = 0 collapses the floor to eps0 shrink / (stuff); recompute via sympy
    import sympy as sp

    p = ProblemData.from_expressions(geom64, "0", "-1", "cos(2*pi*x1) - 0.25")
    eta, sigma, eps = 0.5, 1.0, 0.1
    lam = moment_rayleigh(p, eta, 2.5, seed)
    cc = coercivity_constants(
        p, 2.5, eta, sigma, eps, lam_eta_q=lam,
        remainder=embedding_remainder(geom64, eps, seed=seed),
    )
    e0, H, A2, K2, AP, CS, SG, EP = sp.symbols("e0 H A2 K2 AP CS SG EP")
    b_expr = ((1 - 2 * SG * AP) * e0) / (
        (e0 + H + 2 * AP * CS) * K2**2 * (1 + EP) + (1 - 2 * SG * AP) * A2
    )
    subs = {
        e0: cc.eps0,
        H: p.h_sup,
        A2: cc.remainder,
        K2: sharp_sobolev_constant(6),
        AP: 0.0,
        CS: cc.c_sigma,
        SG: sigma,
        EP: eps,
    }
    assert cc.b == pytest.approx(float(b_expr.subs(subs)), rel=1e-12)
    assert cc.mu_floor == min(cc.b, p.h_sup)


def test_coercivity_raises(bundled64, seed):
    lam = moment_rayleigh(bundled64, 0.5, 2.5, seed)
    remainder = embedding_remainder(bundled64.geometry, 0.1, seed=seed)
    with pytest.raises(BadSigma):
        coercivity_constants(
            bundled64, 2.5, 0.5, 10.0, 0.1, lam_eta_q=lam, remainder=remainder
        )
    with pytest.raises(NonPositiveEps0):
        coercivity_constants(
            bundled64, 2.5, 0.5, 1.25, 0.1, lam_eta_q=0.5, remainder=remainder
        )


# ----------------------------------------------------------------------
# full certificates


def test_certify_bundled(bundled64, seed):
    rep = certify(bundled64, 2.5, seed)
    assert rep.cond_spectral           # huge spectral margin
    assert rep.cond_positive
    assert not rep.cond_ratio          # ratio 1.65 far above the threshold
    assert rep.c_threshold <= rep.eta / 8.0 + 1e-12
    assert rep.k_high_certified < rep.k_low     # certified window empty
    assert rep.rayleigh_variant_gap >= -1e-6
    assert rep.measure_bound_ok


def test_certify_all_negative_f(geom64, seed):
    p = ProblemData.from_expressions(geom64, "0", "-1", "-1")
    rep = certify(p, 2.5, seed)
    assert rep.rayleigh_masked == math.inf
    assert rep.cond_spectral
    assert rep.cond_ratio              # ratio 0 below any positive threshold
    assert not rep.cond_positive
    assert rep.passed and not rep.passed_subcritical


def test_certify_ratio_passing_problem(geom64, seed):
    p = ProblemData.from_expressions(geom64, "0", "-1", "cos(2*pi*x1) - 0.999")
    rep = certify(p, 2.5, seed)
    assert rep.passed_subcritical
    assert rep.ratio_plus_minus < rep.c_threshold
    assert rep.k_low < rep.k_high_certified    # nonempty certified window


def test_certify_nonpositive_f_blocks_cond3(geom64, seed):
    p = ProblemData.from_expressions(geom64, "0", "-1", "-0.5 - 0.2*cos(2*pi*x1)")
    rep = certify(p, 2.5, seed)
    assert not rep.cond_positive
    assert rep.cond_spectral


def test_certify_quantitative_measure_bound(geom64, seed):
    # lambda >= (meas^(-4/n) - A2 - mu |a|) / (K2^2 (1+eps)) when evaluable
    p = ProblemData.from_expressions(geom64, "0.1", "-1", "cos(2*pi*x1) - 0.6")
    rep = certify(p, 2.5, seed)
    assert rep.measure_bound_ok
    assert rep.rayleigh_masked >= rep.measure_lower_bound - 1e-9


def test_certify_2d_smoke(geom2d, seed):
    p = ProblemData.from_expressions(
        geom2d, "0.1", "-1", "cos(2*pi*x1)*cos(2*pi*x2) - 0.25"
    )
    rep = certify(p, 3.0, seed)
    assert rep.d_eff == 2
    assert math.isfinite(rep.ratio_plus_minus)
    assert rep.cond_spectral            # tiny h against a clamped-patch quotient
    assert rep.k_low > 0.0
    assert rep.sobolev_constant == pytest.approx(sharp_sobolev_constant(7), rel=1e-14)
    # int f^- of the plate: the inner integral over x1 has the closed form
    # I(C) = (c (pi - phi) + A sin phi) / pi (c = 1/4, A = |C|, phi = arccos(c / A);
    # I = c when A <= c) with C = cos(2 pi x2); the oracle is
    # mpmath.quad(lambda x2: I(cos(2*pi*x2)), breakpoints) at mp.dps = 30,
    # with breakpoints 0, 1 and the four x2 where |C| = 1/4
    assert rep.int_f_minus == pytest.approx(0.354738170622633016, rel=1e-12)


def _count_remainder_calls(monkeypatch, log):
    # the calls run in the certifier's worker processes: each one appends
    # a line to ``log``; the lines are returned in sorted order
    import biharm.certifier as cert

    real = cert.embedding_remainder

    def counted(geometry, eps, **kwargs):
        with open(log, "a", encoding="utf-8") as out:
            out.write(f"{eps!r}\n")
        return real(geometry, eps, **kwargs)

    monkeypatch.setattr(cert, "embedding_remainder", counted)
    return lambda: sorted(float(line) for line in log.read_text(encoding="utf-8").splitlines())


def test_certify_computes_each_remainder_once(
    bundled128, seed, monkeypatch, tmp_path, assert_golden_certificate
):
    import json

    from biharm import serialize as ser

    calls = _count_remainder_calls(monkeypatch, tmp_path / "calls.txt")
    rep = certify(bundled128, 2.5, seed)        # configs/bundled.json
    assert calls() == [0.01, 0.1]
    ser.write_json(tmp_path / "report.json", ser.hypothesis_report_dict(rep))
    assert_golden_certificate(json.loads((tmp_path / "report.json").read_text()))


def test_certify_measure_bound_uses_the_default_remainder_without_admissible_eta(
    geom64, seed, monkeypatch, tmp_path
):
    # h dominates every moment quotient: no (eta, eps) is admissible, so
    # the measure criterion reads the remainder at its default eps 0.1;
    # both remainders are pool tasks and run once each all the same
    p = ProblemData.from_expressions(geom64, "0", "-1e6", "cos(2*pi*x1) - 0.25")
    calls = _count_remainder_calls(monkeypatch, tmp_path / "calls.txt")
    rep = certify(p, 2.5, seed)
    assert math.isnan(rep.eps) and math.isnan(rep.remainder)
    assert calls() == [0.01, 0.1]
    n = geom64.n_ambient
    mu_grad = masked_rayleigh(p, "grad", seed)[0]
    rem = embedding_remainder(geom64, 0.1, seed=seed)
    rhs = (rep.positivity_measure ** (-4.0 / n) - rem - mu_grad * p.a_sup) / (
        sharp_sobolev_constant(n) ** 2 * (1.0 + 0.1)
    )
    assert rep.measure_lower_bound == rhs


def test_certify_runs_the_unsigned_masked_minimizations_once(
    bundled128, seed, monkeypatch, tmp_path, assert_golden_certificate
):
    # 3 starts for the masked quotient (both variants) + 3 for the grad quotient
    import json

    import biharm.certifier as cert
    from biharm import serialize as ser

    # the calls run in the certifier's worker processes: each one appends
    # a line to a file; the two operators may run at the same time, so
    # their lines are read in sorted order
    log = tmp_path / "calls.txt"
    real = cert._unsigned_quotient_min

    def counted(form, *args, **kwargs):
        with open(log, "a", encoding="utf-8") as out:
            out.write(form.operator + "\n")
        return real(form, *args, **kwargs)

    monkeypatch.setattr(cert, "_unsigned_quotient_min", counted)
    rep = certify(bundled128, 2.5, seed)        # configs/bundled.json
    calls = sorted(log.read_text(encoding="utf-8").splitlines())
    assert calls == ["bilap-a"] * 3 + ["grad"] * 3
    ser.write_json(tmp_path / "report.json", ser.hypothesis_report_dict(rep))
    assert_golden_certificate(json.loads((tmp_path / "report.json").read_text()))


@pytest.mark.parametrize("case", ["bundled128", "plate"])
def test_certify_pool_equals_in_process_solves(case, bundled128, geom2d, seed):
    # the report's solve results equal direct calls in this process, bit for bit
    if case == "plate":         # the problem of test_certify_2d_smoke
        p = ProblemData.from_expressions(
            geom2d, "0.1", "-1", "cos(2*pi*x1)*cos(2*pi*x2) - 0.25"
        )
        q = 3.0
    else:
        p, q = bundled128, 2.5
    rep = certify(p, q, seed)
    nonneg, unsigned = masked_rayleigh(p, "bilap-a", seed)
    assert rep.rayleigh_masked == nonneg
    assert rep.rayleigh_masked_unsigned == unsigned
    assert rep.moment_values == {eta: moment_rayleigh(p, eta, q, seed) for eta in (0.5, 0.1, 0.02)}
    assert list(rep.moment_values) == [0.5, 0.1, 0.02]
    # the measure bound from the grad quotient computed here
    mu_grad = masked_rayleigh(p, "grad", seed)[0]
    eps_m = rep.eps if math.isfinite(rep.eps) else 0.1
    n = p.geometry.n_ambient
    rem = embedding_remainder(p.geometry, eps_m, seed=seed)
    rhs = (rep.positivity_measure ** (-4.0 / n) - rem - mu_grad * p.a_sup) / (
        sharp_sobolev_constant(n) ** 2 * (1.0 + eps_m)
    )
    assert rep.measure_lower_bound == rhs


def test_certify_task_error_reaches_the_caller(bundled64, seed, monkeypatch):
    import multiprocessing

    from biharm.errors import NonConvergence

    real = certifier.moment_rayleigh

    def failing(problem, eta, q, seed):
        if eta == 0.1:
            raise NonConvergence(f"moment solve failed at eta {eta}")
        return real(problem, eta, q, seed)

    certify(bundled64, 2.5, seed)
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(certifier, "moment_rayleigh", failing)
    with pytest.raises(NonConvergence, match="^moment solve failed at eta 0.1$"):
        certify(bundled64, 2.5, seed)
    assert multiprocessing.active_children() == []


def test_start_certify_beside_the_caller_equals_certify(bundled64, seed):
    # the pool takes one worker per CPU up to one per solve, the caller
    # works on meanwhile, and the collected report is the blocking one,
    # bit for bit, with the pool closed
    import multiprocessing
    import os

    from biharm import serialize as ser
    from biharm.minimizer import minimize_on_sphere

    want = ser.hypothesis_report_dict(certify(bundled64, 2.5, seed))
    pending = certifier.start_certify(bundled64, 2.5, seed)
    assert pending.pool._max_workers == min(len(pending.solves), len(os.sched_getaffinity(0)))
    minimize_on_sphere(bundled64, 2.5, 1.0, seed)
    got = ser.hypothesis_report_dict(certifier.finish_certify(pending))
    assert multiprocessing.active_children() == []
    assert got == want


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize(
    "h_expr,f_expr",
    [
        ("-1", "cos(2*pi*x1) - 0.999"),     # passes every condition
        ("-1", "-1"),                       # every moment set empty: eps0 = inf
        ("-1e6", "cos(2*pi*x1) - 0.25"),    # no admissible eta: the NaN fallback
    ],
)
def test_report_carries_every_window_constant(geom64, seed, h_expr, f_expr):
    p = ProblemData.from_expressions(geom64, "0", h_expr, f_expr)
    q = 2.5
    rep = certify(p, q, seed)
    if math.isnan(rep.eta):
        sigma = 1.0                         # sup(a+) = 0
        want = CoercivityConstants(
            eps0=math.nan, b=math.nan, mu_floor=math.nan,
            k_low=math.nan, k_high=math.nan, k_high_certified=math.nan,
            c_threshold=0.0, eta=math.nan, sigma=sigma, eps=math.nan,
            remainder=math.nan, c_sigma=grad_interp_constant(sigma, geom64),
        )
    else:
        want = coercivity_constants(
            p, q, rep.eta, rep.sigma, rep.eps,
            lam_eta_q=rep.moment_values[rep.eta],
            remainder=embedding_remainder(geom64, rep.eps, seed=seed),
        )
    for name, value in dataclasses.asdict(want).items():
        assert _same(getattr(rep, name), value), name
