import math

import numpy as np
import pytest
from scipy.linalg import eigh

from biharm import geometry as geo
from biharm import problem as prob
from biharm.certifier import (
    certify,
    coercivity_constants,
    embedding_remainder,
    grad_interp_constant,
    masked_rayleigh,
    moment_rayleigh,
    sharp_sobolev_constant,
)
from biharm.certifier import _MaskedForm
from biharm.errors import BadSigma, NonPositiveEps0
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


def test_embedding_remainder_covers_probes(geom64, rng):
    eps = 0.1
    A = embedding_remainder(geom64, eps, n_probe=200, seed=0)
    assert A >= 1.0 - 1e-12        # the constant field forces A >= 1
    k2_sq = sharp_sobolev_constant(geom64.n_ambient) ** 2
    N = geom64.critical_exponent
    for _ in range(100):
        u = geom64.random_smooth(rng, decay=2.0)
        lhs = geo.lp_norm(u, N) ** 2
        rhs = k2_sq * (1.0 + eps) * geo.bilap_energy(u) + A * geo.l2_norm(u) ** 2
        assert lhs <= rhs * (1.0 + 1e-9)


# ----------------------------------------------------------------------
# masked Rayleigh quotient


def _dense_masked_oracle(problem):
    """Assemble the masked quadratic form and eigensolve it densely."""
    g = problem.geometry
    form = _MaskedForm(problem)
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
def test_masked_rayleigh_matches_dense_oracle(geom64, a_expr, f_expr, opts):
    p = ProblemData.from_expressions(geom64, a_expr, "-1", f_expr)
    oracle = _dense_masked_oracle(p)
    lam_u = masked_rayleigh(p, opts, nonneg=False)
    assert lam_u == pytest.approx(oracle, rel=1e-4)
    lam_n = masked_rayleigh(p, opts, nonneg=True)
    assert lam_n >= lam_u - 1e-9 * abs(lam_u)   # sign constraint can only raise


def test_masked_rayleigh_empty_mask(geom64, opts):
    p = ProblemData.from_expressions(geom64, "0", "-1", "-1")
    assert masked_rayleigh(p, opts) == math.inf


def test_masked_rayleigh_positive_f(geom64, opts):
    p = ProblemData.from_expressions(geom64, "0", "-1", "1 + 0.5*cos(2*pi*x1)")
    assert masked_rayleigh(p, opts) == pytest.approx(0.0, abs=1e-10)


def test_masked_rayleigh_scale_invariance(geom64, bundled64, opts):
    lam1 = masked_rayleigh(bundled64, opts)
    p2 = ProblemData.from_fields(
        geom64,
        bundled64.a,
        bundled64.h,
        geom64.field(2.0 * bundled64.f.samples),
    )
    lam2 = masked_rayleigh(p2, opts)
    assert lam2 == pytest.approx(lam1, rel=1e-9)


def test_masked_rayleigh_monotone_in_a(geom64, opts):
    f = "cos(2*pi*x1) - 0.25"
    lam_small = masked_rayleigh(
        ProblemData.from_expressions(geom64, "0.1", "-1", f), opts
    )
    lam_big = masked_rayleigh(
        ProblemData.from_expressions(geom64, "0.4", "-1", f), opts
    )
    assert lam_big <= lam_small + 1e-6 * abs(lam_small)


def test_measure_criterion_trend(geom64, opts):
    # shrinking the positivity set drives the quotient up
    values = []
    for c in (0.25, 0.6, 0.9):
        p = ProblemData.from_expressions(geom64, "0", "-1", f"cos(2*pi*x1) - {c}")
        values.append(masked_rayleigh(p, opts))
    assert values[0] < values[1] < values[2]


# ----------------------------------------------------------------------
# moment-constrained quotient


def test_moment_rayleigh_monotone_and_bounded(bundled64, opts):
    q = 2.5
    lam_af = masked_rayleigh(bundled64, opts)
    vals = [moment_rayleigh(bundled64, eta, q, opts) for eta in (0.5, 0.1, 0.02)]
    tol = 1e-6 * (1.0 + abs(vals[0]))
    assert vals[0] <= vals[1] + tol
    assert vals[1] <= vals[2] + tol
    assert all(v <= lam_af * (1.0 + 1e-6) for v in vals)


def test_moment_rayleigh_limit_trend(bundled64, opts):
    q = 2.5
    vals = [moment_rayleigh(bundled64, eta, q, opts) for eta in (1e-1, 1e-2, 1e-3)]
    assert vals[0] < vals[1] < vals[2]


def test_moment_rayleigh_inequality_variant_agrees(bundled64, opts):
    q = 2.5
    for eta in (0.5, 0.1):
        le = moment_rayleigh(bundled64, eta, q, opts)
        li = moment_rayleigh(bundled64, eta, q, opts, inequality=True)
        assert li == pytest.approx(le, rel=1e-6)


def test_moment_rayleigh_feasibility(bundled64, opts):
    actual = prob.f_minus_moment(
        bundled64.geometry.constant(1.0), bundled64, 2.5
    )
    assert actual == pytest.approx(bundled64.int_f_minus_grid, rel=1e-12)


# ----------------------------------------------------------------------
# coercivity constants


def test_window_ratio_exact(bundled64, opts):
    # k2/k1 = 2^(q/(q-2)): equals 4 at q = 4
    cc = coercivity_constants(bundled64, 4.0, 0.5, 1.25, 0.1, opts=opts)
    assert cc.k_high / cc.k_low == pytest.approx(4.0, rel=1e-12)


def test_window_exponent_limit():
    # q/(q-2) tends to n/4 as q -> N = 2n/(n-4)
    for n in (6, 8, 10):
        N = 2.0 * n / (n - 4.0)
        assert N / (N - 2.0) == pytest.approx(n / 4.0, rel=1e-12)


def test_coercivity_b_formula_symbolic(geom64, opts):
    # a = 0 collapses the floor to eps0 shrink / (stuff); recompute via sympy
    import sympy as sp

    p = ProblemData.from_expressions(geom64, "0", "-1", "cos(2*pi*x1) - 0.25")
    eta, sigma, eps = 0.5, 1.0, 0.1
    lam = moment_rayleigh(p, eta, 2.5, opts)
    cc = coercivity_constants(p, 2.5, eta, sigma, eps, lam_eta_q=lam, opts=opts)
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
    assert cc.mu == min(cc.b, p.h_sup)


def test_coercivity_raises(bundled64, opts):
    with pytest.raises(BadSigma):
        coercivity_constants(bundled64, 2.5, 0.5, 10.0, 0.1, opts=opts)
    with pytest.raises(NonPositiveEps0):
        coercivity_constants(
            bundled64, 2.5, 0.5, 1.25, 0.1, lam_eta_q=0.5, opts=opts
        )


# ----------------------------------------------------------------------
# full certificates


def test_certify_bundled(bundled64, opts):
    rep = certify(bundled64, 2.5, opts)
    assert rep.cond_spectral           # huge spectral margin
    assert rep.cond_positive
    assert not rep.cond_ratio          # ratio 1.65 far above the threshold
    assert rep.c_threshold <= rep.eta / 8.0 + 1e-12
    assert rep.k_high_certified < rep.k_low     # certified window empty
    assert rep.rayleigh_variant_gap >= -1e-6
    assert rep.measure_bound_ok


def test_certify_all_negative_f(geom64, opts):
    p = ProblemData.from_expressions(geom64, "0", "-1", "-1")
    rep = certify(p, 2.5, opts)
    assert rep.rayleigh_masked == math.inf
    assert rep.cond_spectral
    assert rep.cond_ratio              # ratio 0 below any positive threshold
    assert not rep.cond_positive
    assert rep.passed and not rep.passed_subcritical


def test_certify_ratio_passing_problem(geom64, opts):
    p = ProblemData.from_expressions(geom64, "0", "-1", "cos(2*pi*x1) - 0.999")
    rep = certify(p, 2.5, opts)
    assert rep.passed_subcritical
    assert rep.ratio_plus_minus < rep.c_threshold
    assert rep.k_low < rep.k_high_certified    # nonempty certified window


def test_certify_nonpositive_f_blocks_cond3(geom64, opts):
    p = ProblemData.from_expressions(geom64, "0", "-1", "-0.5 - 0.2*cos(2*pi*x1)")
    rep = certify(p, 2.5, opts)
    assert not rep.cond_positive
    assert rep.cond_spectral


def test_certify_quantitative_measure_bound(geom64, opts):
    # lambda >= (meas^(-4/n) - A2 - mu |a|) / (K2^2 (1+eps)) when evaluable
    p = ProblemData.from_expressions(geom64, "0.1", "-1", "cos(2*pi*x1) - 0.6")
    rep = certify(p, 2.5, opts)
    assert rep.measure_bound_ok
    assert rep.rayleigh_masked >= rep.measure_lower_bound - 1e-9


def test_certify_2d_smoke(geom2d, opts):
    p = ProblemData.from_expressions(
        geom2d, "0.1", "-1", "cos(2*pi*x1)*cos(2*pi*x2) - 0.25"
    )
    rep = certify(p, 3.0, opts)
    assert rep.d_eff == 2
    assert math.isfinite(rep.ratio_plus_minus)
    assert rep.cond_spectral            # tiny h against a clamped-patch quotient
    assert rep.k_low > 0.0
    assert rep.sobolev_constant == pytest.approx(sharp_sobolev_constant(7), rel=1e-14)
    # dblquad value of int f^- (the plate has no closed form)
    assert rep.int_f_minus == pytest.approx(0.3547381706247783, rel=1e-12)


def _count_remainder_calls(monkeypatch):
    import biharm.certifier as cert

    calls = []
    real = cert.embedding_remainder

    def counted(geometry, eps, **kwargs):
        calls.append(eps)
        return real(geometry, eps, **kwargs)

    monkeypatch.setattr(cert, "embedding_remainder", counted)
    return calls


def test_certify_computes_each_remainder_once(
    bundled128, opts, monkeypatch, tmp_path, assert_golden_certificate
):
    import json

    from biharm import serialize as ser

    calls = _count_remainder_calls(monkeypatch)
    rep = certify(bundled128, 2.5, opts)        # configs/bundled.json
    assert sorted(calls) == [0.01, 0.1]
    ser.write_json(tmp_path / "report.json", ser.hypothesis_report_dict(rep))
    assert_golden_certificate(json.loads((tmp_path / "report.json").read_text()))


def test_certify_remainder_is_lazy(geom64, opts, monkeypatch):
    # h dominates every moment quotient: no (eta, eps) is admissible, so
    # only the measure criterion asks for a remainder, at its default eps
    p = ProblemData.from_expressions(geom64, "0", "-1e6", "cos(2*pi*x1) - 0.25")
    calls = _count_remainder_calls(monkeypatch)
    rep = certify(p, 2.5, opts)
    assert math.isnan(rep.eps)
    assert calls == [0.1]
