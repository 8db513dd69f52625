"""Acceptance suite: one test per criterion, each printing a PASS line.

Scales follow the shipped example: ambient dimension 6, one effective
coordinate, grid 128, coefficients a = 0.2, h = -1,
f = cos(2 pi x1) - 0.25, exponent q = 2.5 unless stated.  Run with
``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from biharm import geometry as geo
from biharm import problem as prob
from biharm.certifier import certify, grad_interp_constant, sharp_sobolev_constant
from biharm.continuation import continue_to_critical
from biharm.geometry import TorusGeometry
from biharm.minimizer import annotate_certified_window, trace_mu_curve
from biharm.mountainpass import mountain_pass, polish_minimizer, second_solution
from biharm.problem import ProblemData
from conftest import hessian_sq_integral, laplacian

TWO_PI = 2.0 * math.pi
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

_typical = {}


def _announce(num, elapsed, detail):
    print(f"\nACCEPTANCE {num} PASS ({elapsed:.1f}s): {detail}")


@pytest.fixture(scope="module")
def acc_geom():
    return TorusGeometry(6, 1, 128)


@pytest.fixture(scope="module")
def acc_problem(acc_geom):
    return ProblemData.from_expressions(acc_geom, "0.2", "-1", "cos(2*pi*x1) - 0.25")


def _get_certificate(problem, seed):
    # cached helper rather than a fixture so the first caller pays the
    # cost inside its own measured window
    if "certificate" not in _typical:
        _typical["certificate"] = certify(problem, 2.5, seed)
    return _typical["certificate"]


def _get_curve(problem, seed):
    if "curve" not in _typical:
        _typical["curve"] = trace_mu_curve(problem, 2.5, 1.0, 1e15, n_points=48, seed=seed)
        annotate_certified_window(_typical["curve"], _get_certificate(problem, seed))
    return _typical["curve"]


def test_criterion_1_spectral_calculus(acc_geom):
    t0 = time.time()
    rng = np.random.default_rng(11)
    g = acc_geom
    for _ in range(100):
        u = g.random_smooth(rng)
        v = g.random_smooth(rng)
        spec = float(np.sum(np.abs(u.coeffs) ** 2))
        quad = g.weight * float(np.sum(u.samples**2))
        assert spec == pytest.approx(quad, rel=1e-10)
        assert geo.inner(laplacian(u), u) == pytest.approx(
            geo.grad_sq_integral(u), rel=1e-10
        )
        assert geo.inner(laplacian(u), v) == pytest.approx(
            geo.inner(u, laplacian(v)), rel=1e-10, abs=1e-11
        )
        assert geo.inner(geo.bilaplacian(u), v) == pytest.approx(
            geo.inner(laplacian(u), laplacian(v)), rel=1e-10, abs=1e-11
        )
        assert hessian_sq_integral(u) == pytest.approx(
            geo.bilap_energy(u), rel=1e-10
        )
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _announce(1, elapsed, "Parseval, self-adjointness, parts integration at 1e-10 on 100 fields")


def test_criterion_2_gradient_correctness(acc_problem, acc_geom):
    t0 = time.time()
    rng = np.random.default_rng(12)
    worst = 0.0
    for q in (2.3, 2.5, 3.0, acc_geom.critical_exponent):
        for _ in range(100):
            u = acc_geom.random_smooth(rng, decay=2.5)
            phi = acc_geom.random_smooth(rng, decay=2.5)
            lhs = geo.inner(prob.grad_F(u, acc_problem, q), phi)
            t = 1e-5
            fd = (
                prob.eval_F(geo.add(u, phi, t), acc_problem, q)
                - prob.eval_F(geo.add(u, phi, -t), acc_problem, q)
            ) / (2.0 * t)
            rel = abs(lhs - fd) / max(1.0, abs(fd))
            worst = max(worst, rel)
    assert worst <= 1e-5
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _announce(2, elapsed, f"gradient vs centered differences, worst rel err {worst:.2e}")


def test_criterion_3_constants(acc_geom):
    t0 = time.time()
    import mpmath as mp

    mp.mp.dps = 50
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
    lam = acc_geom.lam.ravel()
    for sigma in (1e-3, 1e-2, 0.1, 1.25):
        C = grad_interp_constant(sigma, acc_geom)
        assert np.all(lam <= 2.0 * sigma * lam**2 + 2.0 * C + 1e-9)
        assert C <= 1.0 / (16.0 * sigma) + 1e-12
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _announce(3, elapsed, "sharp embedding constant at 1e-12, splitting constant lattice-exact")


def test_criterion_4_rayleigh_oracle(seed):
    t0 = time.time()
    from scipy.linalg import eigh

    from biharm.certifier import _MaskedForm, masked_rayleigh, moment_rayleigh

    g64 = TorusGeometry(6, 1, 64)
    geometries = [
        ("0", "0.5 - sin(2*pi*x1)"),
        ("0.2", "cos(2*pi*x1) - 0.25"),
        ("0", "cos(4*pi*x1) - 0.3"),
    ]
    for a_expr, f_expr in geometries:
        p = ProblemData.from_expressions(g64, a_expr, "-1", f_expr)
        form = _MaskedForm(p, "bilap-a")
        mask = np.maximum(-p.f.samples, 0.0) <= 1e-12 * p.f_sup
        idx = np.nonzero(mask.ravel())[0]
        n = g64.size
        A = np.zeros((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            A[:, j] = form.apply(e.reshape(g64.shape)).ravel()
        A = 0.5 * (A + A.T) * g64.weight
        B = np.eye(n) * g64.weight
        oracle = eigh(A[np.ix_(idx, idx)], B[np.ix_(idx, idx)], eigvals_only=True)[0]
        got = masked_rayleigh(p, "bilap-a", seed)[1]
        assert got == pytest.approx(oracle, rel=1e-4)

    p = ProblemData.from_expressions(g64, "0.2", "-1", "cos(2*pi*x1) - 0.25")
    vals = [moment_rayleigh(p, eta, 2.5, seed) for eta in (0.5, 0.1, 0.02)]
    tol = 1e-6 * (1.0 + abs(vals[0]))
    assert vals[0] <= vals[1] + tol <= vals[2] + 2 * tol
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _announce(4, elapsed, "masked quotient matches dense eigensolve at 1e-4; monotone in eta")


def test_criterion_5_curve_shape(acc_problem, seed):
    t0 = time.time()
    q = 2.5
    certificate = _get_certificate(acc_problem, seed)
    curve = _get_curve(acc_problem, seed)
    ann = curve.annotations

    assert np.all(curve.mus[:3] < 0.0)
    assert ann["shape"] == "neg-min/hump/neg-tail"
    assert ann["mu_neg_min"] < 0.0
    assert curve.ks[0] < ann["k_neg_min"] < ann["l1"]
    assert ann["l1"] < ann["l_o"] < ann["l2"]
    assert curve.mus[-1] < -10.0

    # certified coercivity window: the bundled instance fails the ratio
    # condition, so its certified window is empty and the floor holds
    # vacuously there; assert consistency, then check the floor for real
    # on a ratio-passing companion instance
    lo, hi = ann["certified_window"]
    if hi > lo:
        inside = (curve.ks >= lo) & (curve.ks <= hi)
        floor = 0.5 * certificate.mu_floor * curve.ks[inside] ** (2.0 / q)
        assert np.all(curve.mus[inside] >= floor - 1e-8)
    else:
        assert not certificate.cond_ratio
        g64 = TorusGeometry(6, 1, 64)
        companion = ProblemData.from_expressions(
            g64, "0", "-1", "cos(2*pi*x1) - 0.999"
        )
        rep = certify(companion, q, seed)
        assert rep.passed_subcritical and rep.k_low < rep.k_high_certified
        cc = trace_mu_curve(
            companion, q, rep.k_low * 0.5, rep.k_high_certified * 2.0,
            n_points=12, seed=seed,
        )
        annotate_certified_window(cc, rep)
        assert cc.annotations["certified_bound_ok"] is True

    # mesh doubling moves the annotated landmarks by < 2%
    g256 = TorusGeometry(6, 1, 256)
    p256 = ProblemData.from_expressions(g256, "0.2", "-1", "cos(2*pi*x1) - 0.25")
    curve256 = trace_mu_curve(p256, q, 1.0, 1e15, n_points=48, seed=seed)
    for key in ("k_neg_min", "l1", "l2"):
        a, b = ann[key], curve256.annotations[key]
        assert abs(a - b) / abs(a) < 0.02, key

    elapsed = time.time() - t0
    assert elapsed < 600.0
    _announce(
        5, elapsed,
        f"curve shape with l1={ann['l1']:.4g}, l2={ann['l2']:.4g}; mesh doubling < 2%",
    )


def test_criterion_6_two_solutions(acc_problem, seed):
    t0 = time.time()
    q = 2.5
    certificate = _get_certificate(acc_problem, seed)
    acc_curve = _get_curve(acc_problem, seed)
    _, _, mp_res = second_solution(acc_problem, q, acc_curve)
    # solve-sub's negative-energy solution: the curve's minimum, polished and accepted
    rep_min = polish_minimizer(acc_problem, q, certificate.k_low, acc_curve.neg_minimizer, "curve")

    assert rep_min.energy < 0.0 < mp_res.report.energy
    for rep in (rep_min, mp_res.report):
        assert rep.residual_equation <= 1e-6 * (1.0 + abs(rep.energy))
        assert rep.identity_gap_rel <= 1e-6
    assert mp_res.nu >= acc_curve.annotations["mu_lo"] - 1e-8
    elapsed = time.time() - t0
    assert elapsed < 900.0
    _announce(
        6, elapsed,
        f"energies ({rep_min.energy:.4g}, {mp_res.report.energy:.4g}) straddle zero; "
        f"nu >= hump max",
    )


def test_criterion_7_mountain_pass_oracle(seed):
    t0 = time.time()
    from scipy import ndimage

    # on 4 points the band is {1, cos, sin}; f is even, so the plane
    # {1, cos} is invariant and the deformation stays in the oracle's plane
    g = TorusGeometry(6, 1, 4)
    toy = ProblemData.from_expressions(g, "0.2", "-1", "10*cos(2*pi*x1) - 1")
    q = 4.0
    x = np.arange(8192) / 8192.0
    c = np.cos(TWO_PI * x)
    f = 10.0 * c - 1.0
    M = [float(np.mean(c**j)) for j in range(5)]
    Fm = [float(np.mean(f * c**j)) for j in range(5)]
    s2 = math.sqrt(2.0)

    def toy_F(al, be):
        quad = be**2 * (TWO_PI**4 - 0.2 * TWO_PI**2) - (al**2 + be**2)
        ft = sum(math.comb(4, j) * al ** (4 - j) * (s2 * be) ** j * Fm[j] for j in range(5))
        return quad - ft

    def toy_mass(al, be):
        return sum(math.comb(4, j) * al ** (4 - j) * (s2 * be) ** j * M[j] for j in range(5))

    def plane_mu(k, nth=2001):
        best = math.inf
        for th in np.linspace(0.0, math.pi, nth):
            al, be = math.cos(th), math.sin(th)
            m = toy_mass(al, be)
            if m > 1e-12:
                r = (k / m) ** 0.25
                best = min(best, toy_F(r * al, r * be))
        return best

    def bisect(ka, kb):
        sa = plane_mu(ka) > 0
        for _ in range(50):
            km = math.sqrt(ka * kb)
            if (plane_mu(km) > 0) == sa:
                ka = km
            else:
                kb = km
        return math.sqrt(ka * kb)

    l1 = bisect(0.5, 5.0)
    l2 = bisect(5.0, 2000.0)

    def minimizer(k):
        best = (math.inf, 0.0, 0.0)
        for th in np.linspace(0.0, math.pi, 20001):
            al, be = math.cos(th), math.sin(th)
            m = toy_mass(al, be)
            if m > 1e-12:
                r = (k / m) ** 0.25
                v = toy_F(r * al, r * be)
                if v < best[0]:
                    best = (v, r * al, r * be)
        return best

    _, a1, b1 = minimizer(l1)
    _, a2, b2 = minimizer(l2)

    A = 1.3 * max(abs(a1), abs(a2), 1.0)
    B = 1.3 * max(abs(b1), abs(b2), 0.3)
    n_grid = 2001
    ax_a = np.linspace(-A, A, n_grid)
    ax_b = np.linspace(-B, B, n_grid)
    AL, BE = np.meshgrid(ax_a, ax_b, indexing="ij")
    Fg = BE**2 * (TWO_PI**4 - 0.2 * TWO_PI**2) - (AL**2 + BE**2)
    for j in range(5):
        Fg = Fg - math.comb(4, j) * AL ** (4 - j) * (s2 * BE) ** j * Fm[j]
    start = (int(np.argmin(np.abs(ax_a - a1))), int(np.argmin(np.abs(ax_b - b1))))
    goal = (int(np.argmin(np.abs(ax_a - a2))), int(np.argmin(np.abs(ax_b - b2))))
    structure = np.ones((3, 3), dtype=bool)

    def connected(T):
        labels, _ = ndimage.label(Fg <= T, structure=structure)
        return labels[start] != 0 and labels[start] == labels[goal]

    lo, hi = max(Fg[start], Fg[goal]), float(Fg.max())
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if connected(mid):
            hi = mid
        else:
            lo = mid
    nu_oracle = hi

    e0 = g.constant(1.0)
    e1 = g.field(s2 * np.cos(TWO_PI * g.coordinates()[0]))
    u1 = geo.combination([e0, e1], [a1, b1])
    u2 = geo.combination([e0, e1], [a2, b2])
    mp_res = mountain_pass(toy, q, u1, u2)
    assert mp_res.nu == pytest.approx(nu_oracle, rel=1e-3)
    v = mp_res.report.variational
    in_plane = geo.combination([e0, e1], [geo.inner(v, e0), geo.inner(v, e1)])
    assert geo.l2_norm(geo.add(v, in_plane, -1.0)) <= 1e-12 * geo.l2_norm(v)
    rep = mp_res.report
    assert rep.residual_equation <= 1e-9 * (1.0 + abs(rep.energy))
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _announce(
        7, elapsed,
        f"two-mode saddle: deformation {mp_res.nu:.6f} vs grid search {nu_oracle:.6f}",
    )


def test_criterion_8_critical_continuation(acc_problem, seed):
    t0 = time.time()
    certificate = _get_certificate(acc_problem, seed)
    trace = continue_to_critical(acc_problem, certificate, seed)
    assert len(trace.schedule) == 9
    for rec in trace.records:
        assert rec["mass"] <= rec["l_q"] + 1e-8
        assert rec["delta_bound_lhs"] <= rec["delta_bound_rhs"] * (1.0 + 1e-9)
        assert rec["energy"] < 0.0
    assert trace.checks["final_f_weight_negative"]
    assert trace.checks["level_bound_ok"]

    g256 = TorusGeometry(6, 1, 256)
    p256 = ProblemData.from_expressions(g256, "0.2", "-1", "cos(2*pi*x1) - 0.25")
    cert256 = certify(p256, 4.0, seed)
    trace256 = continue_to_critical(p256, cert256, seed)
    rel = abs(trace256.final.energy - trace.final.energy) / abs(trace.final.energy)
    assert rel < 0.02
    elapsed = time.time() - t0
    assert elapsed < 1200.0
    _announce(
        8, elapsed,
        f"critical family complete; final energy {trace.final.energy:.6g}, "
        f"grid doubling shift {rel:.2e}",
    )


def test_criterion_9_determinism(tmp_path):
    t0 = time.time()
    cfg = {
        "geometry": {"n_ambient": 6, "d_eff": 1, "grid_size": 64},
        "coefficients": {"a": "0.2", "h": "-1", "f": "10*cos(2*pi*x1) - 1"},
        "exponent": {"q": 4.0},
        "curve": {"k_min": 0.05, "k_max": 500.0, "k_steps": 16},
        "solver": {"seed": 0},
    }
    cfg_path = tmp_path / "toy.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")

    commands = [
        ("certify", []),
        ("mu-curve", ["--force"]),
        ("solve-sub", ["--force"]),
        ("mountain-pass", ["--force"]),
        ("solve-critical", ["--force"]),
    ]
    for name, extra in commands:
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{tag}"
            res = subprocess.run(
                [sys.executable, "-m", "biharm.cli", name,
                 "--config", str(cfg_path), "--seed", "0",
                 "--out", str(out), *extra],
                capture_output=True, text=True,
            )
            assert res.returncode in (0, 4), f"{name}: {res.stderr}"
            outs.append(out)
        files_a = sorted(p.name for p in outs[0].iterdir())
        files_b = sorted(p.name for p in outs[1].iterdir())
        assert files_a == files_b
        for fname in files_a:
            ba = (outs[0] / fname).read_bytes()
            bb = (outs[1] / fname).read_bytes()
            assert ba == bb, f"{name}/{fname} differs between runs"
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _announce(9, elapsed, "all five commands byte-identical across repeated runs")
