import copy
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage
from scipy.linalg import eigh
from scipy.sparse.linalg import LinearOperator, lsqr

from biharm import geometry as geo
from biharm import minimizer as mz
from biharm import mountainpass as mpass
from biharm import problem as prob
from biharm.errors import Collapse, NonConvergence, ShapeNotFound
from biharm.expressions import parse_coefficient
from biharm.geometry import SpectralField, TorusGeometry
from biharm.minimizer import MuCurve, minimize_on_sphere, trace_mu_curve
from biharm.mountainpass import (
    _Path,
    _lsqr,
    morse_index,
    mountain_pass,
    polish_minimizer,
    refine_critical_point,
    second_solution,
)

TWO_PI = 2.0 * math.pi
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


# ----------------------------------------------------------------------
# the curve shape second_solution needs


def _synthetic_curve(ks, mus):
    n = len(ks)
    return MuCurve(
        q=2.5,
        ks=np.asarray(ks, float),
        mus=np.asarray(mus, float),
        lagranges=np.zeros(n),
        residuals=np.zeros(n),
        iterations=np.zeros(n, dtype=int),
        flags=["ok"] * n,
        minimizers=[None] * n,
    )


def test_second_solution_requires_hump(toy64):
    ks = np.linspace(0.1, 5.0, 20)
    with pytest.raises(ShapeNotFound):
        second_solution(toy64, 2.5, _synthetic_curve(ks, -np.ones_like(ks)))
    with pytest.raises(ShapeNotFound):
        second_solution(toy64, 2.5, _synthetic_curve(ks, np.linspace(-1, 1, 20)))  # no tail


# ----------------------------------------------------------------------
# the two-mode toy: dense grid-search saddle oracle


def _toy_moments(problem, q=4):
    """Exact in-plane energy via moments of cos against 1, c, c^2, ..."""
    g = problem.geometry
    x = np.arange(4096) / 4096.0
    c = np.cos(TWO_PI * x)
    f = 10.0 * c - 1.0
    M = [float(np.mean(c**j)) for j in range(5)]
    Fm = [float(np.mean(f * c**j)) for j in range(5)]
    return M, Fm


def _toy_F(alpha, beta, M, Fm):
    """F(alpha + beta sqrt2 cos) for q = 4, a = 0.2, h = -1, f = 10cos - 1."""
    quad = beta**2 * (TWO_PI**4 - 0.2 * TWO_PI**2) - (alpha**2 + beta**2)
    s2 = math.sqrt(2.0)
    fterm = 0.0
    for j in range(5):
        fterm += math.comb(4, j) * alpha ** (4 - j) * (s2 * beta) ** j * Fm[j]
    return quad - fterm


def _toy_mass(alpha, beta, M):
    s2 = math.sqrt(2.0)
    m = 0.0
    for j in range(5):
        m += math.comb(4, j) * alpha ** (4 - j) * (s2 * beta) ** j * M[j]
    return m


def _bottleneck_level(F_grid, start, goal):
    """Smallest T with start, goal connected in {F <= T} (8-connectivity)."""
    lo = max(F_grid[start], F_grid[goal])
    hi = float(F_grid.max())
    structure = np.ones((3, 3), dtype=bool)

    def connected(T):
        mask = F_grid <= T
        labels, _ = ndimage.label(mask, structure=structure)
        return labels[start] != 0 and labels[start] == labels[goal]

    if connected(lo):
        return lo
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if connected(mid):
            hi = mid
        else:
            lo = mid
    return hi


def test_two_mode_toy_matches_grid_search_oracle():
    # On 4 points the band is {1, cos, sin}; f is even, so the plane
    # {1, cos} is invariant (symmetric criticality) and the production
    # deformation stays in the two-mode problem the grid search solves.
    toy4 = prob.ProblemData.from_expressions(
        TorusGeometry(6, 1, 4), "0.2", "-1", "10*cos(2*pi*x1) - 1"
    )
    q = 4.0
    g = toy4.geometry
    x = g.coordinates()[0]
    e0 = g.constant(1.0)
    e1 = g.field(math.sqrt(2.0) * np.cos(TWO_PI * x))
    M, Fm = _toy_moments(toy4)

    # in-plane energy agrees with the package evaluation (exact quadrature)
    rng = np.random.default_rng(7)
    for _ in range(10):
        al, be = rng.uniform(-2, 2, size=2)
        u = geo.combination([e0, e1], [al, be])
        assert prob.eval_F(u, toy4, q) == pytest.approx(
            _toy_F(al, be, M, Fm), rel=1e-10, abs=1e-10
        )

    # in-plane curve: find the zero masses by theta scan + bisection
    def plane_mu(k):
        thetas = np.linspace(0.0, math.pi, 4001)
        best = math.inf
        for th in thetas:
            al, be = math.cos(th), math.sin(th)
            m = _toy_mass(al, be, M)
            if m <= 1e-12:
                continue
            r = (k / m) ** 0.25
            best = min(best, _toy_F(r * al, r * be, M, Fm))
        return best

    def bisect_zero(ka, kb):
        sa = plane_mu(ka) > 0
        for _ in range(60):
            km = math.sqrt(ka * kb)
            if (plane_mu(km) > 0) == sa:
                ka = km
            else:
                kb = km
        return math.sqrt(ka * kb)

    assert plane_mu(5.0) > 0 > plane_mu(0.5)
    l1 = bisect_zero(0.5, 5.0)
    l2 = bisect_zero(5.0, 2000.0)

    def plane_minimizer(k):
        thetas = np.linspace(0.0, math.pi, 20001)
        best = (math.inf, 0.0, 0.0)
        for th in thetas:
            al, be = math.cos(th), math.sin(th)
            m = _toy_mass(al, be, M)
            if m <= 1e-12:
                continue
            r = (k / m) ** 0.25
            val = _toy_F(r * al, r * be, M, Fm)
            if val < best[0]:
                best = (val, r * al, r * be)
        return best

    _, a1, b1 = plane_minimizer(l1)
    _, a2, b2 = plane_minimizer(l2)

    # dense grid-search bottleneck between the two endpoints; the box is
    # anisotropic because the beta curvature carries the (2 pi)^4 factor
    A = 1.3 * max(abs(a1), abs(a2), 1.0)
    B = 1.3 * max(abs(b1), abs(b2), 0.3)
    n_grid = 2001
    ax_a = np.linspace(-A, A, n_grid)
    ax_b = np.linspace(-B, B, n_grid)
    AL, BE = np.meshgrid(ax_a, ax_b, indexing="ij")
    s2 = math.sqrt(2.0)
    quad = BE**2 * (TWO_PI**4 - 0.2 * TWO_PI**2) - (AL**2 + BE**2)
    fterm = np.zeros_like(AL)
    for j in range(5):
        fterm += math.comb(4, j) * AL ** (4 - j) * (s2 * BE) ** j * Fm[j]
    F_grid = quad - fterm

    def snap(a, b):
        return (int(np.argmin(np.abs(ax_a - a))), int(np.argmin(np.abs(ax_b - b))))

    nu_oracle = _bottleneck_level(F_grid, snap(a1, b1), snap(a2, b2))

    # the production deformation between two points of the plane
    u1 = geo.combination([e0, e1], [a1, b1])
    u2 = geo.combination([e0, e1], [a2, b2])
    mp = mountain_pass(toy4, q, u1, u2)
    assert mp.nu == pytest.approx(nu_oracle, rel=1e-3)
    assert mp.report.energy == pytest.approx(nu_oracle, rel=1e-3)
    # the polished saddle stays in the plane and solves the full equation
    v = mp.report.variational
    in_plane = geo.combination([e0, e1], [geo.inner(v, e0), geo.inner(v, e1)])
    assert geo.l2_norm(geo.add(v, in_plane, -1.0)) <= 1e-12 * geo.l2_norm(v)
    assert mp.report.residual_equation <= 1e-9 * (1.0 + abs(mp.report.energy))


# ----------------------------------------------------------------------
# full-space deformation on the toy problem


@pytest.fixture(scope="module")
def toy_pipeline(toy64):
    q = 4.0
    curve = trace_mu_curve(toy64, q, 0.05, 500.0, n_points=36, seed=0)
    zeros, ends, mp = second_solution(toy64, q, curve)
    return curve, zeros, ends, mp


def test_second_solution_takes_the_zero_minimizers(toy_pipeline, toy64, monkeypatch):
    curve, (l1, l2, _), _, _ = toy_pipeline

    def no_sphere_solve(*args, **kwargs):
        raise AssertionError("second_solution solved a sphere problem")

    monkeypatch.setattr(mz, "minimize_on_sphere", no_sphere_solve)
    monkeypatch.setattr(mz, "_bb_minimize", no_sphere_solve)
    _, (end1, u2), _ = second_solution(toy64, 4.0, curve)
    z1, z2 = curve.zero_minimizers
    assert end1 is z1
    assert np.array_equal(u2.coeffs, z2.v.coeffs) or np.array_equal(u2.coeffs, -z2.v.coeffs)
    assert geo.lp_mass(end1.v, 4.0) == pytest.approx(l1, rel=1e-12)
    assert geo.lp_mass(u2, 4.0) == pytest.approx(l2, rel=1e-12)


def test_level_exceeds_hump_samples(toy_pipeline):
    curve, (l1, l2, l_o), _, mp = toy_pipeline
    assert mp.nu >= curve.annotations["mu_lo"] - 1e-8
    assert mp.nu > 0.0


def test_saddle_below_the_hump_raises_nonconvergence(toy_pipeline, toy64, monkeypatch):
    # every path from l1 to l2 crosses the sphere at l_o, so a saddle
    # below mu_lo is not the mountain-pass point: every polish is
    # rejected, and the cap names the condition
    curve, _, _, mp = toy_pipeline
    raised = copy.copy(curve)
    raised.annotations = dict(curve.annotations, mu_lo=mp.report.energy * (1.0 + 1e-6))
    monkeypatch.setattr(mpass, "MAX_PATH_ITER", 2 * mpass.POLL)
    with pytest.raises(NonConvergence, match="below the hump maximum") as exc:
        second_solution(toy64, 4.0, raised)
    best = exc.value.best
    assert best.converged and best.iterations == 2 * mpass.POLL
    assert best.report.energy == pytest.approx(mp.report.energy, rel=1e-10)


def test_saddle_not_of_index_one_raises_nonconvergence(toy_pipeline, toy64, monkeypatch):
    # a converged polish above the hump is still not the mountain-pass
    # point when its Morse index is not 1: the path goes on, polished
    # every POLL iterations, until the cap names the rejected condition
    curve, _, _, mp = toy_pipeline
    monkeypatch.setattr(mpass, "morse_index", lambda problem, q, u: 2)
    monkeypatch.setattr(mpass, "MAX_PATH_ITER", 3 * mpass.POLL)
    polished_at = []
    real = mpass.refine_critical_point

    def recorded(problem, q, u0):
        polished_at.append(len(polished_at))
        return real(problem, q, u0)

    monkeypatch.setattr(mpass, "refine_critical_point", recorded)
    with pytest.raises(NonConvergence, match="Morse index 2, not 1$") as exc:
        second_solution(toy64, 4.0, curve)
    best = exc.value.best
    assert len(polished_at) == 3
    assert best.converged and best.iterations == 3 * mpass.POLL
    assert best.nu == best.path_max
    assert best.report.energy == pytest.approx(mp.report.energy, rel=1e-10)


def test_first_passing_polish_stops_the_path(toy_pipeline, toy64):
    # the toy's first poll already passes: the path stops at iteration
    # POLL, nu is the saddle's energy and the stop-time path maximum
    # bounds it from above
    curve, _, _, mp = toy_pipeline
    assert mp.iterations == mpass.POLL and len(mp.history) == mpass.POLL
    assert mp.converged and mp.nu == mp.report.energy
    assert curve.annotations["mu_lo"] <= mp.nu <= mp.path_max == mp.history[-1][1]
    assert mp.report.energy == pytest.approx(4.152753636079604, rel=1e-10)


def test_saddle_between_the_exact_zeros_is_accepted(toy_pipeline, toy64):
    # endpoints at the exact zeros of mu: the first poll still reaches
    # the index-1 saddle
    curve, _, _, mp = toy_pipeline
    l1, l2 = 1.38982499258, 45.5850746017
    exact = copy.copy(curve)
    exact.annotations = dict(curve.annotations, l1=l1, l2=l2)
    exact.zero_minimizers = [
        minimize_on_sphere(toy64, 4.0, k, 0, init=z.v)
        for k, z in zip((l1, l2), curve.zero_minimizers)
    ]
    _, _, at_zeros = second_solution(toy64, 4.0, exact)
    assert at_zeros.report.energy == pytest.approx(4.152753636079604, rel=1e-10)
    assert morse_index(toy64, 4.0, at_zeros.report.variational) == 1
    assert at_zeros.iterations == mpass.POLL
    assert at_zeros.nu == at_zeros.report.energy <= at_zeros.path_max


def test_endpoints_never_move(toy_pipeline):
    _, _, (end1, u2), mp = toy_pipeline
    assert np.array_equal(mp.nodes[0].samples, end1.v.samples)
    assert np.array_equal(mp.nodes[-1].samples, u2.samples)


def test_level_monotone_along_iterations(toy_pipeline):
    # accepted steps never raise the level; upward revisions happen only
    # when interior sampling inserts nodes (sharper polyline estimate)
    _, _, _, mp = toy_pipeline
    rows = mp.history
    rises = 0
    for (_, a, _), (_, b, ins) in zip(rows, rows[1:]):
        if b > a * (1.0 + 1e-9) + 1e-12:
            rises += 1
            assert ins > 0
    assert rises < len(rows) // 4


def test_critical_point_identities(toy_pipeline, toy64):
    _, _, _, mp = toy_pipeline
    rep = mp.report
    assert rep.energy > 0.0
    assert rep.identity_gap_rel <= 1e-6
    assert rep.residual_equation <= 1e-6 * (1.0 + abs(rep.energy))
    assert rep.f_weight > 0.0          # positive level forces int f |v|^q > 0


def test_two_solutions_distinct(toy_pipeline, toy64, seed):
    from biharm.minimizer import first_solution

    _, (l1, _, _), _, mp = toy_pipeline
    rep_min = first_solution(toy64, 4.0, float(l1), seed)
    assert rep_min.energy < 0.0 < mp.report.energy
    gap = geo.l2_norm(geo.add(mp.report.field, rep_min.field, -1.0))
    assert gap > 0.1


def _assert_curve_seed_matches_ball_seed(problem, q, cap, curve, seed):
    """Oracle: polishing the curve's minimizer at k_neg_min gives the polished ball minimizer.

    Both are accepted (converged, interior, negative, Morse index 0); F
    is even, so the fields agree up to sign.
    """
    assert curve.annotations["k_neg_min"] < cap
    from_curve = polish_minimizer(problem, q, cap, curve.neg_minimizer, "curve")
    ball = mz.first_solution(problem, q, cap, seed)
    from_ball = polish_minimizer(problem, q, cap, ball.variational, ball.flags["seed"])
    assert from_curve.energy == pytest.approx(from_ball.energy, rel=1e-12)
    a, b = from_curve.variational, from_ball.variational
    gap = min(geo.l2_norm(geo.add(a, b, -1.0)), geo.l2_norm(geo.add(a, b, 1.0)))
    assert gap <= 1e-10 * geo.l2_norm(b)


@pytest.mark.parametrize("solver_seed", [0, 1, 2, 3])
def test_curve_minimum_polishes_to_the_ball_minimizer(toy64, solver_seed):
    q = 4.0
    curve = trace_mu_curve(toy64, q, 0.05, 500.0, n_points=36, seed=solver_seed)
    _assert_curve_seed_matches_ball_seed(toy64, q, curve.annotations["l1"], curve, solver_seed)


def test_budget_exhausted_raises_nonconvergence(toy_pipeline, toy64, monkeypatch):
    # two iterations reach no poll: nothing was polished, nothing accepted
    _, _, (end1, u2), _ = toy_pipeline
    monkeypatch.setattr(mpass, "MAX_PATH_ITER", 2)
    with pytest.raises(NonConvergence) as exc:
        mountain_pass(toy64, 4.0, end1.v, u2)
    best = exc.value.best
    assert best.iterations == 2
    assert not best.converged


def test_node_cap_keeps_the_saddle(toy_pipeline, toy64, monkeypatch):
    # the uncapped toy path peaks at 43 nodes; at 42 interior maxima past
    # the cap are sampled but not promoted, and the pass still converges
    curve, _, _, mp = toy_pipeline
    assert max(j for _, j, _ in mp.profile_rows) + 1 == 43
    monkeypatch.setattr(mpass, "MAX_PATH_NODES", 42)
    _, _, capped = second_solution(toy64, 4.0, curve)
    assert capped.converged
    assert capped.report.energy == pytest.approx(mp.report.energy, rel=1e-12)
    assert max(j for _, j, _ in capped.profile_rows) + 1 <= 42


def test_poll_polishes_an_interior_maximum(toy_pipeline, toy64, monkeypatch):
    # with the node cap at the initial 41 nodes nothing is promoted, and
    # at the first poll the path maximum is an interior sample above
    # every node; the polish starts there and reaches the saddle
    curve, _, _, mp = toy_pipeline
    monkeypatch.setattr(mpass, "MAX_PATH_NODES", 41)
    starts = []
    real = mpass.refine_critical_point

    def recorded(problem, q, u0):
        starts.append(u0)
        return real(problem, q, u0)

    monkeypatch.setattr(mpass, "refine_critical_point", recorded)
    _, _, capped = second_solution(toy64, 4.0, curve)
    assert capped.iterations == mpass.POLL and len(starts) == 1
    top_node = max(e for it, _, e in capped.profile_rows if it == mpass.POLL)
    assert prob.eval_F(starts[0], toy64, 4.0) == capped.path_max > top_node
    assert capped.converged
    assert capped.report.energy == pytest.approx(mp.report.energy, rel=1e-12)


def test_path_that_cannot_descend_stops_at_its_first_poll(toy_pipeline, toy64, monkeypatch):
    # a zero gradient moves no node: 25 halvings find no lower level, the
    # path stays as it was, and the first poll's polish (single fields)
    # accepts the saddle all the same
    curve, _, (end1, u2), mp = toy_pipeline
    grad_F = prob.grad_F

    def flat_window(u, problem, q):
        stacked = u.coeffs.ndim > u.geometry.d_eff
        return geo.scale(u, 0.0) if stacked else grad_F(u, problem, q)

    monkeypatch.setattr(prob, "grad_F", flat_window)
    stuck = mountain_pass(toy64, 4.0, end1.v, u2, curve=curve)
    assert stuck.iterations == mpass.POLL
    levels = [level for _, level, _ in stuck.history]
    assert max(levels) - min(levels) <= 1e-15 * levels[0]
    assert stuck.converged and stuck.report.flags["polished"]
    assert stuck.report.energy == pytest.approx(mp.report.energy, rel=1e-10)


def test_collapse_detected(toy64, seed):
    # both endpoints in the same negative well: no hump in between
    q = 4.0
    r1 = minimize_on_sphere(toy64, q, 0.2, seed=seed)
    r2 = minimize_on_sphere(toy64, q, 0.3, seed=seed)
    with pytest.raises(Collapse):
        mountain_pass(toy64, q, r1.v, r2.v)


@pytest.mark.parametrize(
    "d, grid, bound",
    [
        pytest.param(1, 64, 1e-10, id="1d-64"),
        pytest.param(2, 16, 1e-10, id="2d-16"),
        pytest.param(2, 32, 1e-10, id="2d-32"),
    ],
)
def test_refine_critical_point_from_rough_seed(d, grid, bound):
    # a crude seed lands in the saddle basin of the toy problem; in 2-D
    # the problem and seed depend on x1 only, so the saddle is the 1-D one
    q = 4.0
    g = TorusGeometry(6 + d - 1, d, grid)
    a, h, f = (parse_coefficient(e, g) for e in ("0.2", "-1", "10*cos(2*pi*x1) - 1"))
    problem = prob.ProblemData(g, a, h, f)
    x = g.coordinates()[0]
    seed = g.field(2.1 + 0.35 * np.cos(TWO_PI * x))
    v, rn, converged = refine_critical_point(problem, q, seed)
    F = prob.eval_F(v, problem, q)
    assert F == pytest.approx(4.15275, abs=1e-3)
    assert converged
    assert rn <= bound * (1.0 + abs(F))


def test_refine_critical_point_returns_a_real_band_field():
    # the seed's coefficients carry an anti-Hermitian part, Nyquist entry
    # included: the coefficients of no real field.  The polish works on
    # its real band part, so the polished field is real to the bit and its
    # full residual, anti-Hermitian rounding included, reaches the floor
    q = 4.0
    g = TorusGeometry(6, 1, 64)
    problem = prob.ProblemData.from_expressions(g, "0.2", "-1", "10*cos(2*pi*x1) - 1")
    x = g.coordinates()[0]
    noise = 1e-12j * g.forward(np.random.default_rng(0).standard_normal(g.shape))
    seed = SpectralField(g, g.field(2.1 + 0.35 * np.cos(TWO_PI * x)).coeffs + noise)
    v, rn, converged = refine_critical_point(problem, q, seed)
    c = v.coeffs
    assert np.array_equal(np.conj(np.roll(np.flip(c), 1)), c)
    assert not np.any(c[~g.band_mask])
    F = prob.eval_F(v, problem, q)
    assert F == pytest.approx(4.15275, abs=1e-3)
    assert converged
    assert 0.5 * geo.l2_norm(prob.grad_F(v, problem, q)) <= 1e-10 * (1.0 + abs(F))


def test_refine_critical_point_from_path_seed(toy_pipeline, toy64):
    # seeded from the path's top node the polish reaches deep residuals
    _, _, _, mp = toy_pipeline
    assert mp.report.flags["polished"]
    assert mp.report.flags["polish_residual"] <= 1e-10 * (1.0 + mp.nu)


# ----------------------------------------------------------------------
# Morse index on the band's real fields


def _band_hessian_oracle(problem, q, u, eps=1e-3):
    """Eigenvalues of half the Hessian of F_q at u, from an explicit band basis (1-D).

    The basis is sampled: 1, sqrt2 cos(2 pi m x) and sqrt2 sin(2 pi m x)
    for 0 < m < M/2; each column is a central difference of half the
    gradient, exact up to O(eps^2) for q = 4.
    """
    g = problem.geometry
    x = g.coordinates()[0]
    rows = [np.ones_like(x)]
    for m in range(1, g.grid_size // 2):
        rows += [math.sqrt(2.0) * np.cos(TWO_PI * m * x), math.sqrt(2.0) * np.sin(TWO_PI * m * x)]
    basis = g.field(np.array(rows))
    B = basis.coeffs
    assert np.abs(B.conj() @ B.T - np.eye(len(rows))).max() <= 1e-13
    plus = prob.grad_F(geo.add(u, basis, eps), problem, q).coeffs
    minus = prob.grad_F(geo.add(u, basis, -eps), problem, q).coeffs
    A = (B.conj() @ ((plus - minus) / (4.0 * eps)).T).real
    return np.linalg.eigvalsh(0.5 * (A + A.T))


def test_morse_index_matches_the_dense_band_oracle(toy_pipeline, toy64):
    # the zero field, the saddle, a scaled saddle and the minimizer
    _, (l1, _, _), _, mp = toy_pipeline
    v = mp.report.variational
    points = [toy64.geometry.constant(0.0), v, geo.scale(v, 8.0),
              mz.first_solution(toy64, 4.0, float(l1), 0).variational]
    spectra = [_band_hessian_oracle(toy64, 4.0, u) for u in points]
    counts = [int(np.count_nonzero(ev < 0.0)) for ev in spectra]
    assert counts == [1, 1, 2, 0]
    assert [morse_index(toy64, 4.0, u) for u in points] == counts
    for ev in spectra:
        assert np.abs(ev).min() > 0.5                # no sign is in doubt
    # the saddle's lowest eigenvalues
    assert spectra[1][:2] == pytest.approx([-14.41, 1568.5], abs=0.05)


def _scipy_morse_index(problem, q, u):
    """The count by ``scipy.linalg.eigh`` of the same dense band Hessian."""
    H, eye = mpass._band_hessian(problem, q, u), np.eye(problem.geometry.band_size)
    A = np.concatenate([H(eye[rows]) for rows in mpass._chunks(len(eye), mpass._INDEX_CHUNK)])
    return int(np.count_nonzero(eigh(0.5 * (A + A.T), eigvals_only=True) < 0.0))


@pytest.fixture()
def scipy_checked_morse_index(monkeypatch):
    """Check every ``morse_index`` call against scipy's count; yields the counts made."""
    real, counts = mpass.morse_index, []

    def checked(problem, q, u):
        counts.append(real(problem, q, u))
        assert counts[-1] == _scipy_morse_index(problem, q, u)
        return counts[-1]

    monkeypatch.setattr(mpass, "morse_index", checked)
    return counts


@pytest.mark.parametrize(
    "argv, want",
    [
        (["solve-sub", "--config", str(CONFIGS / "toy_mp.json")], {0, 1}),
        (["solve-critical", "--config", str(CONFIGS / "bundled.json")], {0}),
    ],
    ids=["toy", "bundled"],
)
def test_morse_index_equals_scipy_count_at_accepted_solutions(
    scipy_checked_morse_index, tmp_path, argv, want
):
    # numpy's eigvalsh rounds differently from scipy's eigh: the sign
    # count must not move at any solution the commands accept (the plate's
    # are checked in test_plate_two_solutions)
    from biharm import cli

    assert cli.main([*argv, "--force", "--out", str(tmp_path)]) == 0
    assert set(scipy_checked_morse_index) >= want


@pytest.mark.parametrize("m_top", [0, 5, 31])
def test_morse_index_counts_band_modes_only(geom64, m_top):
    # at a constant c the half Hessian is diagonal in the modes:
    # (2 pi m)^4 - 1 - 6 c^2 for a = 0, h = -1, f = 1, q = 4.  The weight
    # puts the sign change between modes m_top and m_top + 1, so the
    # count is 1 + 2 m_top.  At m_top = 31 = M/2 - 1 the next mode is
    # the Nyquist mode: it would be negative too, but it is no band
    # field (its samples are a null vector of the Hessian action), so
    # it is not counted.
    problem = prob.ProblemData.from_expressions(geom64, "0", "-1", "1")
    w = 0.5 * ((TWO_PI * m_top) ** 4 + (TWO_PI * (m_top + 1)) ** 4) - 1.0
    u = geom64.constant(math.sqrt(w / 6.0))
    nyquist = geom64.field((-1.0) ** np.arange(geom64.grid_size))
    assert not np.any(nyquist.coeffs)
    assert morse_index(problem, 4.0, u) == 1 + 2 * m_top


# ----------------------------------------------------------------------
# stacked path sweeps against the one-field forms


def _toy_path(toy_pipeline, toy64, stride=1):
    """A path over every ``stride``-th node of the toy's stopped path and the last one."""
    _, _, _, mp = toy_pipeline
    nodes = mp.nodes[:-1:stride] + mp.nodes[-1:]
    return _Path(toy64, 4.0, nodes)


def test_path_energies_match_single_field_evaluation(toy_pipeline, toy64):
    path = _toy_path(toy_pipeline, toy64)
    q = path.q
    assert path.e_nodes == [prob.eval_F(u, toy64, q) for u in path.nodes]
    path.honest_max()
    for j, samples in enumerate(path._seg):
        assert [t for t, _ in samples] == list(_Path.SUB)
        for t, e in samples:
            assert e == prob.eval_F(path._point(j, t), toy64, q)


def test_promotion_resamples_only_split_segments(toy_pipeline, toy64, monkeypatch):
    # a coarse path leaves an interior maximum to promote; after the
    # first sweep each insertion evaluates its two new segments only
    path = _toy_path(toy_pipeline, toy64, stride=12)
    path.honest_max()
    swept = []
    real = path._sample_energies

    def recorded(rows):
        if rows:
            swept.append(sorted({s for s, _ in rows}))
        return real(rows)

    monkeypatch.setattr(path, "_sample_energies", recorded)
    inserted = path.promote_interior_maxima(48)
    val, j, t = path.honest_max()
    assert inserted >= 1 and t is None and val == max(path.e_nodes)
    assert len(swept) == inserted and all(len(segs) == 2 for segs in swept)


def test_sweep_in_chunks_matches_one_stack(toy_pipeline, toy64, monkeypatch):
    path = _toy_path(toy_pipeline, toy64)
    rows = [(s, t) for s in range(len(path.nodes) - 1) for t in np.linspace(0.05, 0.95, 19)]
    assert len(rows) > 2 * mpass._CHUNK
    sizes = []
    real = prob.eval_F

    def counted(u, *a, **k):
        sizes.append(u.coeffs.shape[0])
        return real(u, *a, **k)

    monkeypatch.setattr(prob, "eval_F", counted)
    chunked = path._sample_energies(rows)
    assert max(sizes) == mpass._CHUNK and len(sizes) == -(-len(rows) // mpass._CHUNK)
    monkeypatch.setattr(mpass, "_CHUNK", len(rows))
    assert path._sample_energies(rows) == chunked
    assert sizes[-1] == len(rows)


def test_trial_path_leaves_the_path_unchanged(toy_pipeline, toy64):
    path = _toy_path(toy_pipeline, toy64)
    path.honest_max()
    before = (list(path.nodes), list(path.e_nodes), list(path.m_nodes), list(path._seg))
    j = len(path.nodes) // 2
    moved = geo.scale(path.nodes[j], 1.01)
    trial = path.with_nodes({j: moved})
    assert (path.nodes, path.e_nodes, path.m_nodes, path._seg) == before
    assert trial.e_nodes[j] == prob.eval_F(moved, toy64, path.q)
    assert trial.m_nodes[j] == geo.lp_mass(moved, path.q)
    assert trial._seg[j - 1] is None and trial._seg[j] is None
    assert [s for i, s in enumerate(trial._seg) if i not in (j - 1, j)] == [
        s for i, s in enumerate(path._seg) if i not in (j - 1, j)
    ]


def test_mountain_pass_transform_count(toy_pipeline, toy64, monkeypatch):
    # the field-by-field path evaluation made 15,608 transforms and 5,261
    # eval_F calls here, and the path that ran until its level stalled
    # (108 iterations) made at most 2,000 and 600; stopping at the first
    # accepted polish (10 iterations) makes 289 and 24
    curve, _, (end1, u2), mp = toy_pipeline
    calls = []
    for name in ("forward", "inverse"):
        real = getattr(TorusGeometry, name)
        monkeypatch.setattr(
            TorusGeometry, name,
            lambda self, *a, _real=real, **k: calls.append(1) or _real(self, *a, **k),
        )
    rows = []
    real_F = prob.eval_F

    def counted(u, *a, **k):
        rows.append(u.coeffs.shape[0] if u.coeffs.ndim > u.geometry.d_eff else 1)
        return real_F(u, *a, **k)

    monkeypatch.setattr(prob, "eval_F", counted)
    again = mountain_pass(toy64, 4.0, end1.v, u2, curve=curve)
    assert again.iterations == mp.iterations and again.nu == mp.nu
    assert 0 < len(calls) <= 400
    assert 0 < len(rows) <= 40
    assert max(rows) <= mpass._CHUNK


# ----------------------------------------------------------------------
# a certified q = 4 instance


@pytest.mark.parametrize(
    "a, f, energy",
    [
        pytest.param("0", "cos(2*pi*x1) - 0.97", 6_230_691_487.38, id="a0-c097"),
        pytest.param("0.2", "cos(2*pi*x1) - 0.95", 604_632_475.03, id="a02-c095"),
    ],
)
def test_certified_q4_instance_gives_an_index_one_saddle(a, f, energy):
    # two instances that pass the certificate.  The path level never
    # flattened over 40 iterations here, so the plateau rule stopped late
    # (a = 0: 922 iterations) or not at all (a = 0.2: NonConvergence after
    # 3,000); the first poll accepts an index-1 saddle above the hump
    from biharm.certifier import certify

    q = 4.0
    problem = prob.ProblemData.from_expressions(TorusGeometry(6, 1, 32), a, "-1", f)
    assert certify(problem, q, 0).passed_subcritical
    curve = trace_mu_curve(problem, q, 1e-3, 1e40, 40, 0)
    _, _, mp = second_solution(problem, q, curve)
    assert mp.iterations == mpass.POLL
    assert mp.nu == mp.report.energy >= curve.annotations["mu_lo"] > 0.0
    assert mp.report.energy == pytest.approx(energy, rel=1e-6)
    assert morse_index(problem, q, mp.report.variational) == 1


# ----------------------------------------------------------------------
# two solutions on the 2-D plate


def test_plate_two_solutions(scipy_checked_morse_index):
    # the 16 x 16 plate of the benchmark, traced far enough (k up to 1e13)
    # for mu to fall back below zero; every Morse index agrees with scipy's
    from biharm.certifier import certify

    q = 3.0
    plate = prob.ProblemData.from_expressions(
        TorusGeometry(7, 2, 16), "0.1", "-1", "cos(2*pi*x1)*cos(2*pi*x2) - 0.25"
    )
    certificate = certify(plate, q, 0)
    curve = trace_mu_curve(plate, q, 0.5, 1e13, 40, 0)
    mu_lo = curve.annotations["mu_lo"]
    assert mu_lo == pytest.approx(366_359_819.58, rel=1e-10)
    _, _, mp = second_solution(plate, q, curve)
    saddle = mp.report
    assert saddle.energy == pytest.approx(378_015_422.3436, rel=1e-9)
    assert saddle.energy >= mu_lo
    assert morse_index(plate, q, saddle.variational) == 1
    assert mz.first_solution(plate, q, certificate.k_low, 0).energy < 0.0
    _assert_curve_seed_matches_ball_seed(plate, q, certificate.k_low, curve, 0)
    assert set(scipy_checked_morse_index) == {0, 1}


# ----------------------------------------------------------------------
# the polish's LSQR: scipy's loop, bit for bit


def _scipy_lsqr(matvec, rmatvec, b, damp, atol, btol, iter_lim):
    n = len(b)
    op = LinearOperator((n, n), matvec, rmatvec=rmatvec, dtype=float)
    return lsqr(op, b, damp=damp, atol=atol, btol=btol, iter_lim=iter_lim)[0]


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 30),
    rank=st.integers(0, 30),
    damp=st.one_of(st.just(0.0), st.floats(1e-8, 10.0)),
    atol=st.sampled_from([0.0, 1e-13, 1e-8, 1e-3]),
    btol=st.sampled_from([0.0, 1e-13, 1e-8, 1e-3]),
    iter_lim=st.integers(1, 80),
)
def test_lsqr_matches_scipy_bit_for_bit(seed, n, rank, damp, atol, btol, iter_lim):
    # square systems, as the polish solves, of any rank and column scaling;
    # a zero right-hand side returns at once in both
    rng = np.random.default_rng(seed)
    k = min(rank, n)
    A = rng.standard_normal((n, k)) @ rng.standard_normal((k, n)) * np.exp(rng.uniform(-3, 3, n))
    b = rng.standard_normal(n) if seed % 7 else np.zeros(n)
    args = (lambda x: A @ x, lambda y: A.T @ y, b, damp, atol, btol, iter_lim)
    assert np.array_equal(_lsqr(*args), _scipy_lsqr(*args))


@pytest.mark.parametrize("lm", [0.0, 1e-12, 16.0])
def test_lsqr_matches_scipy_on_the_polish_band_hessian(toy_pipeline, toy64, lm):
    # the first Newton step's system at the path's saddle and at the zero
    # field, with the polish's tolerances and cap
    q = 4.0
    g = toy64.geometry
    n = g.band_size
    for u in (toy_pipeline[3].report.variational, geo.scale(toy_pipeline[0].neg_minimizer, 0.5)):
        r = 0.5 * g.to_band(prob.grad_F(u, toy64, q).coeffs)
        P = g.to_band(mz._metric(toy64, q, geo.lp_mass(u, q)) * g.from_band(np.ones(n)))
        H = mpass._band_hessian(toy64, q, u)
        args = (lambda x: H(P * x), lambda y: P * H(y), -r, math.sqrt(lm), 1e-13, 1e-13, 800)
        assert np.array_equal(_lsqr(*args), _scipy_lsqr(*args))
