import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import biharm.minimizer as mz
from biharm import geometry as geo
from biharm import problem as prob
from biharm.errors import NonConvergence
from biharm.minimizer import (
    annotate_certified_window,
    first_solution,
    minimize_on_ball,
    minimize_on_sphere,
    trace_mu_curve,
)
from biharm.mountainpass import polish_minimizer
from biharm.problem import ProblemData

TWO_PI = 2.0 * math.pi


def _three_mode_oracle(problem, q, k, n_grid=61):
    """Brute-force minimum of F_q on the sphere within a 3-mode subspace."""
    g = problem.geometry
    x = g.coordinates()[0]
    basis = [
        np.ones_like(x),
        math.sqrt(2.0) * np.cos(TWO_PI * x),
        math.sqrt(2.0) * np.sin(TWO_PI * x),
    ]
    best = math.inf
    grid = np.linspace(-1.0, 1.0, n_grid)
    for c0 in grid:
        for c1 in grid:
            for c2 in grid:
                v = c0 * basis[0] + c1 * basis[1] + c2 * basis[2]
                nrm = (np.mean(np.abs(v) ** q)) ** (1.0 / q)
                if nrm < 1e-9:
                    continue
                u = g.field(v * (k ** (1.0 / q) / nrm))
                best = min(best, prob.eval_F(u, problem, q))
    return best


def test_sphere_minimizer_flat_problem_vs_oracle(geom64, seed):
    # f = 0, a = 0, h = -1: constants win with value -k^(2/q)
    p = ProblemData.from_expressions(geom64, "0", "-1", "0")
    q, k = 2.5, 3.0
    res = minimize_on_sphere(p, q, k, seed=seed)
    assert res.converged
    assert res.mu <= -(k ** (2.0 / q)) + 1e-10
    oracle = _three_mode_oracle(p, q, k)
    assert res.mu <= oracle + 1e-4
    assert res.mu == pytest.approx(-(k ** (2.0 / q)), rel=1e-9)


def test_sphere_retraction_exact(bundled64, seed):
    q = 2.5
    for k in (0.7, 12.0, 4000.0):
        res = minimize_on_sphere(bundled64, q, k, seed=seed)
        assert geo.lp_mass(res.v, q) == pytest.approx(k, rel=1e-12)


def test_sphere_rejects_bad_mass(bundled64, seed):
    with pytest.raises(ValueError):
        minimize_on_sphere(bundled64, 2.5, -1.0, seed=seed)


def test_euler_lagrange_residual_postcondition(bundled64, seed):
    q = 2.5
    for k in (10.0, 335.0):
        res = minimize_on_sphere(bundled64, q, k, seed=seed)
        assert res.converged
        el = prob.el_residual(res.v, bundled64, q, res.lagrange)
        assert el <= 1e-6 * (1.0 + abs(res.mu))


def test_sphere_multistart_deterministic(bundled64):
    q, k = 2.5, 50.0
    r1 = minimize_on_sphere(bundled64, q, k, seed=0)
    r2 = minimize_on_sphere(bundled64, q, k, seed=0)
    assert r1.mu == r2.mu
    assert np.array_equal(r1.v.samples, r2.v.samples)


def test_curve_upper_bound_by_constants(toy64, seed):
    q = 4.0
    curve = trace_mu_curve(toy64, q, 0.05, 500.0, n_points=24, seed=seed)
    for k, mu in zip(curve.ks, curve.mus):
        cap = k ** (2.0 / q) * toy64.int_h - k * toy64.int_f
        assert mu <= cap + 1e-9 * (1.0 + abs(cap))


def test_curve_small_k_negative(toy64, seed):
    q = 4.0
    curve = trace_mu_curve(toy64, q, 0.01, 1.0, n_points=10, seed=seed)
    # mu_k <= k^(2/q)(int h - k^(1-2/q) int f) < 0 near zero
    for k, mu in zip(curve.ks[:5], curve.mus[:5]):
        bound = k ** (2.0 / q) * (toy64.int_h - k ** (1.0 - 2.0 / q) * toy64.int_f)
        assert mu <= bound + 1e-12
        assert mu < 0.0


def test_curve_shape_and_annotations(toy64, seed):
    q = 4.0
    curve = trace_mu_curve(toy64, q, 0.05, 500.0, n_points=36, seed=seed)
    ann = curve.annotations
    assert ann["shape"] == "neg-min/hump/neg-tail"
    assert 0.05 < ann["k_neg_min"] < ann["l1"] < ann["l_o"] < ann["l2"] < 500.0
    assert ann["mu_neg_min"] < 0.0 < ann["mu_lo"]
    # crossings sit near zero energy
    assert abs(ann["mu_at_l1"]) <= 1e-3 * (1.0 + ann["mu_lo"])
    assert abs(ann["mu_at_l2"]) <= 1e-3 * (1.0 + ann["mu_lo"])


def test_curve_large_k_decreasing(toy64, seed):
    # sup f > 0 drives the curve to minus infinity
    q = 4.0
    curve = trace_mu_curve(toy64, q, 100.0, 5000.0, n_points=12, seed=seed)
    assert curve.mus[-1] < -10.0
    assert curve.mus[-1] < curve.mus[0]


def test_curve_continuity_refinement(toy64, seed):
    # doubling the k resolution roughly halves the largest jump
    q = 4.0
    coarse = trace_mu_curve(toy64, q, 0.5, 40.0, n_points=12, seed=seed)
    fine = trace_mu_curve(toy64, q, 0.5, 40.0, n_points=24, seed=seed)
    jump_c = np.max(np.abs(np.diff(coarse.mus)))
    jump_f = np.max(np.abs(np.diff(fine.mus)))
    assert jump_f <= 0.75 * jump_c


def test_curve_deterministic(toy64):
    q = 4.0
    c1 = trace_mu_curve(toy64, q, 0.5, 40.0, n_points=10, seed=3)
    c2 = trace_mu_curve(toy64, q, 0.5, 40.0, n_points=10, seed=3)
    assert np.array_equal(c1.mus, c2.mus)


def test_certified_window_bound(geom64, seed):
    # on a ratio-passing instance the traced curve clears the floor
    from biharm.certifier import certify

    p = ProblemData.from_expressions(geom64, "0", "-1", "cos(2*pi*x1) - 0.999")
    q = 2.5
    rep = certify(p, q, seed)
    assert rep.passed_subcritical and rep.k_low < rep.k_high_certified
    curve = trace_mu_curve(
        p, q, rep.k_low * 0.5, rep.k_high_certified * 2.0, n_points=14,
        seed=seed,
    )
    annotate_certified_window(curve, rep)
    assert curve.annotations["certified_bound_ok"] is True
    inside = (curve.ks >= rep.k_low) & (curve.ks <= rep.k_high_certified)
    assert inside.any()
    floor = 0.5 * rep.mu_floor * curve.ks[inside] ** (2.0 / q)
    assert np.all(curve.mus[inside] >= floor - 1e-8)


def test_small_ball_energy_negative(toy64, geom64):
    # constant direction: F(t) <= t^2 (max h - t^(q-2) int f) < 0 for small t
    q = 4.0
    for t in (1e-3, 1e-2, 0.1):
        c = geom64.constant(t)
        F = prob.eval_F(c, toy64, q)
        bound = t * t * (float(np.max(toy64.h_fine)) - t ** (q - 2.0) * toy64.int_f)
        assert F <= bound + 1e-12 * (1.0 + abs(bound))
        assert F < 0.0


def test_first_solution_toy(toy64, seed):
    q = 4.0
    rep = first_solution(toy64, q, 1.3, seed)
    assert rep.energy < 0.0
    assert rep.mass < 1.3 * (1.0 - 1e-9)          # interior minimum
    assert rep.identity_gap_rel <= 1e-6
    assert rep.residual_equation <= 1e-6 * (1.0 + abs(rep.energy))
    # sign chain: negative energy forces int f |v|^q < 0
    assert rep.f_weight < 0.0
    # mass bound for the equation-normalized field
    assert geo.lp_mass(rep.field, q) <= (0.5 * q) ** (q / (q - 2.0)) * 1.3 + 1e-9


def test_first_solution_degenerate_f_zero(geom64, seed):
    # with f = 0 the f-term vanishes and the minimum sits on the ball
    # boundary at the constant that minimizes the h-term
    p = ProblemData.from_expressions(geom64, "0", "-1", "0")
    rep = first_solution(p, 2.5, 1.0, seed)
    assert rep.energy < 0.0
    assert rep.mass == pytest.approx(1.0, rel=1e-9)
    # minimizer is the boundary constant
    assert np.ptp(rep.variational.samples) <= 1e-8
    # the acceptance rule rejects it: the equation is linear, so the
    # polish runs to its one critical point, the zero field, of energy 0
    with pytest.raises(NonConvergence, match="energy 0.0 is not negative") as exc:
        polish_minimizer(p, 2.5, 1.0, rep.variational, rep.flags["seed"])
    assert exc.value.best.converged and exc.value.best.mass == 0.0


def test_ball_minimizer_matches_sphere_envelope(toy64, seed):
    # ball minimum equals the lowest sphere value over masses <= cap
    q, cap = 4.0, 1.3
    ball = minimize_on_ball(toy64, q, cap, seed=seed)
    curve = trace_mu_curve(toy64, q, 0.02, cap, n_points=16, seed=seed)
    assert ball.mu <= curve.mus.min() + 1e-8 * (1.0 + abs(ball.mu))


def test_sphere_minimizer_2d(geom2d):
    # two effective coordinates: the machinery is dimension-generic
    p = ProblemData.from_expressions(
        geom2d, "0.1", "-1", "cos(2*pi*x1)*cos(2*pi*x2) - 0.25"
    )
    q, k = 3.0, 2.0
    res = minimize_on_sphere(p, q, k, seed=0)
    assert res.converged
    assert geo.lp_mass(res.v, q) == pytest.approx(k, rel=1e-12)
    cap = k ** (2.0 / q) * p.int_h - k * p.int_f
    assert res.mu <= cap + 1e-9 * (1.0 + abs(cap))
    el = prob.el_residual(res.v, p, q, res.lagrange)
    assert el <= 1e-6 * (1.0 + abs(res.mu))


def _fake_bb(energies):
    """Stand-in for ``_bb_minimize``: converged at the given energies, in start order."""
    it = iter(energies)

    def fake(problem, q, starts, k, ball):
        return [(u0, next(it), 0.0, 0.0, 1, True) for u0 in starts]

    return fake


@pytest.mark.parametrize("solver", ["sphere", "ball"])
@pytest.mark.parametrize(
    "second, winner",
    [(np.nextafter(-1.0, -np.inf), "first"), (-1.0 - 1e-9, "second")],
    ids=["one-ulp", "gap-1e-9"],
)
def test_multistart_tie_goes_to_earlier_seed(bundled64, monkeypatch, solver, second, winner):
    """Energies one ulp apart tie (the earlier seed wins); a real gap does not."""
    import biharm.minimizer as mz

    g = bundled64.geometry
    seeds = [("first", g.constant(1.0)), ("second", g.constant(1.0))]
    monkeypatch.setattr(mz, "default_seeds", lambda *args: seeds)
    energies = [-1.0, second]
    if solver == "sphere":
        monkeypatch.setattr(mz, "_bb_minimize", _fake_bb(energies))
        res = minimize_on_sphere(bundled64, 3.0, 1.0, 0)
    else:
        # the ball solver runs its constant start before the battery
        monkeypatch.setattr(mz, "_bb_minimize", _fake_bb([0.0] + energies))
        res = minimize_on_ball(bundled64, 3.0, 1.0, 0)
    assert res.seed_tag == winner


# ----------------------------------------------------------------------
# the stacked (lockstep) BB iteration

PROPERTY = settings(max_examples=4, deadline=None, database=None, derandomize=True)
DIMS = pytest.mark.parametrize("dim", [1, 2])
SOLVERS = pytest.mark.parametrize("solver", ["sphere", "ball"])


def _setup(dim, solver, bundled64, plate2d):
    """(problem, q, constraint (k, ball)) of a small solve in 1-D or 2-D."""
    problem, q = (bundled64, 2.5) if dim == 1 else (plate2d, 3.0)
    return problem, q, (2.0, solver == "ball")


def _random_starts(problem, seed, n):
    rng = np.random.default_rng(seed)
    return [problem.geometry.random_smooth(rng, decay=2.5) for _ in range(n)]


def _assert_same_run(got, want):
    u, F, lam, res, its, conv = got
    u1, F1, lam1, res1, its1, conv1 = want
    assert (F, lam, its, conv) == (F1, lam1, its1, conv1)
    assert res == res1
    assert np.max(np.abs(u.coeffs - u1.coeffs)) <= 1e-14 * np.max(np.abs(u1.coeffs))


@DIMS
@SOLVERS
@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4))
def test_stack_matches_stacks_of_one(bundled64, plate2d, dim, solver, seed, n):
    problem, q, kb = _setup(dim, solver, bundled64, plate2d)
    starts = _random_starts(problem, seed, n)
    stacked = mz._bb_minimize(problem, q, starts, *kb)
    assert len(stacked) == n
    for s, got in zip(starts, stacked):
        [alone] = mz._bb_minimize(problem, q, [s], *kb)
        _assert_same_run(got, alone)
    # reversing the starts permutes the results and changes nothing else
    backward = mz._bb_minimize(problem, q, starts[::-1], *kb)
    for got, want in zip(backward[::-1], stacked):
        assert got[1:] == want[1:]
        assert np.array_equal(got[0].coeffs, want[0].coeffs)


@DIMS
@SOLVERS
def test_mixed_caps_in_one_stack(bundled64, plate2d, dim, solver, monkeypatch):
    # two starts stop at the cap MAX_ITER, a converged one leaves at
    # iteration 1; each ends as it would alone
    problem, q, kb = _setup(dim, solver, bundled64, plate2d)
    [(u_star, *_)] = mz._bb_minimize(problem, q, _random_starts(problem, 1, 1), *kb)
    monkeypatch.setattr(mz, "MAX_ITER", 3)
    starts = _random_starts(problem, 2, 2) + [u_star]
    results = mz._bb_minimize(problem, q, starts, *kb)
    assert [r[4] for r in results] == [3, 3, 1]
    assert [r[5] for r in results] == [False, False, True]
    for s, got in zip(starts, results):
        [alone] = mz._bb_minimize(problem, q, [s], *kb)
        _assert_same_run(got, alone)


@DIMS
@SOLVERS
def test_negated_start_runs_to_the_exact_mirror(bundled64, plate2d, dim, solver):
    # why the battery has no negated seeds: F_q is even, negation exact
    problem, q, kb = _setup(dim, solver, bundled64, plate2d)
    g = problem.geometry
    center = [0.25] * g.d_eff
    seeds = [g.bump(center, width=0.08), g.mode((1,) * g.d_eff)] + _random_starts(problem, 3, 1)
    plus = mz._bb_minimize(problem, q, seeds, *kb)
    minus = mz._bb_minimize(problem, q, [geo.scale(s, -1.0) for s in seeds], *kb)
    for p, m in zip(plus, minus):
        assert m[1:] == p[1:]
        assert np.array_equal(m[0].coeffs, -p[0].coeffs)


def test_battery_has_no_mirrored_seeds(bundled64, seed):
    tags = [tag for tag, _ in mz.default_seeds(bundled64, 2.5, 1.0, seed)]
    assert tags == ["const", "bump+", "mode+", "rand0", "rand1", "rand2"]


def test_curve_runs_one_battery_per_point(toy64, seed, monkeypatch):
    batteries, solves = [], []
    seeds, sphere = mz.default_seeds, mz.minimize_on_sphere

    def counting_seeds(*args):
        batteries.append(args[2])
        return seeds(*args)

    def counting_sphere(*args, **kwargs):
        solves.append(args[2])
        return sphere(*args, **kwargs)

    monkeypatch.setattr(mz, "default_seeds", counting_seeds)
    monkeypatch.setattr(mz, "minimize_on_sphere", counting_sphere)
    n = 12
    curve = trace_mu_curve(toy64, 4.0, 0.05, 500.0, n_points=n, seed=seed)
    grid = [float(k) for k in curve.ks]
    assert solves[:n] == grid                  # one upward sweep
    assert sorted(k for k in solves if k in grid) == grid
    refining = sum(k not in grid for k in solves)
    assert curve.annotations["shape"] == "neg-min/hump/neg-tail" and refining > 0
    assert len(batteries) == len(solves) == n + refining


# l1 and l2 of the toy curve (0.05 to 500 in 36 points, solver seed 0) as
# the bisection to relative width 1e-4 found them, in 26 sphere solves
TOY_BISECTED_ZEROS = (1.3898155596803183, 45.586188877583325)


def test_zero_refinement_is_newton_in_k(toy64, seed, monkeypatch):
    # a Hermite guess plus Newton steps: at most 6 sphere solves for both
    # zeros, each within 1e-4 rel of the bisection's and meeting the stop
    # rule |mu| <= 1e-12 (1 + |k mu'|), mu' = 2 lambda / q
    q, n = 4.0, 36
    solves = []
    sphere = mz.minimize_on_sphere

    def counting_sphere(*args, **kwargs):
        solves.append(args[2])
        return sphere(*args, **kwargs)

    monkeypatch.setattr(mz, "minimize_on_sphere", counting_sphere)
    curve = trace_mu_curve(toy64, q, 0.05, 500.0, n_points=n, seed=seed)
    assert len(solves) - n <= 6
    for key, bisected, end in zip(("l1", "l2"), TOY_BISECTED_ZEROS, curve.zero_minimizers):
        k = curve.annotations[key]
        assert k == pytest.approx(bisected, rel=1e-4)
        assert geo.lp_mass(end.v, q) == pytest.approx(k, rel=1e-12)
        assert abs(end.mu) <= 1e-12 * (1.0 + abs(k * 2.0 * end.lagrange / q))


@settings(max_examples=80, deadline=None)
@given(
    root=st.floats(0.001, 0.999),
    steep=st.floats(0.1, 1e4),
    cubic=st.floats(0.0, 10.0),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_zero_refinement_stays_in_the_bracket(root, steep, cubic, sign):
    # a synthetic mu(k) on [1, 2] whose far-off Newton steps overshoot
    # (atan flattens): every solve lies strictly inside the bracket of
    # the sign change, and the refinement ends at the stop rule or at
    # relative width 1e-4
    q, r = 4.0, 1.0 + root

    def mu(k):
        return sign * (math.atan(steep * (k - r)) + cubic * (k - r) ** 3)

    def slope(k):
        return sign * (steep / (1.0 + (steep * (k - r)) ** 2) + 3.0 * cubic * (k - r) ** 2)

    solved = []

    def synthetic_point(problem, q_, k, warm, seed):
        solved.append(k)
        return mz.SphereResult(None, mu(k), 0.5 * q * slope(k), 0.0, 0, True, "synthetic")

    ks = np.array([1.0, 2.0])
    curve = mz.MuCurve(
        q=q, ks=ks, mus=np.array([mu(1.0), mu(2.0)]),
        lagranges=np.array([0.5 * q * slope(1.0), 0.5 * q * slope(2.0)]),
        residuals=np.zeros(2), iterations=np.zeros(2, dtype=int),
        flags=["ok", "ok"], minimizers=[None, None],
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mz, "_curve_point", synthetic_point)
        k, res = mz._refine_zero(None, q, curve, 1, 0)
    lo, hi = 1.0, 2.0
    for k_i in solved:
        assert lo < k_i < hi
        if (mu(k_i) > 0) == (mu(1.0) > 0):
            lo = k_i
        else:
            hi = k_i
    assert k == solved[-1] and res.mu == mu(k)
    assert abs(res.mu) <= 1e-12 * (1.0 + abs(k * slope(k))) or (hi - lo) / hi <= 1e-4
    assert len(solved) <= 40


def test_zero_refinement_ends_at_a_solve_short_of_its_tolerance():
    # a solve that missed its gradient tolerance ends the refinement:
    # here the first, at the root of the Hermite interpolant
    q = 4.0
    solved = []

    def unconverged_point(problem, q_, k, warm, seed):
        solved.append(k)
        return mz.SphereResult(None, k - 1.5, 0.5 * q, 1.0, mz.MAX_ITER, False, "synthetic")

    curve = mz.MuCurve(
        q=q, ks=np.array([1.0, 2.0]), mus=np.array([-0.5, 0.5]),
        lagranges=np.array([0.5 * q, 0.5 * q]), residuals=np.zeros(2),
        iterations=np.zeros(2, dtype=int), flags=["ok", "ok"], minimizers=[None, None],
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mz, "_curve_point", unconverged_point)
        k, res = mz._refine_zero(None, q, curve, 1, 0)
    assert solved == [k] and k == pytest.approx(1.5, rel=1e-15) and not res.converged


def test_downward_warm_resolve_lowers_no_curve_point(toy64, seed):
    # oracle for the single upward sweep: solving every point again,
    # warm-started downward from the better neighbor, finds nothing lower
    q = 4.0
    curve = trace_mu_curve(toy64, q, 0.05, 500.0, n_points=36, seed=seed)
    warm = curve.minimizers[-1]
    for i in range(len(curve.ks) - 2, -1, -1):
        k, mu = float(curve.ks[i]), float(curve.mus[i])
        start = mz._retract_sphere(warm, q, k)
        [(v, F, *_)] = mz._bb_minimize(toy64, q, [start], k, False)
        assert F >= mu - 1e-10 * (1.0 + abs(mu)), k
        warm = v if F < mu else curve.minimizers[i]
