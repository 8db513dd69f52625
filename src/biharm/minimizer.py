"""Constrained minimization of F_q on L^q spheres and balls.

The workhorse is a Riemannian projected-gradient iteration with
Barzilai-Borwein steps: search directions are preconditioned by the
spectral-diagonal metric (s + |2 pi m|^4)^(-1) (which tames the 10^10
conditioning of the bilaplacian), the component along the constraint
direction psi = P(|u|^(q-2) u) is removed, and the exact radial
retraction u -> k^(1/q) u / |u|_q restores the sphere after every step.
The metric choice does not move critical points; the reported Lagrange
multiplier is the L2 Riesz coefficient

    lambda = <grad F(v), psi> / (2 <psi, psi>),

so converged iterates satisfy the multiplier form of the stationarity
equation to the gradient tolerance.

A multistart solve runs all of its starts (warm start, best constant,
battery) as one stack of fields in lockstep: every step makes one
stacked energy/gradient evaluation, one stacked constraint direction
and one stacked trial per line-search round, so the per-call cost of
the small transforms is paid once per step rather than once per start.
The BB step, the line search, convergence and the best iterate stay per
start, with the arithmetic of a start run alone, so each start returns
exactly what it would return alone; single solves are stacks of one.

The budgets are module constants: a start has converged when its
residual is at most ``TOL_SCALE`` (1 + |F|), and every start runs for up
to ``MAX_ITER`` iterations.  Every solver takes one integer ``seed``,
which draws the battery's random fields, so a solve is deterministic
given its seed.

``trace_mu_curve`` sweeps a geometric k-grid upward once, each point
warm-started from its neighbor's minimizer plus a fixed multistart
battery, and annotates the curve with the negative minimum and the
zero crossings, refined by Newton in k; ``annotate_certified_window``
adds a certificate's coercivity window.  The sphere minimizer at the
negative minimum stays on the curve as the seed of the negative-energy
solution, and those at the two refined zeros as the mountain pass's
endpoints.  ``first_solution`` reports the raw minimizer of the ball
|u|_q^q <= l_q and accepts nothing; it seeds the continuation at q0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import geometry as geo
from . import problem as prob
from .geometry import SpectralField
from .problem import ProblemData

_EPS = np.finfo(np.float64).eps

TOL_SCALE = 1e-8        # gradient tolerance: TOL_SCALE * (1 + |F|)
MAX_ITER = 5000         # iteration cap of every start


@dataclass
class SphereResult:
    v: SpectralField
    mu: float
    lagrange: float
    residual: float
    iterations: int
    converged: bool
    seed_tag: str


@dataclass
class CriticalPointReport:
    """A converged candidate solution with its checkable identities.

    ``field`` is the equation-normalized solution u = (q/2)^(1/(q-2)) v;
    energy and the critical-point identity refer to the variational
    representative v.
    """

    q: float
    field: SpectralField
    variational: SpectralField
    energy: float
    mass: float                    # |v|_q^q
    f_weight: float                # int f |v|^q
    identity_gap_rel: float        # |F(v) - (q/2 - 1) int f|v|^q| / (1 + |F|)
    residual_equation: float
    residual_variational: float
    grad_norm: float
    h2_norm: float
    q_norm: float
    converged: bool
    flags: dict = dataclass_field(default_factory=dict)

    @property
    def f_weight_sign(self) -> int:
        return int(np.sign(self.f_weight))


@dataclass
class MuCurve:
    """Sampled map k -> inf of F_q on the sphere |u|_q^q = k.

    ``neg_minimizer`` is the sphere minimizer at ``k_neg_min``, and
    ``zero_minimizers`` holds the sphere minimizers (``SphereResult``)
    at the refined zeros l1 and l2, in that order, when the tracer found
    them; neither is serialized.
    """

    q: float
    ks: np.ndarray
    mus: np.ndarray
    lagranges: np.ndarray
    residuals: np.ndarray
    iterations: np.ndarray
    flags: list
    minimizers: list
    annotations: dict = dataclass_field(default_factory=dict)
    neg_minimizer: SpectralField | None = None
    zero_minimizers: list = dataclass_field(default_factory=list)

    def ok(self) -> np.ndarray:
        return np.array([f == "ok" for f in self.flags])


# ----------------------------------------------------------------------
# core iteration


def _precond_shift(problem: ProblemData, q: float, k: float) -> float:
    """Scale estimate of the zeroth-order Hessian block at mass k."""
    amp = max(k, _EPS) ** (1.0 / q)
    nl = q * (q - 1.0) * problem.f_sup * amp ** (q - 2.0)
    return max(1.0, problem.h_sup + nl)


def _metric(problem: ProblemData, q: float, k: float) -> np.ndarray:
    """Spectral descent metric at mass k: 1 / (shift + |2 pi m|^4) per mode."""
    return 1.0 / (_precond_shift(problem, q, k) + problem.geometry.lam_sq)


def _retract_sphere(u: SpectralField, q: float, k: float) -> SpectralField:
    """Scale u (each field of a stack) onto the sphere |u|_q^q = k."""
    norms = [float(m) ** (1.0 / q) for m in np.atleast_1d(geo.lp_mass(u, q))]
    if 0.0 in norms:
        raise ValueError("cannot retract the zero field onto the sphere")
    return geo.scale(u, [k ** (1.0 / q) / nrm for nrm in norms])


class _Start:
    """Per-start state of the lockstep iteration in ``_bb_minimize``."""

    def __init__(self, u, F, grad):
        self.u, self.F, self.grad = u, F, grad
        self.hist = [F]
        self.tau = 1.0
        self.prev_coeffs = None
        self.prev_pg = None
        self.best = (F, u, 0.0, math.inf)
        self.result = None

    def finish(self, it, tol):
        F_b, u_b, lam_b, res_b = self.best
        self.result = (u_b, F_b, lam_b, res_b, it, res_b <= tol * (1.0 + abs(F_b)))


def _line_search(problem, q, retract, u, d, stepping, it, tol):
    """Nonmonotone backtracking of every stepping start, one stacked trial per round.

    ``u`` and ``d`` stack the iterates and directions of the entries
    (start, |d|^2, reference energy) of ``stepping``.  An accepted
    trial becomes the start's iterate; a start that finds none in 40
    rounds is finished at iteration ``it``.
    """
    t = [run.tau for run, _, _ in stepping]
    searching = list(range(len(stepping)))
    for _ in range(40):
        if not searching:
            break
        trial = retract(geo.add(u[searching], d[searching], [t[j] for j in searching]))
        F_t, grad_t = prob.energy_and_grad(trial, problem, q)
        still = []
        for row, j in enumerate(searching):
            run, d_sq, f_ref = stepping[j]
            if not math.isfinite(F_t[row]):
                t[j] *= 0.25
                still.append(j)
            elif F_t[row] <= f_ref - 1e-6 * t[j] * d_sq or F_t[row] < run.best[0]:
                run.u, run.F, run.grad = trial[row], F_t[row], grad_t.coeffs[row]
                run.hist.append(run.F)
            else:
                t[j] *= 0.5
                still.append(j)
        searching = still
    for j in searching:
        # descent exhausted at line-search resolution
        stepping[j][0].finish(it, tol)


def _bb_minimize(problem: ProblemData, q: float, starts, k: float, ball: bool):
    """Preconditioned BB descent on the sphere |u|_q^q = k (the ball <= k if ``ball``).

    Runs the fields ``starts`` in lockstep, each for at most
    ``MAX_ITER`` iterations.  Each step makes one energy/gradient
    evaluation, one constraint direction and, per line-search round, one
    retraction and trial evaluation for the stack of starts still
    running; the BB step, the nonmonotone line search, convergence and
    the best iterate are kept per start, with the arithmetic of a start
    run alone.  Returns one (u, F, lagrange, residual, iterations,
    converged) per start, in order.  The residual is the L2 norm of the
    gradient with its multiplier component removed (sphere/active
    boundary) or of the raw gradient (ball interior).
    """
    g = problem.geometry
    tol = TOL_SCALE
    P = _metric(problem, q, k)

    def retract(w):
        if not ball:
            return _retract_sphere(w, q, k)
        masses = np.atleast_1d(geo.lp_mass(w, q))
        if not np.any(masses > k):
            return w
        factors = [
            k ** (1.0 / q) / float(m) ** (1.0 / q) if m > k else 1.0
            for m in masses
        ]
        return geo.scale(w, factors)

    u = retract(geo.stack(starts))
    Fs, grad = prob.energy_and_grad(u, problem, q)
    runs = [_Start(u[i], prob._finite(F), grad.coeffs[i]) for i, F in enumerate(Fs)]
    active = list(runs)

    it = 0
    while active:
        it += 1
        u = geo.stack([run.u for run in active])
        G = np.stack([run.grad for run in active])
        if not ball:
            boundary = [True] * len(active)
        else:
            masses = np.atleast_1d(geo.lp_mass(u, q))
            boundary = [m >= k * (1.0 - 1e-12) for m in masses]
        if any(boundary):
            Psi = prob.constraint_direction(u, q).coeffs
            PG, PPsi = P * G, P * Psi

        stepping, rows, D = [], [], []
        for row, run in enumerate(active):
            grad = G[row]
            if boundary[row]:
                psi = Psi[row]
                psi_sq = float(np.vdot(psi, psi).real)
                lam = float(np.vdot(grad, psi).real) / (2.0 * psi_sq)
                res = grad + (-2.0 * lam) * psi
                residual = math.sqrt(max(float(np.sum(np.abs(res) ** 2)), 0.0))
                beta = float(
                    np.vdot(psi, PG[row]).real
                    / max(np.vdot(psi, PPsi[row]).real, _EPS)
                )
                d_coeffs = -P * (grad - beta * psi)
            else:
                lam = 0.0
                residual = math.sqrt(max(float(np.sum(np.abs(grad) ** 2)), 0.0))
                d_coeffs = -P * grad
            if run.F <= run.best[0]:
                run.best = (run.F, run.u, lam, residual)
            if residual <= tol * (1.0 + abs(run.F)):
                run.result = (run.u, run.F, lam, residual, it, True)
                continue

            d = np.where(g.band_mask, d_coeffs, 0.0 + 0.0j)
            d_sq = float(np.vdot(d, d).real)
            if d_sq <= 0.0:
                run.finish(it, tol)
                continue

            # BB step from the previous accepted move, safeguarded
            if run.prev_coeffs is not None:
                s = run.u.coeffs - run.prev_coeffs
                y = (-d_coeffs) - run.prev_pg
                sy = float(np.vdot(s, y).real)
                if it % 2 == 0:
                    ss = float(np.vdot(s, s).real)
                    tau_bb = ss / sy if sy > 0 else run.tau * 2.0
                else:
                    yy = float(np.vdot(y, y).real)
                    tau_bb = sy / yy if sy > 0 and yy > 0 else run.tau * 2.0
                run.tau = min(max(tau_bb, 1e-10), 1e12)
            run.prev_coeffs = run.u.coeffs
            run.prev_pg = -d_coeffs
            # nonmonotone line search against the last 12 accepted energies
            stepping.append((run, d_sq, max(run.hist[-12:])))
            rows.append(row)
            D.append(d)

        if stepping:
            _line_search(
                problem, q, retract, u[rows], SpectralField(g, np.stack(D)), stepping, it, tol
            )
        for run in active:
            if run.result is None and it >= MAX_ITER:
                run.finish(it, tol)
        active = [run for run in active if run.result is None]

    return [run.result for run in runs]


# ----------------------------------------------------------------------
# multistart seeds


def default_seeds(problem: ProblemData, q: float, k: float, seed: int):
    """Deterministic multistart battery for the sphere of mass k.

    Constant, a smooth bump centered in the positivity set of f, the
    lowest nonconstant mode, and three random smooth fields drawn from
    ``seed``; every seed is retracted onto the sphere.  Negated seeds
    are left out: F_q is even and negation is exact in floating point,
    so a start -s runs to exactly -u with the same energy, multiplier,
    residual and iteration count as s, and s, the earlier seed, wins the
    tie.
    """
    g = problem.geometry
    seeds = [("const", g.constant(1.0))]
    idx = np.unravel_index(int(np.argmax(problem.f.samples)), g.shape)
    center = [i / g.grid_size for i in idx]
    seeds.append(("bump+", g.bump(center, width=0.08)))
    seeds.append(("mode+", g.mode((1,) * g.d_eff)))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 101]))
    for i in range(3):
        seeds.append((f"rand{i}", g.random_smooth(rng, decay=2.5)))
    return [(tag, _retract_sphere(s, q, k)) for tag, s in seeds]


def _multistart(problem, q, k, ball, tagged) -> SphereResult:
    """Run tagged starts (tag, field) as one stack; the winner's result.

    The winner is the earliest start whose energy ties the lowest:
    energies within 1e-12 (1 + |F_min|) of it count as tied, so a
    rounding-level change in the numerics cannot flip the winning seed.
    """
    results = _bb_minimize(problem, q, [s for _, s in tagged], k, ball)
    F_min = min(F for _, F, *_ in results)
    tol = 1e-12 * (1.0 + abs(F_min))
    tag, r = next((tag, r) for (tag, _), r in zip(tagged, results) if r[1] <= F_min + tol)
    return SphereResult(*r, tag)


# ----------------------------------------------------------------------
# public solvers


def minimize_on_sphere(
    problem: ProblemData,
    q: float,
    k: float,
    seed: int,
    init: SpectralField | None = None,
) -> SphereResult:
    """Minimize F_q over the sphere |u|_q^q = k.

    Runs the warm start (if given) and the battery of ``default_seeds``
    as one stack; ``_multistart`` chooses the winner, the warm start
    first among ties.  The output always satisfies the constraint
    exactly by retraction.
    """
    if k <= 0.0:
        raise ValueError(f"sphere mass k must be positive, got {k}")
    problem.exponents(q)

    tagged = [("warm", init)] if init is not None else []
    tagged += default_seeds(problem, q, k, seed)
    return _multistart(problem, q, k, False, tagged)


def minimize_on_ball(
    problem: ProblemData,
    q: float,
    cap: float,
    seed: int,
) -> SphereResult:
    """Minimize F_q over the ball |u|_q^q <= cap (inequality retraction).

    Starts are the best constant, then the battery, run as one stack;
    the winner is chosen as in ``minimize_on_sphere``.
    """
    if cap <= 0.0:
        raise ValueError(f"ball cap must be positive, got {cap}")
    problem.exponents(q)

    # constant branch F(c) = c^2 int h - |c|^q int f seeds the h-dominated well
    g = problem.geometry
    cs = np.linspace(-(cap ** (1.0 / q)), cap ** (1.0 / q), 101)
    cs = cs[np.abs(cs) > 1e-9]
    vals = cs**2 * problem.int_h - np.abs(cs) ** q * problem.int_f
    c_best = float(cs[int(np.argmin(vals))])

    tagged = [("const-scan", g.constant(c_best))] + default_seeds(problem, q, 0.05 * cap, seed)
    return _multistart(problem, q, cap, True, tagged)


def make_report(
    problem: ProblemData,
    q: float,
    v: SpectralField,
    converged: bool,
    flags: dict,
) -> CriticalPointReport:
    """Assemble the identity checks for a free critical-point candidate v (multiplier 0)."""
    F = prob.eval_F(v, problem, q)
    fw = prob.f_weighted_mass(v, problem, q)
    gap = abs(F - (0.5 * q - 1.0) * fw) / (1.0 + abs(F))
    u_eq = prob.variational_to_equation(v, q)
    grad = prob.grad_F(v, problem, q)
    return CriticalPointReport(
        q=q,
        field=u_eq,
        variational=v,
        energy=F,
        mass=geo.lp_mass(v, q),
        f_weight=fw,
        identity_gap_rel=gap,
        residual_equation=prob.el_residual(u_eq, problem, q, 0.0, equation_normalized=True),
        residual_variational=prob.el_residual(v, problem, q, 0.0),
        grad_norm=geo.l2_norm(grad),
        h2_norm=geo.h2_norm(u_eq),
        q_norm=geo.lp_norm(u_eq, q),
        converged=converged,
        flags=dict(flags),
    )


def first_solution(
    problem: ProblemData,
    q: float,
    cap: float,
    seed: int,
) -> CriticalPointReport:
    """Report of the raw minimizer of F_q over the ball |u|_q^q <= l_q.

    ``cap`` is l_q, the lower edge of the coercivity window
    (``HypothesisReport.k_low`` at the certificate's exponent,
    ``certifier.window_edge`` at others); whether the hypotheses hold is
    the caller's decision.  Nothing is accepted here: the minimizer is a
    seed for ``mountainpass.polish_minimizer``, which decides whether it
    is an interior, negative-energy, index-0 critical point.  The flags
    carry the ``ball_cap`` and the winning start as ``seed``.
    """
    res = minimize_on_ball(problem, q, cap, seed)
    return make_report(problem, q, res.v, res.converged, {"ball_cap": cap, "seed": res.seed_tag})


# ----------------------------------------------------------------------
# the mu-curve tracer


def _curve_point(problem, q, k, warm, seed):
    """Best sphere minimization at one mass, warm start plus battery."""
    init = _retract_sphere(warm, q, k) if warm is not None else None
    return minimize_on_sphere(problem, q, k, seed, init=init)


def trace_mu_curve(
    problem: ProblemData,
    q: float,
    k_min: float,
    k_max: float,
    n_points: int,
    seed: int,
) -> MuCurve:
    """Sample k -> mu_k over a geometric grid with one warm-started sweep.

    One upward sweep in k solves every point once, warm-started from the
    previous point's minimizer, with the multistart battery at every
    point.  Non-converged points are flagged and skipped by the
    annotation pass, never fatal.  Annotations:

    - ``k_neg_min`` / ``mu_neg_min``: the interior negative minimum
      (argmin over the leading negative segment),
    - ``l1`` / ``l2``: zero crossings refined by Newton in k
      (``_refine_zero``),
    - ``l_o`` / ``mu_lo``: the in-between maximum.

    ``annotate_certified_window`` adds a certificate's window to them
    afterwards, so the sweep need not wait for the certificate.  The
    sphere minimizer at ``k_neg_min`` is kept on ``neg_minimizer``, and
    those at l1 and l2 (the last solves of the refinement) on
    ``zero_minimizers``.
    """
    if not (0.0 < k_min < k_max):
        raise ValueError("need 0 < k_min < k_max")
    ks = np.geomspace(k_min, k_max, n_points)
    results: list[SphereResult] = []
    warm = None
    for k in ks:
        results.append(_curve_point(problem, q, k, warm, seed))
        warm = results[-1].v

    curve = MuCurve(
        q=q,
        ks=ks,
        mus=np.array([r.mu for r in results]),
        lagranges=np.array([r.lagrange for r in results]),
        residuals=np.array([r.residual for r in results]),
        iterations=np.array([r.iterations for r in results]),
        flags=["ok" if r.converged else "nonconverged" for r in results],
        minimizers=[r.v for r in results],
    )
    _annotate(curve, problem, q, seed)
    return curve


def _hermite_root(k0, mu0, slope0, k1, mu1, slope1):
    """First root in (k0, k1) of the cubic Hermite interpolant of (mu, mu').

    Without one, the geometric midpoint.
    """
    h = k1 - k0
    d0, d1 = h * slope0, h * slope1
    # the interpolant in t = (k - k0) / h, highest power first
    coeffs = (2.0 * mu0 + d0 - 2.0 * mu1 + d1, -3.0 * mu0 - 2.0 * d0 + 3.0 * mu1 - d1, d0, mu0)
    ts = sorted(r.real for r in np.roots(coeffs) if r.imag == 0.0 and 0.0 < r.real < 1.0)
    return float(k0 + h * ts[0]) if ts else math.sqrt(k0 * k1)


def _refine_zero(problem, q, curve, i, seed):
    """Newton in k for the sign change of mu(k) between grid points i - 1 and i.

    At a sphere minimizer mu'(k) = 2 lambda_k / q (envelope theorem;
    lambda_k is the ``lagrange`` column).  The first guess is the root
    of the cubic Hermite interpolant of (mu, mu') at the two grid
    points.  Every step is a ``_curve_point`` solve (warm start from the
    previous one, plus the battery) and keeps a bracket of the sign
    change.  A Newton step that leaves the bracket, or that is longer
    than half the step before it, becomes a bisection step (the
    geometric midpoint of the bracket), as in ``rtsafe`` (Numerical
    Recipes).  Stops at
    |mu| <= 1e-12 (1 + |k mu'|), at a bracket of relative width 1e-4, or
    at a solve that missed its gradient tolerance: near a zero that
    tolerance, ``TOL_SCALE`` (1 + |mu|), is nearly absolute, large-k
    solves cannot reach it and run to ``MAX_ITER``, and so would the
    next one.  Returns (k, SphereResult at k) of the last solve.
    """
    ks, mus, slopes = curve.ks, curve.mus, 2.0 * curve.lagranges / q
    lo, hi = float(ks[i - 1]), float(ks[i])
    sign_lo = mus[i - 1] > 0
    warm = curve.minimizers[i - 1]
    k = _hermite_root(lo, mus[i - 1], slopes[i - 1], hi, mus[i], slopes[i])
    last_step = hi - lo
    while True:
        res = _curve_point(problem, q, k, warm, seed)
        warm = res.v
        slope = 2.0 * res.lagrange / q
        if (res.mu > 0) == sign_lo:
            lo = k
        else:
            hi = k
        if (
            abs(res.mu) <= 1e-12 * (1.0 + abs(k * slope))
            or (hi - lo) / hi <= 1e-4
            or not res.converged
        ):
            return k, res
        step = -res.mu / slope if slope else math.inf
        if lo < k + step < hi and abs(step) <= 0.5 * abs(last_step):
            k_next = k + step
        else:
            k_next = math.sqrt(lo * hi)
        k, last_step = k_next, k_next - k


def _annotate(curve: MuCurve, problem, q, seed):
    ks, mus = curve.ks, curve.mus
    ok = curve.ok()
    ann: dict = {}
    pos = mus > 0.0

    # leading negative run / positive hump / trailing negative run
    first_pos = int(np.argmax(pos)) if pos.any() else None
    if first_pos is not None and first_pos > 0:
        lead = slice(0, first_pos)
        i_min = int(np.argmin(np.where(ok[lead], mus[lead], np.inf)))
        ann["k_neg_min"] = float(ks[i_min])
        ann["mu_neg_min"] = float(mus[i_min])
        curve.neg_minimizer = curve.minimizers[i_min]
        # zero crossing l1 between the leading run and the hump
        l1, end1 = _refine_zero(problem, q, curve, first_pos, seed)
        ann["l1"] = l1
        ann["mu_at_l1"] = end1.mu
        after = np.nonzero(~pos[first_pos:])[0]
        if after.size:
            j = first_pos + int(after[0])
            l2, end2 = _refine_zero(problem, q, curve, j, seed)
            ann["l2"] = l2
            ann["mu_at_l2"] = end2.mu
            curve.zero_minimizers = [end1, end2]
            hump = slice(first_pos, j)
            i_max = first_pos + int(np.argmax(mus[hump]))
            ann["l_o"] = float(ks[i_max])
            ann["mu_lo"] = float(mus[i_max])
    ann["shape"] = (
        "neg-min/hump/neg-tail"
        if {"k_neg_min", "l1", "l2"} <= ann.keys()
        else "incomplete"
    )
    curve.annotations = ann


def annotate_certified_window(curve: MuCurve, certificate) -> None:
    """Add a certificate's coercivity window to the curve's annotations.

    ``certified_window`` is [k_low, k_high_certified]; when it is
    nonempty and holds converged samples, ``certified_bound_ok`` says
    whether mu_k >= mu_floor/2 * k^(2/q) there (with the least margin as
    ``certified_bound_margin``), else it is None.
    """
    ks, mus, ann = curve.ks, curve.mus, curve.annotations
    lo, hi = certificate.k_low, certificate.k_high_certified
    ann["certified_window"] = [lo, hi]
    inside = (ks >= lo) & (ks <= hi) & curve.ok()
    if hi > lo and inside.any():
        bound = 0.5 * certificate.mu_floor * ks[inside] ** (2.0 / curve.q)
        ann["certified_bound_ok"] = bool(np.all(mus[inside] >= bound - 1e-8))
        ann["certified_bound_margin"] = float(np.min(mus[inside] - bound))
    else:
        ann["certified_bound_ok"] = None
