"""Second solution by path deformation between the energy-curve zeros.

The two zeros l1 < l2 of the constrained-infimum curve bound a positive
hump; any continuous path joining minimizers at the two zero masses must
climb over it, so the inf-max level

    nu_q = inf over paths of max_t F_q(gamma(t))

is positive and is attained at a critical point.  The discrete
algorithm deforms a free (unconstrained) piecewise path: the maximal
node and its neighbors move along preconditioned steepest descent and a
step is accepted only if the path maximum strictly drops.  The maximum
is measured over the nodes and fixed interior points of every segment,
and dominant interior points become nodes.  Every ``POLL`` iterations
the maximal node is polished into a genuine critical point by damped
Newton-Krylov steps on the stationarity residual: LSQR on the
matrix-free Hessian action, preconditioned by the spectral descent
metric of the path deformation.  The path stops at the first polish
that passes the one acceptance rule (``_saddle_failure``): the polish
converged, its energy is at least the hump maximum mu_lo (every path
between the zero masses crosses each sphere between them) and its Morse
index is 1, that of a nondegenerate mountain-pass point (Hofer, Proc.
AMS 91, 1984).  The report describes the accepted saddle v, ``nu`` is
F(v), and the stop-time path maximum is kept beside it.
``polish_minimizer`` alone accepts the negative-energy solution, with
the same two tools: its polish converged, its mass is interior to the
ball, its energy is negative and its Morse index is 0.  ``solve-sub``
seeds it with the curve's minimizer at ``k_neg_min``, the continuation
with the ball minimizer at q0 and then each previous step.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from . import problem as prob
from .errors import Collapse, NonConvergence, ShapeNotFound
from .geometry import SpectralField
from .minimizer import (
    CriticalPointReport,
    MuCurve,
    make_report,
    _metric,
    _retract_sphere,
)
from .problem import ProblemData

_CHUNK = 128  # fields per stacked evaluation: bounds a sweep's memory
_INDEX_CHUNK = 32  # band fields per stacked Hessian action: bounds the Morse index's memory


def _chunks(n, size):
    """Slices of range(n) of at most ``size`` rows each."""
    return [slice(lo, min(lo + size, n)) for lo in range(0, n, size)]


# ----------------------------------------------------------------------
# Newton polish of a stationary point


def _hessian_apply(problem, q, u, v):
    """Action of half the Hessian of F_q at u on v."""
    w = 0.5 * q * (q - 1.0) * problem.f_fine * np.abs(u.fine_values) ** (q - 2.0)
    return problem.geometry.field_from_coeffs(prob.apply_operator(problem, v, w))


def _band_hessian(problem, q, u):
    """Half the Hessian of F_q at u as a map of band coordinates (a stack row by row)."""
    g = problem.geometry
    return lambda x: g.to_band(
        _hessian_apply(problem, q, u, SpectralField(g, g.from_band(x))).coeffs
    )


def morse_index(problem: ProblemData, q: float, u: SpectralField) -> int:
    """Number of negative eigenvalues of half the Hessian of F_q at u on the band's real fields.

    The Hessian is assembled densely as ``to_band(_hessian_apply(from_band(I)))``,
    in stacks of at most ``_INDEX_CHUNK`` rows, and its eigenvalues come
    from ``numpy.linalg.eigvalsh``.  They round differently from
    ``scipy.linalg.eigh``'s, but the count is the same at every accepted
    solution of the shipped workloads (tests/test_mountainpass.py checks it),
    and numpy spares the command its scipy import.  The band restriction
    matters: on grid samples the Nyquist direction is an exact null vector
    of the Hessian action, and a count over samples reads its rounding-level
    eigenvalue as a sign.
    """
    H, eye = _band_hessian(problem, q, u), np.eye(problem.geometry.band_size)
    A = np.concatenate([H(eye[rows]) for rows in _chunks(len(eye), _INDEX_CHUNK)])
    return int(np.count_nonzero(np.linalg.eigvalsh(0.5 * (A + A.T)) < 0.0))


def _sym_ortho(a, b):
    """Givens rotation (c, s, r) with c a + s b = r (Choi 2006), as scipy's ``lsqr`` takes it."""
    if b == 0:
        return np.sign(a), 0, abs(a)
    elif a == 0:
        return 0, np.sign(b), abs(b)
    elif abs(b) > abs(a):
        tau = a / b
        s = np.sign(b) / math.sqrt(1 + tau * tau)
        c = s * tau
        r = b / s
    else:
        tau = b / a
        c = np.sign(a) / math.sqrt(1 + tau * tau)
        s = c * tau
        r = a / c
    return c, s, r


def _lsqr(matvec, rmatvec, b, damp, atol, btol, iter_lim):
    """Solution x of min |A x - b|^2 + damp^2 |x|^2 by LSQR (Paige & Saunders, ACM TOMS 8, 1982).

    Step for step the loop of scipy's ``scipy.sparse.linalg.lsqr`` from
    x0 = 0 with its default conlim 1e8, in the same numpy and Python
    float operations, so x is scipy's to the bit (tests/test_mountainpass.py
    checks it) without importing scipy.  A is square, as the polish's
    is: ``matvec`` is x -> A x and ``rmatvec`` y -> A^T y on vectors of
    len(b).  The loop stops as scipy's does: on either backward-error test
    (``atol``, ``btol``), on the condition estimate passing conlim, at
    machine precision or after ``iter_lim`` steps.  Only x is returned;
    the outputs that decide nothing (r1norm, r2norm, the variance
    estimate) are not computed.
    """
    n = len(b)
    eps = np.finfo(np.float64).eps
    ctol = 1 / 1e8
    anorm = 0
    acond = 0
    dampsq = damp**2
    ddnorm = 0
    res2 = 0
    xnorm = 0
    xxnorm = 0
    z = 0
    cs2 = -1
    sn2 = 0

    u = b
    bnorm = np.linalg.norm(b)
    x = np.zeros(n)
    beta = bnorm.copy()
    if beta > 0:
        u = (1 / beta) * u
        v = rmatvec(u)
        alfa = np.linalg.norm(v)
    else:
        v = x.copy()
        alfa = 0
    if alfa > 0:
        v = (1 / alfa) * v
    w = v.copy()
    rhobar = alfa
    phibar = beta
    if alfa * beta == 0:
        return x

    itn = 0
    while itn < iter_lim:
        itn = itn + 1
        # bidiagonalization: the next beta, u, alfa, v
        u = matvec(v) - alfa * u
        beta = np.linalg.norm(u)
        if beta > 0:
            u = (1 / beta) * u
            anorm = math.sqrt(anorm**2 + alfa**2 + beta**2 + dampsq)
            v = rmatvec(u) - beta * v
            alfa = np.linalg.norm(v)
            if alfa > 0:
                v = (1 / alfa) * v
        # eliminate the damping, then the subdiagonal beta
        if damp > 0:
            rhobar1 = math.sqrt(rhobar**2 + dampsq)
            cs1 = rhobar / rhobar1
            sn1 = damp / rhobar1
            psi = sn1 * phibar
            phibar = cs1 * phibar
        else:
            rhobar1 = rhobar
            psi = 0.0
        cs, sn, rho = _sym_ortho(rhobar1, beta)
        theta = sn * alfa
        rhobar = -cs * alfa
        phi = cs * phibar
        phibar = sn * phibar
        tau = sn * phi
        # update x and w
        t1 = phi / rho
        t2 = -theta / rho
        dk = (1 / rho) * w
        x = x + t1 * w
        w = v + t2 * w
        ddnorm = ddnorm + np.linalg.norm(dk) ** 2
        # estimate |x| by a second rotation
        delta = sn2 * rho
        gambar = -cs2 * rho
        rhs = phi - delta * z
        zbar = rhs / gambar
        xnorm = math.sqrt(xxnorm + zbar**2)
        gamma = math.sqrt(gambar**2 + theta**2)
        cs2 = gambar / gamma
        sn2 = theta / gamma
        z = rhs / gamma
        xxnorm = xxnorm + z**2
        # the stopping tests
        acond = anorm * math.sqrt(ddnorm)
        res1 = phibar**2
        res2 = res2 + psi**2
        rnorm = math.sqrt(res1 + res2)
        arnorm = alfa * abs(tau)
        test1 = rnorm / bnorm
        test2 = arnorm / (anorm * rnorm + eps)
        test3 = 1 / (acond + eps)
        t1 = test1 / (1 + anorm * xnorm / bnorm)
        rtol = btol + atol * anorm * xnorm / bnorm
        if (
            itn >= iter_lim
            or 1 + test3 <= 1
            or 1 + test2 <= 1
            or 1 + t1 <= 1
            or test3 <= ctol
            or test2 <= atol
            or test1 <= rtol
        ):
            break
    return x


def refine_critical_point(
    problem: ProblemData,
    q: float,
    u0: SpectralField,
) -> tuple[SpectralField, float, bool]:
    """Damped Newton-Krylov iteration on the stationarity residual of F_q.

    Converges to the critical point nearest the seed regardless of its
    Morse index, which makes it the right polish for saddle candidates.
    Each step solves min |H d + r|^2 + lm |d|^2 for the half Hessian H
    and residual r with LSQR (``_lsqr``, scipy's loop copied step for
    step) on the matrix-free Hessian action (Jacobian-free Newton-Krylov,
    Knoll & Keyes 2004).  Least squares
    stays well posed at saddles, where H is indefinite, and the damping
    never sweeps a Hessian eigenvalue through zero; translation
    quasi-symmetries leave a near-null direction that an undamped solve
    would overshoot.  The step is right-preconditioned by the descent
    metric ``_metric`` at the iterate's mass, which takes the
    |2 pi m|^4 growth out of H.  The unknowns are band coordinates
    (``TorusGeometry.from_band``), so the iterate is exactly real and
    r = to_band(grad F) / 2 drops the anti-Hermitian rounding |2 pi m|^4 amplifies.

    A step is taken only if it lowers the residual, else the damping lm
    grows 16-fold (giving up above 1e3).  Runs at most 40 Newton steps
    toward 1e-13 (1 + |F|) (roughly the rounding floor), stops early
    once a step from a residual at or below 1e-9 (1 + |F|) fails to
    halve it, and reports success at 1e-9 (1 + |F|).  Returns (field,
    residual_norm, converged).
    """
    g = problem.geometry
    n = g.band_size

    def residual(u):
        r = 0.5 * g.to_band(prob.grad_F(u, problem, q).coeffs)
        return r, float(np.linalg.norm(r))

    u = SpectralField(g, g.from_band(g.to_band(u0.coeffs)))
    r, rn = residual(u)
    scale0 = 1.0 + abs(prob.eval_F(u, problem, q))
    lm = 0.0
    for _ in range(40):
        if rn <= 1e-13 * scale0:
            break
        # diagonal in band coordinates (it depends on |m| only): apply it to the ones
        P = g.to_band(_metric(problem, q, geo.lp_mass(u, q)) * g.from_band(np.ones(n)))
        H = _band_hessian(problem, q, u)
        x = _lsqr(lambda x: H(P * x), lambda y: P * H(y), -r, math.sqrt(lm), 1e-13, 1e-13, 800)
        trial = geo.add(u, SpectralField(g, g.from_band(P * x)), 1.0)
        rt, rtn = residual(trial)
        at_floor = rn <= 1e-9 * scale0 and not rtn <= 0.5 * rn
        if rtn < rn:
            u, r, rn = trial, rt, rtn
            lm = lm / 16.0 if lm > 1e-15 else 0.0
        else:
            lm = 1e-12 if lm == 0.0 else lm * 16.0
        if at_floor or lm > 1e3:
            break
    return u, rn, rn <= 1e-9 * scale0


def polish_minimizer(
    problem: ProblemData,
    q: float,
    cap: float,
    v: SpectralField,
    tag: str,
) -> CriticalPointReport:
    """The negative-energy solution of the ball |u|_q^q <= cap, Newton-polished from v.

    ``refine_critical_point`` polishes v.  The point is accepted when
    the polish converged, its mass is interior (below cap (1 - 1e-9)),
    its energy is negative and its Morse index is 0: a nondegenerate
    interior minimizer of the ball.  Otherwise NonConvergence names the
    first failed condition, with the report as ``best``.  The report's
    flags carry the ball ``cap`` and the seed ``tag``: "curve" for the
    mu-curve's sphere minimizer at ``k_neg_min`` (``solve-sub``), the
    winning ball start at the continuation's q0, "newton" after it.
    """
    u, _, converged = refine_critical_point(problem, q, v)
    rep = make_report(problem, q, u, converged, {"ball_cap": cap, "seed": tag})
    if not converged:
        failure = f"minimizer polish did not converge (equation residual {rep.residual_equation})"
    elif not rep.mass < cap * (1.0 - 1e-9):
        failure = f"minimizer mass {rep.mass} is not interior to the ball of mass {cap}"
    elif not rep.energy < 0.0:
        failure = f"minimizer energy {rep.energy} is not negative"
    elif (index := morse_index(problem, q, u)) != 0:
        failure = f"minimizer has Morse index {index}, not 0"
    else:
        return rep
    raise NonConvergence(failure, best=rep)


# ----------------------------------------------------------------------
# the deformation algorithm


@dataclass
class MountainPassResult:
    """The level ``nu``, the polished point's ``report``, the path ``nodes`` and ``history``.

    ``nu`` is the energy F(v) of the accepted saddle (of a
    ``NonConvergence``'s best: the last path maximum).  ``converged``
    says whether the reported polish converged.  Accepted steps never
    raise the path level; it rises only in rows whose node insertions
    sharpen the estimate of the polyline maximum.
    """

    nu: float
    report: CriticalPointReport
    nodes: list
    history: list                 # (iteration, level, nodes_inserted) records
    profile_rows: list            # (iteration, node, energy) records
    iterations: int
    converged: bool

    @property
    def path_max(self) -> float:
        """The sampled path maximum when the deformation stopped.

        The stopped path's true maximum bounds the inf-max level from
        above; this samples it at the nodes and three interior points
        per segment, so it can fall short of it.
        """
        return self.history[-1][1]


def _init_path(problem, q, u1, u2, n_nodes, interior_seeds):
    """Initial path with monotone masses and sign-coherent nodes.

    The energy is even, so every seed is defined only up to sign;
    anti-aligned neighbors would put a near-zero-mass field inside one
    segment, which hides the hump crossing from interior sampling.
    Each node is therefore flipped to align with its predecessor.
    """
    k1 = geo.lp_mass(u1, q)
    k2 = geo.lp_mass(u2, q)
    masses = np.geomspace(k1, k2, n_nodes)
    nodes = [u1]
    for j in range(1, n_nodes - 1):
        t = j / (n_nodes - 1)
        if interior_seeds:
            # nearest curve minimizer in log-mass, rescaled to the target
            logm = math.log(masses[j])
            w = min(interior_seeds, key=lambda s: abs(math.log(s[0]) - logm))[1]
        else:
            w = geo.add(geo.scale(u1, 1.0 - t), u2, t)
        if geo.inner(w, nodes[-1]) < 0.0:
            w = geo.scale(w, -1.0)
        nodes.append(_retract_sphere(w, q, masses[j]))
    nodes.append(u2)
    return nodes


def align_sign(u: SpectralField, reference: SpectralField) -> SpectralField:
    """Pick the sign representative of u aligned with the reference.

    The energy is even, so u and -u are interchangeable; mountain-pass
    endpoints should be passed through this so the initial path does not
    straddle the origin.
    """
    return geo.scale(u, -1.0) if geo.inner(u, reference) < 0.0 else u


class _Path:
    """Polyline of fields whose maximum is sampled honestly.

    Node hopping can tunnel a node-sampled maximum below the hump (two
    adjacent nodes straddle it while no node sits on it), so the level
    is tracked over nodes *and* segment interior samples, and an
    interior sample that dominates every node is promoted to a node.

    Each segment's samples, at its interior parameters ``SUB``, are
    cached.  A segment is evaluated again only when one of its ends
    moves or a node splits it.

    A sweep evaluates every segment that needs samples at once, in
    stacks of at most ``_CHUNK`` fields.  Each sample gets the
    arithmetic ``_point`` gives it, so the energies are those of the
    one-field-at-a-time evaluation, bit for bit.  Nodes carry their
    refined-grid values (samples interpolate them, as ``_point`` does).
    """

    SUB = (0.25, 0.5, 0.75)

    def __init__(self, problem, q, nodes):
        self.problem = problem
        self.q = q
        self.nodes = list(nodes)
        # lp_mass caches each node's refined values; the stacks carry them
        self.m_nodes = [geo.lp_mass(u, q) for u in self.nodes]
        self.e_nodes = []
        for rows in _chunks(len(self.nodes), _CHUNK):
            self.e_nodes += prob.eval_F(geo.stack(self.nodes[rows]), problem, q)
        self._seg: list = [None] * (len(self.nodes) - 1)

    def _point(self, j, t):
        return geo.add(geo.scale(self.nodes[j], 1.0 - t), self.nodes[j + 1], t)

    def _sample_energies(self, rows):
        """eval_F at (1 - t) a + t b for (segment, t) rows, one stack per chunk."""
        out = []
        for chunk in _chunks(len(rows), _CHUNK):
            part = rows[chunk]
            a = geo.stack([self.nodes[s] for s, _ in part])
            b = geo.stack([self.nodes[s + 1] for s, _ in part])
            t = np.array([t for _, t in part])
            points = geo.add(geo.scale(a, 1.0 - t), b, t)
            out += prob.eval_F(points, self.problem, self.q)
        return out

    def _samples(self):
        """(t, energy) interior samples of every segment at ``SUB``.

        Only the segments without cached samples are evaluated.
        """
        todo = [s for s, cached in enumerate(self._seg) if cached is None]
        rows = [(s, t) for s in todo for t in self.SUB]
        energies = self._sample_energies(rows)
        for s in todo:
            self._seg[s] = []
        for (s, t), e in zip(rows, energies):
            self._seg[s].append((t, e))
        return self._seg

    def with_nodes(self, new):
        """A copy of the path with nodes {j: field} replaced, evaluated as one stack.

        The copy keeps this path's samples of every segment whose ends
        did not move; this path is left as it was.
        """
        trial = copy.copy(self)
        trial.nodes, trial.e_nodes = list(self.nodes), list(self.e_nodes)
        trial.m_nodes, trial._seg = list(self.m_nodes), list(self._seg)
        js = list(new)
        fields = geo.stack([new[j] for j in js])
        energies = prob.eval_F(fields, self.problem, self.q)
        masses = geo.lp_mass(fields, self.q)
        for i, j in enumerate(js):
            # the row carries the refined values the energy transformed
            trial.nodes[j] = fields[i]
            trial.e_nodes[j] = energies[i]
            trial.m_nodes[j] = float(masses[i])
            for s in (j - 1, j):
                if 0 <= s < len(trial._seg):
                    trial._seg[s] = None
        return trial

    def honest_max(self):
        """(value, j, t) of the path maximum.

        At a node, j is its index and t is None; at an interior sample,
        j is the segment's index and t its parameter on that segment.
        """
        jn = int(np.argmax(self.e_nodes))
        best = (self.e_nodes[jn], jn, None)
        for s, samples in enumerate(self._samples()):
            for t, e in samples:
                if e > best[0]:
                    best = (e, s, t)
        return best

    def promote_interior_maxima(self, limit):
        """Insert interior samples that dominate every node (up to limit)."""
        inserted = 0
        while inserted < limit:
            val, j, t = self.honest_max()
            if t is None:
                return inserted
            w = self._point(j, t)
            self.nodes.insert(j + 1, w)
            self.e_nodes.insert(j + 1, val)
            self.m_nodes.insert(j + 1, geo.lp_mass(w, self.q))
            self._seg[j] = None
            self._seg.insert(j + 1, None)
            inserted += 1
        return inserted


MAX_PATH_ITER = 3000    # deformation steps before NonConvergence
MAX_PATH_NODES = 246    # nodes past which interior maxima are no longer promoted
POLL = 10               # deformation steps between polishes of the path maximum


def _saddle_failure(problem, q, report, floor, floor_name):
    """Why a polished point is not the mountain-pass saddle, or None if it is.

    The one acceptance rule: the polish converged, the energy is at least
    ``floor`` (within 1e-8 (1 + |floor|)) and the Morse index is 1, that
    of a nondegenerate mountain-pass point (Hofer, Proc. AMS 91, 1984).
    """
    if not report.converged:
        return f"saddle polish did not converge (equation residual {report.residual_equation})"
    if report.energy < floor - 1e-8 * (1.0 + abs(floor)):
        return f"saddle energy {report.energy} lies below {floor_name} {floor}"
    if (index := morse_index(problem, q, report.variational)) != 1:
        return f"saddle has Morse index {index}, not 1"
    return None


def mountain_pass(
    problem: ProblemData,
    q: float,
    u1: SpectralField,
    u2: SpectralField,
    curve: MuCurve | None = None,
) -> MountainPassResult:
    """Deform a discrete path of 41 nodes from u1 to u2 until a polish of its maximum is a saddle.

    With a traced ``curve`` (u1 and u2 its sphere minimizers at the
    zeros l1 and l2), the initial path threads through the curve's
    minimizers between them, and the saddle's floor is the hump maximum
    ``mu_lo``: every path from l1 to l2 crosses each sphere between
    them.  Without one the initial path is the straight segment and the
    floor is the endpoint level.  Callers should pass sign-aligned
    endpoint representatives (see ``align_sign``); the endpoints
    themselves are never modified.

    Each iteration promotes up to 8 dominant interior samples to nodes,
    but never past ``MAX_PATH_NODES`` nodes; beyond the cap interior
    maxima still count in the level, they are only not promoted.  Every
    ``POLL`` iterations ``refine_critical_point`` polishes the path
    maximum (a node, or past the node cap possibly an interior sample),
    and the deformation stops at the first polish that passes
    ``_saddle_failure``'s rule.  Otherwise
    the five nodes around the maximum take a preconditioned descent
    step, halved up to 25 times until the level drops.
    Raises Collapse when the path maximum falls to within 1e-8 of the
    endpoint level (no hump), NonConvergence naming the last rejected
    condition when ``MAX_PATH_ITER`` iterations accept no polish.  The
    report describes the accepted saddle v and ``nu`` is F(v);
    ``path_max`` is the sampled path maximum at the stop, an estimate of
    the inf-max level from above.  ``profile_rows`` holds every node
    energy of every iteration.
    """
    g = problem.geometry
    problem.exponents(q)

    n_nodes = 41
    collapse_tol = 1e-8
    seeds = None
    if curve is not None:
        ann = curve.annotations
        l1, l2 = ann["l1"], ann["l2"]
        seeds = [(float(k), v) for k, v in zip(curve.ks, curve.minimizers) if l1 <= k <= l2]
    path = _Path(problem, q, _init_path(problem, q, u1, u2, n_nodes, seeds))
    f_ends = max(path.e_nodes[0], path.e_nodes[-1])
    floor = (f_ends, "the endpoint level") if curve is None else (ann["mu_lo"], "the hump maximum")
    profile_rows = []
    history = []

    tau = 1e-2
    report, failure = None, "the path maximum was never polished"
    it = 0
    for it in range(1, MAX_PATH_ITER + 1):
        inserted = path.promote_interior_maxima(min(8, MAX_PATH_NODES - len(path.nodes)))
        nu, jmax, t_max = path.honest_max()
        history.append((it, nu, inserted))
        profile_rows.extend(
            (it, j, float(path.e_nodes[j])) for j in range(len(path.nodes))
        )
        if nu <= f_ends + collapse_tol:
            raise Collapse(f"path maximum {nu} fell to the endpoint level {f_ends}")
        if it % POLL == 0:
            top = path.nodes[jmax] if t_max is None else path._point(jmax, t_max)
            v, res_polish, polished = refine_critical_point(problem, q, top)
            flags = {"polish_residual": res_polish, "polished": polished}
            report = make_report(problem, q, v, polished, flags)
            failure = _saddle_failure(problem, q, report, *floor)
            if failure is None:
                return MountainPassResult(
                    report.energy, report, path.nodes, history, profile_rows, it, True
                )

        # a path has at least 41 nodes, so the window is never empty
        n = len(path.nodes)
        window = [
            (j, w)
            for j, w in zip(range(jmax - 2, jmax + 3), (0.25, 0.5, 1.0, 0.5, 0.25))
            if 0 < j < n - 1
        ]
        grads = prob.grad_F(geo.stack([path.nodes[j] for j, _ in window]), problem, q)
        dirs = [
            g.field_from_coeffs(-_metric(problem, q, path.m_nodes[j]) * grads[i].coeffs)
            for i, (j, _) in enumerate(window)
        ]

        t = tau
        for _ in range(25):
            trial = path.with_nodes(
                {j: geo.add(path.nodes[j], d, t * wgt) for (j, wgt), d in zip(window, dirs)}
            )
            trial_nu, _, _ = trial.honest_max()
            if trial_nu < nu - 1e-16 * (1.0 + abs(nu)):
                path = trial
                tau = min(t * 1.5, 1e6)
                break
            t *= 0.5

    if report is None:
        report = make_report(problem, q, path.nodes[jmax], False, {"polished": False})
    best = MountainPassResult(nu, report, path.nodes, history, profile_rows, it, report.converged)
    raise NonConvergence(f"no saddle accepted in {it} iterations: {failure}", best=best)


# ----------------------------------------------------------------------
# the curve-to-saddle pipeline


def second_solution(problem: ProblemData, q: float, curve: MuCurve):
    """Mountain pass between the curve's sphere minimizers at its zeros l1, l2.

    The endpoints are the tracer's ``zero_minimizers``, its last solves
    at l1 and l2; nothing is solved on a sphere here.  ``mountain_pass``
    takes the curve, so the path threads through its minimizers in
    [l1, l2] and the saddle must reach the hump maximum ``mu_lo``.
    Returns ((l1, l2, l_o), (result at l1, sign-aligned field at l2),
    MountainPassResult).  Raises ShapeNotFound unless the tracer found
    the negative minimum / positive hump / negative tail shape.
    """
    ann = curve.annotations
    if ann.get("shape") != "neg-min/hump/neg-tail":
        raise ShapeNotFound("curve lacks the negative / positive / negative shape")
    end1, end2 = curve.zero_minimizers
    # the energy is even: use the endpoint representative aligned with u1
    u2 = align_sign(end2.v, end1.v)
    mp = mountain_pass(problem, q, end1.v, u2, curve=curve)
    return (ann["l1"], ann["l2"], ann["l_o"]), (end1, u2), mp
