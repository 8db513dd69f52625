"""Explicit constants and the hypothesis certificate.

Everything the existence theory needs as a number is computed here:

- the sharp constant K2 of the H2 -> L^N embedding (closed form in
  gamma functions),
- the discrete splitting constant C(sigma) with
  |grad u|^2 <= 2 sigma |Delta u|^2 + 2 C(sigma) |u|^2 exact on the
  frequency lattice,
- a probe-set surrogate for the embedding remainder A(eps) (a lower
  bound on the true constant, and labeled as such),
- the masked Rayleigh infimum lambda over nonnegative fields vanishing
  on the support of f^-, plus its moment-constrained relaxations
  lambda(eta, q),
- the coercivity window [k1, k2] with its floor mu such that the energy
  satisfies F_q >= mu/2 * k^(2/q) there, and the resulting admissible
  ratio threshold C.

``certify`` searches a small (eta, sigma, eps) grid for the weakest
passing configuration and emits a HypothesisReport with every constant
and margin; failures are reported as flags, never raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy.optimize import brentq

from . import geometry as geo
from . import problem as prob
from .errors import BadSigma, InfeasibleConstraint, NonPositiveEps0
from .geometry import TorusGeometry
from .minimizer import SolverOptions
from .problem import ProblemData

_EPS = np.finfo(np.float64).eps


# ----------------------------------------------------------------------
# closed-form and lattice constants


def sharp_sobolev_constant(n: int) -> float:
    """Sharp constant K2 of the second-order Sobolev embedding.

    K2^(-2) = pi^2 n (n-4) (n^2-4) Gamma(n/2)^(4/n) Gamma(n)^(-4/n),
    valid for n >= 5.
    """
    if n < 5:
        raise ValueError(f"n must be >= 5, got {n}")
    log_inv_sq = (
        2.0 * math.log(math.pi)
        + math.log(n)
        + math.log(n - 4.0)
        + math.log(n * n - 4.0)
        + (4.0 / n) * (math.lgamma(n / 2.0) - math.lgamma(n))
    )
    return math.exp(-0.5 * log_inv_sq)


def grad_interp_constant(sigma: float, geometry: TorusGeometry) -> float:
    """Smallest C with  lam <= 2 sigma lam^2 + 2 C  on the frequency lattice.

    Guarantees |grad u|^2 <= 2 sigma |Delta u|^2 + 2 C |u|^2 exactly for
    every discrete field; always <= 1/(16 sigma), the continuum value.
    """
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    lam = geometry.lam.ravel()
    return float(max(0.0, np.max(0.5 * (lam - 2.0 * sigma * lam * lam))))


def embedding_remainder(
    geometry: TorusGeometry,
    eps: float,
    n_probe: int = 1000,
    seed: int = 0,
    ascent_iter: int = 200,
) -> float:
    """Discrete surrogate for the embedding remainder A(eps).

    Smallest constant with |u|_N^2 <= K2^2 (1+eps) |Delta u|_2^2
    + A |u|_2^2 over a probe set (random band-limited fields plus all
    single modes), sharpened by gradient ascent on the ratio.  This is a
    lower bound on the true continuum constant and is labeled as such in
    every report that uses it.
    """
    N = geometry.critical_exponent
    k2_sq = sharp_sobolev_constant(geometry.n_ambient) ** 2

    def ratio_and_grad(u, want_grad=False):
        den = geo.l2_norm(u) ** 2
        un = geo.lp_norm(u, N)
        quad = geo.bilap_energy(u)
        r = (un**2 - k2_sq * (1.0 + eps) * quad) / den
        if not want_grad:
            return r, None
        # d/du |u|_N^2 = 2 |u|_N^(2-N) P(|u|^(N-2) u)
        psi = prob.constraint_direction(u, N)
        g = geo.combination(
            [psi, geo.bilaplacian(u), u],
            [
                2.0 * un ** (2.0 - N) / den,
                -2.0 * k2_sq * (1.0 + eps) / den,
                -2.0 * r / den,
            ],
        )
        return r, g

    best_r = -math.inf
    best_u = None
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    probes = [geometry.constant(1.0)]
    M = geometry.grid_size
    if geometry.d_eff == 1:
        probes += [geometry.mode((m,)) for m in range(1, M // 2)]
    else:
        probes += [
            geometry.mode((m1, m2))
            for m1 in range(0, M // 2)
            for m2 in range(0, M // 2)
            if (m1, m2) != (0, 0)
        ]
    for _ in range(n_probe):
        probes.append(geometry.random_smooth(rng, decay=2.0))
    for u in probes:
        r, _ = ratio_and_grad(u)
        if r > best_r:
            best_r, best_u = r, u

    # sharpen by scale-invariant ascent from the best probe
    u = best_u
    r, g = ratio_and_grad(u, want_grad=True)
    P = 1.0 / (1.0 + geometry.lam_sq)
    tau = 1e-2
    for _ in range(ascent_iter):
        trial = geometry.field_from_coeffs(u.coeffs + tau * P * g.coeffs)
        nrm = geo.l2_norm(trial)
        if nrm == 0.0:
            break
        trial = geo.scale(trial, 1.0 / nrm)
        r_t, g_t = ratio_and_grad(trial, want_grad=True)
        if r_t > r:
            u, r, g = trial, r_t, g_t
            tau *= 1.4
        else:
            tau *= 0.5
            if tau < 1e-14:
                break
    return float(max(r, best_r))


# ----------------------------------------------------------------------
# masked Rayleigh quotient (sample-space machinery)
#
# The admissible set of the base quotient forces u = 0 wherever f^- is
# positive (u >= 0 against int f^- u = 0), so the discrete problem lives
# on the sample vectors supported on the node mask {f^- <= tau}.  Those
# vectors are generally not band-limited; the quadratic form below is
# the full-lattice one (Nyquist retained for the bilaplacian, zeroed for
# first derivatives to keep them real).


class _MaskedForm:
    def __init__(self, problem: ProblemData, operator: str = "bilap-a"):
        g = problem.geometry
        self.g = g
        self.operator = operator
        M = g.grid_size
        m_axis = np.fft.fftfreq(M, d=1.0 / M)
        grids = np.meshgrid(*([m_axis] * g.d_eff), indexing="ij")
        lam_full = (2.0 * math.pi) ** 2 * sum(mm**2 for mm in grids)
        self.lam_sq_full = lam_full**2
        self.deriv = [1j * 2.0 * math.pi * mm for mm in grids]
        self.a_samples = problem.a.samples
        self.weight = g.weight

    def apply(self, v: np.ndarray) -> np.ndarray:
        vh = np.fft.fftn(v)
        if self.operator == "grad":
            out = np.zeros_like(v)
            for d in self.deriv:
                dv = np.fft.ifftn(d * vh).real
                out -= np.fft.ifftn(d * np.fft.fftn(dv)).real
            return out
        out = np.fft.ifftn(self.lam_sq_full * vh).real
        for d in self.deriv:
            dv = np.fft.ifftn(d * vh).real
            out += np.fft.ifftn(d * np.fft.fftn(self.a_samples * dv)).real
        return out

    def quad(self, v: np.ndarray) -> float:
        vh = np.fft.fftn(v)
        if self.operator == "grad":
            total = 0.0
            for d in self.deriv:
                dv = np.fft.ifftn(d * vh).real
                total += self.weight * float(np.sum(dv * dv))
            return total
        quad = float(np.sum(self.lam_sq_full * np.abs(vh) ** 2)) * self.weight**2
        for d in self.deriv:
            dv = np.fft.ifftn(d * vh).real
            quad -= self.weight * float(np.sum(self.a_samples * dv * dv))
        return quad


def _quotient(form: _MaskedForm, v: np.ndarray) -> float:
    return form.quad(v) / (form.g.weight * float(np.sum(v * v)))


def _ritz_step(form: _MaskedForm, basis):
    """Quotient minimizer within span(basis); returns (vector, value)."""
    g = form.g
    A_cols = [form.apply(b) for b in basis]
    k = len(basis)
    A = np.empty((k, k))
    B = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            A[i, j] = g.weight * float(np.sum(basis[i] * A_cols[j]))
            B[i, j] = g.weight * float(np.sum(basis[i] * basis[j]))
    A = 0.5 * (A + A.T)
    B = 0.5 * (B + B.T)
    from scipy.linalg import eigh as _eigh

    try:
        vals, vecs = _eigh(A, B)
    except Exception:
        return basis[0], _quotient(form, basis[0])
    c = vecs[:, 0]
    w = sum(ci * bi for ci, bi in zip(c, basis))
    return w, float(vals[0])


def _unsigned_quotient_min(
    form: _MaskedForm,
    mask: np.ndarray,
    v0: np.ndarray,
    max_iter: int,
    tol: float = 1e-13,
):
    """Locally optimal projected gradient (3-term Rayleigh-Ritz recurrence).

    Each step minimizes the quotient exactly over span{v, masked
    preconditioned residual, previous increment}; convergence matches
    conjugate-gradient behavior on the masked subspace.
    """
    P_mult = 1.0 / (1.0 + form.lam_sq_full)

    def precondition(r):
        return np.where(mask, np.fft.ifftn(P_mult * np.fft.fftn(r)).real, 0.0)

    v = np.where(mask, v0, 0.0)
    nrm = math.sqrt(float(np.sum(v * v)))
    if nrm == 0.0:
        return None, math.inf
    v /= nrm
    r_val = _quotient(form, v)
    prev = None
    for _ in range(max_iter):
        resid = np.where(mask, form.apply(v) - r_val * v, 0.0)
        w = precondition(resid)
        nw = math.sqrt(float(np.sum(w * w)))
        if nw == 0.0:
            break
        basis = [v, w / nw]
        if prev is not None:
            npv = math.sqrt(float(np.sum(prev * prev)))
            if npv > 0.0:
                basis.append(prev / npv)
        cand, new_val = _ritz_step(form, basis)
        cand = np.where(mask, cand, 0.0)
        nc = math.sqrt(float(np.sum(cand * cand)))
        if nc == 0.0:
            break
        cand /= nc
        prev = cand - v * float(np.sum(cand * v))
        improve = r_val - new_val
        v, r_val = cand, _quotient(form, cand)
        if improve <= tol * (1.0 + abs(r_val)):
            break
    return v, r_val


def _nonneg_quotient_min(
    form: _MaskedForm,
    mask: np.ndarray,
    v0: np.ndarray,
    max_iter: int,
    tol: float = 1e-13,
):
    """Clamped projected-gradient descent on the quotient (u >= 0 on the mask)."""
    g = form.g
    P_mult = 1.0 / (1.0 + form.lam_sq_full)

    def feasible(v):
        return np.maximum(np.where(mask, v, 0.0), 0.0)

    v = feasible(v0)
    nrm = math.sqrt(float(np.sum(v * v)))
    if nrm == 0.0:
        return None, math.inf
    v /= nrm
    r_val = _quotient(form, v)
    tau = 1.0
    for _ in range(max_iter):
        resid = form.apply(v) - r_val * v
        d = feasible(v - np.fft.ifftn(P_mult * np.fft.fftn(resid)).real) - v
        nd = math.sqrt(float(np.sum(d * d)))
        if nd == 0.0:
            break
        d /= nd
        improved = False
        t = tau
        for _ in range(30):
            w = feasible(v + t * d)
            den = float(np.sum(w * w))
            if den > 0.0:
                val = form.quad(w) / (g.weight * den)
                if val < r_val - 1e-15 * (1.0 + abs(r_val)):
                    v = w / math.sqrt(den)
                    improve = r_val - val
                    r_val = val
                    tau = min(t * 1.8, 1e3)
                    improved = True
                    break
            t *= 0.5
        if not improved:
            break
        if improve <= tol * (1.0 + abs(r_val)):
            break
    return v, r_val


def _masked_quotient_min(
    form: _MaskedForm,
    mask: np.ndarray,
    nonneg: bool,
    seed: int,
    max_iter: int = 600,
    n_starts: int = 3,
) -> float:
    """Minimize quad(v)/|v|^2 over masked (optionally nonnegative) vectors.

    Deterministic multistart (flat profile on the mask, a bump at the
    mask center, fixed-seed random vectors); the minimum over the
    fixed-order starts is returned.  The nonnegative variant additionally
    starts from |v*| of the unsigned minimizer, which is the exact answer
    whenever the ground state is one-signed.
    """
    g = form.g
    rng = np.random.default_rng(np.random.SeedSequence([seed, 13]))
    idx_center = np.unravel_index(int(np.argmax(mask.astype(float))), mask.shape)
    flat = mask.astype(float)
    coords = np.indices(mask.shape, dtype=float) / g.grid_size
    dist = sum(
        np.sin(math.pi * (coords[i] - idx_center[i] / g.grid_size)) ** 2
        for i in range(g.d_eff)
    )
    starts = [flat, np.exp(-dist / 0.02) * flat]
    for _ in range(max(n_starts - 2, 0)):
        starts.append(rng.standard_normal(mask.shape) * flat)

    best = math.inf
    minimizers = []
    for v0 in starts:
        v, val = _unsigned_quotient_min(form, mask, np.asarray(v0, float), max_iter)
        if v is not None:
            minimizers.append(v)
            best = min(best, val)
    if not nonneg:
        return best

    best_nn = math.inf
    nn_starts = []
    for v in minimizers:
        # one-signed pieces of the unsigned minimizer are the exact answer
        # whenever the ground state is one-signed or a degenerate +/- pair
        nn_starts += [np.abs(v), np.maximum(v, 0.0), np.maximum(-v, 0.0)]
    nn_starts += starts
    for v0 in nn_starts:
        _, val = _nonneg_quotient_min(form, mask, np.asarray(v0, float), max_iter)
        best_nn = min(best_nn, val)
    return best_nn


def masked_rayleigh(
    problem: ProblemData,
    opts: SolverOptions | None = None,
    nonneg: bool = True,
    max_iter: int = 600,
) -> float:
    """Infimum of (|Delta u|^2 - int a |grad u|^2) / |u|^2 on the mask.

    The admissible set is the discrete version of {u >= 0, u != 0,
    int f^- u = 0}: sample vectors supported on the node mask
    {f^- <= tau} with tau = 1e-12 * sup|f| (grid-sampled f^- is rarely
    exactly zero).  Returns +inf when the mask is empty.  With
    ``nonneg=False`` the sign constraint is dropped; both variants are
    reported by ``certify`` since their gap is not settled by theory.
    """
    opts = opts or SolverOptions()
    tau = 1e-12 * problem.f_sup
    f_minus_native = np.maximum(-problem.f.samples, 0.0)
    mask = f_minus_native <= tau
    if not mask.any():
        return math.inf
    form = _MaskedForm(problem, operator="bilap-a")
    return _masked_quotient_min(form, mask, nonneg, opts.seed, max_iter=max_iter)


def masked_grad_rayleigh(problem: ProblemData, opts: SolverOptions | None = None) -> float:
    """Infimum of |grad u|^2 / |u|^2 over the same masked set (squared form)."""
    opts = opts or SolverOptions()
    tau = 1e-12 * problem.f_sup
    mask = np.maximum(-problem.f.samples, 0.0) <= tau
    if not mask.any():
        return math.inf
    form = _MaskedForm(problem, operator="grad")
    return _masked_quotient_min(form, mask, nonneg=True, seed=opts.seed)


# ----------------------------------------------------------------------
# moment-constrained Rayleigh quotient (band-limited space)


def _moment_retract(problem, q, u, target, z_lo, z_hi):
    """Rescale/mix u so that |u|_q^q = 1 and int f^- |u|^q = target."""
    mass = geo.lp_mass(u, q)
    if mass <= 0.0:
        raise InfeasibleConstraint("zero field in moment retraction")
    u = geo.scale(u, mass ** (-1.0 / q))

    def defect(w):
        return prob.f_minus_moment(w, problem, q) - target * geo.lp_mass(w, q)

    d0 = defect(u)
    if abs(d0) <= 1e-14 * max(target, 1.0):
        return u
    z = z_lo if d0 > 0 else z_hi

    def phi(t):
        return defect(geo.add(geo.scale(u, 1.0 - t), z, t))

    try:
        t_star = brentq(phi, 0.0, 1.0, xtol=1e-15, rtol=8.9e-16, maxiter=200)
    except ValueError:
        raise InfeasibleConstraint(
            "moment retraction found no bracket; constraint set may be empty"
        ) from None
    w = geo.add(geo.scale(u, 1.0 - t_star), z, t_star)
    return geo.scale(w, geo.lp_mass(w, q) ** (-1.0 / q))


def moment_rayleigh(
    problem: ProblemData,
    eta: float,
    q: float,
    opts: SolverOptions | None = None,
    inequality: bool = False,
    max_iter: int = 800,
) -> float:
    """Constrained quotient infimum lambda(eta, q).

    Minimizes (|Delta u|^2 - int a |grad u|^2)/|u|^2 over band-limited
    fields with |u|_q^q = 1 and int f^- |u|^q = eta int f^- (equality
    variant) or <= (inequality variant).  Projected preconditioned
    descent with a two-constraint retraction: mass is restored by exact
    scaling and the moment by mixing toward a fixed low- or high-moment
    profile, root-solved in the mixing weight.
    """
    if eta <= 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    opts = opts or SolverOptions()
    g = problem.geometry
    target = eta * problem.int_f_minus

    f_min_native = np.maximum(-problem.f.samples, 0.0)
    idx_hi = np.unravel_index(int(np.argmax(f_min_native)), g.shape)
    idx_lo = np.unravel_index(int(np.argmin(f_min_native)), g.shape)
    z_hi = g.bump([i / g.grid_size for i in idx_hi], width=0.10)
    z_lo = g.bump([i / g.grid_size for i in idx_lo], width=0.10)
    z_hi = geo.scale(z_hi, geo.lp_mass(z_hi, q) ** (-1.0 / q))
    z_lo = geo.scale(z_lo, geo.lp_mass(z_lo, q) ** (-1.0 / q))
    if prob.f_minus_moment(z_hi, problem, q) <= target:
        # cannot reach the required moment with a unit-mass profile
        if prob.f_minus_moment(z_hi, problem, q) < target - 1e-12 and not inequality:
            raise InfeasibleConstraint(
                f"moment eta*int(f-)={target} unreachable at unit q-mass"
            )

    def feasible(w):
        mass = geo.lp_mass(w, q)
        w = geo.scale(w, mass ** (-1.0 / q))
        if inequality:
            if prob.f_minus_moment(w, problem, q) <= target * (1.0 + 1e-12):
                return w
        return _moment_retract(problem, q, w, target, z_lo, z_hi)

    def quotient(w):
        num = geo.bilap_energy(w) - prob._grad_weighted_sq(problem, w)
        return num / geo.l2_norm(w) ** 2

    P = 1.0 / (1.0 + g.lam_sq)
    rng = opts.rng(stream=29)
    starts = [
        geo.add(z_lo, z_hi, 0.5),
        g.constant(1.0),
        geo.add(g.constant(1.0), g.random_smooth(rng, decay=2.5), 0.3),
    ]
    best = math.inf
    for u0 in starts:
        try:
            u = feasible(u0)
        except (InfeasibleConstraint, ValueError):
            continue
        r_val = quotient(u)
        tau = 1e-2
        stall = 0
        for _ in range(max_iter):
            den = geo.l2_norm(u) ** 2
            Au = geo.add(geo.bilaplacian(u), geo.div_a_grad(problem.a, u))
            grad = geo.combination([Au, u], [2.0 / den, -2.0 * r_val / den])
            psi1 = prob.constraint_direction(u, q)
            dirs = [psi1]
            active_moment = (not inequality) or (
                prob.f_minus_moment(u, problem, q) >= target * (1.0 - 1e-10)
            )
            if active_moment:
                psi2 = g.fine_to_field(
                    problem.f_minus_fine
                    * prob.signed_power(u.fine_values, q - 1.0)
                )
                dirs.append(psi2)
            # remove P-metric components along the constraint gradients
            d_coeffs = -(P * grad.coeffs)
            G = np.array(
                [
                    [
                        float(np.vdot(a.coeffs, P * b.coeffs).real)
                        for b in dirs
                    ]
                    for a in dirs
                ]
            )
            rhs = np.array(
                [float(np.vdot(a.coeffs, -d_coeffs).real) for a in dirs]
            )
            ridge = 1e-14 * max(float(np.trace(G)), _EPS)
            try:
                coef = np.linalg.solve(G + ridge * np.eye(len(dirs)), rhs)
            except np.linalg.LinAlgError:
                coef = np.zeros(len(dirs))
            for c, a in zip(coef, dirs):
                d_coeffs = d_coeffs + c * (P * a.coeffs)
            d = g.field_from_coeffs(d_coeffs)
            nd = geo.l2_norm(d)
            if nd == 0.0:
                break
            improved = False
            t = tau
            for _ in range(25):
                try:
                    trial = feasible(geo.add(u, d, t / nd))
                except (InfeasibleConstraint, ValueError):
                    t *= 0.5
                    continue
                r_t = quotient(trial)
                if r_t < r_val - 1e-14 * (1.0 + abs(r_val)):
                    u, r_val = trial, r_t
                    tau = min(t * 1.6, 1e3)
                    improved = True
                    break
                t *= 0.5
            if not improved:
                stall += 1
                tau = max(tau * 0.25, 1e-8)
                if stall >= 4:
                    break
            else:
                stall = 0
        best = min(best, r_val)
    if not math.isfinite(best):
        raise InfeasibleConstraint("no feasible start for the moment constraint")
    return best


# ----------------------------------------------------------------------
# coercivity window and the certificate


@dataclass
class CoercivityConstants:
    """Constants of the energy floor F_q >= mu/2 * k^(2/q) on [k1, k2]."""

    eps0: float
    b: float
    mu: float
    k_low: float
    k_high: float
    k_high_certified: float
    c_threshold: float
    eta: float
    sigma: float
    eps: float
    remainder: float
    c_sigma: float


def coercivity_constants(
    problem: ProblemData,
    q: float,
    eta: float,
    sigma: float,
    eps: float,
    lam_eta_q: float | None = None,
    remainder: float | None = None,
    opts: SolverOptions | None = None,
) -> CoercivityConstants:
    """Window [k1, k2] and floor mu of the coercivity bound at (eta, sigma, eps).

    Requires eps0 = lambda(eta, q) - sup|h| > 0 and
    1 - 2 sigma sup(a+) > 0.  The certified upper edge additionally caps
    k2 at (mu / (2 sup f))^(q/(q-2)) when sup f > 0: beyond it the
    f+ term may defeat the floor.
    """
    opts = opts or SolverOptions()
    g = problem.geometry
    a_plus = problem.a_plus_sup
    if 1.0 - 2.0 * sigma * a_plus <= 0.0:
        raise BadSigma(f"need 1 - 2*sigma*sup(a+) > 0, got sigma={sigma}")
    if lam_eta_q is None:
        try:
            lam_eta_q = moment_rayleigh(problem, eta, q, opts=opts)
        except InfeasibleConstraint:
            # infimum over an empty set: the +infinity convention
            lam_eta_q = math.inf
    eps0 = lam_eta_q - problem.h_sup
    if eps0 <= 0.0:
        raise NonPositiveEps0(
            f"lambda(eta={eta}, q={q}) = {lam_eta_q} <= sup|h| = {problem.h_sup}"
        )
    if remainder is None:
        remainder = embedding_remainder(g, eps, seed=opts.seed)
    k2_sq = sharp_sobolev_constant(g.n_ambient) ** 2
    c_sigma = grad_interp_constant(sigma, g)
    cap = problem.h_sup + 2.0 * a_plus * c_sigma
    shrink = 1.0 - 2.0 * sigma * a_plus
    if math.isinf(eps0):
        b = shrink / (k2_sq * (1.0 + eps))      # the eps0 -> inf limit
    else:
        b = (shrink * eps0) / ((eps0 + cap) * k2_sq * (1.0 + eps) + shrink * remainder)
    mu = min(b, cap)
    expo = q / (q - 2.0)
    if problem.int_f_minus > 0.0:
        k_low = (2.0 * cap / (eta * problem.int_f_minus)) ** expo
    else:
        k_low = math.inf
    k_high = 2.0**expo * k_low
    if problem.f_max > 0.0:
        k_cap = (mu / (2.0 * problem.f_max)) ** expo
        k_high_cert = min(k_high, k_cap)
    else:
        k_high_cert = math.inf
    c_thr = eta * mu / (8.0 * cap)
    return CoercivityConstants(
        eps0=eps0,
        b=b,
        mu=mu,
        k_low=k_low,
        k_high=k_high,
        k_high_certified=k_high_cert,
        c_threshold=c_thr,
        eta=eta,
        sigma=sigma,
        eps=eps,
        remainder=remainder,
        c_sigma=c_sigma,
    )


@dataclass
class HypothesisReport:
    """Checkable hypothesis data for the two existence statements.

    Conditions: (1) sup|h| < lambda (spectral), (2) sup f+ / int f^- <
    C (ratio), (3) sup f > 0 (positivity; needed by the mountain-pass
    statement only).  The embedding remainder is a probe-set lower bound
    of the continuum constant, so the window/floor data certify the
    discrete model, not the continuum.
    """

    schema_version: int
    n_ambient: int
    d_eff: int
    grid_size: int
    q: float
    sup_h: float
    rayleigh_masked: float
    rayleigh_masked_unsigned: float
    rayleigh_variant_gap: float
    cond_spectral: bool
    spectral_margin: float
    ratio_plus_minus: float
    c_threshold: float
    cond_ratio: bool
    ratio_margin: float
    f_max: float
    cond_positive: bool
    eta: float
    sigma: float
    eps: float
    eps0: float
    b: float
    mu_floor: float
    k_low: float
    k_high: float
    k_high_certified: float
    remainder: float
    sobolev_constant: float
    c_sigma: float
    int_f_minus: float
    positivity_measure: float
    measure_lower_bound: float
    measure_bound_ok: bool | None
    moment_values: dict = dataclass_field(default_factory=dict)
    notes: list = dataclass_field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Conditions of the critical-exponent statement: (1) and (2)."""
        return self.cond_spectral and self.cond_ratio

    @property
    def passed_subcritical(self) -> bool:
        """Conditions of the two-solution statement: (1), (2) and (3)."""
        return self.passed and self.cond_positive


_NOTE_LIMIT_EXPONENT = (
    "window exponent q/(q-2) tends to n/4 as q -> N; the alternative "
    "value 4/n sometimes quoted for the limit window fails the "
    "dimensional check and is not used"
)
_NOTE_REMAINDER = (
    "embedding remainder is a probe-set lower bound of the continuum constant"
)
_NOTE_GRAD_EXPONENT = (
    "the measure-criterion auxiliary quotient uses int|grad u|^2 (squared "
    "form); the first-power variant appearing in some statements is not used"
)


def certify(
    problem: ProblemData,
    q: float,
    opts: SolverOptions | None = None,
    etas=(0.5, 0.1, 0.02),
    epss=(0.1, 0.01),
) -> HypothesisReport:
    """Hypothesis report at exponent q, searching (eta, sigma, eps).

    sigma is fixed by 2 sigma sup(a+) = 1/2 when sup(a+) > 0 (else a
    harmless default); eta and eps range over small grids and the
    configuration with the largest admissible ratio threshold C wins.
    All conditions are reported with margins; nothing raises on failure.
    """
    opts = opts or SolverOptions()
    g = problem.geometry
    problem.exponents(q)

    lam_nonneg = masked_rayleigh(problem, opts=opts, nonneg=True)
    lam_unsigned = masked_rayleigh(problem, opts=opts, nonneg=False)
    gap = (
        lam_nonneg - lam_unsigned
        if math.isfinite(lam_nonneg) and math.isfinite(lam_unsigned)
        else 0.0
    )
    cond1 = problem.h_sup < lam_nonneg
    margin1 = lam_nonneg - problem.h_sup

    a_plus = problem.a_plus_sup
    sigma = 0.25 / a_plus if a_plus > 0.0 else 1.0

    remainders: dict[float, float] = {}

    def remainder(eps: float) -> float:
        """embedding_remainder at eps, computed on first use only."""
        if eps not in remainders:
            remainders[eps] = embedding_remainder(g, eps, seed=opts.seed)
        return remainders[eps]

    best: CoercivityConstants | None = None
    moment_values = {}
    for eta in etas:
        try:
            lam_eq = moment_rayleigh(problem, eta, q, opts=opts)
        except InfeasibleConstraint:
            lam_eq = math.inf       # infimum over an empty constraint set
        moment_values[eta] = lam_eq
        if lam_eq - problem.h_sup <= 0.0:
            continue                # NonPositiveEps0 at every eps
        for eps in epss:
            try:
                cc = coercivity_constants(
                    problem, q, eta, sigma, eps, lam_eta_q=lam_eq,
                    remainder=remainder(eps), opts=opts,
                )
            except (NonPositiveEps0, BadSigma):
                continue
            if best is None or cc.c_threshold > best.c_threshold:
                best = cc

    ratio = (
        problem.f_plus_sup / problem.int_f_minus
        if problem.int_f_minus > 0.0
        else math.inf
    )
    if best is None:
        best = CoercivityConstants(
            eps0=math.nan, b=math.nan, mu=math.nan,
            k_low=math.nan, k_high=math.nan, k_high_certified=math.nan,
            c_threshold=0.0, eta=math.nan, sigma=sigma, eps=math.nan,
            remainder=math.nan, c_sigma=grad_interp_constant(sigma, g),
        )
    cond2 = ratio < best.c_threshold
    cond3 = problem.f_max > 0.0

    # measure criterion: small positivity set forces a large quotient
    n = g.n_ambient
    meas = float(np.mean(problem.f.samples >= 0.0))
    if meas > 0.0 and math.isfinite(lam_nonneg):
        eps_m = best.eps if math.isfinite(best.eps) else 0.1
        rem_m = remainder(eps_m)
        mu_grad = masked_grad_rayleigh(problem, opts=opts)
        k2_sq = sharp_sobolev_constant(n) ** 2
        rhs = (meas ** (-4.0 / n) - rem_m - mu_grad * problem.a_sup) / (
            k2_sq * (1.0 + eps_m)
        )
        measure_bound = rhs
        measure_ok = lam_nonneg >= rhs - 1e-9 * max(1.0, abs(rhs))
    else:
        measure_bound = -math.inf
        measure_ok = None

    return HypothesisReport(
        schema_version=1,
        n_ambient=n,
        d_eff=g.d_eff,
        grid_size=g.grid_size,
        q=q,
        sup_h=problem.h_sup,
        rayleigh_masked=lam_nonneg,
        rayleigh_masked_unsigned=lam_unsigned,
        rayleigh_variant_gap=gap,
        cond_spectral=cond1,
        spectral_margin=margin1,
        ratio_plus_minus=ratio,
        c_threshold=best.c_threshold,
        cond_ratio=cond2,
        ratio_margin=best.c_threshold - ratio,
        f_max=problem.f_max,
        cond_positive=cond3,
        eta=best.eta,
        sigma=best.sigma,
        eps=best.eps,
        eps0=best.eps0,
        b=best.b,
        mu_floor=best.mu,
        k_low=best.k_low,
        k_high=best.k_high,
        k_high_certified=best.k_high_certified,
        remainder=best.remainder,
        sobolev_constant=sharp_sobolev_constant(n),
        c_sigma=best.c_sigma,
        int_f_minus=problem.int_f_minus,
        positivity_measure=meas,
        measure_lower_bound=measure_bound,
        measure_bound_ok=measure_ok,
        moment_values=moment_values,
        notes=[_NOTE_LIMIT_EXPONENT, _NOTE_REMAINDER, _NOTE_GRAD_EXPONENT],
    )
