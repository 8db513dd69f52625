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
  on the support of f^- (``masked_rayleigh``, with its unsigned
  variant), plus its moment-constrained relaxations lambda(eta, q)
  (``moment_rayleigh``),
- the coercivity window [k1, k2] with its floor mu such that the energy
  satisfies F_q >= mu/2 * k^(2/q) there, and the resulting admissible
  ratio threshold C (``coercivity_constants``, from a given lambda(eta, q)
  and remainder; it solves nothing itself).

``certify`` searches a small (eta, sigma, eps) grid for the weakest
passing configuration and emits a HypothesisReport with every constant
and margin; failures are reported as flags, never raised.
``start_certify`` and the ``PendingCertificate`` it returns are
``certify`` cut in two, a start step and a collect step, for a caller
that works on while the solves run.  Every randomized start is drawn
from a generator seeded by the integer ``seed``, so the module needs
nothing of the solvers but that number.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field as dataclass_field

import numpy as np
from scipy.linalg import eigh

from . import geometry as geo
from . import problem as prob
from .errors import BadSigma, InfeasibleConstraint, NonPositiveEps0
from .geometry import SpectralField, TorusGeometry
from .problem import ProblemData

_EPS = np.finfo(np.float64).eps
_MASKED_MAX_ITER = 600        # iteration cap of each masked quotient start
_MASKED_TOL = 1e-13           # masked quotient starts stop below this relative gain
_MOMENT_MAX_ITER = 800        # round cap of each moment-constrained start
_N_PROBE = 1000               # random probes of each embedding-remainder call
_PROBE_CHUNK = 64             # probes per stacked ratio evaluation: bounds its memory


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


def embedding_remainder(geometry: TorusGeometry, eps: float, seed: int) -> float:
    """Discrete surrogate for the embedding remainder A(eps).

    Smallest constant with |u|_N^2 <= K2^2 (1+eps) |Delta u|_2^2
    + A |u|_2^2 over a probe set (``_N_PROBE`` random band-limited
    fields plus all single modes, in stacks of ``_PROBE_CHUNK``),
    sharpened by at most 200 steps of gradient ascent on the ratio; a
    best probe whose ratio gradient vanishes exactly (the constant) is
    not moved.  This is a lower bound on the true continuum constant and
    is labeled as such in every report that uses it.
    """
    N = geometry.critical_exponent
    k2_sq = sharp_sobolev_constant(geometry.n_ambient) ** 2

    def ratio_and_grad(u):
        den = geo.l2_norm(u) ** 2
        un = geo.lp_norm(u, N)
        quad = geo.bilap_energy(u)
        r = (un**2 - k2_sq * (1.0 + eps) * quad) / den
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
    probes += [geometry.random_smooth(rng, decay=2.0) for _ in range(_N_PROBE)]
    ratios = []
    for lo in range(0, len(probes), _PROBE_CHUNK):
        part = geo.stack(probes[lo : lo + _PROBE_CHUNK])
        den = np.linalg.norm(part.coeffs.reshape(len(part.coeffs), -1), axis=1) ** 2
        ratios.extend(
            (geo.lp_mass(part, N) ** (2.0 / N) - k2_sq * (1.0 + eps) * geo.bilap_energy(part))
            / den
        )

    # sharpen by scale-invariant ascent from the best probe
    u = probes[int(np.argmax(ratios))]
    r, g = ratio_and_grad(u)
    P = 1.0 / (1.0 + geometry.lam_sq)
    tau = 1e-2
    for _ in range(200):
        if not np.any(g.coeffs):
            break  # a stationary probe (the constant): no ascent direction
        trial = geometry.field_from_coeffs(u.coeffs + tau * P * g.coeffs)
        nrm = geo.l2_norm(trial)
        if nrm == 0.0:
            break
        trial = geo.scale(trial, 1.0 / nrm)
        r_t, g_t = ratio_and_grad(trial)
        if r_t > r:
            u, r, g = trial, r_t, g_t
            tau *= 1.4
        else:
            tau *= 0.5
            if tau < 1e-14:
                break
    return float(r)


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
    def __init__(self, problem: ProblemData, operator: str):
        g = problem.geometry
        self.g = g
        self.operator = operator
        # the geometry's multipliers cover the full lattice (Nyquist included)
        self.lam_sq_full = g.lam_sq
        self.deriv = g.deriv_mult
        self.a_samples = problem.a.samples
        self.weight = g.weight

    def apply(self, v: np.ndarray) -> np.ndarray:
        g = self.g
        vh = g.forward(v)
        if self.operator == "grad":
            out = np.zeros_like(v)
            for d in self.deriv:
                dv = g.inverse(d * vh)
                out -= g.inverse(d * g.forward(dv))
            return out
        out = g.inverse(self.lam_sq_full * vh)
        for d in self.deriv:
            dv = g.inverse(d * vh)
            out += g.inverse(d * g.forward(self.a_samples * dv))
        return out

    def quad(self, v: np.ndarray) -> float:
        g = self.g
        vh = g.forward(v)
        if self.operator == "grad":
            total = 0.0
            for d in self.deriv:
                dv = g.inverse(d * vh)
                total += self.weight * float(np.sum(dv * dv))
            return total
        quad = float(np.sum(self.lam_sq_full * np.abs(vh) ** 2))
        for d in self.deriv:
            dv = g.inverse(d * vh)
            quad -= self.weight * float(np.sum(self.a_samples * dv * dv))
        return quad


def _quotient(form: _MaskedForm, v: np.ndarray) -> float:
    return form.quad(v) / (form.g.weight * float(np.sum(v * v)))


def _ritz_step(form: _MaskedForm, basis, Av: np.ndarray):
    """Quotient minimizer within span(basis); returns (vector, value).

    ``Av`` is form.apply(basis[0]), which the caller has already made.
    """
    g = form.g
    A_cols = [Av] + [form.apply(b) for b in basis[1:]]
    k = len(basis)
    A = np.empty((k, k))
    B = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            A[i, j] = g.weight * float(np.sum(basis[i] * A_cols[j]))
            B[i, j] = g.weight * float(np.sum(basis[i] * basis[j]))
    A = 0.5 * (A + A.T)
    B = 0.5 * (B + B.T)
    try:
        vals, vecs = eigh(A, B)
    except np.linalg.LinAlgError:
        # LAPACK failed (B not numerically positive definite): keep the iterate
        return basis[0], _quotient(form, basis[0])
    c = vecs[:, 0]
    w = sum(ci * bi for ci, bi in zip(c, basis))
    return w, float(vals[0])


def _unsigned_quotient_min(form: _MaskedForm, mask: np.ndarray, v0: np.ndarray):
    """Locally optimal projected gradient (3-term Rayleigh-Ritz recurrence).

    Each step minimizes the quotient exactly over span{v, masked
    preconditioned residual, previous increment}; convergence matches
    conjugate-gradient behavior on the masked vectors.
    """
    P_mult = 1.0 / (1.0 + form.lam_sq_full)

    def precondition(r):
        return np.where(mask, form.g.inverse(P_mult * form.g.forward(r)), 0.0)

    v = np.where(mask, v0, 0.0)
    nrm = math.sqrt(float(np.sum(v * v)))
    if nrm == 0.0:
        return None, math.inf
    v /= nrm
    r_val = _quotient(form, v)
    prev = None
    for _ in range(_MASKED_MAX_ITER):
        Av = form.apply(v)
        resid = np.where(mask, Av - r_val * v, 0.0)
        w = precondition(resid)
        nw = math.sqrt(float(np.sum(w * w)))
        if nw == 0.0:
            break
        basis = [v, w / nw]
        if prev is not None:
            npv = math.sqrt(float(np.sum(prev * prev)))
            if npv > 0.0:
                basis.append(prev / npv)
        cand, new_val = _ritz_step(form, basis, Av)
        cand = np.where(mask, cand, 0.0)
        nc = math.sqrt(float(np.sum(cand * cand)))
        if nc == 0.0:
            break
        cand /= nc
        prev = cand - v * float(np.sum(cand * v))
        improve = r_val - new_val
        v, r_val = cand, _quotient(form, cand)
        if improve <= _MASKED_TOL * (1.0 + abs(r_val)):
            break
    return v, r_val


def _nonneg_quotient_min(form: _MaskedForm, mask: np.ndarray, v0: np.ndarray):
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
    for _ in range(_MASKED_MAX_ITER):
        resid = form.apply(v) - r_val * v
        d = feasible(v - g.inverse(P_mult * g.forward(resid))) - v
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
        if improve <= _MASKED_TOL * (1.0 + abs(r_val)):
            break
    return v, r_val


def _mask(problem: ProblemData) -> np.ndarray:
    """The node mask {f^- <= tau} of the masked quotients, tau = 1e-12 * sup|f|."""
    return np.maximum(-problem.f.samples, 0.0) <= 1e-12 * problem.f_sup


def masked_rayleigh(problem: ProblemData, operator: str, seed: int) -> tuple[float, float]:
    """(nonnegative, unsigned) infimum of quad(u)/|u|^2 on the mask.

    quad is |Delta u|^2 - int a |grad u|^2 for ``operator`` "bilap-a"
    and |grad u|^2 (squared form, the measure criterion's) for "grad".
    The admissible set is the discrete version of {u >= 0, u != 0,
    int f^- u = 0}: sample vectors supported on the node mask
    {f^- <= tau} with tau = 1e-12 * sup|f| (grid-sampled f^- is rarely
    exactly zero); the unsigned value drops the sign constraint.  Both
    are reported by ``certify`` since their gap is not settled by
    theory.  Returns (inf, inf) when the mask is empty.

    Deterministic multistart (flat profile on the mask, a bump at the
    mask center, a random vector drawn from ``seed``); the minimum over
    the fixed-order starts is taken.  The nonnegative variant starts
    from |v|, v+ and v- of each unsigned minimizer v, which is the exact
    answer whenever the ground state is one-signed or a degenerate +/-
    pair.
    """
    mask = _mask(problem)
    if not mask.any():
        return math.inf, math.inf
    form = _MaskedForm(problem, operator)
    g = form.g
    rng = np.random.default_rng(np.random.SeedSequence([seed, 13]))
    idx_center = np.unravel_index(int(np.argmax(mask.astype(float))), mask.shape)
    flat = mask.astype(float)
    coords = np.indices(mask.shape, dtype=float) / g.grid_size
    dist = sum(
        np.sin(math.pi * (coords[i] - idx_center[i] / g.grid_size)) ** 2
        for i in range(g.d_eff)
    )
    starts = [flat, np.exp(-dist / 0.02) * flat, rng.standard_normal(mask.shape) * flat]

    unsigned = math.inf
    nn_starts = []
    for v0 in starts:
        v, val = _unsigned_quotient_min(form, mask, np.asarray(v0, float))
        if v is not None:
            nn_starts += [np.abs(v), np.maximum(v, 0.0), np.maximum(-v, 0.0)]
            unsigned = min(unsigned, val)
    nonneg = math.inf
    for v0 in nn_starts:
        _, val = _nonneg_quotient_min(form, mask, np.asarray(v0, float))
        nonneg = min(nonneg, val)
    return nonneg, unsigned


# ----------------------------------------------------------------------
# moment-constrained Rayleigh quotient (band-limited space)


def _brentq(f, xa, xb, xtol, rtol, maxiter):
    """Root of f in [xa, xb] by Brent's method (Brent 1973, ch. 4).

    Step for step the loop of scipy's ``brentq`` (its C source
    ``Zeros/brentq.c``) in Python floats, so it returns the same bits;
    the package keeps it so that no command loads scipy's optimize
    package (about 13 MB and 0.09 s) for one root.
    Signs are compared by their sign bits.  An exact zero at either end
    returns that end.  Raises ValueError for ends of one sign or a NaN
    value, and RuntimeError after ``maxiter`` iterations.
    """

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    def negative(v):
        return math.copysign(1.0, v) < 0.0

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if negative(fpre) == negative(fcur):
        raise ValueError("f(xa) and f(xb) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and negative(fpre) != negative(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)        # interpolate
            else:
                dpre = (fpre - fcur) / (xpre - xcur)                # extrapolate
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry                             # short step
            else:
                spre = scur = sbis                                  # bisect
        else:
            spre = scur = sbis                                      # bisect
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Brent's method failed to converge after {maxiter} iterations")


class _MomentSet:
    """The set {|u|_q^q = 1, int f^- |u|^q = eta int f^-} and its retraction.

    The retraction mixes toward one of two unit-mass bumps, ``z_lo`` at
    the minimum of f^- and ``z_hi`` at its maximum.  Raises
    InfeasibleConstraint when the equality moment is out of reach of
    ``z_hi``.
    """

    def __init__(self, problem: ProblemData, eta: float, q: float):
        g = problem.geometry
        self.problem, self.q = problem, q
        self.target = eta * problem.int_f_minus
        f_min_native = np.maximum(-problem.f.samples, 0.0)
        idx_hi = np.unravel_index(int(np.argmax(f_min_native)), g.shape)
        idx_lo = np.unravel_index(int(np.argmin(f_min_native)), g.shape)
        z_hi = g.bump([i / g.grid_size for i in idx_hi], width=0.10)
        z_lo = g.bump([i / g.grid_size for i in idx_lo], width=0.10)
        self.z_hi = geo.scale(z_hi, geo.lp_mass(z_hi, q) ** (-1.0 / q))
        self.z_lo = geo.scale(z_lo, geo.lp_mass(z_lo, q) ** (-1.0 / q))
        if prob.f_minus_moment(self.z_hi, problem, q) < self.target - 1e-12:
            raise InfeasibleConstraint(
                f"moment eta*int(f-)={self.target} unreachable at unit q-mass"
            )

    def retract(self, w: SpectralField) -> SpectralField:
        """Scale w to unit q-mass, then mix it toward z_lo or z_hi to meet the moment.

        The mixing weight t solves phi(t) = int f^- |v|^q - target
        int |v|^q = 0 with v = (1-t) u + t z on the refined-grid values,
        one array expression per ``_brentq`` step; only the final mix is
        a field, scaled back to unit mass.  ``_brentq`` is scipy's Brent
        loop copied step for step, so t is scipy's to the bit without
        loading scipy's optimize package.  Raises InfeasibleConstraint
        for a zero field or when phi has no sign change on [0, 1].
        """
        problem, q, target = self.problem, self.q, self.target
        g = problem.geometry
        f_minus = problem.f_minus_fine
        mass = geo.lp_mass(w, q)
        if not mass > 0.0:
            raise InfeasibleConstraint("zero field in moment retraction")
        u = geo.scale(w, mass ** (-1.0 / q))
        uf = u.fine_values
        power = np.abs(uf) ** q
        d0 = g.integrate_fine(f_minus * power) - target * g.integrate_fine(power)
        if abs(d0) <= 1e-14 * max(target, 1.0):
            return u
        z = self.z_lo if d0 > 0 else self.z_hi
        zf = z.fine_values

        def phi(t):
            power = np.abs((1.0 - t) * uf + t * zf) ** q
            return g.integrate_fine(f_minus * power) - target * g.integrate_fine(power)

        try:
            t_star = _brentq(phi, 0.0, 1.0, xtol=1e-15, rtol=8.9e-16, maxiter=200)
        except ValueError:
            raise InfeasibleConstraint(
                "moment retraction found no bracket; constraint set may be empty"
            ) from None
        v = geo.add(geo.scale(u, 1.0 - t_star), z, t_star)
        return geo.scale(v, geo.lp_mass(v, q) ** (-1.0 / q))


def _quotients(problem: ProblemData, fields):
    """(|Delta w|^2 - int a |grad w|^2) / |w|^2 for each of the fields w.

    Returns the quotients and |w|^2 as lists of floats, and the
    refined-grid samples of every d_i w (component first, then field),
    from which div(a grad w) is assembled without another transform.
    """
    g = problem.geometry
    coeffs = np.stack([w.coeffs for w in fields])
    du, grad_sq = prob.grad_samples_and_weighted_sq(problem, coeffs)
    axes = tuple(range(1, coeffs.ndim))
    power = np.abs(coeffs) ** 2
    bilap = np.sum(g.lam_sq * power, axis=axes)
    dens = [math.sqrt(max(float(m), 0.0)) ** 2 for m in np.sum(power, axis=axes)]
    values = [(float(b) - float(s)) / den for b, s, den in zip(bilap, grad_sq, dens)]
    return values, dens, du


class _MomentRun:
    """Per-start state of the lockstep descent in ``_moment_descent``.

    ``u`` is the iterate, ``r_val`` its quotient, ``den`` = |u|^2 and
    ``du`` the refined-grid samples of its d_i u.
    """

    def __init__(self, u, r_val, den, du):
        self.u, self.r_val, self.den, self.du = u, r_val, den, du
        self.tau = 1e-2
        self.stall = 0
        self.iterations = 0
        self.exit = None        # "stalled", "zero step" or "max_iter"

    def accept(self, u, r_val, den, du, t):
        self.u, self.r_val, self.den, self.du = u, r_val, den, du
        self.tau = min(t * 1.6, 1e3)
        self.stall = 0

    def stalled(self):
        self.stall += 1
        self.tau = max(self.tau * 0.25, 1e-8)
        if self.stall >= 4:
            self.exit = "stalled"


def _moment_descent(problem, q, mset: _MomentSet, starts, max_iter):
    """Projected preconditioned descent of the quotient on ``mset``, starts in lockstep.

    Each round transforms the stack of iterates still running once (so
    refined values carried through the retraction never drift past one
    round), applies Delta^2 + div(a grad) with the d_i u samples kept
    from the quotient of the accepted trial, projects both constraint
    gradients with one transform and takes the directions' refined
    values with one more; every line-search trial carries them.  The
    P-metric projection, the retraction, the step and the stall count
    stay per start.  A start leaves after four stalled rounds, a zero
    direction or ``max_iter`` rounds.  Returns one _MomentRun per start,
    None where the start cannot be retracted.
    """
    g = problem.geometry
    P = 1.0 / (1.0 + g.lam_sq)
    feasible = []
    for u0 in starts:
        try:
            feasible.append(mset.retract(u0))
        except (InfeasibleConstraint, ValueError):
            feasible.append(None)
    kept = [i for i, u in enumerate(feasible) if u is not None]
    runs = [None] * len(starts)
    if kept:
        values, dens, du = _quotients(problem, [feasible[i] for i in kept])
        for row, i in enumerate(kept):
            runs[i] = _MomentRun(feasible[i], values[row], dens[row], du[:, row])

    def running(runs):
        for run in runs:
            if run.exit is None and run.iterations >= max_iter:
                run.exit = "max_iter"
        return [run for run in runs if run.exit is None]

    active = running([run for run in runs if run is not None])

    while active:
        # refined values transformed afresh: carried ones never drift past one round
        u = SpectralField(g, np.stack([run.u.coeffs for run in active]))
        uf = u.fine_values
        du = np.stack([run.du for run in active], axis=1)
        Au = g.lam_sq * u.coeffs + g.div_from_grad_samples(problem.a_fine, du)
        # rows P(|u|^(q-2) u), then rows P(f^- |u|^(q-2) u): both constraint gradients
        power = prob.signed_power(uf, q - 1.0)
        psi = g.fine_to_coeffs(np.concatenate([power, problem.f_minus_fine * power]))

        stepping, D = [], []
        for row, run in enumerate(active):
            run.u = u[row]
            run.iterations += 1
            grad = (2.0 / run.den) * Au[row] + (-2.0 * run.r_val / run.den) * u.coeffs[row]
            dirs = [psi[row], psi[len(active) + row]]
            # remove P-metric components along the constraint gradients
            d_coeffs = -(P * grad)
            Pdirs = [P * b for b in dirs]
            G = np.array([[float(np.vdot(a, Pb).real) for Pb in Pdirs] for a in dirs])
            rhs = np.array([float(np.vdot(a, -d_coeffs).real) for a in dirs])
            ridge = 1e-14 * max(float(np.trace(G)), _EPS)
            try:
                coef = np.linalg.solve(G + ridge * np.eye(len(dirs)), rhs)
            except np.linalg.LinAlgError:
                coef = np.zeros(len(dirs))
            for c, Pa in zip(coef, Pdirs):
                d_coeffs = d_coeffs + c * Pa
            d = np.where(g.band_mask, d_coeffs, 0.0 + 0.0j)
            nd = math.sqrt(max(float(np.sum(np.abs(d) ** 2)), 0.0))
            if nd == 0.0:
                run.exit = "zero step"
                continue
            stepping.append((run, nd))
            D.append(d)

        if stepping:
            D = np.stack(D)
            d = SpectralField(g, D, g.fine_samples(D))
            _moment_line_search(problem, mset, stepping, d)
        active = running(active)
    return runs


def _moment_line_search(problem, mset, stepping, d):
    """Backtracking of every stepping start, one stacked quotient per round.

    ``d`` stacks the directions (refined values cached) of the entries
    (run, |d|) of ``stepping``.  A trial u + (t/|d|) d is retracted per
    start; an infeasible one halves t.  A start that finds no decrease
    in 25 rounds stalls, and four stalls in a row end it.
    """
    t = [run.tau for run, _ in stepping]
    searching = list(range(len(stepping)))
    for _ in range(25):
        if not searching:
            break
        trials, still = [], []
        for j in searching:
            run, nd = stepping[j]
            try:
                trials.append((j, mset.retract(geo.add(run.u, d[j], t[j] / nd))))
            except (InfeasibleConstraint, ValueError):
                t[j] *= 0.5
                still.append(j)
        if trials:
            values, dens, du = _quotients(problem, [w for _, w in trials])
            for row, (j, w) in enumerate(trials):
                run = stepping[j][0]
                if values[row] < run.r_val - 1e-14 * (1.0 + abs(run.r_val)):
                    run.accept(w, values[row], dens[row], du[:, row], t[j])
                else:
                    t[j] *= 0.5
                    still.append(j)
        searching = sorted(still)
    for j in searching:
        stepping[j][0].stalled()


def moment_rayleigh(
    problem: ProblemData,
    eta: float,
    q: float,
    seed: int,
) -> float:
    """Constrained quotient infimum lambda(eta, q).

    Minimizes (|Delta u|^2 - int a |grad u|^2)/|u|^2 over band-limited
    fields with |u|_q^q = 1 and int f^- |u|^q = eta int f^-.  Projected
    preconditioned descent with a two-constraint retraction: mass is
    restored by exact scaling and the moment by mixing toward a fixed
    low- or high-moment profile, the mixing weight root-solved by
    ``_brentq`` on the refined-grid values (one array expression per
    step, no field).  ``_brentq`` returns the bits of scipy's
    ``brentq`` without importing its package, which would add about
    13 MB and 0.09 s to every command for this one root.

    The three starts (the mixed profile, the constant, a perturbed
    constant) run as one lockstep stack, as the multistart sphere solves
    do: each round transforms the iterates once and makes one stacked
    gradient, one transform for both constraint gradients and one for
    the search directions, and one stacked quotient per line-search
    round, whose d_i u samples of the accepted trial then assemble
    div(a grad u) without a second transform.  Step, stall count,
    iteration count and the retraction stay per start, with the
    arithmetic of a start run alone.  The perturbation of the third
    start is drawn from ``seed``.  Returns the minimum over the starts.
    """
    if eta <= 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    g = problem.geometry
    mset = _MomentSet(problem, eta, q)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 29]))
    starts = [
        geo.add(mset.z_lo, mset.z_hi, 0.5),
        g.constant(1.0),
        geo.add(g.constant(1.0), g.random_smooth(rng, decay=2.5), 0.3),
    ]
    best = math.inf
    for run in _moment_descent(problem, q, mset, starts, _MOMENT_MAX_ITER):
        if run is not None:
            best = min(best, run.r_val)
    if not math.isfinite(best):
        raise InfeasibleConstraint("no feasible start for the moment constraint")
    return best


# ----------------------------------------------------------------------
# coercivity window and the certificate


def window_cap(problem: ProblemData, c_sigma: float) -> float:
    """Zeroth-order constant sup|h| + 2 sup(a+) C(sigma) of the coercivity window."""
    return problem.h_sup + 2.0 * problem.a_plus_sup * c_sigma


def window_edge(problem: ProblemData, q: float, eta: float, sigma: float) -> float:
    """Lower window edge l_q = [2 (sup|h| + 2 sup(a+) C(sigma)) / (eta int f^-)]^(q/(q-2))."""
    cap = window_cap(problem, grad_interp_constant(sigma, problem.geometry))
    if problem.int_f_minus <= 0.0:
        return math.inf
    return (2.0 * cap / (eta * problem.int_f_minus)) ** (q / (q - 2.0))


@dataclass
class CoercivityConstants:
    """Constants of the energy floor F_q >= mu/2 * k^(2/q) on [k1, k2].

    The field names are those of the HypothesisReport that carries them.
    """

    eps0: float
    b: float
    mu_floor: float
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
    lam_eta_q: float,
    remainder: float,
) -> CoercivityConstants:
    """Window [k1, k2] and floor mu of the coercivity bound at (eta, sigma, eps).

    ``lam_eta_q`` is lambda(eta, q) (``moment_rayleigh``, +inf over an
    empty constraint set) and ``remainder`` the embedding remainder at
    eps.  Requires eps0 = lambda(eta, q) - sup|h| > 0 and
    1 - 2 sigma sup(a+) > 0.  The certified upper edge additionally caps
    k2 at (mu / (2 sup f))^(q/(q-2)) when sup f > 0: beyond it the
    f+ term may defeat the floor.
    """
    g = problem.geometry
    a_plus = problem.a_plus_sup
    if 1.0 - 2.0 * sigma * a_plus <= 0.0:
        raise BadSigma(f"need 1 - 2*sigma*sup(a+) > 0, got sigma={sigma}")
    eps0 = lam_eta_q - problem.h_sup
    if eps0 <= 0.0:
        raise NonPositiveEps0(
            f"lambda(eta={eta}, q={q}) = {lam_eta_q} <= sup|h| = {problem.h_sup}"
        )
    k2_sq = sharp_sobolev_constant(g.n_ambient) ** 2
    c_sigma = grad_interp_constant(sigma, g)
    cap = window_cap(problem, c_sigma)
    shrink = 1.0 - 2.0 * sigma * a_plus
    if math.isinf(eps0):
        b = shrink / (k2_sq * (1.0 + eps))      # the eps0 -> inf limit
    else:
        b = (shrink * eps0) / ((eps0 + cap) * k2_sq * (1.0 + eps) + shrink * remainder)
    mu = min(b, cap)
    expo = q / (q - 2.0)
    k_low = window_edge(problem, q, eta, sigma)
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
        mu_floor=mu,
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


def _solve(problem: ProblemData, q: float, seed: int, task):
    """One of certify's independent solves: ``masked_rayleigh`` for an
    operator name, ``moment_rayleigh`` for an eta, ``embedding_remainder``
    for an eps."""
    kind, arg = task
    if kind == "masked":
        return masked_rayleigh(problem, arg, seed)
    if kind == "moment":
        return moment_rayleigh(problem, arg, q, seed)
    return embedding_remainder(problem.geometry, arg, seed=seed)


class PendingCertificate:
    """The certificate at q while its solves run in ``start_certify``'s pool."""

    def __init__(self, problem: ProblemData, q: float, pool, solves, meas: float):
        self._problem, self._q = problem, q
        self._pool, self._solves, self._meas = pool, solves, meas

    def result(self) -> HypothesisReport:
        """Wait for the solves, close the pool and assemble the report.

        An error raised in a solve that the report reads reaches the
        caller here, with its type and message, after the pool is closed.
        """
        with self._pool:
            return _assemble(self._problem, self._q, self._solves, self._meas)


def _assemble(problem: ProblemData, q: float, solves, meas: float) -> HypothesisReport:
    """The report from the solves' futures, keyed by task."""
    g = problem.geometry
    lam_nonneg, lam_unsigned = solves["masked", "bilap-a"].result()
    moment_values = {}
    for eta in (0.5, 0.1, 0.02):
        try:
            moment_values[eta] = solves["moment", eta].result()
        except InfeasibleConstraint:
            moment_values[eta] = math.inf   # infimum over an empty constraint set

    gap = (
        lam_nonneg - lam_unsigned
        if math.isfinite(lam_nonneg) and math.isfinite(lam_unsigned)
        else 0.0
    )
    cond1 = problem.h_sup < lam_nonneg
    margin1 = lam_nonneg - problem.h_sup

    a_plus = problem.a_plus_sup
    sigma = 0.25 / a_plus if a_plus > 0.0 else 1.0

    best: CoercivityConstants | None = None
    for eta, lam_eq in moment_values.items():
        if lam_eq - problem.h_sup <= 0.0:
            continue                # NonPositiveEps0 at every eps
        for eps in (0.1, 0.01):
            try:
                cc = coercivity_constants(
                    problem, q, eta, sigma, eps, lam_eta_q=lam_eq,
                    remainder=solves["remainder", eps].result(),
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
            eps0=math.nan, b=math.nan, mu_floor=math.nan,
            k_low=math.nan, k_high=math.nan, k_high_certified=math.nan,
            c_threshold=0.0, eta=math.nan, sigma=sigma, eps=math.nan,
            remainder=math.nan, c_sigma=grad_interp_constant(sigma, g),
        )
    cond2 = ratio < best.c_threshold
    cond3 = problem.f_max > 0.0

    # measure criterion: small positivity set forces a large quotient
    n = g.n_ambient
    if meas > 0.0 and math.isfinite(lam_nonneg):
        eps_m = best.eps if math.isfinite(best.eps) else 0.1
        rem_m = solves["remainder", eps_m].result()
        mu_grad = solves["masked", "grad"].result()[0]  # submitted: the mask is nonempty
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
        cond_ratio=cond2,
        ratio_margin=best.c_threshold - ratio,
        f_max=problem.f_max,
        cond_positive=cond3,
        sobolev_constant=sharp_sobolev_constant(n),
        int_f_minus=problem.int_f_minus,
        positivity_measure=meas,
        measure_lower_bound=measure_bound,
        measure_bound_ok=measure_ok,
        moment_values=moment_values,
        notes=[_NOTE_LIMIT_EXPONENT, _NOTE_REMAINDER, _NOTE_GRAD_EXPONENT],
        **asdict(best),
    )


def start_certify(
    problem: ProblemData,
    q: float,
    seed: int,
    spare_cpus: int,
) -> PendingCertificate:
    """Fork the certificate's pool at exponent q and submit its solves.

    The seven solves do not depend on each other: ``masked_rayleigh``
    for "bilap-a" and "grad" (the latter only when the measure criterion
    needs it), ``moment_rayleigh`` at each eta and ``embedding_remainder``
    at each eps.  They run in forked worker processes, one per available
    CPU less ``spare_cpus`` (at least one) up to one per solve, longest
    first.  ``spare_cpus`` keeps CPUs for a caller that works on while
    the pool runs.  The returned PendingCertificate's ``result`` waits
    for the solves and closes the pool.
    """
    problem.exponents(q)
    meas = float(np.mean(problem.f.samples >= 0.0))
    tasks = [                               # longest first
        ("moment", 0.02), ("masked", "bilap-a"), ("masked", "grad"),
        ("moment", 0.1), ("moment", 0.5), ("remainder", 0.1), ("remainder", 0.01),
    ]
    if not (meas > 0.0 and _mask(problem).any()):
        tasks.remove(("masked", "grad"))
    cpus = max(1, len(os.sched_getaffinity(0)) - spare_cpus)
    fork = multiprocessing.get_context("fork")
    pool = ProcessPoolExecutor(min(len(tasks), cpus), mp_context=fork)
    solves = {task: pool.submit(_solve, problem, q, seed, task) for task in tasks}
    return PendingCertificate(problem, q, pool, solves, meas)


def certify(
    problem: ProblemData,
    q: float,
    seed: int,
) -> HypothesisReport:
    """Hypothesis report at exponent q, searching (eta, sigma, eps).

    sigma is fixed by 2 sigma sup(a+) = 1/2 when sup(a+) > 0 (else a
    harmless default); eta ranges over (0.5, 0.1, 0.02) and eps over
    (0.1, 0.01), and the configuration with the largest admissible ratio
    threshold C wins.  ``seed`` seeds every randomized start.
    All conditions are reported with margins; nothing raises on failure.

    This is ``start_certify`` followed by its ``result``: the solves run
    in a forked pool that is closed before ``certify`` returns.  Each
    solve is a pure function of its arguments, so the report is
    bit-identical to a serial run, whatever the number of workers; there
    is no option to change this.  An error raised in a solve reaches the
    caller with its type and message.
    """
    return start_certify(problem, q, seed, 0).result()
