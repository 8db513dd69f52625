"""Problem instances, the operator kernel and the energy functional.

A problem bundles the three coefficients of

    Delta^2 u + div(a grad u) + h u = f |u|^(q-2) u

on a shared torus geometry.  Every solver object is one band-limited
operator with a caller-chosen zero-order weight w(x),

    L_w v = Delta^2 v + div(a grad v) + P((h - w) v),

with P the band projection; ``apply_operator`` is its only
implementation.  The weights passed are

    gradient        w = (q/2) f |u|^(q-2)           (grad F_q = 2 L_w u)
    EL residual     w = (lam + (q/2) f) |u|^(q-2)   (variational form)
                    w = (lam + f) |u|^(q-2)         (equation-normalized)
    half Hessian    w = (q(q-1)/2) f |u|^(q-2)      (applied to a direction)

The energy whose critical points solve the (q/2-weighted) equation is

    F_q(u) = |Delta u|_2^2 - int a |grad u|^2 + int h u^2 - int f |u|^q.

It is evaluated with the refined-grid quadrature of the geometry
module, which makes the discrete L2 gradient of F_q exactly 2 L_w u with
the gradient weight above; directional derivatives therefore match
finite differences of eval_F to quadrature-free accuracy.  The same
exactness gives F_q(u) = <u, L_w u> + (q/2 - 1) int f |u|^q by Parseval,
which is how ``energy_and_grad`` shares one operator application
between the value and the gradient.

``apply_operator``, ``eval_F``, ``grad_F``, ``energy_and_grad`` and
``constraint_direction`` take a stack of fields as well as a single one
(see the geometry module), and so do ``quadratic_part`` and
``f_weighted_mass``: each field gets the arithmetic it would get alone,
bit for bit, and the transforms are made once for the stack.

The nonlinear power is evaluated as |u|^(q-2) u (or sign(u) |u|^(q-1)),
which is continuous at u = 0 for every q > 2 and avoids fractional
powers of negative numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .errors import GeometryMismatch
from .expressions import Expression, parse_coefficient
from .geometry import SpectralField, TorusGeometry


def signed_power(values: np.ndarray, p: float) -> np.ndarray:
    """Pointwise sign(v) |v|^p with the value 0 at v = 0 (p > 0)."""
    return np.sign(values) * np.abs(values) ** p


@dataclass(frozen=True)
class ExponentPair:
    """Nonlinearity exponent q together with the critical exponent N."""

    q: float
    n_ambient: int

    def __post_init__(self):
        N = self.critical
        if not 2.0 < self.q <= N + 1e-12:
            raise ValueError(f"q must lie in (2, {N}], got {self.q}")

    @property
    def critical(self) -> float:
        n = self.n_ambient
        return 2.0 * n / (n - 4.0)


class ProblemData:
    """Coefficients (a, h, f) with derived data used by every solver.

    The sign split f = f+ - f- is stored pointwise on the refined
    quadrature grid, where all coefficient integrals are evaluated.  All
    "sup" quantities are maxima over that grid; they are
    discretization-level surrogates for the continuum suprema.

    ``int_f_minus`` is computed by adaptive quadrature of the coefficient
    expression when one is available (f^- has kinks, where fixed-grid
    quadrature converges only quadratically); otherwise it falls back to
    the refined-grid value.  The rule is QUADPACK's G10/K21 pair, batched
    (``_gauss_kronrod``): an interval of width w is accepted when its
    error estimate is at most GK_TOL w = 1e-12 w, and each round of
    bisection is one array call of the expression, nested once over x2
    in 2-D.  That is about 35 calls in 1-D and 613 on the 16 x 16 plate.

    The existence hypotheses h < 0 and int f^- > 0 are recorded as flags
    rather than enforced, so degenerate instances (f of one sign,
    Paneitz-Branson presets with h >= 0) remain constructible for
    diagnostics; front-ends decide which flags are mandatory.

    Instances are immutable after construction and every evaluation
    below is a pure function of its arguments, so problems are safe to
    share across threads.
    """

    def __init__(
        self,
        geometry: TorusGeometry,
        a: SpectralField,
        h: SpectralField,
        f: SpectralField,
        expressions: dict | None = None,
    ):
        for name, fld in (("a", a), ("h", h), ("f", f)):
            if not geometry.compatible(fld.geometry):
                raise GeometryMismatch(f"coefficient {name} lives on a different grid")
        self.geometry = geometry
        self.a = a
        self.h = h
        self.f = f
        self.expressions = dict(expressions) if expressions else {}

        self.a_fine = a.fine_values
        self.h_fine = h.fine_values
        self.f_fine = f.fine_values
        self.f_plus_fine = np.maximum(self.f_fine, 0.0)
        self.f_minus_fine = np.maximum(-self.f_fine, 0.0)

        self.a_plus_sup = float(np.max(np.maximum(self.a_fine, 0.0)))
        self.a_sup = float(np.max(np.abs(self.a_fine)))
        self.h_sup = float(np.max(np.abs(self.h_fine)))
        self.h_min = float(np.min(self.h_fine))
        self.f_max = float(np.max(self.f_fine))
        self.f_plus_sup = float(np.max(self.f_plus_fine))
        self.f_sup = float(np.max(np.abs(self.f_fine)))

        self.int_h = geometry.integrate_fine(self.h_fine)
        self.int_f = geometry.integrate_fine(self.f_fine)
        self.int_f_minus_grid = geometry.integrate_fine(self.f_minus_fine)
        self.int_f_minus = self._adaptive_int_f_minus()

        self.h_negative = bool(np.all(self.h_fine < 0.0))
        self.f_minus_positive = self.int_f_minus > 0.0

    # ------------------------------------------------------------------

    @classmethod
    def from_expressions(
        cls, geometry: TorusGeometry, a: str, h: str, f: str
    ) -> "ProblemData":
        exprs = {"a": a, "h": h, "f": f}
        fields = {k: parse_coefficient(v, geometry) for k, v in exprs.items()}
        return cls(geometry, fields["a"], fields["h"], fields["f"], expressions=exprs)

    def _adaptive_int_f_minus(self) -> float:
        if "f" not in self.expressions:
            return self.int_f_minus_grid
        expr = Expression(self.expressions["f"], self.geometry.d_eff)

        def f_minus(*coords):
            return np.maximum(-np.broadcast_to(expr(*coords), coords[0].shape), 0.0)

        return float(_cube_integral(f_minus, self.geometry.d_eff, (), 1)[0])

    def exponents(self, q: float) -> ExponentPair:
        return ExponentPair(q, self.geometry.n_ambient)

    def __repr__(self):
        return f"ProblemData(geometry={self.geometry!r})"


# ----------------------------------------------------------------------
# adaptive quadrature on the unit cube

# G10/K21 pair of QUADPACK's dqk21 (Piessens et al. 1983): the
# nonnegative Kronrod nodes on [-1, 1] in descending order, their
# weights, and the Gauss weights of the odd-indexed nodes.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
# the 21 nodes on [0, 1] in ascending order, with the K21 and G10 weights
_GK_NODES = 0.5 * np.concatenate([1.0 - _XGK, 1.0 + _XGK[-2::-1]])
_GK_KRONROD = 0.5 * np.concatenate([_WGK, _WGK[-2::-1]])
_GK_GAUSS = np.zeros(21)
_GK_GAUSS[1:10:2] = 0.5 * _WG
_GK_GAUSS[11:20:2] = 0.5 * _WG[::-1]
# A kink in the gap between an end of the interval and its outer node
# (0.22% of the width) is invisible to K21 - G10.  So the ends are
# sampled too: the end value minus the nodes' degree-20 interpolant
# there, times the gap, bounds what the gap hides.
_GK_GAP = _GK_NODES[0]
_ratio = -_GK_NODES / (_GK_NODES[:, None] - _GK_NODES + np.eye(21))
np.fill_diagonal(_ratio, 1.0)
_GK_AT_0 = _ratio.prod(axis=1)          # Lagrange weights of the nodes at t = 0
_GK_POINTS = np.concatenate([[0.0], _GK_NODES, [1.0]])
# per column, on the 23 points: K21, K21 - G10, and the two end mismatches
_GK_RULES = np.zeros((23, 4))
_GK_RULES[1:22, 0] = _GK_KRONROD
_GK_RULES[1:22, 1] = _GK_KRONROD - _GK_GAUSS
_GK_RULES[:, 2] = np.concatenate([[1.0], -_GK_AT_0, [0.0]])
_GK_RULES[:, 3] = _GK_RULES[::-1, 2]
_GK_ROUNDING = 50.0 * np.finfo(float).eps   # QUADPACK's rounding level of a sum

GK_TOL = 1e-12        # |K21 - G10| accepted per unit width of an interval
GK_MAX_DEPTH = 50     # bisections of [0, 1] after which an interval is taken as it is


def _gauss_kronrod(integrand, n: int) -> np.ndarray:
    """Integrals over [0, 1] of n functions, adapted together by G10/K21.

    ``integrand(owner, t)`` returns, for an (m, 23) array ``t`` (the ends
    and the 21 nodes of m intervals), the values of function ``owner[i]``
    on the row ``t[i]``.  Each round evaluates every open interval of
    every integral in that one call; all open intervals of a round have
    the same width w = 2**-depth.  An interval is accepted when its
    error estimate, |K21 - G10| plus what the end gaps may hide, is at
    most GK_TOL w, or within the rounding level of its values: the
    error of the largest value, plus the error of the coordinates times
    the slope (max - min of the values).  Otherwise it is bisected.

    The rounding level keeps a large-valued f, or one that cancels, from
    bisecting without end, and the depth cap does the same for a pole,
    where the last intervals are taken as they are.  Returns the n K21
    sums.
    """
    total = np.zeros(n)
    owner = np.arange(n)
    lo = np.zeros(n)
    width = 1.0
    for depth in range(GK_MAX_DEPTH + 1):
        values = integrand(owner, lo[:, None] + width * _GK_POINTS)
        kronrod, diff, end_lo, end_hi = width * (values @ _GK_RULES).T
        error = np.abs(diff) + _GK_GAP * (np.abs(end_lo) + np.abs(end_hi))
        top, bottom = values.max(axis=1), values.min(axis=1)
        rounding = _GK_ROUNDING * (width * np.maximum(top, -bottom) + top - bottom)
        done = (error <= np.maximum(GK_TOL * width, rounding)) | (depth == GK_MAX_DEPTH)
        total += np.bincount(owner[done], weights=kronrod[done], minlength=n)
        owner, lo = np.repeat(owner[~done], 2), np.repeat(lo[~done], 2)
        width *= 0.5
        lo[1::2] += width
        if not owner.size:
            break
    return total


def _cube_integral(fn, d: int, fixed: tuple, n: int) -> np.ndarray:
    """n integrals over [0, 1]^d of fn(x1, ..., xd, *fixed), one per entry of ``fixed``.

    ``fn`` takes flat coordinate arrays of one length, and ``fixed``
    holds n values of each trailing coordinate (empty for one integral
    over the whole cube).  The rule runs over xd; its integrand at all
    nodes of a round is one batch of integrals over the first d - 1
    coordinates, so every round of the innermost rule is one call of fn.
    """
    if d == 0:
        return fn(*fixed)

    def over_last(owner, t):
        nodes = t.ravel()
        trailing = tuple(np.repeat(c[owner], t.shape[1]) for c in fixed)
        return _cube_integral(fn, d - 1, (nodes, *trailing), nodes.size).reshape(t.shape)

    return _gauss_kronrod(over_last, n)


# ----------------------------------------------------------------------
# the operator kernel and the energy


def apply_operator(problem: ProblemData, v: SpectralField, w_fine: np.ndarray) -> np.ndarray:
    """Native-band coefficients of Delta^2 v + div(a grad v) + P((h - w) v).

    ``w_fine`` is the zero-order weight on the refined grid, one per
    field for a stack.  Every operator the solvers apply
    is this one with a different weight; see the module docstring.
    """
    g = problem.geometry
    g.check_same(v.geometry)
    out = g.lam_sq * v.coeffs + g.div_a_grad_coeffs(problem.a_fine, v.coeffs)
    out += g.fine_to_coeffs((problem.h_fine - w_fine) * v.fine_values)
    return out


def grad_samples_and_weighted_sq(problem: ProblemData, coeffs: np.ndarray):
    """Refined-grid samples of every d_i u and int a |grad u|^2, from coefficients of u.

    For a stack the integral has one value per field, each the value the
    field gets alone.  The samples (component first) let a caller
    assemble div(a grad u) without transforming u again
    (``TorusGeometry.div_from_grad_samples``).
    """
    g = problem.geometry
    du = g.grad_fine_samples(coeffs)
    total = 0.0
    for i in range(g.d_eff):
        total += g.integrate_fine(problem.a_fine * du[i] * du[i])
    return du, total


def _grad_weighted_sq(problem: ProblemData, u: SpectralField) -> float:
    """int a |grad u|^2 on the refined grid (exact for band-limited data)."""
    return grad_samples_and_weighted_sq(problem, u.coeffs)[1]


def quadratic_part(u: SpectralField, problem: ProblemData):
    """Q(u) = |Delta u|_2^2 - int a |grad u|^2 + int h u^2 (one value per field of a stack)."""
    g = problem.geometry
    g.check_same(u.geometry)
    uf = u.fine_values
    return (
        geo.bilap_energy(u)
        - _grad_weighted_sq(problem, u)
        + g.integrate_fine(problem.h_fine * uf * uf)
    )


def f_weighted_mass(u: SpectralField, problem: ProblemData, q: float):
    """int f |u|^q by refined-grid quadrature (one value per field of a stack)."""
    g = problem.geometry
    return g.integrate_fine(problem.f_fine * np.abs(u.fine_values) ** q)


def f_minus_moment(u: SpectralField, problem: ProblemData, q: float) -> float:
    """int f^- |u|^q by refined-grid quadrature."""
    g = problem.geometry
    return g.integrate_fine(problem.f_minus_fine * np.abs(u.fine_values) ** q)


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError("energy evaluation overflowed to a non-finite value")
    return value


def eval_F(u: SpectralField, problem: ProblemData, q: float):
    """Energy F_q(u); raises on a non-finite result.

    For a stack, a list with one float per field, each the value the
    field gets alone; any non-finite one raises.  This is the quadrature
    form of F, not the Parseval form of ``energy_and_grad``, whose
    rounding differs.
    """
    problem.exponents(q)
    value = quadratic_part(u, problem) - f_weighted_mass(u, problem, q)
    if np.ndim(value) == 0:
        return _finite(value)
    return [_finite(float(v)) for v in value]


def grad_F(u: SpectralField, problem: ProblemData, q: float) -> SpectralField:
    """Unconstrained L2 gradient of F_q (exact for the discrete quadratures); a stack for a stack."""
    w = 0.5 * q * problem.f_fine * np.abs(u.fine_values) ** (q - 2.0)
    return problem.geometry.field_from_coeffs(2.0 * apply_operator(problem, u, w))


def energy_and_grad(u: SpectralField, problem: ProblemData, q: float):
    """F_q(u) and grad F_q(u) from one operator application.

    With L_w u the half gradient, F_q(u) = <u, L_w u> + (q/2 - 1) int f |u|^q
    holds exactly for band-limited u (Parseval on the refined grid).  A
    non-finite F raises ValueError.  For a stack, F is a list with one
    float per field, non-finite entries included (the caller decides),
    and the gradient is a stack.
    """
    g = problem.geometry
    uf = u.fine_values
    fw = problem.f_fine * np.abs(uf) ** (q - 2.0)
    half_grad = apply_operator(problem, u, 0.5 * q * fw)
    f_mass = np.atleast_1d(g.integrate_fine(fw * uf * uf))
    rows = zip(u.coeffs.reshape(-1, g.size), half_grad.reshape(-1, g.size), f_mass)
    values = [float(np.vdot(c, hg).real + (0.5 * q - 1.0) * m) for c, hg, m in rows]
    grad = g.field_from_coeffs(2.0 * half_grad)
    if u.coeffs.ndim > g.d_eff:
        return values, grad
    return _finite(values[0]), grad


def constraint_direction(u: SpectralField, q: float) -> SpectralField:
    """Band projection of |u|^(q-2) u, the gradient direction of |u|_q^q / q."""
    g = u.geometry
    vals = signed_power(u.fine_values, q - 1.0)
    return g.fine_to_field(vals)


def el_residual(
    u: SpectralField,
    problem: ProblemData,
    q: float,
    lam: float,
    equation_normalized: bool = False,
) -> float:
    """L2 norm of the strong-form Euler-Lagrange residual.

    With the default (variational) weighting the residual is

        Delta^2 u + div(a grad u) + h u - (lam + (q/2) f) |u|^(q-2) u,

    matching the Lagrange-multiplier form of constrained minimizers.
    With ``equation_normalized=True`` the nonlinear weight is
    (lam + f): the form solved by the rescaled field
    u = (q/2)^(1/(q-2)) v, normally checked at lam = 0.
    """
    c = 1.0 if equation_normalized else 0.5 * q
    w = (lam + c * problem.f_fine) * np.abs(u.fine_values) ** (q - 2.0)
    res = apply_operator(problem, u, w)
    return math.sqrt(max(float(np.sum(np.abs(res) ** 2)), 0.0))


def variational_to_equation(v: SpectralField, q: float) -> SpectralField:
    """Rescale a critical point of F_q to a solution of the plain equation.

    u = (q/2)^(1/(q-2)) v turns Delta^2 v + ... = (q/2) f |v|^(q-2) v into
    Delta^2 u + ... = f |u|^(q-2) u.
    """
    return geo.scale(v, (0.5 * q) ** (1.0 / (q - 2.0)))


def einstein_preset(n: int, R: float):
    """Constant-coefficient operator of an Einstein manifold.

    Returns (alpha, a0) with operator Delta^2 + alpha * Delta + a0.  Under
    the sign convention Delta = -div grad, the middle term is reproduced
    by the coefficient field a = -alpha in div(a grad u).  Note a0 >= 0
    for every real R, so the zero-order coefficient violates the h < 0
    hypothesis; callers building a problem from the preset should check
    the resulting hypothesis flags.
    """
    if n < 5:
        raise ValueError(f"n must be >= 5, got {n}")
    alpha = (n * n - 2.0 * n - 4.0) / (2.0 * n * (n - 1.0)) * R
    a0 = (n - 4.0) * (n * n - 4.0) / (16.0 * n * (n - 1.0) ** 2) * R * R
    return alpha, a0
