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

    F_q(u) = |Delta u|_2^2 - int a |grad u|^2 + int h u^2 - int f |u|^q,

and its auxiliary form G_q replaces the last term by + int f^- |u|^q.
Both are evaluated with the refined-grid quadrature of the geometry
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
from scipy import integrate

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

    @property
    def subcritical(self) -> bool:
        return self.q < self.critical - 1e-12


class ProblemData:
    """Coefficients (a, h, f) with derived data used by every solver.

    The sign split f = f+ - f- is stored pointwise on the refined
    quadrature grid, where all coefficient integrals are evaluated.  All
    "sup" quantities are maxima over that grid; they are
    discretization-level surrogates for the continuum suprema.

    ``int_f_minus`` is computed by adaptive quadrature of the coefficient
    expression when one is available (f^- has kinks, where fixed-grid
    quadrature converges only quadratically); otherwise it falls back to
    the refined-grid value.

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
        self.h_max = float(np.max(self.h_fine))
        self.f_max = float(np.max(self.f_fine))
        self.f_plus_sup = float(np.max(self.f_plus_fine))
        self.f_minus_sup = float(np.max(self.f_minus_fine))
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

    @classmethod
    def from_fields(cls, geometry, a, h, f) -> "ProblemData":
        return cls(geometry, a, h, f)

    def _adaptive_int_f_minus(self) -> float:
        if "f" not in self.expressions:
            return self.int_f_minus_grid
        expr = Expression(self.expressions["f"], self.geometry.d_eff)
        if self.geometry.d_eff == 1:
            fn = lambda x: max(-float(expr(x)), 0.0)
            val, _ = integrate.quad(fn, 0.0, 1.0, limit=400, epsabs=1e-12, epsrel=1e-12)
        else:
            fn = lambda y, x: max(-float(expr(x, y)), 0.0)
            val, _ = integrate.dblquad(
                fn, 0.0, 1.0, 0.0, 1.0, epsabs=1e-10, epsrel=1e-10
            )
        return float(val)

    def exponents(self, q: float) -> ExponentPair:
        return ExponentPair(q, self.geometry.n_ambient)

    def __repr__(self):
        return f"ProblemData(geometry={self.geometry!r})"


# ----------------------------------------------------------------------
# the operator kernel and the energy


def apply_operator(
    problem: ProblemData, v: SpectralField, w_fine: np.ndarray | None = None
) -> np.ndarray:
    """Native-band coefficients of Delta^2 v + div(a grad v) + P((h - w) v).

    ``w_fine`` is the zero-order weight on the refined grid (None for
    w = 0), one per field for a stack.  Every operator the solvers apply
    is this one with a different weight; see the module docstring.
    """
    g = problem.geometry
    g.check_same(v.geometry)
    zero_order = problem.h_fine if w_fine is None else problem.h_fine - w_fine
    out = g.lam_sq * v.coeffs + g.div_a_grad_coeffs(problem.a_fine, v.coeffs)
    out += g.fine_to_coeffs(zero_order * v.fine_values)
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


def eval_G(u: SpectralField, problem: ProblemData, q: float) -> float:
    """Auxiliary form G_q(u) = Q(u) + int f^- |u|^q.

    Satisfies F_q(u) = G_q(u) - int f^+ |u|^q by the sign split of f.
    """
    problem.exponents(q)
    return _finite(quadratic_part(u, problem) + f_minus_moment(u, problem, q))


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
