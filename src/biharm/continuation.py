"""Subcritical-to-critical continuation of the negative-energy branch.

The negative-energy solutions exist for every subcritical exponent; as
q -> N = 2n/(n-4) their masses stay below the window edge l_q and their
H2 norms below an explicit bound, which is what lets the family converge
to a solution of the critical equation.  On a fixed grid the limit is
replaced by following the branch along the geometric schedule

    q_j = N - (N - q0) 2^(-j),     q0 = (2 + N) / 2,

finishing at q = N exactly.  One multistart ball solve at q0
(``first_solution``, the package's only ball solve, which accepts
nothing) finds the branch; from then on it is an interior,
nondegenerate minimizer, so each step is a Newton corrector (Allgower &
Georg, Introduction to Numerical Continuation Methods, SIAM 2003): the
previous step's solution is polished into a critical point at the new
exponent.  ``polish_minimizer``, the one acceptance rule, takes a point
(the ball minimizer at q0 included) only if it is interior to the ball,
has negative energy and has Morse index 0; a step it rejects ends the
run with NonConvergence.  Every checkable identity of the limit argument
(mass bound, bilaplacian bound, negative energies, the sign of
int f |v|^N and the limiting level bound) is verified along the way.
The splitting parameters (eta, sigma) are frozen from one certificate
so the bounds are comparable across the schedule.

The run checks the discrete model, as the probe-set embedding remainder
does.  With d_eff <= 2, H2 embeds in L^inf, so q = N is not an
embedding-critical exponent of the computed problem and nothing can
concentrate: the checks verify the paper's bounds but cannot exercise
its loss of compactness.  On configs/bundled.json the final critical
solution has F = -0.775942628622817 to 15 digits at grid sizes 64, 128,
256 and 512.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

from . import geometry as geo
from . import problem as prob
from .certifier import (
    CoercivityConstants,
    HypothesisReport,
    grad_interp_constant,
    window_cap,
    window_edge,
)
from .errors import DivergingNorms
from .geometry import SpectralField
from .minimizer import CriticalPointReport, first_solution
from .mountainpass import polish_minimizer
from .problem import ProblemData


@dataclass
class ContinuationTrace:
    """Per-exponent records of the continued negative-energy family."""

    schedule: list
    records: list                  # dict per q
    reports: list                  # CriticalPointReport per q
    final: CriticalPointReport
    eta: float
    sigma: float
    checks: dict = dataclass_field(default_factory=dict)


def critical_residual(u: SpectralField, problem: ProblemData) -> float:
    """Strong-form residual of the critical equation at the rescaled field u."""
    N = problem.geometry.critical_exponent
    return prob.el_residual(u, problem, N, 0.0, equation_normalized=True)


SCHEDULE_STEPS = 8    # subcritical exponents before the solve at q = N


def continue_to_critical(
    problem: ProblemData,
    certificate: HypothesisReport | CoercivityConstants,
    seed: int,
) -> ContinuationTrace:
    """Drive the negative-energy branch to the critical exponent.

    ``certificate`` is the hypothesis report at q0 = (2 + N)/2, or the
    ``search_coercivity`` constants it carries: only its ``eta`` and
    ``sigma`` are read, and they set the ball radius l_q at every step.
    Whether the hypotheses hold is the caller's decision; a certificate
    with no admissible eta (it fails condition (2)) falls back to
    eta = 0.5.
    The ball solve at q0, at solver ``seed``, is the only multistart
    solve.  Each step, q0 included, runs ``polish_minimizer`` on a seed
    field: at q0 the ball solve's minimizer, at each later exponent the
    previous step's solution.  The report's ``flags["seed"]`` says how
    the step was found: "newton" for a corrector step, else the winning
    start of the ball solve.

    Aborts with DivergingNorms when the explicit bilaplacian bound

        (1 - 2 sigma sup(a+)) |Delta v|^2
            <= (2 sup(a+) C(sigma) + sup|h|) l_q^(2/q) + sup|f| l_q

    fails at some step (the discrete family cannot be bounded), and with
    NonConvergence when ``polish_minimizer`` rejects a step, the ball
    minimizer at q0 included.
    """
    g = problem.geometry
    N = g.critical_exponent
    q0 = 0.5 * (2.0 + N)
    schedule = [N - (N - q0) * 2.0 ** (-j) for j in range(SCHEDULE_STEPS)] + [N]
    eta = certificate.eta if math.isfinite(certificate.eta) else 0.5
    sigma = certificate.sigma
    cap = window_cap(problem, grad_interp_constant(sigma, g))
    shrink = 1.0 - 2.0 * sigma * problem.a_plus_sup

    records = []
    reports = []
    edges = [window_edge(problem, q, eta, sigma) for q in schedule]
    ball = first_solution(problem, schedule[0], edges[0], seed)
    v, tag = ball.variational, ball.flags["seed"]
    for q, l_q in zip(schedule, edges):
        rep = polish_minimizer(problem, q, l_q, v, tag)
        v, tag = rep.variational, "newton"
        mass = rep.mass
        delta_sq = geo.bilap_energy(v)
        bound_rhs = cap * l_q ** (2.0 / q) + problem.f_sup * l_q
        if shrink * delta_sq > bound_rhs * (1.0 + 1e-9) + 1e-12:
            raise DivergingNorms(
                f"bilaplacian bound failed at q={q}: "
                f"{shrink * delta_sq} > {bound_rhs}"
            )
        u_eq = rep.field
        rec = {
            "q": q,
            "l_q": l_q,
            "mass": mass,
            "mass_ok": mass <= l_q + 1e-8,
            "energy": rep.energy,
            "energy_negative": rep.energy < 0.0,
            "delta_sq": delta_sq,
            "delta_bound_lhs": shrink * delta_sq,
            "delta_bound_rhs": bound_rhs,
            "h2_norm_eq": rep.h2_norm,
            "mass_eq": geo.lp_mass(u_eq, q),
            "mass_eq_bound": (0.5 * q) ** (q / (q - 2.0)) * l_q,
            "identity_gap_rel": rep.identity_gap_rel,
            "residual_eq": rep.residual_equation,
            "f_weight": rep.f_weight,
        }
        if problem.a_fine.max() <= 0.0:
            rec["energy_floor"] = (problem.h_min - problem.f_plus_sup) * max(l_q, 1.0)
            rec["energy_floor_ok"] = rep.energy >= rec["energy_floor"] - 1e-9
        records.append(rec)
        reports.append(rep)

    final = reports[-1]
    l_N = records[-1]["l_q"]
    k_lim = min(
        l_N,
        (abs(problem.int_h) / (2.0 * problem.int_f_minus)) ** (N / (N - 2.0)),
    )
    level_bound = 0.5 * k_lim ** (2.0 / N) * problem.int_h
    tail = [r.variational for r in reports[-4:-1]]
    drift = [geo.l2_norm(geo.add(v, final.variational, -1.0)) for v in tail]
    checks = {
        "all_energies_negative": all(r["energy_negative"] for r in records),
        "all_masses_bounded": all(r["mass_ok"] for r in records),
        "final_f_weight": final.f_weight,
        "final_f_weight_negative": final.f_weight < 0.0,
        "nontrivial": final.f_weight < 0.0 and geo.l2_norm(final.field) > 0.0,
        "level_bound_k": k_lim,
        "level_bound_rhs": level_bound,
        "level_bound_ok": final.energy <= level_bound + 1e-9,
        "critical_residual": critical_residual(final.field, problem),
        "weak_limit_drift": drift,
        "weak_limit_monotone": all(
            drift[i] >= drift[i + 1] - 1e-12 for i in range(len(drift) - 1)
        ),
    }
    return ContinuationTrace(
        schedule=schedule,
        records=records,
        reports=reports,
        final=final,
        eta=eta,
        sigma=sigma,
        checks=checks,
    )
