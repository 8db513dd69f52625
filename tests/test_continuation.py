import math

import numpy as np
import pytest

from biharm import continuation, mountainpass
from biharm import geometry as geo
from biharm import problem as prob
from biharm.certifier import certify
from biharm.continuation import (
    continue_to_critical,
    critical_residual,
    window_edge,
)
from biharm.errors import NonConvergence
from biharm.minimizer import first_solution
from biharm.mountainpass import _hessian_apply, morse_index
from biharm.problem import ProblemData

TWO_PI = 2.0 * math.pi


def _certificate(problem, seed):
    """The certificate at q0 = (2 + N)/2 that the critical continuation starts from."""
    return certify(problem, 0.5 * (2.0 + problem.geometry.critical_exponent), seed)


@pytest.fixture(scope="module")
def trace64(bundled64):
    return continue_to_critical(bundled64, _certificate(bundled64, 0), 0)


def test_schedule_geometry(trace64, bundled64):
    N = bundled64.geometry.critical_exponent
    q0 = 0.5 * (2.0 + N)
    sched = trace64.schedule
    assert len(sched) == 9
    assert sched[0] == pytest.approx(q0)
    assert sched[-1] == N                      # final solve at exactly N
    gaps = [N - q for q in sched[:-1]]
    for a, b in zip(gaps, gaps[1:]):
        assert b == pytest.approx(0.5 * a, rel=1e-12)


def test_energies_negative_along_family(trace64):
    assert trace64.checks["all_energies_negative"]
    for rec in trace64.records:
        assert rec["energy"] < 0.0


def test_mass_bounds_along_family(trace64):
    assert trace64.checks["all_masses_bounded"]
    for rec in trace64.records:
        assert rec["mass"] <= rec["l_q"] + 1e-8
        # equation-normalized mass bound (q/2)^(q/(q-2)) l_q
        assert rec["mass_eq"] <= rec["mass_eq_bound"] + 1e-8


def test_bilaplacian_bound_along_family(trace64):
    for rec in trace64.records:
        assert rec["delta_bound_lhs"] <= rec["delta_bound_rhs"] * (1.0 + 1e-9)


def test_window_edge_decreases_toward_critical(bundled64):
    # base > 1 makes l_q monotone decreasing in q on this instance
    eta, sigma = 0.5, 1.25
    qs = np.linspace(4.0, 6.0, 9)
    edges = [window_edge(bundled64, q, eta, sigma) for q in qs]
    assert all(a > b for a, b in zip(edges, edges[1:]))
    from biharm.certifier import coercivity_constants, embedding_remainder, moment_rayleigh

    cc = coercivity_constants(
        bundled64, 4.0, eta, sigma, 0.1,
        lam_eta_q=moment_rayleigh(bundled64, eta, 4.0, 0),
        remainder=embedding_remainder(bundled64.geometry, 0.1, seed=0),
    )
    assert cc.k_low == pytest.approx(window_edge(bundled64, 4.0, eta, sigma), rel=1e-12)


def test_final_candidate_checks(trace64):
    checks = trace64.checks
    assert checks["final_f_weight_negative"]
    assert checks["nontrivial"]
    assert checks["level_bound_ok"]
    final = trace64.final
    assert final.energy <= checks["level_bound_rhs"] + 1e-9
    assert checks["critical_residual"] <= 1e-6 * (1.0 + abs(final.energy))


def test_weak_limit_proxy(trace64):
    drift = trace64.checks["weak_limit_drift"]
    assert len(drift) == 3
    assert trace64.checks["weak_limit_monotone"]


def test_energy_floor_with_nonpositive_a(geom64):
    # dropping the a-term is valid when a <= 0: the floor must hold
    p = ProblemData.from_expressions(geom64, "-0.1", "-1", "cos(2*pi*x1) - 0.25")
    trace = continue_to_critical(p, _certificate(p, 0), 0)
    for rec in trace.records:
        assert "energy_floor" in rec
        assert rec["energy_floor_ok"]
        assert rec["energy"] >= rec["energy_floor"] - 1e-9


def test_critical_residual_manufactured(geom64):
    N = geom64.critical_exponent
    coeffs = np.zeros(geom64.shape, dtype=np.complex128)
    coeffs[0] = 2.0
    coeffs[1] = 0.25
    coeffs[-1] = 0.25
    u = geom64.field_from_coeffs(coeffs)
    a = geom64.constant(0.2)
    h = geom64.constant(-1.0)
    div = geom64.field_from_coeffs(-0.2 * geom64.lam * u.coeffs)   # -a |2 pi m|^2
    lhs = geo.add(geo.add(geo.bilaplacian(u), div), geo.scale(u, -1.0))
    f = geom64.field(lhs.samples / prob.signed_power(u.samples, N - 1.0))
    p = ProblemData(geom64, a, h, f)
    assert critical_residual(u, p) <= 1e-10
    assert critical_residual(geom64.constant(0.0), p) == 0.0


def test_schedule_refinement_continuity(bundled64, monkeypatch):
    # doubling the schedule depth shrinks the warm-start energy jumps
    certificate = _certificate(bundled64, 0)
    t8 = continue_to_critical(bundled64, certificate, 0)
    monkeypatch.setattr(continuation, "SCHEDULE_STEPS", 16)
    t16 = continue_to_critical(bundled64, certificate, 0)

    def last_jump(trace):
        e = [r["energy"] for r in trace.records]
        return abs(e[-1] - e[-2])

    assert last_jump(t16) < last_jump(t8)
    assert t16.final.energy == pytest.approx(t8.final.energy, rel=1e-6)


def _ball_solve_branch(problem, trace, seed):
    """Energies of the branch when every exponent gets a cold multistart ball solve."""
    energies = []
    for q in trace.schedule:
        l_q = window_edge(problem, q, trace.eta, trace.sigma)
        energies.append(first_solution(problem, q, l_q, seed).energy)
    return energies


@pytest.mark.parametrize("seed", [0, 1])
def test_corrector_matches_ball_solves_at_every_exponent(bundled64, seed):
    trace = continue_to_critical(bundled64, _certificate(bundled64, seed), seed)
    reference = _ball_solve_branch(bundled64, trace, seed)
    assert len(reference) == len(trace.records)
    for rec, F in zip(trace.records, reference):
        assert rec["energy"] == pytest.approx(F, rel=1e-12)
        assert rec["residual_eq"] <= 1e-12 * (1.0 + abs(rec["energy"]))
    for key, value in trace.checks.items():
        if isinstance(value, bool):
            assert value, key


def test_every_step_is_an_interior_index_0_minimizer(trace64, bundled64):
    # the ball solve at q0 finds the branch; the corrector follows it
    assert [r.flags["seed"] for r in trace64.reports[1:]] == ["newton"] * 8
    for rep, rec in zip(trace64.reports, trace64.records):
        assert rep.converged
        assert rec["mass"] < rec["l_q"] * (1.0 - 1e-9)
        assert morse_index(bundled64, rep.q, rep.variational) == 0


def test_nyquist_null_direction_is_not_counted(trace64, bundled64):
    # on grid samples the Hessian action at the critical minimizer has
    # the band's spectrum plus the Nyquist direction, an exact null
    # vector whose computed eigenvalue is rounding of either sign; the
    # band count does not see it
    g = bundled64.geometry
    N, v = g.critical_exponent, trace64.final.variational
    S = _hessian_apply(bundled64, N, v, g.field(np.eye(g.size))).samples.T
    nyquist = (-1.0) ** np.arange(g.size) / math.sqrt(g.size)
    assert not np.any(_hessian_apply(bundled64, N, v, g.field(nyquist)).coeffs)
    ev, vecs = np.linalg.eigh(0.5 * (S + S.T))
    null = int(np.argmin(np.abs(ev)))
    assert abs(ev[null]) <= 1e-12 * np.abs(ev).max()
    assert abs(vecs[:, null] @ nyquist) == pytest.approx(1.0, abs=1e-9)
    assert np.delete(ev, null).min() > 1.0
    assert morse_index(bundled64, N, v) == 0


def _reject_call(monkeypatch, module, name, rejected, value):
    """Patch ``module.name`` so that call number ``rejected`` returns ``value(*args)``."""
    calls = []
    real = getattr(module, name)

    def patched(*args):
        calls.append(args)
        return value(*args) if len(calls) == rejected else real(*args)

    monkeypatch.setattr(module, name, patched)
    return calls


@pytest.mark.parametrize(
    "module, name, value, condition",
    [
        (mountainpass, "refine_critical_point", lambda problem, q, u: (u, 1.0, False),
         "polish did not converge"),
        (mountainpass, "morse_index", lambda problem, q, u: 1, "Morse index 1, not 0"),
        (continuation, "window_edge", lambda problem, q, eta, sigma: 1e-12,
         "is not interior to the ball"),
    ],
    ids=["unconverged-corrector", "index-1", "boundary-mass"],
)
def test_rejected_step_raises_nonconvergence(bundled64, monkeypatch, module, name, value,
                                             condition):
    # schedule q0, q1, q2: the second polish, index count and window
    # edge belong to the corrector step at q1
    certificate = _certificate(bundled64, 0)
    monkeypatch.setattr(continuation, "SCHEDULE_STEPS", 2)
    balls = _reject_call(monkeypatch, continuation, "first_solution", None, None)  # recorded only
    _reject_call(monkeypatch, module, name, 2, value)
    with pytest.raises(NonConvergence, match=condition) as exc:
        continue_to_critical(bundled64, certificate, 0)
    N = bundled64.geometry.critical_exponent
    best = exc.value.best
    assert best.q == N - 0.5 * (N - 0.5 * (2.0 + N))
    assert best.flags["seed"] == "newton"
    assert len(balls) == 1                      # the q0 ball solve, and no other
