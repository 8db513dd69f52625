import math

import numpy as np
import pytest

from biharm import continuation
from biharm import geometry as geo
from biharm import problem as prob
from biharm.certifier import certify
from biharm.continuation import (
    continue_to_critical,
    critical_residual,
    window_edge,
)
from biharm.errors import NonConvergence
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


def _flaky_first_solution(monkeypatch, failing):
    """Patch the continuation's ball solver to raise NonConvergence on the calls in ``failing``.

    Returns the list of (q, seed, init) of every call, in order.
    """
    calls = []
    solve = continuation.first_solution

    def flaky(problem, q, cap, seed, init=None):
        calls.append((q, seed, init))
        if len(calls) in failing:
            raise NonConvergence("ball minimization did not reach negative energy")
        return solve(problem, q, cap, seed, init=init)

    monkeypatch.setattr(continuation, "first_solution", flaky)
    return calls


def test_failed_step_is_retried_cold_at_the_next_seed(bundled64, monkeypatch):
    certificate = _certificate(bundled64, 0)
    calls = _flaky_first_solution(monkeypatch, failing={3})
    monkeypatch.setattr(continuation, "SCHEDULE_STEPS", 2)
    trace = continue_to_critical(bundled64, certificate, 4)
    assert len(trace.records) == 3
    q0, q1, q2 = trace.schedule
    assert [(q, seed) for q, seed, _ in calls] == [(q0, 4), (q1, 4), (q2, 4), (q2, 5)]
    assert calls[0][2] is None and calls[1][2] is not None and calls[2][2] is not None
    assert calls[3][2] is None                     # the retry is a cold solve


def test_failed_retry_propagates(bundled64, monkeypatch):
    certificate = _certificate(bundled64, 0)
    calls = _flaky_first_solution(monkeypatch, failing={2, 3})
    monkeypatch.setattr(continuation, "SCHEDULE_STEPS", 2)
    with pytest.raises(NonConvergence):
        continue_to_critical(bundled64, certificate, 0)
    assert [(seed, init is None) for _, seed, init in calls] == [(0, True), (0, False), (1, True)]
