import json
from pathlib import Path

import numpy as np
import pytest

from biharm import problem as prob
from biharm.expressions import parse_coefficient
from biharm.geometry import SpectralField, TorusGeometry
from biharm.problem import ProblemData


# ----------------------------------------------------------------------
# oracles the package itself never needs


def laplacian(u: SpectralField) -> SpectralField:
    """Geometer's laplacian Delta = -div grad: multiplier +|2 pi m|^2."""
    return u.geometry.field_from_coeffs(u.geometry.lam * u.coeffs)


def hessian_sq_integral(u: SpectralField) -> float:
    """Integral of |grad^2 u|^2 from explicit spectral second derivatives.

    On the flat torus this equals the bilaplacian energy; computed here
    the long way (sum over all second partials) so the identity can be
    asserted independently.
    """
    g = u.geometry
    total = 0.0
    for i in range(g.d_eff):
        for j in range(g.d_eff):
            cij = g.deriv_mult[i] * g.deriv_mult[j] * u.coeffs
            total += float(np.sum(np.abs(cij) ** 2))
    return total


def eval_G(u: SpectralField, problem: ProblemData, q: float) -> float:
    """Auxiliary form G_q(u) = Q(u) + int f^- |u|^q.

    Satisfies F_q(u) = G_q(u) - int f^+ |u|^q by the sign split of f.
    """
    problem.exponents(q)
    return prob.quadratic_part(u, problem) + prob.f_minus_moment(u, problem, q)


@pytest.fixture(scope="session")
def geom64():
    return TorusGeometry(6, 1, 64)


@pytest.fixture(scope="session")
def geom128():
    return TorusGeometry(6, 1, 128)


@pytest.fixture(scope="session")
def geom2d():
    return TorusGeometry(7, 2, 32)


@pytest.fixture(scope="session")
def plate2d(geom2d):
    """2-D coefficients with a variable a; built from fields, which skips
    the adaptive quadrature of int f^- (the grid value is used)."""
    a, h, f = (
        parse_coefficient(e, geom2d)
        for e in ("0.1 + 0.05*cos(2*pi*x2)", "-1", "cos(2*pi*x1)*cos(2*pi*x2) - 0.25")
    )
    return ProblemData(geom2d, a, h, f)


@pytest.fixture(scope="session")
def bundled64(geom64):
    """Bundled example coefficients on the fast grid."""
    return ProblemData.from_expressions(geom64, "0.2", "-1", "cos(2*pi*x1) - 0.25")


@pytest.fixture(scope="session")
def bundled128(geom128):
    return ProblemData.from_expressions(geom128, "0.2", "-1", "cos(2*pi*x1) - 0.25")


@pytest.fixture(scope="session")
def toy64(geom64):
    """Small-scale two-solution landscape: q = 4 keeps everything O(1)."""
    return ProblemData.from_expressions(geom64, "0.2", "-1", "10*cos(2*pi*x1) - 1")


@pytest.fixture(scope="session")
def seed():
    return 0


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def assert_golden_certificate():
    """Check a report.json dict against tests/golden/certify_bundled.json.

    Floats agree to rel 1e-9; every other value and every key set is equal.
    """
    golden = Path(__file__).resolve().parent / "golden" / "certify_bundled.json"
    want = json.loads(golden.read_text())

    def compare(a, b, key):
        if isinstance(b, float) and isinstance(a, float):
            assert a == pytest.approx(b, rel=1e-9, abs=1e-12), key
        elif isinstance(b, dict):
            assert set(a) == set(b), key
            for kk in b:
                compare(a[kk], b[kk], f"{key}.{kk}")
        else:
            assert a == b, key

    return lambda got: compare(got, want, "report")
