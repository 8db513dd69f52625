import json
from pathlib import Path

import numpy as np
import pytest

from biharm.expressions import parse_coefficient
from biharm.geometry import TorusGeometry
from biharm.problem import ProblemData


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
