"""Correctness checks and digests of one CLI run's artifacts.

The tolerances are the repository's own gates: certificate constants at
rel 1e-9 / abs 1e-12 (the golden-certificate test) and solution
residuals at 1e-6 (acceptance criterion 6 and the CLI tests).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

CERT_REL = 1e-9
CERT_ABS = 1e-12
RESIDUAL_TOL = 1e-6


def digests(out_dir: Path) -> dict:
    """SHA-256 of every artifact in the output directory, by file name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(out_dir).iterdir())
        if p.is_file()
    }


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _compare(got, want, key: str, problems: list) -> None:
    numbers = (int, float)
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            problems.append(f"{key}: keys differ from reference")
            return
        for k in want:
            _compare(got[k], want[k], f"{key}.{k}", problems)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            problems.append(f"{key}: length differs from reference")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{key}[{i}]", problems)
    elif (
        isinstance(want, numbers) and isinstance(got, numbers)
        and not isinstance(want, bool) and not isinstance(got, bool)
    ):
        if not math.isclose(got, want, rel_tol=CERT_REL, abs_tol=CERT_ABS):
            problems.append(f"{key}: {got!r} != reference {want!r}")
    elif got != want:
        problems.append(f"{key}: {got!r} != reference {want!r}")


def _check_solution(report: dict, name: str, problems: list) -> None:
    scale = 1.0 + abs(report["energy"])
    if not report["residual_equation"] <= RESIDUAL_TOL * scale:
        problems.append(f"{name}: residual_equation {report['residual_equation']!r}")
    if not report["identity_gap_rel"] <= RESIDUAL_TOL:
        problems.append(f"{name}: identity_gap_rel {report['identity_gap_rel']!r}")


def check_run(workload, out_dir: Path, exit_code: int, reference: dict) -> list:
    """Problems found in one run; an empty list means the run is correct.

    ``reference`` holds the certificate and the artifact names recorded
    for the same workload and solver seed.
    """
    out_dir = Path(out_dir)
    problems = []
    if exit_code != workload.expected_exit:
        problems.append(f"exit code {exit_code}, expected {workload.expected_exit}")
    names = sorted(p.name for p in out_dir.iterdir()) if out_dir.is_dir() else []
    if names != sorted(reference["digests"]):
        problems.append(f"artifacts {names} differ from reference")
        return problems

    _compare(_load(out_dir / workload.certificate), reference["certificate"],
             workload.certificate, problems)
    for path in sorted(out_dir.glob("*.report.json")):
        _check_solution(_load(path), path.name, problems)

    if "solve_sub.json" in names:
        e_min, e_mp = _load(out_dir / "solve_sub.json")["energies"]
        if not e_min < 0.0 < e_mp:
            problems.append(f"energy ordering F(min)={e_min!r} < 0 < F(mp)={e_mp!r} fails")
    if "continuation.json" in names:
        trace = _load(out_dir / "continuation.json")
        for key, value in trace["checks"].items():
            if isinstance(value, bool) and not value:
                problems.append(f"continuation check {key} is false")
        scale = 1.0 + abs(trace["final"]["energy"])
        if not trace["checks"]["critical_residual"] <= RESIDUAL_TOL * scale:
            problems.append(f"critical_residual {trace['checks']['critical_residual']!r}")
    return problems
