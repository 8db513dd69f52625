"""Deterministic JSON / CSV serialization of reports, curves and fields.

All writers produce byte-identical output for identical inputs: dict
keys are sorted, floats use the shortest round-trip representation
(Python's repr), row order is fixed, and no timestamps are embedded.
Non-finite floats appear as the JSON strings "inf", "-inf", "nan"
(strict JSON has no literals for them); consumers should treat those
strings as the corresponding IEEE values.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from pathlib import Path

import numpy as np


def jsonable(obj):
    """Recursively convert to plain JSON types (non-finite floats to strings)."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isfinite(x):
            return x
        return "nan" if math.isnan(x) else ("inf" if x > 0 else "-inf")
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return jsonable(dataclasses.asdict(obj))
    return obj


def write_json(path, data) -> None:
    text = json.dumps(jsonable(data), sort_keys=True, indent=2)
    Path(path).write_text(text + "\n", encoding="utf-8")


def hypothesis_report_dict(report) -> dict:
    d = dataclasses.asdict(report)
    d["moment_values"] = {repr(float(k)): v for k, v in report.moment_values.items()}
    return d


def critical_report_dict(report) -> dict:
    """Scalar summary of a CriticalPointReport (fields dumped separately)."""
    return {
        "schema_version": 1,
        "q": report.q,
        "energy": report.energy,
        "mass": report.mass,
        "f_weight": report.f_weight,
        "f_weight_sign": report.f_weight_sign,
        "identity_gap_rel": report.identity_gap_rel,
        "residual_equation": report.residual_equation,
        "residual_variational": report.residual_variational,
        "grad_norm": report.grad_norm,
        "h2_norm": report.h2_norm,
        "q_norm": report.q_norm,
        "converged": report.converged,
        "flags": report.flags,
    }


def best_iterate_dict(best) -> dict:
    """Summary of the best iterate a ``NonConvergence`` carries.

    ``best`` is a ``CriticalPointReport`` or a ``MountainPassResult``;
    the latter adds its path level ``nu`` and its iteration count.
    """
    report = getattr(best, "report", best)
    out = {
        "energy": report.energy,
        "residual_equation": report.residual_equation,
        "converged": best.converged,
    }
    if hasattr(best, "nu"):
        out["nu"] = best.nu
        out["iterations"] = best.iterations
    return out


def continuation_trace_dict(trace) -> dict:
    return {
        "schema_version": 1,
        "schedule": list(trace.schedule),
        "eta": trace.eta,
        "sigma": trace.sigma,
        "records": trace.records,
        "checks": trace.checks,
        "final": critical_report_dict(trace.final),
    }


def curve_to_csv(curve, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "mu", "lagrange", "residual", "iterations", "flags"])
        for i in range(len(curve.ks)):
            w.writerow(
                [
                    repr(float(curve.ks[i])),
                    repr(float(curve.mus[i])),
                    repr(float(curve.lagranges[i])),
                    repr(float(curve.residuals[i])),
                    int(curve.iterations[i]),
                    curve.flags[i],
                ]
            )


def curve_annotations_dict(curve) -> dict:
    return {
        "schema_version": 1,
        "q": curve.q,
        "k_min": float(curve.ks[0]),
        "k_max": float(curve.ks[-1]),
        "n_points": int(len(curve.ks)),
        "annotations": dict(curve.annotations),
    }


def field_to_csv(field, path) -> None:
    g = field.geometry
    coords = g.coordinates()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow([f"x{i + 1}" for i in range(g.d_eff)] + ["value"])
        flat = [c.ravel() for c in coords]
        vals = field.samples.ravel()
        for j in range(vals.size):
            w.writerow([repr(float(c[j])) for c in flat] + [repr(float(vals[j]))])


def field_spectral_dict(field) -> dict:
    """Binary-free spectral dump: one [mode..., re, im] row per retained mode."""
    g = field.geometry
    rows = []
    it = np.ndindex(*g.shape)
    for idx in it:
        if not g.band_mask[idx]:
            continue
        c = field.coeffs[idx]
        if c == 0:
            continue
        ms = [int(g.mode_numbers[ax][idx]) for ax in range(g.d_eff)]
        rows.append(ms + [float(c.real), float(c.imag)])
    return {
        "schema_version": 1,
        "n_ambient": g.n_ambient,
        "d_eff": g.d_eff,
        "grid_size": g.grid_size,
        "convention": "u(x) = sum_m (re + i im) exp(2 pi i m.x); conjugate modes both listed",
        "modes": rows,
    }


def path_profile_csv(rows, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["iteration", "node", "energy"])
        for it, node, energy in rows:
            w.writerow([int(it), int(node), repr(float(energy))])


def gnuplot_script(csv_name: str, title: str) -> str:
    return (
        "set logscale x\n"
        "set xlabel 'k'\n"
        "set ylabel 'mu'\n"
        f"set title '{title}'\n"
        "set datafile separator ','\n"
        f"plot '{csv_name}' every ::1 using 1:2 with linespoints notitle\n"
    )
