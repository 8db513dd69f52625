"""Batch front-end: certify, mu-curve, solve-sub, mountain-pass, solve-critical.

Runs are configured by a JSON file (schema below, documented in the
README) plus a few override flags, and write deterministic artifacts
into the output directory.  Every failure path exits nonzero and leaves
a machine-readable ``error.json``; when a solve stopped above its
tolerance with a best iterate, that iterate's energy, equation residual
and convergence flag (and, for the mountain pass, its level ``nu`` and
iteration count) are kept under ``best``.

Config schema (all coefficients are expressions in the documented
mini-grammar)::

    {
      "geometry":     {"n_ambient": 6, "d_eff": 1, "grid_size": 128},
      "coefficients": {"a": "0.2", "h": "-1", "f": "cos(2*pi*x1) - 0.25"},
      "exponent":     {"q": 2.5},
      "curve":        {"k_min": 1.0, "k_max": 1e15, "k_steps": 48},
      "solver":       {"seed": 0}
    }

``solver.seed`` (overridden by ``--seed``) is a non-negative integer;
the solver block takes no other key.  ``q`` (``exponent.q`` or ``--q``)
must be a finite number (not a string or a bool) in (2, N], N = 2n/(n-4)
the critical exponent.  The geometry keys and ``curve.k_steps`` are
integers and ``curve.k_min``/``k_max`` finite numbers (a float or a bool
where an integer belongs is an error, not truncated); the curve settings
are checked before any solve.  The ``exponent``, ``curve`` and ``solver``
sections may be absent or null; any other non-object is an error.

The hypothesis gate lives here and nowhere else: ``mu-curve``,
``solve-sub`` and ``mountain-pass`` need conditions (1), (2) and (3) of
the certificate at their exponent q, ``solve-critical`` needs (1) and
(2) at q0 = (2 + N)/2.  A failed gate exits 4 (``mu-curve`` writes the
certificate to ``report.json`` first); ``--force`` proceeds anyway,
since the conditions are sufficient, not necessary.  Without ``--force``
the gate is decided before any solve.  With it nothing waits for the
whole certificate: every command but ``certify`` starts its solves in
worker processes (``start_certify``, one per CPU).  ``mu-curve``,
``solve-sub`` and ``mountain-pass`` trace the curve and run the mountain
pass meanwhile; ``solve-critical`` waits only for the (eta, sigma)
search (``search_coercivity``) and runs the continuation while the
masked quotients finish.  Each collects the report with
``finish_certify`` in a ``finally``.  The artifacts are the same bytes
either way, and an error of the certificate outranks one of the curve,
the mountain pass or the continuation.  The solvers take the
certificate's numbers (window edge, eta, sigma) and check nothing.

Exit codes: 0 success (for ``certify``: conditions (1) and (2) hold),
2 configuration/validation error, 3 numeric failure, 4 hypothesis gate
failed, 5 non-convergence (for the mountain pass also a path whose
polished maximum was rejected at every poll up to the iteration cap:
a Newton polish that did not converge, a Morse index other than 1, or
an energy below the hump maximum ``mu_lo``; for ``solve-sub`` and
``solve-critical`` also a negative-energy solution whose polish did not
converge, whose mass is not interior to the ball, whose energy is not
negative or that is not of Morse index 0), 6 curve shape not found,
7 path collapse.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import serialize as ser
from .certifier import certify, finish_certify, search_coercivity, start_certify
from .continuation import continue_to_critical
from .errors import (
    BiharmError,
    Collapse,
    ConfigError,
    DivergingNorms,
    ExpressionError,
    HypothesisViolated,
    InfeasibleConstraint,
    NonConvergence,
    ShapeNotFound,
)
from .geometry import TorusGeometry
from .minimizer import annotate_certified_window, trace_mu_curve
from .mountainpass import polish_minimizer, second_solution
from .problem import ProblemData

_EXIT_CONFIG = 2
_EXIT_NUMERIC = 3
_EXIT_HYPOTHESIS = 4
_EXIT_NONCONVERGENCE = 5
_EXIT_SHAPE = 6
_EXIT_COLLAPSE = 7


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _section(cfg: dict, section: str) -> dict:
    """An optional config section: absent or null is {}, any other non-object an error."""
    block = cfg.get(section)
    if block is not None and not isinstance(block, dict):
        raise ConfigError(f"config section {section!r} must be an object, got {block!r}")
    return block or {}


def _require(cfg: dict, section: str, keys) -> dict:
    block = cfg.get(section)
    if not isinstance(block, dict):
        raise ConfigError(f"config section {section!r} is missing")
    for key in keys:
        if key not in block:
            raise ConfigError(f"config key {section}.{key} is missing")
    return block


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    # the comparison is exact for ints, so one too large for a float fails too
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


def _build_problem(cfg: dict, require_f_minus: bool) -> ProblemData:
    keys = ("n_ambient", "d_eff", "grid_size")
    gblock = _require(cfg, "geometry", keys)
    for key in keys:
        if not _is_int(gblock[key]):
            raise ConfigError(f"geometry.{key} must be an integer, got {gblock[key]!r}")
    try:
        geometry = TorusGeometry(*(gblock[key] for key in keys))
    except ValueError as exc:
        raise ConfigError(str(exc))
    cblock = _require(cfg, "coefficients", ("a", "h", "f"))
    try:
        problem = ProblemData.from_expressions(
            geometry, str(cblock["a"]), str(cblock["h"]), str(cblock["f"])
        )
    except ExpressionError as exc:
        raise ConfigError(f"coefficient expression: {exc}")
    if not problem.h_negative:
        raise ConfigError("h must be negative at every grid node")
    if require_f_minus and not problem.f_minus_positive:
        raise ConfigError("this command requires int f^- > 0 (f must dip below zero)")
    return problem


def _seed(cfg: dict, args) -> int:
    """The solver seed: ``--seed``, else ``solver.seed``, else 0."""
    block = _section(cfg, "solver")
    unknown = sorted(set(block) - {"seed"})
    if unknown:
        raise ConfigError(f"unknown solver setting {', '.join(unknown)}: only seed is accepted")
    seed = args.seed if getattr(args, "seed", None) is not None else block.get("seed", 0)
    if not _is_int(seed) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


def _exponent(cfg: dict, args, problem: ProblemData) -> float:
    """The exponent: ``--q``, else ``exponent.q``; a finite number in (2, N]."""
    block = _section(cfg, "exponent")
    if getattr(args, "q", None) is not None:
        q = args.q
    elif "q" in block:
        q = block["q"]
    else:
        raise ConfigError("exponent q missing: set exponent.q or pass --q")
    if not _is_finite_number(q):
        raise ConfigError(f"exponent.q must be a finite number, got {q!r}")
    q = float(q)
    try:
        problem.exponents(q)
    except ValueError as exc:
        raise ConfigError(f"exponent: {exc}")
    return q


def _k_range(cfg: dict, args) -> tuple[float, float, int]:
    block = _section(cfg, "curve")
    k_min = args.k_min if args.k_min is not None else block.get("k_min")
    k_max = args.k_max if args.k_max is not None else block.get("k_max")
    k_steps = args.k_steps if args.k_steps is not None else block.get("k_steps", 48)
    if k_min is None or k_max is None:
        raise ConfigError("k range missing: set curve.k_min/k_max or pass --k-min/--k-max")
    for key, value in (("k_min", k_min), ("k_max", k_max)):
        if not _is_finite_number(value):
            raise ConfigError(f"curve.{key} must be a finite number, got {value!r}")
    if not _is_int(k_steps):
        raise ConfigError(f"curve.k_steps must be an integer, got {k_steps!r}")
    k_min, k_max = float(k_min), float(k_max)
    if not (0.0 < k_min < k_max) or k_steps < 8:
        raise ConfigError("need 0 < k_min < k_max and k_steps >= 8")
    return k_min, k_max, k_steps


def _setup(args, require_f_minus: bool = True):
    """Config, problem, solver seed and output directory of a command."""
    cfg = _load_config(args.config)
    problem = _build_problem(cfg, require_f_minus)
    seed = _seed(cfg, args)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return cfg, problem, seed, out


def _gate(problem, q, seed: int, force: bool, subcritical: bool = True, report_path=None):
    """Certificate at q; HypothesisViolated when its conditions fail and not ``force``.

    The two-solution commands (``subcritical``) need conditions (1)-(3),
    the critical continuation (1)-(2).  A failing certificate is written
    to ``report_path`` first when one is given.
    """
    report = certify(problem, q, seed)
    ok = report.passed_subcritical if subcritical else report.passed
    if not ok and not force:
        if report_path is not None:
            ser.write_json(report_path, ser.hypothesis_report_dict(report))
        raise HypothesisViolated(
            "certificate conditions fail "
            f"(spectral={report.cond_spectral}, ratio={report.cond_ratio}, "
            f"positive={report.cond_positive}); rerun with --force to proceed"
        )
    return report


def _dump_solution(out: Path, stem: str, report) -> None:
    ser.write_json(out / f"{stem}.report.json", ser.critical_report_dict(report))
    ser.field_to_csv(report.field, out / f"{stem}.field.csv")
    ser.write_json(out / f"{stem}.spectral.json", ser.field_spectral_dict(report.field))


def cmd_certify(args) -> int:
    cfg, problem, seed, out = _setup(args, require_f_minus=False)
    report = certify(problem, _exponent(cfg, args, problem), seed)
    ser.write_json(out / "report.json", ser.hypothesis_report_dict(report))
    return 0 if report.passed else _EXIT_HYPOTHESIS


def _certificate(problem, q, seed: int, force: bool, report_path=None):
    """Collector of the certificate at q for the curve commands.

    Without ``force`` the gate decides here, before any curve solve, and
    the collector returns its report.  With ``force`` nothing waits for
    the certificate: its solves start in worker processes, one per CPU,
    while the caller traces the curve, and the collector is
    ``finish_certify``, which waits for them.  Collect in a ``finally``:
    the pool is closed then, and an error of the certificate outranks
    the caller's, as when the certificate came first.
    """
    if force:
        pending = start_certify(problem, q, seed)
        return lambda: finish_certify(pending)
    report = _gate(problem, q, seed, False, report_path=report_path)
    return lambda: report


def _write_curve(out: Path, curve, certificate) -> None:
    """``mu.csv`` and ``annotations.json``, with the certificate's window."""
    annotate_certified_window(curve, certificate)
    ser.curve_to_csv(curve, out / "mu.csv")
    ser.write_json(out / "annotations.json", ser.curve_annotations_dict(curve))


def cmd_mu_curve(args) -> int:
    cfg, problem, seed, out = _setup(args)
    q = _exponent(cfg, args, problem)
    k_range = _k_range(cfg, args)
    collect = _certificate(problem, q, seed, args.force, report_path=out / "report.json")
    try:
        curve = trace_mu_curve(problem, q, *k_range, seed)
    finally:
        certificate = collect()
    _write_curve(out, curve, certificate)
    (out / "mu.gp").write_text(
        ser.gnuplot_script("mu.csv", f"constrained energy infimum, q={q}"),
        encoding="utf-8",
    )
    return 0


def _two_solutions(problem, q, cfg, args, seed, out):
    """Shared pipeline: certificate, curve, mountain pass.

    Returns the certificate, the curve, the mountain-pass result and the
    summary keys that ``mountain-pass`` and ``solve-sub`` both write.
    When the curve or the mountain pass fails, the certificate and a traced
    curve are written before the error is raised, as when the certificate
    came first.
    """
    k_range = _k_range(cfg, args)
    collect = _certificate(problem, q, seed, args.force)
    curve = None
    try:
        curve = trace_mu_curve(problem, q, *k_range, seed)
        (l1, l2, l_o), _, mp = second_solution(problem, q, curve)
    finally:
        certificate = collect()
        ser.write_json(out / "certificate.json", ser.hypothesis_report_dict(certificate))
        if curve is not None:
            _write_curve(out, curve, certificate)
    ser.path_profile_csv(mp.profile_rows, out / "path_profile.csv")
    summary = {
        "schema_version": 1,
        "q": q,
        "l1": l1,
        "l2": l2,
        "l_o": l_o,
        "nu": mp.nu,
        "path_max": mp.path_max,
        "mu_lo": curve.annotations.get("mu_lo"),
    }
    return certificate, curve, mp, summary


def cmd_mountain_pass(args) -> int:
    cfg, problem, seed, out = _setup(args)
    q = _exponent(cfg, args, problem)
    _, _, mp, summary = _two_solutions(problem, q, cfg, args, seed, out)
    _dump_solution(out, "solution_mp", mp.report)
    summary.update(iterations=mp.iterations, converged=mp.converged)
    ser.write_json(out / "mountain_pass.json", summary)
    return 0


def cmd_solve_sub(args) -> int:
    cfg, problem, seed, out = _setup(args)
    q = _exponent(cfg, args, problem)
    certificate, curve, mp, summary = _two_solutions(problem, q, cfg, args, seed, out)
    # the curve's negative minimum is the minimum of F_q over small masses
    rep_min = polish_minimizer(problem, q, certificate.k_low, curve.neg_minimizer, "curve")
    _dump_solution(out, "solution_min", rep_min)
    _dump_solution(out, "solution_mp", mp.report)
    ordering_ok = rep_min.energy < 0.0 < mp.report.energy
    summary.update(energies=[rep_min.energy, mp.report.energy], energy_ordering_ok=ordering_ok)
    ser.write_json(out / "solve_sub.json", summary)
    if not ordering_ok:
        raise NonConvergence("energy ordering F(min) < 0 < F(mp) failed")
    return 0


def cmd_solve_critical(args) -> int:
    _, problem, seed, out = _setup(args)
    q0 = 0.5 * (2.0 + problem.geometry.critical_exponent)
    if args.force:
        # the continuation reads only (eta, sigma): it starts once their search is in
        pending = start_certify(problem, q0, seed)
        try:
            trace = continue_to_critical(problem, search_coercivity(pending), seed)
        finally:
            certificate = finish_certify(pending)
            ser.write_json(out / "certificate.json", ser.hypothesis_report_dict(certificate))
    else:
        certificate = _gate(problem, q0, seed, False, subcritical=False)
        ser.write_json(out / "certificate.json", ser.hypothesis_report_dict(certificate))
        trace = continue_to_critical(problem, certificate, seed)
    ser.write_json(out / "continuation.json", ser.continuation_trace_dict(trace))
    _dump_solution(out, "solution_critical", trace.final)
    return 0


_COMMANDS = {
    "certify": cmd_certify,
    "mu-curve": cmd_mu_curve,
    "solve-sub": cmd_solve_sub,
    "mountain-pass": cmd_mountain_pass,
    "solve-critical": cmd_solve_critical,
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="path to the JSON run config")
    p.add_argument("--q", type=float, default=None, help="nonlinearity exponent")
    p.add_argument("--k-min", dest="k_min", type=float, default=None)
    p.add_argument("--k-max", dest="k_max", type=float, default=None)
    p.add_argument("--k-steps", dest="k_steps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None, help="override solver seed")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument(
        "--force",
        action="store_true",
        help="proceed even when the certificate conditions fail",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biharm",
        description=(
            "Spectral variational solver for fourth-order equations with "
            "sign-changing nonlinearity on flat unit-volume tori."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        _add_common(sub.add_parser(name))
    return parser


_ERROR_EXITS = (
    (ConfigError, _EXIT_CONFIG),
    (ExpressionError, _EXIT_CONFIG),
    (HypothesisViolated, _EXIT_HYPOTHESIS),
    (NonConvergence, _EXIT_NONCONVERGENCE),
    (ShapeNotFound, _EXIT_SHAPE),
    (Collapse, _EXIT_COLLAPSE),
    (DivergingNorms, _EXIT_NONCONVERGENCE),
    (InfeasibleConstraint, _EXIT_NUMERIC),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BiharmError as exc:
        code = _EXIT_NUMERIC
        for cls, mapped in _ERROR_EXITS:
            if isinstance(exc, cls):
                code = mapped
                break
        _write_error(args, exc, code)
        return code
    except (ValueError, FloatingPointError, ArithmeticError) as exc:
        _write_error(args, exc, _EXIT_NUMERIC)
        return _EXIT_NUMERIC


def _write_error(args, exc, code) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    if isinstance(exc, NonConvergence) and exc.best is not None:
        payload["best"] = ser.best_iterate_dict(exc.best)
    try:
        out = Path(getattr(args, "out", ".") or ".")
        out.mkdir(parents=True, exist_ok=True)
        ser.write_json(out / "error.json", payload)
    except OSError:
        pass
    print(json.dumps(ser.jsonable(payload), sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
