"""Per-layer metrics computed from the spans of one traced run.

The hooks run inside the traced process and collect what spans cannot
show (transform sizes, iteration counts from returned results, the
arguments of remainder calls).  ``layer_metrics`` runs in the benchmark
process on the written spans.  Which end-to-end metric each layer metric
should move, and on which workload, is set out in DESIGN.md.
"""

from __future__ import annotations

import inspect

import numpy as np

from tracer import FFT_FUNCTIONS, FFT_NAMESPACES

ARITH = ("add", "scale", "combination", "inner", "l2_norm", "lp_mass", "lp_norm")

# name -> unit, in report order; counts must repeat exactly between runs
PER_LAYER = {
    "geometry.fft_calls": "count",
    "geometry.fft_points": "count",
    "geometry.fft_bytes_computed": "B",
    "geometry.fft_s": "s",
    "geometry.field_constructions": "count",
    "geometry.arith_calls": "count",
    "geometry.arith_self_s": "s",
    "expressions.evals": "count",
    "problem.build_s": "s",
    "problem.energy_and_grad_calls": "count",
    "problem.energy_and_grad_us": "us",
    "problem.eval_F_calls": "count",
    "problem.grad_F_calls": "count",
    "problem.el_residual_calls": "count",
    "problem.moment_calls": "count",
    "minimizer.sphere_solves": "count",
    "minimizer.sphere_solve_s": "s",
    "minimizer.ball_solves": "count",
    "minimizer.ball_solve_s": "s",
    "minimizer.curve_s": "s",
    "minimizer.reported_iterations": "count",
    "minimizer.useful_solve_ratio": "ratio",
    "mountainpass.mountain_pass_s": "s",
    "mountainpass.path_iterations": "count",
    "mountainpass.polish_s": "s",
    "certifier.certify_s": "s",
    "certifier.remainder_calls": "count",
    "certifier.remainder_s": "s",
    "certifier.remainder_reuse_ratio": "ratio",
    "certifier.moment_rayleigh_s": "s",
    "certifier.masked_rayleigh_s": "s",
    "continuation.continue_s": "s",
    "continuation.steps": "count",
    "continuation.first_solution_calls": "count",
    "serialize.write_s": "s",
    "serialize.bytes_written": "B",
    "trace.overhead_s": "s",
}


def _add(counters, key, value):
    counters[key] = counters.get(key, 0) + value


def _fft(counters, func, args, kwargs, result):
    a = np.asarray(args[0] if args else kwargs.get("a", kwargs.get("x")))
    _add(counters, "fft_points", int(a.size))
    _add(counters, "fft_bytes", int(a.nbytes + np.asarray(result).nbytes))


def _iterations(counters, func, args, kwargs, result):
    _add(counters, "reported_iterations", int(result.iterations))


def _curve(counters, func, args, kwargs, result):
    _add(counters, "curve_samples", len(result.ks))


def _path(counters, func, args, kwargs, result):
    _add(counters, "path_iterations", int(result.iterations))


def _continuation(counters, func, args, kwargs, result):
    _add(counters, "continuation_steps", len(result.records))


def _remainder(counters, func, args, kwargs, result):
    bound = inspect.signature(func).bind(*args, **kwargs)
    bound.apply_defaults()
    counters.setdefault("remainder_keys", []).append(
        [float(bound.arguments["eps"]), int(bound.arguments["seed"])]
    )


HOOKS = {
    "fft": _fft,
    "minimizer.minimize_on_sphere": _iterations,
    "minimizer.minimize_on_ball": _iterations,
    "minimizer.trace_mu_curve": _curve,
    "mountainpass.mountain_pass": _path,
    "continuation.continue_to_critical": _continuation,
    "certifier.embedding_remainder": _remainder,
}


class Spans:
    """Columns of a written trace with durations and self times."""

    def __init__(self, path):
        with np.load(path) as data:
            self.names = [str(s) for s in data["names"]]
            self.name = data["name"]
            self.parent = data["parent"]
            self.start = data["start"]
            self.end = data["end"]
        self.duration = self.end - self.start
        n = len(self.name)
        has_parent = self.parent >= 0
        covered = np.bincount(
            self.parent[has_parent], weights=self.duration[has_parent], minlength=n
        )
        self.self_time = self.duration - covered
        self.top_level = ~has_parent

    def mask(self, *names) -> np.ndarray:
        ids = [self.names.index(s) for s in names if s in self.names]
        return np.isin(self.name, ids)

    def count(self, *names) -> int:
        return int(self.mask(*names).sum())

    def _outermost(self, mask) -> np.ndarray:
        """Spans in ``mask`` whose parent is not in ``mask`` (no double counting)."""
        nested = np.zeros_like(mask)
        has_parent = ~self.top_level
        nested[has_parent] = mask[self.parent[has_parent]]
        return mask & ~nested

    def inclusive(self, *names) -> float:
        return float(self.duration[self._outermost(self.mask(*names))].sum())

    def self_sum(self, *names) -> float:
        return float(self.self_time[self.mask(*names)].sum())

    def count_under(self, name, parent_name) -> int:
        child = self.mask(name)
        under = np.zeros_like(child)
        has_parent = ~self.top_level
        under[has_parent] = self.mask(parent_name)[self.parent[has_parent]]
        return int((child & under).sum())

    def calls_by_name(self) -> dict:
        counts = np.bincount(self.name, minlength=len(self.names))
        return {s: int(c) for s, c in zip(self.names, counts)}


def _ratio(num, den) -> float:
    return float(num) / den if den else 0.0


def layer_metrics(spans: Spans, counters: dict, bytes_written: int) -> dict:
    """Every PER_LAYER value except trace.overhead_s, which needs an untraced run."""
    ffts = [f"{ns}.{fn}" for ns in FFT_NAMESPACES for fn in FFT_FUNCTIONS]
    arith = [f"geometry.{fn}" for fn in ARITH]
    serialize = [s for s in spans.names if s.startswith("serialize.")]
    sphere = spans.count("minimizer.minimize_on_sphere")
    eg_calls = spans.count("problem.energy_and_grad")
    remainder_keys = counters.get("remainder_keys", [])
    remainder_calls = spans.count("certifier.embedding_remainder")
    return {
        "geometry.fft_calls": spans.count(*ffts),
        "geometry.fft_points": counters.get("fft_points", 0),
        "geometry.fft_bytes_computed": counters.get("fft_bytes", 0),
        "geometry.fft_s": spans.inclusive(*ffts),
        "geometry.field_constructions": spans.count("geometry.SpectralField.__init__"),
        "geometry.arith_calls": spans.count(*arith),
        "geometry.arith_self_s": spans.self_sum(*arith),
        "expressions.evals": spans.count("expressions.Expression.__call__"),
        "problem.build_s": spans.inclusive("problem.ProblemData.from_expressions"),
        "problem.energy_and_grad_calls": eg_calls,
        "problem.energy_and_grad_us": 1e6 * _ratio(spans.self_sum("problem.energy_and_grad"), eg_calls),
        "problem.eval_F_calls": spans.count("problem.eval_F"),
        "problem.grad_F_calls": spans.count("problem.grad_F"),
        "problem.el_residual_calls": spans.count("problem.el_residual"),
        "problem.moment_calls": spans.count("problem.f_minus_moment"),
        "minimizer.sphere_solves": sphere,
        "minimizer.sphere_solve_s": spans.inclusive("minimizer.minimize_on_sphere"),
        "minimizer.ball_solves": spans.count("minimizer.minimize_on_ball"),
        "minimizer.ball_solve_s": spans.inclusive("minimizer.minimize_on_ball"),
        "minimizer.curve_s": spans.inclusive("minimizer.trace_mu_curve"),
        "minimizer.reported_iterations": counters.get("reported_iterations", 0),
        "minimizer.useful_solve_ratio": _ratio(counters.get("curve_samples", 0), sphere),
        "mountainpass.mountain_pass_s": spans.inclusive("mountainpass.mountain_pass"),
        "mountainpass.path_iterations": counters.get("path_iterations", 0),
        "mountainpass.polish_s": spans.inclusive("mountainpass.refine_critical_point"),
        "certifier.certify_s": spans.inclusive("certifier.certify"),
        "certifier.remainder_calls": remainder_calls,
        "certifier.remainder_s": spans.inclusive("certifier.embedding_remainder"),
        "certifier.remainder_reuse_ratio": _ratio(
            len({tuple(k) for k in remainder_keys}), remainder_calls
        ),
        "certifier.moment_rayleigh_s": spans.inclusive("certifier.moment_rayleigh"),
        "certifier.masked_rayleigh_s": spans.inclusive("certifier.masked_rayleigh"),
        "continuation.continue_s": spans.inclusive("continuation.continue_to_critical"),
        "continuation.steps": counters.get("continuation_steps", 0),
        "continuation.first_solution_calls": spans.count_under(
            "minimizer.first_solution", "continuation.continue_to_critical"
        ),
        "serialize.write_s": spans.inclusive(*serialize),
        "serialize.bytes_written": bytes_written,
    }
