import csv
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(autouse=True)
def no_process_left():
    # every command closes the certificate's pool before it returns
    yield
    assert multiprocessing.active_children() == []


def run_cli(*args, check=False):
    cmd = [sys.executable, "-m", "biharm.cli", *args]
    res = subprocess.run(cmd, capture_output=True, text=True)
    if check and res.returncode != 0:
        raise AssertionError(f"cli failed ({res.returncode}): {res.stderr}")
    return res


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "geometry": {"n_ambient": 6, "d_eff": 1, "grid_size": 64},
        "coefficients": {"a": "0.2", "h": "-1", "f": "10*cos(2*pi*x1) - 1"},
        "exponent": {"q": 4.0},
        "curve": {"k_min": 0.05, "k_max": 500.0, "k_steps": 24},
        "solver": {"seed": 0},
    }
    for key, val in overrides.items():
        cfg[key] = {**cfg.get(key, {}), **val} if isinstance(val, dict) else val
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def test_certify_all_negative_f_passes_critical_path(tmp_path):
    cfg = write_config(tmp_path, coefficients={"a": "0", "h": "-1", "f": "-1"})
    res = run_cli("certify", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert res.returncode == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["rayleigh_masked"] == "inf"
    assert report["cond_spectral"] is True
    assert report["cond_ratio"] is True
    assert report["cond_positive"] is False


def test_certify_positive_h_rejected(tmp_path):
    cfg = write_config(tmp_path, coefficients={"a": "0", "h": "0.5", "f": "-1"})
    res = run_cli("certify", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert res.returncode == 2
    err = json.loads((tmp_path / "o" / "error.json").read_text())
    assert err["error"] == "ConfigError"
    assert "negative" in err["message"]


def test_certify_bad_expression_rejected(tmp_path):
    cfg = write_config(tmp_path, coefficients={"a": "0", "h": "-1", "f": "1 +"})
    res = run_cli("certify", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert res.returncode == 2


def test_boolean_coefficient_rejected(tmp_path):
    # a JSON true reaches the parser as the text "True", which is no numeric literal
    import biharm.cli as cli

    cfg = write_config(tmp_path, coefficients={"a": True, "h": "-1", "f": "-1"})
    out = tmp_path / "o"
    assert cli.main(["certify", "--config", str(cfg), "--out", str(out)]) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ConfigError" and "only numeric literals allowed" in err["message"]


def test_certify_overflowing_literal_is_config_error(tmp_path):
    f = "1" + "0" * 400 + "*cos(2*pi*x1) - 1"
    cfg = write_config(tmp_path, coefficients={"a": "0", "h": "-1", "f": f})
    res = run_cli("certify", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert res.returncode == 2
    err = json.loads((tmp_path / "o" / "error.json").read_text())
    assert err["error"] == "ConfigError"
    assert "out of float range" in err["message"]


def test_certify_missing_config(tmp_path):
    res = run_cli("certify", "--config", str(tmp_path / "nope.json"),
                  "--out", str(tmp_path / "o"))
    assert res.returncode == 2


def test_certify_golden_report(assert_golden_certificate):
    """The bundled-config certificate matches the checked-in golden values."""
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        res = run_cli(
            "certify",
            "--config", str(CONFIGS / "bundled.json"),
            "--out", tmp,
        )
        assert res.returncode == 4      # bundled example fails the ratio cond
        got = json.loads(Path(tmp, "report.json").read_text())
    assert_golden_certificate(got)


def test_certify_report_is_the_same_on_one_cpu(tmp_path):
    """A certify run pinned to one CPU (a one-worker pool) writes the same bytes."""
    one_cpu = {min(os.sched_getaffinity(0))}
    outs = []
    for name, pin in (("pool", None), ("one_cpu", lambda: os.sched_setaffinity(0, one_cpu))):
        out = tmp_path / name
        cmd = [sys.executable, "-m", "biharm.cli", "certify",
               "--config", str(CONFIGS / "bundled.json"), "--out", str(out)]
        res = subprocess.run(cmd, capture_output=True, text=True, preexec_fn=pin, timeout=300)
        assert res.returncode == 4, res.stderr
        outs.append((out / "report.json").read_bytes())
    assert outs[0] == outs[1]


def test_mu_curve_outputs_and_force_gate(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    # the toy problem fails the ratio condition: gate blocks without --force
    res = run_cli("mu-curve", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 4
    res = run_cli("mu-curve", "--config", str(cfg), "--out", str(out), "--force")
    assert res.returncode == 0
    with open(out / "mu.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "mu", "lagrange", "residual", "iterations", "flags"]
    assert len(rows) == 1 + 24
    ann = json.loads((out / "annotations.json").read_text())
    assert ann["annotations"]["shape"] == "neg-min/hump/neg-tail"
    assert (out / "mu.gp").exists()


def test_solve_sub_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    res = run_cli("solve-sub", "--config", str(cfg), "--out", str(out), "--force")
    assert res.returncode == 0, res.stderr
    summary = json.loads((out / "solve_sub.json").read_text())
    e_min, e_mp = summary["energies"]
    assert e_min < 0.0 < e_mp
    assert summary["energy_ordering_ok"]
    assert summary["nu"] >= summary["mu_lo"] - 1e-8
    for stem in ("solution_min", "solution_mp"):
        rep = json.loads((out / f"{stem}.report.json").read_text())
        assert rep["identity_gap_rel"] <= 1e-6
        assert rep["residual_equation"] <= 1e-6 * (1.0 + abs(rep["energy"]))
        assert (out / f"{stem}.field.csv").exists()
        spec = json.loads((out / f"{stem}.spectral.json").read_text())
        assert spec["grid_size"] == 64 and spec["modes"]
    # the negative-energy solution is Newton-polished to the rounding floor
    rep_min = json.loads((out / "solution_min.report.json").read_text())
    assert rep_min["residual_equation"] <= 1e-12 * (1.0 + abs(rep_min["energy"]))
    assert (out / "path_profile.csv").exists()
    with open(out / "path_profile.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "node", "energy"]
    assert len(rows) > 10


def test_solve_sub_polishes_the_curve_minimum_and_solves_no_ball(tmp_path, monkeypatch):
    # both subcritical solutions are read off the one mu-curve
    import biharm.cli as cli
    import biharm.minimizer as minimizer

    def no_ball_solve(*args, **kwargs):
        raise AssertionError("solve-sub solved a ball problem")

    monkeypatch.setattr(minimizer, "minimize_on_ball", no_ball_solve)
    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    assert cli.main(["solve-sub", "--force", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "solution_min.report.json").read_text())
    assert rep["flags"]["seed"] == "curve"
    assert rep["energy"] < 0.0 and rep["converged"] is True


def test_solve_critical_makes_one_ball_solve(tmp_path, monkeypatch):
    # the continuation finds its branch with the one ball solve at q0
    import biharm.cli as cli
    import biharm.minimizer as minimizer

    caps = []
    real = minimizer.minimize_on_ball

    def counted(problem, q, cap, seed):
        caps.append(cap)
        return real(problem, q, cap, seed)

    monkeypatch.setattr(minimizer, "minimize_on_ball", counted)
    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    assert cli.main(["solve-critical", "--force", "--config", str(cfg), "--out", str(out)]) == 0
    trace = json.loads((out / "continuation.json").read_text())
    assert caps == [trace["records"][0]["l_q"]]


def test_solve_critical_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    res = run_cli("solve-critical", "--config", str(cfg), "--out", str(out), "--force")
    assert res.returncode == 0, res.stderr
    trace = json.loads((out / "continuation.json").read_text())
    assert len(trace["schedule"]) == 9
    assert trace["checks"]["final_f_weight_negative"]
    assert trace["checks"]["level_bound_ok"]
    assert all(r["energy"] < 0 for r in trace["records"])
    assert (out / "solution_critical.field.csv").exists()


def test_missing_k_range_is_config_error(tmp_path):
    cfg = write_config(tmp_path, curve=None)
    res = run_cli("mu-curve", "--config", str(cfg), "--out", str(tmp_path / "o"),
                  "--force")
    assert res.returncode == 2


def test_f_nonnegative_rejected_for_solvers(tmp_path):
    cfg = write_config(tmp_path, coefficients={"a": "0", "h": "-1", "f": "1"})
    res = run_cli("mu-curve", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert res.returncode == 2


def test_cli_q_override(tmp_path):
    cfg = write_config(tmp_path, exponent={"q": 4.0})
    out = tmp_path / "o"
    res = run_cli("certify", "--config", str(cfg), "--q", "3.0",
                  "--out", str(out))
    report = json.loads((out / "report.json").read_text())
    assert report["q"] == 3.0


def test_solve_sub_bundled_energy_ordering(tmp_path):
    """The shipped example produces the (negative, positive) energy pair."""
    out = tmp_path / "out"
    res = run_cli(
        "solve-sub",
        "--config", str(CONFIGS / "bundled.json"),
        "--out", str(out),
        "--force",            # the shipped example fails the ratio condition
    )
    assert res.returncode == 0, res.stderr
    summary = json.loads((out / "solve_sub.json").read_text())
    e_min, e_mp = summary["energies"]
    assert e_min < 0.0 < e_mp
    assert summary["nu"] >= summary["mu_lo"] - 1e-8


@pytest.mark.parametrize("command", ["solve-sub", "mountain-pass", "solve-critical"])
def test_solver_commands_stop_at_the_gate_without_force(tmp_path, monkeypatch, command):
    # the toy problem fails the ratio condition at q = 4 = (2 + N)/2
    import biharm.cli as cli

    def no_curve(*args, **kwargs):
        raise AssertionError("a curve solve started before the gate")

    monkeypatch.setattr(cli, "trace_mu_curve", no_curve)
    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 4
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "HypothesisViolated" and err["exit_code"] == 4
    assert not list(out.glob("solution_*"))


def test_mu_curve_gate_passes_without_force(tmp_path):
    # a ratio-passing instance traces without --force and records the
    # certified window in the annotations; with --force the certificate
    # runs beside the curve instead of before it, and every file is the same
    cfg = write_config(
        tmp_path,
        coefficients={"a": "0", "h": "-1", "f": "cos(2*pi*x1) - 0.999"},
        exponent={"q": 2.5},
        curve={"k_min": 500.0, "k_max": 70000.0, "k_steps": 12},
    )
    out = tmp_path / "out"
    res = run_cli("mu-curve", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    ann = json.loads((out / "annotations.json").read_text())["annotations"]
    lo, hi = ann["certified_window"]
    assert lo < hi
    assert ann["certified_bound_ok"] is True
    forced = tmp_path / "forced"
    res = run_cli("mu-curve", "--config", str(cfg), "--out", str(forced), "--force")
    assert res.returncode == 0, res.stderr
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(p.name for p in forced.iterdir()) == ["annotations.json", "mu.csv", "mu.gp"]
    for name in names:
        assert (forced / name).read_bytes() == (out / name).read_bytes(), name


def test_nonconvergence_error_keeps_best_iterate(tmp_path, monkeypatch):
    import biharm.cli as cli
    import biharm.mountainpass as mountainpass
    from biharm import serialize as ser
    from biharm.errors import NonConvergence
    from biharm.minimizer import make_report
    from biharm.mountainpass import MountainPassResult

    reports = []

    def exhausted(problem, q, u1, u2, **kwargs):
        report = make_report(problem, q, u1, False, {})
        reports.append(report)
        best = MountainPassResult(1.25, report, [], [], [], 17, False)
        raise NonConvergence("path budget exhausted", best=best)

    monkeypatch.setattr(mountainpass, "mountain_pass", exhausted)
    cfg = write_config(tmp_path, curve={"k_steps": 12})
    out = tmp_path / "o"
    code = cli.main(["mountain-pass", "--force", "--config", str(cfg), "--out", str(out)])
    assert code == 5
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "NonConvergence" and err["exit_code"] == 5
    [report] = reports
    assert err["best"] == {
        "energy": report.energy,
        "residual_equation": report.residual_equation,
        "converged": False,
        "nu": 1.25,
        "iterations": 17,
    }
    # a CriticalPointReport (the ball minimizer's best) has no level or count
    assert set(ser.best_iterate_dict(report)) == {"energy", "residual_equation", "converged"}


@pytest.mark.parametrize("command", ["mountain-pass", "solve-sub"])
def test_unaccepted_saddle_polish_exits_nonconvergence(tmp_path, monkeypatch, command):
    import biharm.cli as cli
    import biharm.mountainpass as mountainpass

    def unpolished(problem, q, u0):
        # the Newton polish of the path's top node never converges
        return u0, 1.25, False

    monkeypatch.setattr(mountainpass, "refine_critical_point", unpolished)
    monkeypatch.setattr(mountainpass, "MAX_PATH_ITER", 2 * mountainpass.POLL)
    cfg = write_config(tmp_path, curve={"k_steps": 12})
    out = tmp_path / "o"
    code = cli.main([command, "--force", "--config", str(cfg), "--out", str(out)])
    assert code == 5
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "NonConvergence" and err["exit_code"] == 5
    assert "saddle polish did not converge" in err["message"]
    assert err["best"]["converged"] is False
    assert err["best"]["nu"] > 0.0 and err["best"]["iterations"] == 2 * mountainpass.POLL
    assert not (out / "solution_mp.report.json").exists()


def test_saddle_not_of_index_one_exits_nonconvergence(tmp_path, monkeypatch):
    # the polish converges above the hump, but a saddle of Morse index 2
    # is not the mountain-pass point: no poll passes before the cap
    import biharm.cli as cli
    import biharm.mountainpass as mountainpass

    monkeypatch.setattr(mountainpass, "morse_index", lambda problem, q, u: 2)
    monkeypatch.setattr(mountainpass, "MAX_PATH_ITER", 2 * mountainpass.POLL)
    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    code = cli.main(["solve-sub", "--force", "--config", str(cfg), "--out", str(out)])
    assert code == 5
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "NonConvergence" and err["exit_code"] == 5
    assert "Morse index 2" in err["message"]
    assert err["best"]["converged"] is True and err["best"]["energy"] > 0.0
    assert not (out / "solution_mp.report.json").exists()


def test_curve_without_negative_tail_exits_shape_not_found(tmp_path):
    # the toy's l2 is near 46, so a curve ending at k = 20 has no tail;
    # the certificate and the curve are written all the same
    import biharm.cli as cli

    cfg = write_config(tmp_path, curve={"k_max": 20.0, "k_steps": 12})
    out = tmp_path / "o"
    assert cli.main(["mountain-pass", "--force", "--config", str(cfg), "--out", str(out)]) == 6
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ShapeNotFound"
    assert sorted(p.name for p in out.iterdir()) == [
        "annotations.json", "certificate.json", "error.json", "mu.csv",
    ]
    ann = json.loads((out / "annotations.json").read_text())["annotations"]
    assert ann["shape"] == "incomplete" and "l1" in ann
    assert "certified_window" in ann


@pytest.mark.parametrize(
    "command, failing",
    [("mu-curve", None), ("solve-sub", None), ("mu-curve", "curve"),
     ("solve-sub", "curve"), ("mountain-pass", "curve"),
     ("solve-sub", "mountain pass"), ("mountain-pass", "mountain pass")],
)
def test_certificate_error_outranks_the_curve_and_the_mountain_pass(
    tmp_path, monkeypatch, command, failing
):
    # with --force the certificate runs beside the curve, yet its error is
    # the one reported, and nothing but error.json is written, exactly as
    # when the certificate is computed first
    import biharm.certifier as certifier
    import biharm.cli as cli
    import biharm.mountainpass as mountainpass
    from biharm.errors import Collapse, NonConvergence

    real = certifier.moment_rayleigh

    def failing_moment(problem, eta, q, seed):
        if eta == 0.1:
            raise NonConvergence(f"moment solve failed at eta {eta}")
        return real(problem, eta, q, seed)

    def collapse(*args, **kwargs):
        raise Collapse(f"{failing} collapsed")

    monkeypatch.setattr(certifier, "moment_rayleigh", failing_moment)
    if failing == "curve":
        monkeypatch.setattr(cli, "trace_mu_curve", collapse)
    elif failing == "mountain pass":
        monkeypatch.setattr(mountainpass, "mountain_pass", collapse)
    cfg = write_config(tmp_path, curve={"k_steps": 12})
    out = tmp_path / "o"
    assert cli.main([command, "--force", "--config", str(cfg), "--out", str(out)]) == 5
    assert [p.name for p in out.iterdir()] == ["error.json"]
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "NonConvergence" and err["exit_code"] == 5
    assert err["message"] == "moment solve failed at eta 0.1"


@pytest.mark.parametrize("q", ["1.5", "9"], ids=["below-2", "above-N"])
def test_out_of_range_exponent_is_config_error(tmp_path, q):
    import biharm.cli as cli

    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    assert cli.main(["certify", "--config", str(cfg), "--q", q, "--out", str(out)]) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ConfigError" and "q must lie in (2, 6.0]" in err["message"]


@pytest.mark.parametrize(
    "flag, solver",
    [(["--seed", "-1"], {"seed": 0}), ([], {"seed": 1.7}), ([], {"seed": True}),
     ([], {"seed": "3"}), ([], {"seed": -2})],
    ids=["flag-negative", "config-float", "config-bool", "config-string", "config-negative"],
)
def test_seed_must_be_a_nonnegative_integer(tmp_path, flag, solver):
    import biharm.cli as cli

    cfg = write_config(tmp_path, solver=solver)
    out = tmp_path / "o"
    assert cli.main(["certify", "--config", str(cfg), "--out", str(out), *flag]) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ConfigError" and "seed must be a non-negative integer" in err["message"]


def test_solver_block_takes_only_the_seed(tmp_path):
    # a leftover budget setting must not run silently at the default
    import biharm.cli as cli

    cfg = write_config(tmp_path, solver={"seed": 0, "tol_scale": 1e-6})
    out = tmp_path / "o"
    assert cli.main(["certify", "--config", str(cfg), "--out", str(out)]) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ConfigError" and "tol_scale" in err["message"]


@pytest.mark.parametrize("command", ["solve-critical", "solve-sub"])
def test_rejected_minimizer_exits_nonconvergence(tmp_path, monkeypatch, command):
    # every Hessian has one negative eigenvalue: the saddle passes its
    # index check and the negative-energy solution fails its own
    import biharm.cli as cli
    import biharm.mountainpass as mountainpass

    monkeypatch.setattr(mountainpass, "morse_index", lambda problem, q, u: 1)
    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    assert cli.main([command, "--force", "--config", str(cfg), "--out", str(out)]) == 5
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "NonConvergence" and err["exit_code"] == 5
    assert "Morse index 1, not 0" in err["message"]
    assert err["best"]["energy"] < 0.0 and err["best"]["converged"] is True
    assert not list(out.glob("solution_*"))


@pytest.mark.parametrize(
    "command, section, values, key",
    [
        ("certify", "geometry", {"grid_size": 64.7}, "geometry.grid_size"),
        ("certify", "geometry", {"n_ambient": 6.5}, "geometry.n_ambient"),
        ("certify", "geometry", {"d_eff": True}, "geometry.d_eff"),
        ("mu-curve", "curve", {"k_min": "abc"}, "curve.k_min"),
        ("mu-curve", "curve", {"k_steps": 12.7}, "curve.k_steps"),
        ("mu-curve", "curve", {"k_max": float("inf")}, "curve.k_max"),   # JSON 1e999 loads as inf
        ("certify", "exponent", {"q": "2.5"}, "exponent.q"),
        ("certify", "exponent", {"q": True}, "exponent.q"),
        ("certify", "exponent", ["q"], "'exponent'"),
        ("mu-curve", "curve", "x", "'curve'"),
        ("certify", "solver", [], "'solver'"),
    ],
    ids=["grid-size-float", "n-ambient-float", "d-eff-bool", "k-min-string",
         "k-steps-float", "k-max-inf", "q-string", "q-bool", "exponent-list",
         "curve-string", "solver-empty-list"],
)
def test_config_numbers_are_checked_before_any_solve(
    tmp_path, monkeypatch, command, section, values, key
):
    # a float where an integer belongs is not truncated, and a bad k range
    # stops the command before any certificate work starts, whether the
    # certificate would block (certify) or run beside the curve (start_certify)
    import biharm.cli as cli

    def no_certificate(*args, **kwargs):
        raise AssertionError("certificate work started")

    monkeypatch.setattr(cli, "certify", no_certificate)
    monkeypatch.setattr(cli, "start_certify", no_certificate)
    cfg = write_config(tmp_path, **{section: values})
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(cfg), "--out", str(out), "--force"]) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ConfigError" and key in err["message"]


# ----------------------------------------------------------------------
# solve-critical --force: the continuation runs beside the masked quotients


@pytest.mark.parametrize(
    "certificate, continuation",
    [("masked", None), ("moment", None), ("masked", "continuation"),
     ("moment", "continuation"), (None, "continuation")],
)
def test_solve_critical_force_errors_write_what_a_serial_run_writes(
    tmp_path, monkeypatch, certificate, continuation
):
    # a certificate error outranks a continuation error, and a failed run
    # writes the files of the run that certified first: error.json alone
    # after a certificate error, certificate.json beside it after a
    # continuation error
    import biharm.certifier as certifier
    import biharm.cli as cli
    import biharm.mountainpass as mountainpass
    from biharm.errors import NonConvergence

    def failing(*args, **kwargs):
        raise NonConvergence(f"{certificate} solve failed")

    if certificate is not None:
        monkeypatch.setattr(certifier, f"{certificate}_rayleigh", failing)
    if continuation is not None:
        monkeypatch.setattr(mountainpass, "morse_index", lambda problem, q, u: 1)
    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    assert cli.main(["solve-critical", "--force", "--config", str(cfg), "--out", str(out)]) == 5
    err = json.loads((out / "error.json").read_text())
    if certificate is not None:
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]
        assert err["message"] == f"{certificate} solve failed"
    else:
        assert sorted(p.name for p in out.iterdir()) == ["certificate.json", "error.json"]
        assert "Morse index 1, not 0" in err["message"]


def test_solve_critical_force_continues_with_the_reports_eta_and_sigma(tmp_path, monkeypatch):
    import math

    import biharm.cli as cli
    from biharm.certifier import certify

    seen = []
    real = cli.continue_to_critical

    def recorded(problem, certificate, seed):
        seen.append((certificate.eta, certificate.sigma))
        return real(problem, certificate, seed)

    monkeypatch.setattr(cli, "continue_to_critical", recorded)
    cfg = write_config(tmp_path, coefficients={"f": "cos(2*pi*x1) - 0.25"})
    out = tmp_path / "o"
    assert cli.main(["solve-critical", "--force", "--config", str(cfg), "--out", str(out)]) == 0
    problem = cli._build_problem(json.loads(cfg.read_text()), True)
    report = certify(problem, 0.5 * (2.0 + problem.geometry.critical_exponent), 0)
    assert math.isfinite(report.eta)
    assert seen == [(report.eta, report.sigma)]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_solve_critical_force_artifacts_equal_certify_then_continue(tmp_path, seed):
    # the bundled workload's artifacts, byte for byte, against the serial
    # pipeline run in this process
    import biharm.cli as cli
    from biharm import serialize as ser
    from biharm.certifier import certify
    from biharm.continuation import continue_to_critical

    cfg = CONFIGS / "bundled.json"
    out, want = tmp_path / "o", tmp_path / "want"
    argv = ["solve-critical", "--force", "--config", str(cfg), "--seed", str(seed), "--out", str(out)]
    assert cli.main(argv) == 0
    problem = cli._build_problem(json.loads(cfg.read_text()), True)
    report = certify(problem, 0.5 * (2.0 + problem.geometry.critical_exponent), seed)
    trace = continue_to_critical(problem, report, seed)
    want.mkdir()
    ser.write_json(want / "certificate.json", ser.hypothesis_report_dict(report))
    ser.write_json(want / "continuation.json", ser.continuation_trace_dict(trace))
    cli._dump_solution(want, "solution_critical", trace.final)
    names = sorted(p.name for p in want.iterdir())
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        assert (out / name).read_bytes() == (want / name).read_bytes(), name
