import csv
import json
import subprocess
import sys
from pathlib import Path

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
    assert (out / "path_profile.csv").exists()
    with open(out / "path_profile.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "node", "energy"]
    assert len(rows) > 10


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


def test_bad_thread_env_rejected(tmp_path, monkeypatch):
    import os
    import subprocess

    cfg = write_config(tmp_path)
    env = dict(os.environ, BIHARM_THREADS="zero")
    res = subprocess.run(
        [sys.executable, "-m", "biharm.cli", "certify", "--config", str(cfg),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env,
    )
    assert res.returncode == 2


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


def test_mu_curve_gate_passes_without_force(tmp_path):
    # a ratio-passing instance traces without --force and records the
    # certified window in the annotations
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
