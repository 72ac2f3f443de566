import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import etseek
from etseek.cli import main


def test_bessel_verb(capsys):
    assert main(["bessel", "--order", "2", "--arg", "0.5"]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(0.030604023458682638, abs=1e-15)


def test_simulate_writes_trace_and_metrics(tmp_path, capsys):
    trace_path = tmp_path / "t.csv"
    metrics_path = tmp_path / "m.json"
    code = main([
        "simulate", "--config", "smallgain.cfg", "--t-final", "0.02",
        "--out", str(trace_path), "--metrics", str(metrics_path),
    ])
    assert code == 0
    assert trace_path.read_text().startswith("t,x,y,theta")
    payload = json.loads(metrics_path.read_text())
    assert payload["num_steps"] == 200
    assert "final_error_norm" in payload
    assert "events=" in capsys.readouterr().out


def test_average_verb(tmp_path, capsys):
    trace_path = tmp_path / "avg.csv"
    code = main([
        "average", "--config", "smallgain.cfg", "--t-final", "0.02",
        "--out", str(trace_path),
    ])
    assert code == 0
    header = trace_path.read_text().splitlines()[0]
    assert header.endswith(",system")


def test_verify_verb(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main([
        "verify", "--config", "paper_siv.cfg", "--t-final", "5.0",
        "--metrics", str(report_path),
    ])
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert payload["hurwitz"] is True
    assert payload["alpha_ok"] is False
    assert payload["tau_star"] == pytest.approx(0.04786966671118977, abs=1e-12)
    out = capsys.readouterr().out
    assert "alpha_min" in out


def test_compare_verb(tmp_path, capsys):
    metrics_path = tmp_path / "cmp.json"
    code = main([
        "compare", "--config", "smallgain.cfg", "--omega-list", "20,40",
        "--t-final", "0.5", "--metrics", str(metrics_path),
    ])
    assert code == 0
    payload = json.loads(metrics_path.read_text())
    assert set(payload["averaging_sup_error"]) == {"20", "40"}
    assert all(v > 0.0 for v in payload["averaging_sup_error"].values())
    assert "40/20" in payload["ratios"]


def test_validation_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[field]\nx_star = 1.0\n")
    assert main(["simulate", "--config", str(bad)]) == 1
    assert main(["simulate", "--config", str(tmp_path / "missing.cfg")]) == 1


def test_sigma_bound_exit_code(tmp_path):
    cfg = tmp_path / "sigma.cfg"
    cfg.write_text(
        "[field]\nx_star=10\ny_star=5\ntheta_star_deg=30\nq_star=7\n"
        "[dithers]\na1=0.5\na2=0.5\na3=0.5\nomega1=4\nomega2=4\nomega3=2\n"
        "[gain]\nrow1=1 0 0\nrow2=0 0 1\n"
        "[trigger]\nsigma=1.2\nalpha=0.195\n"
        "[run]\nx0=12.5\ny0=7.5\ntheta0_deg=60\n"
    )
    assert main(["simulate", "--config", str(cfg)]) == 1


def test_numerical_failure_exit_code():
    code = main([
        "simulate", "--config", "paper_siv.cfg",
        "--mode", "continuous-control", "--t-final", "3.0",
    ])
    assert code == 2


def test_usage_error_exit_code():
    assert main(["simulate"]) == 1
    assert main(["simulate", "--config", "paper_siv.cfg", "--mode", "warp",
                 "--t-final", "0.01"]) == 1


@pytest.mark.parametrize(
    "flags",
    [
        ["--t-final", "inf"],
        ["--t-final", "nan"],
        ["--dt", "nan", "--t-final", "0.01"],
        ["--dt", "inf"],
        ["--dt", "1e-300", "--t-final", "1e10"],  # step count overflows to inf
        ["--mode", "sampled-data(nan)", "--t-final", "0.01"],
        ["--mode", "sampled-data(inf)", "--t-final", "0.01"],
        ["--mode", "sampled-data(-0.01)", "--t-final", "0.01"],
    ],
    ids=lambda flags: " ".join(flags),
)
def test_non_finite_inputs_exit_cleanly(flags):
    # Run as a separate process so that an uncaught exception shows up as
    # a traceback on stderr instead of failing inside the test runner.
    src = str(Path(etseek.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "etseek.cli", "simulate", "--config", "paper_siv.cfg", *flags],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


def test_memory_error_exit_code(monkeypatch, capsys):
    # Preallocating the trace of a very long run raises numpy's
    # _ArrayMemoryError, a MemoryError subclass; no huge array is made here.
    def out_of_memory(sc):
        raise MemoryError("Unable to allocate 4.47 TiB for an array")

    monkeypatch.setattr("etseek.cli.run_simulation", out_of_memory)
    assert main(["simulate", "--config", "paper_siv.cfg", "--t-final", "0.01"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
