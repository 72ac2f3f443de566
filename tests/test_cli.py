import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import etseek
from etseek import engine
from etseek.cli import _build_parser, main
from etseek.config import packaged_scenario_path


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


def test_bessel_domain_in_a_scenario_exits_1_naming_the_key(tmp_path, capsys):
    cfg = tmp_path / "a3.cfg"
    cfg.write_text(
        "[field]\nx_star=10\ny_star=5\ntheta_star_deg=30\nq_star=7\n"
        "[dithers]\na1=0.5\na2=0.5\na3=12.0\nomega1=4\nomega2=4\nomega3=2\n"
        "[gain]\nrow1=1 0 0\nrow2=0 0 1\n"
        "[trigger]\nsigma=0.5\nalpha=0.195\n"
        "[run]\nx0=12.5\ny0=7.5\ntheta0_deg=60\n"
    )
    assert main(["verify", "--config", str(cfg)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: dithers.a3: Bessel series is accurate only for |x| <= 10")
    assert "argument 12.0" in err


@pytest.mark.parametrize("verb", ["verify", "simulate"])
def test_overflowing_trigger_bias_exits_1_naming_the_section(tmp_path, capsys, verb):
    cfg = tmp_path / "bias.cfg"
    cfg.write_text(
        "[field]\nx_star=10\ny_star=5\ntheta_star_deg=30\nq_star=7\n"
        "[dithers]\na1=1e200\na2=0.5\na3=0.5\nomega1=2e200\nomega2=2e200\nomega3=1e200\n"
        "[gain]\nrow1=1 0 0\nrow2=0 0 1\n"
        "[trigger]\nsigma=0.5\nalpha=0.195\n"
        "[run]\nx0=12.5\ny0=7.5\ntheta0_deg=60\n"
    )
    assert main([verb, "--config", str(cfg)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: dithers: trigger bias a1*omega3*|J_2(a3)|: ")
    assert err.rstrip().endswith("got inf")


GRID_WARNING = (
    "warning: integration step dt = 0.01 exceeds tau*/10 = 0.00478697; "
    "grid-sampled trigger events may overshoot\n"
)


@pytest.mark.parametrize("verb", ["verify", "simulate", "average"])
def test_grid_warning_is_one_plain_line_per_run(capsys, verb):
    # No source path or code line, and a second run in the same process
    # warns again.
    args = [verb, "--config", "paper_siv.cfg", "--dt", "0.01", "--t-final", "1"]
    for _ in range(2):
        assert main(args) == 0
        assert capsys.readouterr().err == GRID_WARNING
    assert run_cli(*args).stderr == GRID_WARNING


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


def test_one_parser_serves_every_call(monkeypatch, capsys):
    # The parser is built once per process; each call still resolves the
    # run entry points through the module's globals.
    assert main(["simulate"]) == 1
    assert main(["verify", "--config", "paper_siv.cfg", "--t-final", "0.5"]) == 0
    calls = []

    def counted_run(sc):
        calls.append(sc.mode)
        return engine.run_simulation(sc)

    monkeypatch.setattr("etseek.cli.run_simulation", counted_run)
    assert main(["simulate", "--config", "smallgain.cfg", "--t-final", "0.01"]) == 0
    assert calls == ["full"]
    assert _build_parser() is _build_parser()


def run_cli(*args, timeout=120):
    # Run as a separate process so that an uncaught exception shows up as
    # a traceback on stderr instead of failing inside the test runner.
    src = str(Path(etseek.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "etseek.cli", *args],
        capture_output=True, text=True, env=env, timeout=timeout,
    )
    assert "Traceback" not in proc.stderr
    return proc


def assert_clean_validation_error(*args, timeout=120):
    proc = run_cli(*args, timeout=timeout)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ")
    return proc.stderr


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
    assert_clean_validation_error("simulate", "--config", "paper_siv.cfg", *flags)


def test_huge_bessel_order_exits_at_once():
    # math.factorial(10**8) alone would run for minutes.
    err = assert_clean_validation_error("bessel", "--order", "100000000", "--arg", "1", timeout=30)
    assert "order" in err


def test_step_count_cap_exits_cleanly():
    from etseek.trace import MAX_STEPS

    # 6e9 steps: without the cap the run asks numpy for columns of 48 GB.
    assert 60.0 / 1e-8 > MAX_STEPS
    err = assert_clean_validation_error("simulate", "--config", "paper_siv.cfg", "--dt", "1e-8")
    assert f"cap of {MAX_STEPS}" in err


@pytest.mark.parametrize("verb", ["simulate", "average", "verify"])
def test_step_count_cap_covers_every_loop(monkeypatch, capsys, verb):
    monkeypatch.setattr("etseek.trace.MAX_STEPS", 100)
    assert main([verb, "--config", "smallgain.cfg", "--t-final", "0.0101"]) == 1
    assert "exceed the cap of 100" in capsys.readouterr().err
    assert main([verb, "--config", "smallgain.cfg", "--t-final", "0.01"]) == 0


@pytest.mark.parametrize("token", ["nan", "inf", "0"])
def test_compare_rejects_bad_omega(capsys, token):
    code = main([
        "compare", "--config", "smallgain.cfg", "--omega-list", f"{token},20",
        "--t-final", "0.01",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cli.omega-list: ")
    assert "--omega-list" in err


@pytest.mark.parametrize(
    ("args", "names"),
    [
        (["bessel", "--order", "2", "--arg", "1e308"], ["order 2", "argument 1e+308"]),
        (["bessel", "--order", "170", "--arg", "700"], ["order 170", "argument 700.0"]),
        (
            ["compare", "--config", "smallgain.cfg", "--omega-list", "20,1e-300",
             "--t-final", "0.01"],
            ["cli.omega-list", "--omega-list value 1e-300"],
        ),
        (["bessel", "--order", "0", "--arg", "50"], ["order 0", "argument 50.0"]),
        (
            # a3 = 16 on the slower lane
            ["compare", "--config", "smallgain.cfg", "--omega-list", "0.5,20",
             "--t-final", "0.01"],
            ["cli.omega-list", "--omega-list value 0.5"],
        ),
    ],
    ids=["bessel-1e308", "bessel-order-170", "compare-omega-1e-300", "bessel-50",
         "compare-omega-0.5"],
)
def test_overflow_names_the_input(args, names):
    # Each of these puts a Bessel argument outside the series' |x| <= 10
    # domain, where it would overflow a float or sum to a wrong value;
    # compare scales every lane before it runs one, so it prints nothing
    # before the error.
    proc = run_cli(*args)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "(34," not in proc.stderr
    for name in names:
        assert name in proc.stderr
    assert proc.stdout == ""


def test_memory_error_exit_code(monkeypatch, capsys):
    # Preallocating the trace of a very long run raises numpy's
    # _ArrayMemoryError, a MemoryError subclass; no huge array is made here.
    def out_of_memory(sc):
        raise MemoryError("Unable to allocate 4.47 TiB for an array")

    monkeypatch.setattr("etseek.cli.run_simulation", out_of_memory)
    assert main(["simulate", "--config", "paper_siv.cfg", "--t-final", "0.01"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("verb", ["simulate", "average", "verify"])
@pytest.mark.parametrize("x0", ["1e154", "1.3e154"])
def test_huge_initial_state_is_a_numerical_failure(tmp_path, verb, x0):
    # Squared, 1.3e154 is within 6% of the largest double and 1e154 is
    # finite; either puts q far beyond 1e100 at t = 0 in both loops.
    cfg = tmp_path / "huge.cfg"
    text = packaged_scenario_path("paper_siv.cfg").read_text()
    cfg.write_text(text.replace("x0 = 12.5", f"x0 = {x0}"))
    proc = run_cli(verb, "--config", str(cfg), "--t-final", "5")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("numerical failure: state became non-finite at t = 0.000000 s")


@pytest.mark.parametrize(("flag", "what"), [("--out", "trace"), ("--metrics", "metrics")])
def test_unwritable_output_is_a_clean_error(tmp_path, flag, what):
    # A directory cannot be opened as a file: IsADirectoryError, an OSError.
    stderr = assert_clean_validation_error(
        "simulate", "--config", "smallgain.cfg", "--t-final", "0.01", flag, str(tmp_path)
    )
    assert stderr.startswith(f"error: cannot write {what} to {tmp_path}")


def test_tiny_dither_amplitude_is_a_numerical_failure(tmp_path):
    # The demodulation gain is 4/a1 = 4e160, so G1 squared overflows on
    # row 1, where the pose and q are still ordinary.
    cfg = tmp_path / "tiny_a1.cfg"
    text = packaged_scenario_path("paper_siv.cfg").read_text()
    cfg.write_text(text.replace("a1 = 0.5", "a1 = 1e-160"))
    proc = run_cli("simulate", "--config", str(cfg), "--t-final", "0.01")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("numerical failure: state became non-finite at t = 0.000100 s")
