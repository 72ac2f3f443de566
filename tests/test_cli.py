import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from test_traceio import SLEEP_S, _PartFaults, assert_no_child_left

import etseek
from etseek import cli, engine, traceio
from etseek.analysis import trigger_model
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


@pytest.fixture()
def lane_forks(monkeypatch):
    """The pids forked in this process; each fork asserts that no other child exists."""
    pids = []
    fork = traceio._fork

    def counted():
        with pytest.raises(ChildProcessError):  # WNOWAIT leaves an exited child unreaped
            os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(traceio, "_fork", counted)
    return pids


HALF_SECOND = ["--t-final", "0.5"]


def run_compare(capsys, tmp_path, monkeypatch, cpus, omegas, *flags):
    """``compare`` on smallgain at ``cpus`` usable CPUs: exit code, stdout,
    stderr and the metrics JSON's bytes (None if it wrote none)."""
    monkeypatch.setattr(traceio, "_usable_cpus", lambda: cpus)
    path = tmp_path / f"compare-{cpus}.json"
    path.unlink(missing_ok=True)
    code = main(["compare", "--config", "smallgain.cfg", "--omega-list", omegas,
                 "--metrics", str(path), *flags])
    out, err = capsys.readouterr()
    assert engine._ahead == []
    return code, out, err, path.read_bytes() if path.exists() else None


def test_compare_verb(tmp_path, capsys, monkeypatch, lane_forks):
    # Where two CPUs are usable, a child runs each later lane's full loop
    # while the parent runs the lane before it; the output is the same.
    models = []
    monkeypatch.setattr(engine, "trigger_model", lambda sc: models.append(sc) or trigger_model(sc))
    for omegas in ("20,40", "20,40,80"):
        lanes = omegas.split(",")
        runs = {}
        for cpus in (1, 2):
            runs[cpus] = run_compare(capsys, tmp_path, monkeypatch, cpus, omegas, *HALF_SECOND)
            assert (len(lane_forks), len(models)) == ((cpus - 1) * (len(lanes) - 1), 2 * len(lanes))
            assert_no_child_left()
            lane_forks.clear()
            models.clear()
        assert runs[1] == runs[2]
        code, out, err, metrics = runs[2]
        assert (code, err) == (0, "")
        assert [line.split(":")[0] for line in out.splitlines()[:len(lanes)]] == [
            f"omega3={omega}" for omega in lanes
        ]
        payload = json.loads(metrics)
        assert list(payload["averaging_sup_error"]) == lanes
        assert all(v > 0.0 for v in payload["averaging_sup_error"].values())
        assert list(payload["ratios"]) == [f"{hi}/{lo}" for lo, hi in zip(lanes, lanes[1:])]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
@pytest.mark.parametrize("kinds", [["exit", "exit"], ["spill", "ok"], ["ok", "fork"]])
def test_compare_runs_a_lane_itself_where_its_child_fails(
    tmp_path, capsys, monkeypatch, lane_forks, kinds
):
    omegas = ("20,40,80", *HALF_SECOND)
    alone = run_compare(capsys, tmp_path, monkeypatch, 1, *omegas)
    before = set(os.listdir("/proc/self/fd"))
    faults = _PartFaults(kinds)
    monkeypatch.setattr(tempfile, "TemporaryFile", faults.spill)
    monkeypatch.setattr(traceio, "_fork", faults.forked)
    assert run_compare(capsys, tmp_path, monkeypatch, 2, *omegas) == alone
    assert faults.places == kinds
    assert faults.children == len(lane_forks) == sum(kind in ("ok", "exit") for kind in kinds)
    assert_no_child_left()
    assert set(os.listdir("/proc/self/fd")) == before


def test_compare_lane_that_turns_non_finite_is_reported_by_the_parent(tmp_path, capsys, monkeypatch, lane_forks):
    # The 2000 lane's child fails; the parent runs the lane itself and reports it.
    for cpus in (1, 2):
        code, out, err, metrics = run_compare(
            capsys, tmp_path, monkeypatch, cpus, "20,2000", "--t-final", "1"
        )
        assert (code, out, metrics) == (2, "omega3=20: sup deviation = 0.725197\n", None)
        assert err == "numerical failure: state became non-finite at t = 0.243700 s\n"
        assert len(lane_forks) == cpus - 1
        assert_no_child_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
def test_compare_that_fails_in_a_lane_kills_the_next_lanes_child(tmp_path, capsys, monkeypatch, lane_forks):
    # Lane 1 turns non-finite while lane 2's child sleeps: compare reports at
    # once, and the child, whose lane no one will take, is killed.
    before = set(os.listdir("/proc/self/fd"))
    faults = _PartFaults(["sleep"])
    monkeypatch.setattr(tempfile, "TemporaryFile", faults.spill)
    monkeypatch.setattr(traceio, "_fork", faults.forked)
    start = time.monotonic()
    code, out, err, metrics = run_compare(capsys, tmp_path, monkeypatch, 2, "2000,20", "--t-final", "1")
    assert time.monotonic() - start < SLEEP_S / 3
    assert (code, out, metrics) == (2, "", None)
    assert err == "numerical failure: state became non-finite at t = 0.243700 s\n"
    assert faults.children == len(lane_forks) == 1
    assert_no_child_left()
    assert set(os.listdir("/proc/self/fd")) == before


def test_compare_that_raises_leaves_no_child_and_no_trace(monkeypatch, lane_forks):
    # The third model build is lane 2's full run: its trace has been handed
    # off and lane 3's child runs.
    class Stop(Exception):
        pass

    models = []

    def third_raises(sc):
        models.append(sc)
        if len(models) == 3:
            raise Stop
        return trigger_model(sc)

    monkeypatch.setattr(engine, "trigger_model", third_raises)
    monkeypatch.setattr(traceio, "_usable_cpus", lambda: 2)
    with pytest.raises(Stop):
        main(["compare", "--config", "smallgain.cfg", "--omega-list", "20,40,80", *HALF_SECOND])
    assert len(lane_forks) == 2
    assert engine._ahead == []
    assert_no_child_left()


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


ONE_SECOND = ["--t-final", "1"]
# The clock modes run no trigger, so they build no model and never warn.
# Both turn non-finite before 1 s at this step, so they run for 0.05 s.
SAMPLED = ["--mode", "sampled-data(0.05)", "--t-final", "0.05"]
CONTINUOUS = ["--mode", "continuous-control", "--t-final", "0.05"]


@pytest.mark.parametrize("verb, flags, err", [
    pytest.param("verify", ONE_SECOND, GRID_WARNING, id="verify"),
    pytest.param("simulate", ONE_SECOND, GRID_WARNING, id="simulate"),
    pytest.param("average", ONE_SECOND, GRID_WARNING, id="average"),
    pytest.param("compare", [*ONE_SECOND, "--omega-list", "20,40"], GRID_WARNING, id="compare"),
    pytest.param("simulate", SAMPLED, "", id="simulate-sampled-data"),
    pytest.param("simulate", CONTINUOUS, "", id="simulate-continuous-control"),
])
def test_grid_warning_is_one_plain_line_per_run(capsys, verb, flags, err):
    # No source path or code line, and a second run in the same process
    # warns again.  compare's two lanes per omega run on one grid and warn once.
    args = [verb, "--config", "paper_siv.cfg", "--dt", "0.01", *flags]
    for _ in range(2):
        assert main(args) == 0
        assert capsys.readouterr().err == err
    assert run_cli(*args).stderr == err


@pytest.mark.parametrize("verb, flags, code, err", [
    pytest.param("verify", ONE_SECOND, 1, GRID_WARNING.replace("warning: ", "error: ", 1), id="verify"),
    pytest.param("average", ONE_SECOND, 1, GRID_WARNING.replace("warning: ", "error: ", 1), id="average"),
    pytest.param("compare", [*ONE_SECOND, "--omega-list", "20,40"], 1,
                 GRID_WARNING.replace("warning: ", "error: ", 1), id="compare"),
    pytest.param("simulate", SAMPLED, 0, "", id="simulate-sampled-data"),
])
def test_grid_warning_raised_as_an_error_is_one_error_line(verb, flags, code, err):
    # Under -W error the warning arrives in main as an exception; a clock
    # mode has none to raise.  compare raises in its first lane, while the
    # second lane's child runs, and must leave no child.
    proc = run_cli(verb, "--config", "paper_siv.cfg", "--dt", "0.01", *flags,
                   python_flags=("-W", "error"), cpus=2)
    assert proc.returncode == code
    assert proc.stderr == err


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


#: ``python -c`` code that runs the CLI on its arguments with ``{cpus}``
#: usable CPUs and exits 99 instead if the run leaves a child.
CLI_WITH_CPUS = """
import os, sys
from etseek import cli, traceio
traceio._usable_cpus = lambda: {cpus}
code = cli.main(sys.argv[1:])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(code)
sys.exit(99)
"""


def run_cli(*args, timeout=120, python_flags=(), cpus=None):
    # Run as a separate process so that an uncaught exception shows up as
    # a traceback on stderr instead of failing inside the test runner.
    # Given ``cpus``, the process sees that many usable CPUs, its stdout is
    # block-buffered, and it exits 99 if the run leaves a child.
    src = str(Path(etseek.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    entry = ["-m", "etseek.cli"]
    if cpus is not None:
        env.pop("PYTHONUNBUFFERED", None)
        entry = ["-c", CLI_WITH_CPUS.format(cpus=cpus)]
    proc = subprocess.run(
        [sys.executable, *python_flags, *entry, *args],
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


def test_step_count_cap_message_is_short_and_names_the_keys():
    # 1 / 1e-300 steps is an integer of 301 digits.
    err = assert_clean_validation_error(
        "simulate", "--config", "paper_siv.cfg", "--dt", "1e-300", "--t-final", "1"
    )
    assert err.count("\n") == 1
    assert "run.t_final / run.dt = 1e+300 steps" in err
    assert max(len(number) for number in re.findall(r"[-+.\deE]+", err)) <= 40


@pytest.mark.parametrize("verb, flags", [
    pytest.param("simulate", [], id="simulate"),
    pytest.param("average", [], id="average"),
    pytest.param("verify", [], id="verify"),
    pytest.param("compare", ["--omega-list", "20,40"], id="compare"),
])
def test_step_count_cap_covers_every_loop(monkeypatch, capsys, verb, flags):
    # The file's 30 s horizon exceeds the cap until --t-final applies.
    monkeypatch.setattr("etseek.trace.MAX_STEPS", 100)
    assert main([verb, "--config", "smallgain.cfg", *flags, "--t-final", "0.0101"]) == 1
    assert "exceed the cap of 100" in capsys.readouterr().err
    assert main([verb, "--config", "smallgain.cfg", *flags, "--t-final", "0.01"]) == 0


@pytest.mark.parametrize("verb", ["simulate", "average", "verify"])
def test_step_count_that_overflows_is_refused_by_the_cap(capsys, verb):
    # 0.01 / 1e-320 overflows to inf, which round() cannot convert.
    assert main([verb, "--config", "paper_siv.cfg", "--dt", "1e-320", "--t-final", "0.01"]) == 1
    assert capsys.readouterr().err == (
        "error: run.t_final / run.dt = inf steps exceed the cap of 10000000; "
        "raise run.dt or shorten run.t_final\n"
    )


@pytest.mark.parametrize("token", ["nan", "inf", "0", "20", "20.0000001"])
def test_compare_rejects_bad_omega(capsys, token):
    code = main([
        "compare", "--config", "smallgain.cfg", "--omega-list", f"{token},20",
        "--t-final", "0.01",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cli.omega-list: ")
    assert "--omega-list" in err


@pytest.mark.parametrize("omegas", ["20,,40", "20, ,40"])
def test_compare_refuses_an_empty_omega_entry(capsys, omegas):
    code = main([
        "compare", "--config", "smallgain.cfg", "--omega-list", omegas, "--t-final", "0.01",
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: cli.omega-list: entry 2 of {omegas!r} is empty\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    ("omegas", "refusal"),
    [("20,x", "not numeric: '20,x'"), ("20", "need at least two omega3 values")],
)
def test_compare_refuses_a_non_numeric_entry_or_a_single_value(capsys, omegas, refusal):
    code = main([
        "compare", "--config", "smallgain.cfg", "--omega-list", omegas, "--t-final", "0.01",
    ])
    assert code == 1
    assert capsys.readouterr() == ("", f"error: cli.omega-list: {refusal}\n")


@pytest.mark.parametrize(
    ("verb", "flag"),
    [("simulate", "out"), ("simulate", "metrics"), ("average", "out"), ("average", "metrics"),
     ("verify", "metrics"), ("compare", "metrics")],
)
def test_an_empty_output_path_is_refused_before_any_run(monkeypatch, capsys, verb, flag):
    monkeypatch.setattr(cli, "load_scenario", lambda path: pytest.fail("a scenario was loaded"))
    lanes = ["--omega-list", "20,40"] if verb == "compare" else []
    for path in ("", "  ", " \t "):  # a blank name is no name
        assert main([verb, "--config", "smallgain.cfg", "--t-final", "0.01", *lanes, f"--{flag}", path]) == 1
        assert capsys.readouterr() == ("", f"error: cli.{flag}: empty file path\n")


@pytest.mark.parametrize("mode", ["", "  "])
def test_an_empty_mode_is_refused(capsys, mode):
    assert main(["simulate", "--config", "smallgain.cfg", "--t-final", "0.01", "--mode", mode]) == 1
    assert capsys.readouterr() == ("", "error: run.mode: unknown mode ''\n")


@pytest.mark.parametrize(
    ("mode", "summary"), [(" full ", "full: "), ("sampled-data(0.005)", "sampled-data(0.005): ")]
)
def test_the_summary_line_starts_with_the_stripped_mode(capsys, mode, summary):
    assert main(["simulate", "--config", "smallgain.cfg", "--t-final", "0.01", "--mode", mode]) == 0
    assert capsys.readouterr().out.startswith(f"{summary}steps=100 events=")


@pytest.mark.parametrize(
    ("omegas", "entries"),
    [("20,20.0000001,40", "1 (20) and 2 (20.0000001)"), ("20,20", "1 (20) and 2 (20)"),
     ("40, 20,2e1", "2 (20) and 3 (2e1)")],
)
def test_compare_refuses_omega_entries_that_share_a_lane(capsys, omegas, entries):
    # Each lane is filed under f"{omega:g}" in --metrics, so two such
    # entries would print two lanes but write one.
    code = main([
        "compare", "--config", "smallgain.cfg", "--omega-list", omegas, "--t-final", "0.01",
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: cli.omega-list: --omega-list entries {entries} share the lane key 20\n"
    )
    assert captured.out == ""


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


#: A 1 s paper_siv run: 10,001 rows, two export parts where two CPUs are usable.
SIV_1S = ["simulate", "--config", "paper_siv.cfg", "--t-final", "1"]


def test_trace_in_two_parts_to_dev_null(monkeypatch, capsys):
    # The child's part is copied with sendfile, which, unlike
    # copy_file_range, writes to any file, /dev/null among them.
    forks = []
    fork = traceio._fork

    def counted():
        pid = fork()
        forks.append(pid)
        return pid

    monkeypatch.setattr(traceio, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(traceio, "_fork", counted)
    assert main([*SIV_1S, "--out", "/dev/null"]) == 0
    assert len(forks) == 1
    assert capsys.readouterr().err == ""


def test_trace_in_two_parts_to_stdout(tmp_path):
    # Block-buffered stdout still holds the summary line when the child
    # forks; the child must not flush it, and the copy must reach a pipe.
    src = str(Path(etseek.__file__).resolve().parents[1])
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys; from etseek import cli, traceio; traceio._usable_cpus = lambda: 2; "
        "sys.exit(cli.main(sys.argv[1:]))"
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code, *SIV_1S, "--out", "/dev/stdout"],
        capture_output=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    summary = re.findall(rb"^full: steps=10000 events=\d+ final_error_norm=\S+\n", proc.stdout, re.M)
    assert len(summary) == 1
    path = tmp_path / "trace.csv"
    assert main([*SIV_1S, "--out", str(path)]) == 0
    assert proc.stdout.replace(summary[0], b"") == path.read_bytes()


def test_compare_lanes_to_block_buffered_stdout():
    # Lane 3's child forks while lane 1's line is still in the buffer; no
    # child may flush it.
    omegas = ["20", "40", "80"]
    proc = run_cli("compare", "--config", "smallgain.cfg", "--omega-list", ",".join(omegas),
                   "--t-final", "0.5", python_flags=("-W", "error"), cpus=2)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = [f"omega3={omega}: sup deviation = " for omega in omegas] + [
        f"deviation ratio {hi}/{lo} = " for lo, hi in zip(omegas, omegas[1:])
    ]
    assert [line.split("= ")[0] + "= " for line in proc.stdout.splitlines()] == lines
