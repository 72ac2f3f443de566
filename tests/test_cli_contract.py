"""The CLI's exit-code and diagnostics contract, as a property of ``cli.main``.

Whatever the arguments, ``main`` returns 0 (success), 1 (validation
error, or a file that cannot be read or written) or 2 (non-finite
state), and raises nothing.  Its standard error holds only one-line
diagnostics: ``warning: ...`` lines, then at most one ``error: ...``
line (exit 1) or one ``numerical failure: ...`` line (exit 2).  The one
exception is a usage error, where argparse's ``usage:`` block precedes
the ``error: cli: ...`` line.  No output line holds a number longer than
40 characters: every drawn token is at most 32 characters long, so a
longer one would be a number the program made, like the 301-digit step
count ``--dt 1e-300 --t-final 1`` once printed.

Runs stay short: ``--t-final`` is always passed, either at most 0.05 s
with a step of at least 1e-5 s (5,000 steps at most) or at a value the
step cap or the ``t_final >= dt`` check refuses before any trace memory
is allocated.  Mutated scenario files never change ``run.dt``.
"""

import contextlib
import io
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from etseek.cli import main
from etseek.config import packaged_scenario_path
from tests.test_cli import run_cli

SCENARIOS = ("paper_siv.cfg", "smallgain.cfg")
SCENARIO_TEXT = {name: packaged_scenario_path(name).read_text(encoding="utf-8") for name in SCENARIOS}

# A run of digits, with the signs, points and exponents around them.
NUMBER = re.compile(r"\d[\d.eE+-]*")
DIAGNOSTICS = ("error: ", "warning: ", "numerical failure: ")

# Values no run reaches a long loop with, at any drawn step or horizon.
EXTREME = [
    "0", "-0.0", "-1e-4", "5e-324", "1e-320", "1e-300", "1e-100", "1e300",
    "1.7976931348623157e308", "1e309", "-1e309", "nan", "-nan", "inf", "-inf",
]
MALFORMED = ["", " ", "abc", "1e", "1..0", "0x10", "1,5", "--", "nan(1)", "20;40", "١٢"]

extreme = st.sampled_from(EXTREME)
malformed = st.sampled_from(MALFORMED)
any_float = st.floats(allow_nan=True, allow_infinity=True).map(repr)
value = st.one_of(any_float, extreme, malformed)
horizon = st.one_of(st.floats(1e-6, 0.05).map(repr), extreme, malformed)
step = st.one_of(st.none(), st.floats(1e-5, 0.05).map(repr), extreme, malformed)
mode = st.one_of(
    st.sampled_from(["full", "average", "continuous-control", "sampled-data", "turbo", ""]),
    st.builds("sampled-data({})".format, st.one_of(st.floats(1e-4, 0.05).map(repr), extreme, malformed)),
)
omega = st.one_of(st.floats(1.0, 200.0).map(repr), st.sampled_from(["20", "40", "2e1"]), extreme, malformed)
omega_list = st.lists(omega, min_size=1, max_size=4).map(",".join)
order = st.one_of(
    st.integers(-3, 200).map(str),
    st.sampled_from(["9" * 30, "-" + "9" * 30, "1.5", "1e3", "x", ""]),
)


@st.composite
def scenario_file(draw):
    """A shipped scenario with one to three lines changed, dropped or added."""
    lines = SCENARIO_TEXT[draw(st.sampled_from(SCENARIOS))].splitlines()
    for _ in range(draw(st.integers(1, 3))):
        keyed = [i for i, line in enumerate(lines) if " = " in line and not line.startswith("dt ")]
        i = draw(st.sampled_from(keyed))
        key = lines[i].split(" = ")[0]
        kind = draw(st.sampled_from(["value", "two values", "drop", "unknown", "twin", "section"]))
        if kind == "value":
            lines[i] = f"{key} = {draw(value)}"
        elif kind == "two values":
            lines[i] = f"{key} = {draw(value)} {draw(value)}"
        elif kind == "drop":
            del lines[i]
        elif kind == "unknown":
            lines.insert(i, f"bogus = {draw(value)}")
        elif kind == "twin":
            twin = key[: -len("_deg")] if key.endswith("_deg") else key + "_deg"
            lines.insert(i, f"{twin} = {draw(value)}")
        else:
            lines.insert(i, draw(st.sampled_from(["[field]", "[extra]", "[run", "no equals sign"])))
    return "\n".join(lines) + "\n"


@st.composite
def arguments(draw):
    """A verb and its flags, required ones sometimes missing and -h or
    --help sometimes among them; each value (or a file's text) is drawn,
    and paths are placeholders."""
    verb = draw(st.sampled_from(["simulate", "average", "compare", "verify", "bessel", "simulat", ""]))
    if verb == "bessel":
        flags = [("--order", draw(order)), ("--arg", draw(value))]
    else:
        config = draw(st.one_of(
            st.sampled_from([*SCENARIOS, "missing.cfg", "", "{dir}"]),
            scenario_file(),
        ))
        flags = [("--config", config), ("--t-final", draw(horizon))]
        dt = draw(step)
        if dt is not None:
            flags.append(("--dt", dt))
        outputs = ["{dir}", "{dir}/missing/out", "{dir}/out"]
        if draw(st.booleans()):
            flags.append(("--metrics", draw(st.sampled_from(outputs))))
        if verb in ("simulate", "average") and draw(st.booleans()):
            flags.append(("--out", draw(st.sampled_from(outputs))))
        if verb == "simulate" and draw(st.booleans()):
            flags.append(("--mode", draw(mode)))
        if verb == "compare":
            flags.append(("--omega-list", draw(omega_list)))
    if draw(st.integers(0, 4)) == 0:
        droppable = [pair for pair in flags if pair[0] != "--t-final"]
        flags.remove(draw(st.sampled_from(droppable)))
    if draw(st.integers(0, 9)) == 0:
        flags.append((draw(st.sampled_from(["-h", "--help"])),))
    flags = draw(st.permutations(flags))
    if draw(st.integers(0, 9)) == 0:
        flags.append(("--bogus", draw(value)))
    return [verb, *(token for pair in flags for token in pair)]


def _materialize(args, directory):
    """Write drawn scenario texts into ``directory`` and fill in its path."""
    out = []
    for j, token in enumerate(args):
        if j and args[j - 1] == "--config" and "\n" in token:
            path = Path(directory, f"scenario{j}.cfg")
            path.write_text(token, encoding="utf-8")
            token = str(path)
        out.append(token.replace("{dir}", directory))
    return out


def assert_contract(code, out, err):
    assert code in (0, 1, 2), (code, err)
    lines = err.splitlines()
    usage = code == 1 and lines and lines[-1].startswith("error: cli: ") and lines[0].startswith("usage: ")
    body = [line for line in lines if line.startswith(DIAGNOSTICS)]
    assert len(body) == len(lines) or usage, err
    assert "Traceback" not in err
    errors = [line for line in lines if line.startswith("error: ")]
    failures = [line for line in lines if line.startswith("numerical failure: ")]
    assert len(errors) == (code == 1), err
    assert len(failures) == (code == 2), err
    if code:
        assert lines[-1].startswith(("error: ", "numerical failure: ")), err
    for line in (out + err).splitlines():
        assert max(map(len, NUMBER.findall(line)), default=0) <= 40, line


def run_main(args, werror):
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as directory, warnings.catch_warnings():
        if werror:
            warnings.simplefilter("error")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(_materialize(args, directory))
    return code, stdout.getvalue(), stderr.getvalue()


@settings(max_examples=60, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(args=arguments(), werror=st.booleans())
# Under -W error the grid warning is raised in main, once a traceback.
@example(args=["verify", "--config", "paper_siv.cfg", "--dt", "0.01", "--t-final", "1"], werror=True)
# 1 / 1e-300 steps once printed as an integer of 301 digits.
@example(args=["simulate", "--config", "paper_siv.cfg", "--dt", "1e-300", "--t-final", "1"],
         werror=False)
# An empty --omega-list entry once ran as a lane of omega3 = 0.
@example(args=["compare", "--config", "smallgain.cfg", "--omega-list", "20,,40",
               "--t-final", "0.01"], werror=False)
# A scenario file that opens a section it never closes once printed
# configparser's three-line message.
@example(args=["verify", "--config", "[run\n", "--t-final", "0.01"], werror=False)
# A run of one 1e300 s step once printed its failure time in 301 digits.
@example(args=["average", "--config", "paper_siv.cfg", "--t-final", "1e300", "--dt", "1e300"],
         werror=False)
# -h once printed the help and then left the interpreter through
# argparse's SystemExit.
@example(args=["simulate", "-h"], werror=False)
def test_main_keeps_the_exit_code_and_diagnostics_contract(args, werror):
    assert_contract(*run_main(args, werror))


def test_cli_under_werror_keeps_the_contract(tmp_path):
    # In a fresh interpreter, -W error also turns warnings raised while
    # importing numpy and the package into errors; one call at a time.
    broken = SCENARIO_TEXT["smallgain.cfg"].replace("alpha = 5.0", "alpha = nan")
    (tmp_path / "broken.cfg").write_text(broken, encoding="utf-8")
    cases = [
        (["simulate", "--config", "paper_siv.cfg", "--dt", "0.01", "--t-final", "1"], 1),
        (["compare", "--config", "smallgain.cfg", "--omega-list", "20,40", "--t-final", "0.01"], 0),
        (["simulate", "--config", str(tmp_path / "broken.cfg"), "--t-final", "0.01"], 1),
        (["bessel", "--order", "0", "--arg", "50"], 1),
        (["simulate", "--config", "paper_siv.cfg", "--mode", "continuous-control",
          "--t-final", "3"], 2),
    ]
    for args, expected in cases:
        proc = run_cli(*args, python_flags=("-W", "error"))
        assert proc.returncode == expected, (args, proc.stderr)
        assert_contract(proc.returncode, proc.stdout, proc.stderr)
