"""Scenario configuration: file format, validation, shipped scenarios.

A scenario file is an INI document with flat sections [field], [dithers],
[gain], [trigger] and [run]; see the shipped ``paper_siv.cfg`` for the
full key set.  Angle-valued keys accept a ``_deg`` variant that is
converted to radians at load.  The trigger bias is never configured
directly; it is derived from the dithers as a1*omega3*|J_2(a3)|.  The
reader checks only what a file alone states (syntax, finiteness, unknown
keys, ``_deg`` conflicts, a_i > 0); the value types check every other
rule, each raising :class:`ScenarioError` under the value's file key.
The mode text is a run's whole update policy, read by :func:`mode_period`.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, replace
from pathlib import Path

from etseek import trace
from etseek.trace import ScenarioError
from etseek.trigger import GainMatrix, TriggerConstants, trigger_bias
from etseek.vehicle import DitherParams, QuadraticField, VehicleState

#: The update period of each mode that names no sample period.
_PERIODS = {"full": None, "average": None, "continuous-control": 0.0}

_SAMPLED_RE = re.compile(r"^sampled-data\(([^)]+)\)$")

_DEFAULT_DT = 1e-4
_DEFAULT_T_FINAL = 60.0


@dataclass(frozen=True)
class Scenario:
    """Complete experiment description."""

    field: QuadraticField
    dithers: DitherParams
    gain: GainMatrix
    trigger: TriggerConstants
    initial: VehicleState
    dt: float = _DEFAULT_DT
    t_final: float = _DEFAULT_T_FINAL
    mode: str = "full"

    def __post_init__(self) -> None:
        mode_period(self.mode)
        trigger_bias(self.dithers)  # refuses a3 outside J_2's domain and a bias that overflows
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ScenarioError("run.dt", "must be finite and > 0")
        if not math.isfinite(self.t_final):
            raise ScenarioError("run.t_final", "must be finite")
        if self.t_final < self.dt:
            raise ScenarioError("run.t_final", "must be >= dt")

    @property
    def bias(self) -> float:
        """The trigger bias of the dithers, :func:`etseek.trigger.trigger_bias`."""
        return trigger_bias(self.dithers)

    @property
    def update_period(self) -> float | None:
        """The mode's control update period, :func:`mode_period`."""
        return mode_period(self.mode)

    @property
    def steps(self) -> int:
        """Steps of the run's uniform grid, ``round(t_final / dt)``, at least one.

        Raises ValueError for more than :data:`etseek.trace.MAX_STEPS`,
        checked on the ratio, since ``round`` cannot convert a ratio that
        overflowed to infinity.  Checked when read, not when built, so a
        file's scenario may exceed the cap until its overrides apply.
        """
        steps = self.t_final / self.dt
        if steps > trace.MAX_STEPS + 0.5:
            raise ValueError(
                f"run.t_final / run.dt = {steps:.3g} steps exceed the cap of {trace.MAX_STEPS}; "
                "raise run.dt or shorten run.t_final"
            )
        return round(steps)


def mode_period(mode: str) -> float | None:
    """The update period a mode names: None under the event trigger (``full``,
    ``average``), 0.0 for every step (``continuous-control``), P for the
    clock ``sampled-data(P)``.  Raises ScenarioError under ``run.mode`` else."""
    if mode in _PERIODS:
        return _PERIODS[mode]
    match = _SAMPLED_RE.match(str(mode))
    if not match:
        raise ScenarioError("run.mode", f"unknown mode {mode!r}")
    try:
        period = float(match.group(1))
    except ValueError as exc:
        raise ScenarioError("run.mode", f"bad sampled-data period {match.group(1)!r}") from exc
    if not (math.isfinite(period) and period > 0.0):
        raise ScenarioError("run.mode", f"sampled-data period must be finite and > 0, got {period}")
    return period


class _SectionReader:
    def __init__(self, parser: configparser.ConfigParser, section: str):
        self.section = section
        if not parser.has_section(section):
            raise ScenarioError(section, "missing section")
        self.raw = dict(parser.items(section))
        self.seen: set[str] = set()

    def _fetch(self, key: str) -> str | None:
        if key in self.raw:
            self.seen.add(key)
            return self.raw[key]
        return None

    def get_float(self, key: str, default: float | None = None) -> float:
        text = self._fetch(key)
        if text is None:
            if default is not None:
                return default
            raise ScenarioError(f"{self.section}.{key}", "missing key")
        try:
            value = float(text)
        except ValueError as exc:
            raise ScenarioError(f"{self.section}.{key}", f"not a number: {text!r}") from exc
        if not math.isfinite(value):
            raise ScenarioError(f"{self.section}.{key}", f"must be finite, got {text!r}")
        return value

    def get_angle(self, key: str, default: float | None = None) -> float:
        """Radian value of an angle key, accepting a _deg alternative."""
        has_rad = key in self.raw
        has_deg = f"{key}_deg" in self.raw
        if has_rad and has_deg:
            raise ScenarioError(f"{self.section}.{key}", f"both {key} and {key}_deg given")
        if has_deg:
            return math.radians(self.get_float(f"{key}_deg"))
        return self.get_float(key, default)

    def get_bool(self, key: str, default: bool) -> bool:
        text = self._fetch(key)
        if text is None:
            return default
        try:
            return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
        except KeyError:
            raise ScenarioError(f"{self.section}.{key}", f"not a boolean: {text!r}") from None

    def get_row(self, key: str, width: int) -> tuple[float, ...]:
        text = self._fetch(key)
        if text is None:
            raise ScenarioError(f"{self.section}.{key}", "missing key")
        parts = text.replace(",", " ").split()
        if len(parts) != width:
            raise ScenarioError(
                f"{self.section}.{key}", f"expected {width} entries, got {len(parts)}"
            )
        try:
            row = tuple(float(p) for p in parts)
        except ValueError as exc:
            raise ScenarioError(f"{self.section}.{key}", f"not numeric: {text!r}") from exc
        if not all(math.isfinite(v) for v in row):
            raise ScenarioError(f"{self.section}.{key}", f"entries must be finite: {text!r}")
        return row

    def get_str(self, key: str, default: str) -> str:
        text = self._fetch(key)
        return default if text is None else text.strip()

    def reject_unknown(self) -> None:
        unknown = set(self.raw) - self.seen
        if unknown:
            key = sorted(unknown)[0]
            raise ScenarioError(f"{self.section}.{key}", "unknown key")


def packaged_scenario_path(name: str) -> Path:
    """Filesystem path of a scenario shipped inside the package."""
    path = Path(__file__).with_name("scenarios") / name
    if not path.exists():
        raise FileNotFoundError(f"no packaged scenario named {name!r}")
    return path


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file.

    A bare file name that does not exist on disk is looked up among the
    packaged scenarios, so ``--config paper_siv.cfg`` works from any
    directory.
    """
    path = Path(path)
    if not path.exists():
        if path.name == str(path):
            path = packaged_scenario_path(path.name)
        else:
            raise FileNotFoundError(f"scenario file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except configparser.Error as exc:
        # configparser's messages span lines; the CLI prints one per error.
        message = " ".join(line.strip() for line in str(exc).splitlines())
        raise ScenarioError(str(path), f"parse error: {message}") from exc

    fld = _SectionReader(parser, "field")
    field = QuadraticField(
        x_star=fld.get_float("x_star"),
        y_star=fld.get_float("y_star"),
        theta_star=fld.get_angle("theta_star"),
        q_star=fld.get_float("q_star"),
    )
    fld.reject_unknown()

    dth = _SectionReader(parser, "dithers")
    amplitudes = {name: dth.get_float(name) for name in ("a1", "a2", "a3")}
    for name, value in amplitudes.items():
        if value <= 0.0:
            raise ScenarioError(f"dithers.{name}", "must be > 0")
    dithers = DitherParams(
        **amplitudes,
        omega1=dth.get_float("omega1"),
        omega2=dth.get_float("omega2"),
        omega3=dth.get_float("omega3"),
        frequency_override=dth.get_bool("frequency_override", False),
    )
    dth.reject_unknown()

    gn = _SectionReader(parser, "gain")
    gain = GainMatrix(rows=(gn.get_row("row1", 3), gn.get_row("row2", 3)))
    gn.reject_unknown()

    trg = _SectionReader(parser, "trigger")
    trigger = TriggerConstants(trg.get_float("sigma"), trg.get_float("alpha"))
    trg.reject_unknown()

    run = _SectionReader(parser, "run")
    initial = VehicleState(
        x=run.get_float("x0"),
        y=run.get_float("y0"),
        theta=run.get_angle("theta0"),
    )
    scenario = Scenario(
        field=field,
        dithers=dithers,
        gain=gain,
        trigger=trigger,
        initial=initial,
        dt=run.get_float("dt", _DEFAULT_DT),
        t_final=run.get_float("t_final", _DEFAULT_T_FINAL),
        mode=run.get_str("mode", "full"),
    )
    run.reject_unknown()
    return scenario


def scale_probing_frequency(sc: Scenario, factor: float) -> Scenario:
    """Scenario with frequencies scaled by ``factor`` and a*omega fixed.

    All three probing frequencies are multiplied and all amplitudes
    divided by the same factor, preserving the frequency pattern and all
    a_i*omega_i products; the trigger bias follows the new dithers.
    """
    if not (math.isfinite(factor) and factor > 0.0):
        raise ValueError(f"frequency scale factor must be finite and > 0, got {factor}")
    d = sc.dithers
    scaled = replace(
        d, a1=d.a1 / factor, a2=d.a2 / factor, a3=d.a3 / factor,
        omega1=d.omega1 * factor, omega2=d.omega2 * factor, omega3=d.omega3 * factor,
    )
    return replace(sc, dithers=scaled)
