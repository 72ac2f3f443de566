"""Scenario configuration: file format, validation, shipped scenarios.

A scenario file is an INI document with flat sections [field], [dithers],
[gain], [trigger] and [run]; one table, :data:`_KEYS`, lists every key
with its kind and default.  Angle-valued keys accept a ``_deg`` variant
that is converted to radians at load.  The trigger bias is never
configured directly; it is derived from the dithers as
a1*omega3*|J_2(a3)|.  The reader checks only what a file alone states
(syntax, finiteness, unknown keys, ``_deg`` conflicts, a_i > 0), in every
section before any value type is built; the value types then check every
other rule, each raising :class:`ScenarioError` under the value's file key.
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

#: Every key a scenario file may hold, by section, with its kind and its
#: default; None marks a required key.  An ``angle`` key may be given
#: instead in degrees as ``<key>_deg``; an ``amplitude`` must be > 0; a
#: ``row`` holds three numbers.
_KEYS = {
    "field": {
        "x_star": ("float", None), "y_star": ("float", None),
        "theta_star": ("angle", None), "q_star": ("float", None),
    },
    "dithers": {
        "a1": ("amplitude", None), "a2": ("amplitude", None), "a3": ("amplitude", None),
        "omega1": ("float", None), "omega2": ("float", None), "omega3": ("float", None),
        "frequency_override": ("bool", False),
    },
    "gain": {"row1": ("row", None), "row2": ("row", None)},
    "trigger": {"sigma": ("float", None), "alpha": ("float", None)},
    "run": {
        "x0": ("float", None), "y0": ("float", None), "theta0": ("angle", None),
        "dt": ("float", _DEFAULT_DT), "t_final": ("float", _DEFAULT_T_FINAL),
        "mode": ("str", "full"),
    },
}


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


def _value(name: str, kind: str, text: str) -> float | bool | str | tuple[float, ...]:
    """The value of a key of ``kind`` (see :data:`_KEYS`) from its text.

    Raises ScenarioError under ``name``, the key as ``section.key``.
    """
    if kind == "str":
        return text.strip()
    if kind == "bool":
        try:
            return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
        except KeyError:
            raise ScenarioError(name, f"not a boolean: {text!r}") from None
    if kind == "row":
        parts = text.replace(",", " ").split()
        if len(parts) != 3:
            raise ScenarioError(name, f"expected 3 entries, got {len(parts)}")
        try:
            row = tuple(float(p) for p in parts)
        except ValueError as exc:
            raise ScenarioError(name, f"not numeric: {text!r}") from exc
        if not all(math.isfinite(v) for v in row):
            raise ScenarioError(name, f"entries must be finite: {text!r}")
        return row
    try:
        value = float(text)
    except ValueError as exc:
        raise ScenarioError(name, f"not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise ScenarioError(name, f"must be finite, got {text!r}")
    if kind == "amplitude" and value <= 0.0:
        raise ScenarioError(name, "must be > 0")
    return value


def _read_section(parser: configparser.ConfigParser, section: str) -> dict:
    """The values of a section's keys in :data:`_KEYS`, angles in radians."""
    if not parser.has_section(section):
        raise ScenarioError(section, "missing section")
    raw = dict(parser.items(section))
    values = {}
    for key, (kind, default) in _KEYS[section].items():
        name, text = f"{section}.{key}", raw.pop(key, None)
        if kind == "angle" and f"{key}_deg" in raw:
            if text is not None:
                raise ScenarioError(name, f"both {key} and {key}_deg given")
            values[key] = math.radians(_value(f"{name}_deg", "float", raw.pop(f"{key}_deg")))
        elif text is not None:
            values[key] = _value(name, kind, text)
        elif default is None:
            raise ScenarioError(name, "missing key")
        else:
            values[key] = default
    if raw:  # what no key of the table took
        raise ScenarioError(f"{section}.{min(raw)}", "unknown key")
    return values


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

    field, dithers, gain, trigger, run = (_read_section(parser, section) for section in _KEYS)
    return Scenario(
        field=QuadraticField(**field),
        dithers=DitherParams(**dithers),
        gain=GainMatrix(rows=(gain["row1"], gain["row2"])),
        trigger=TriggerConstants(**trigger),
        initial=VehicleState(x=run["x0"], y=run["y0"], theta=run["theta0"]),
        dt=run["dt"], t_final=run["t_final"], mode=run["mode"],
    )


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
