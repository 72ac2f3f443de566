import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from etseek.config import (
    Scenario,
    ScenarioError,
    load_scenario,
    mode_period,
    packaged_scenario_path,
    scale_probing_frequency,
)

SIV_BIAS = 0.3060402345868264


def write_cfg(tmp_path, **overrides):
    values = {
        "field": {"x_star": "10.0", "y_star": "5.0", "theta_star_deg": "30.0",
                  "q_star": "7.0"},
        "dithers": {"a1": "0.5", "a2": "0.5", "a3": "0.5", "omega1": "4.0",
                    "omega2": "4.0", "omega3": "2.0"},
        "gain": {"row1": "4.3822 4.3822 0.1437", "row2": "-9.4326 9.4326 4.0"},
        "trigger": {"sigma": "0.5", "alpha": "0.195"},
        "run": {"x0": "12.5", "y0": "7.5", "theta0_deg": "60.0", "dt": "1e-3",
                "t_final": "1.0", "mode": "full"},
    }
    for section, mapping in overrides.items():
        values.setdefault(section, {})
        for key, val in mapping.items():
            if val is None:
                values[section].pop(key, None)
            else:
                values[section][key] = val
    lines = []
    for section, mapping in values.items():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in mapping.items())
        lines.append("")
    path = tmp_path / "scenario.cfg"
    path.write_text("\n".join(lines))
    return path


class TestPaperScenario:
    def test_loads_published_values(self, siv_scenario):
        sc = siv_scenario
        assert (sc.field.x_star, sc.field.y_star) == (10.0, 5.0)
        assert sc.field.theta_star == pytest.approx(math.pi / 6, abs=1e-15)
        assert sc.field.q_star == 7.0
        d = sc.dithers
        assert (d.a1, d.a2, d.a3) == (0.5, 0.5, 0.5)
        assert (d.omega1, d.omega2, d.omega3) == (10.0, 10.0, 20.0)
        assert d.frequency_override is True
        assert sc.gain.rows == ((4.3822, 4.3822, 0.1437), (-9.4326, 9.4326, 4.0))
        assert sc.trigger.sigma == 0.5
        assert sc.trigger.alpha == 0.195
        assert sc.bias == pytest.approx(SIV_BIAS, abs=1e-15)
        assert (sc.initial.x, sc.initial.y) == (12.5, 7.5)
        assert sc.initial.theta == pytest.approx(math.pi / 3, abs=1e-15)
        assert sc.dt == 1e-4 and sc.t_final == 60.0 and sc.mode == "full"

    def test_bare_name_resolves_to_packaged_file(self):
        assert load_scenario("paper_siv.cfg").field.q_star == 7.0
        assert packaged_scenario_path("paper_siv.cfg").exists()
        with pytest.raises(FileNotFoundError):
            load_scenario("no_such.cfg")

    def test_smallgain_is_assumption_compliant(self, smallgain_scenario):
        d = smallgain_scenario.dithers
        assert d.frequency_override is False
        assert d.omega1 == d.omega2 == 2.0 * d.omega3


class TestValidation:
    def test_sigma_out_of_range_names_the_key(self, tmp_path):
        path = write_cfg(tmp_path, trigger={"sigma": "1.2"})
        with pytest.raises(ScenarioError, match="trigger.sigma"):
            load_scenario(path)

    @pytest.mark.parametrize("alpha", ["0.0", "-1.0"])
    def test_alpha_not_positive_names_the_key(self, tmp_path, alpha):
        path = write_cfg(tmp_path, trigger={"alpha": alpha})
        with pytest.raises(ScenarioError, match=rf"^trigger\.alpha: must be > 0, got {alpha}$"):
            load_scenario(path)

    def test_compliant_frequencies_accepted(self, tmp_path):
        sc = load_scenario(write_cfg(tmp_path))
        assert (sc.dithers.omega1, sc.dithers.omega3) == (4.0, 2.0)

    def test_frequency_mismatch_needs_override(self, tmp_path):
        path = write_cfg(tmp_path, dithers={"omega1": "10.0", "omega2": "10.0",
                                            "omega3": "20.0"})
        with pytest.raises(ScenarioError, match=r"^dithers\.omega1: 10\.0 violates"):
            load_scenario(path)
        path = write_cfg(tmp_path, dithers={"omega1": "10.0", "omega2": "10.0",
                                            "omega3": "20.0",
                                            "frequency_override": "true"})
        assert load_scenario(path).dithers.frequency_override is True

    @pytest.mark.parametrize(
        "text, value",
        [(" TRUE", True), ("Yes", True), ("on", True), ("1", True),
         ("False ", False), ("no", False), ("OFF", False), ("0", False), ("maybe", None)],
    )
    def test_boolean_words(self, tmp_path, text, value):
        path = write_cfg(tmp_path, dithers={"frequency_override": text})
        if value is None:
            with pytest.raises(ScenarioError, match="dithers.frequency_override: not a boolean"):
                load_scenario(path)
        else:
            assert load_scenario(path).dithers.frequency_override is value

    def test_missing_key_is_contextual(self, tmp_path):
        path = write_cfg(tmp_path, field={"q_star": None})
        with pytest.raises(ScenarioError, match="field.q_star"):
            load_scenario(path)

    def test_type_error_is_contextual(self, tmp_path):
        path = write_cfg(tmp_path, dithers={"a1": "fast"})
        with pytest.raises(ScenarioError, match="dithers.a1"):
            load_scenario(path)

    @pytest.mark.parametrize("section, key, value", [
        ("field", "q_star", "nan"),
        ("field", "x_star", "-inf"),
        ("field", "theta_star_deg", "inf"),
        ("dithers", "omega3", "inf"),
        ("gain", "row1", "4.3822 nan 0.1437"),
        ("trigger", "alpha", "nan"),
        ("run", "theta0_deg", "nan"),
        ("run", "t_final", "inf"),
    ])
    def test_non_finite_value_names_the_key(self, tmp_path, section, key, value):
        path = write_cfg(tmp_path, **{section: {key: value}})
        with pytest.raises(ScenarioError, match=f"{section}.{key}: .*finite"):
            load_scenario(path)

    def test_zero_amplitude_rejected(self, tmp_path):
        path = write_cfg(tmp_path, dithers={"a2": "0.0"})
        with pytest.raises(ScenarioError, match="dithers.a2"):
            load_scenario(path)

    def test_overflowing_trigger_bias_names_the_dithers(self, tmp_path):
        # Every key is finite, but a1*omega3*|J_2(a3)| overflows to inf.
        path = write_cfg(tmp_path, dithers={"a1": "1e200", "omega1": "2e200",
                                            "omega2": "2e200", "omega3": "1e200"})
        with pytest.raises(ScenarioError, match=r"^dithers: trigger bias .*got inf"):
            load_scenario(path)

    @pytest.mark.parametrize("a3", ["12.0", "10.5"])
    def test_a3_outside_the_bessel_domain_names_the_key(self, tmp_path, a3):
        path = write_cfg(tmp_path, dithers={"a3": a3})
        with pytest.raises(ScenarioError, match=r"^dithers\.a3: Bessel series is accurate only"):
            load_scenario(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_cfg(tmp_path, run={"warp": "9"})
        with pytest.raises(ScenarioError, match="run.warp"):
            load_scenario(path)

    def test_degree_and_radian_keys_conflict(self, tmp_path):
        path = write_cfg(tmp_path, field={"theta_star": "0.5"})
        with pytest.raises(ScenarioError, match="theta_star"):
            load_scenario(path)

    def test_degree_conversion(self, tmp_path):
        path = write_cfg(tmp_path, field={"theta_star_deg": "45.0"})
        sc = load_scenario(path)
        assert sc.field.theta_star == pytest.approx(math.pi / 4, abs=1e-15)

    @pytest.mark.parametrize("gain, refusal", [
        ({"row1": None, "row2": None}, "gain: missing section"),
        ({"row2": None}, "gain.row2: missing key"),
        ({"row1": "4.3822 4.3822"}, "gain.row1: expected 3 entries, got 2"),
        ({"row1": "4.3822 x 0.1437"}, "gain.row1: not numeric: '4.3822 x 0.1437'"),
    ])
    def test_gain_section_refusals_name_the_key(self, tmp_path, gain, refusal):
        path = write_cfg(tmp_path, gain=gain)
        path.write_text(path.read_text().replace("[gain]\n\n", ""))  # an emptied section goes
        with pytest.raises(ScenarioError) as info:
            load_scenario(path)
        assert str(info.value) == refusal
        assert info.value.context == refusal.split(":")[0]

    @pytest.mark.parametrize("section, values, refusal", [
        ("field", {"x_star": None, "y_star": None, "theta_star_deg": None, "q_star": None},
         "field: missing section"),
        ("dithers", {k: None for k in ("a1", "a2", "a3", "omega1", "omega2", "omega3")},
         "dithers: missing section"),
        ("trigger", {"sigma": None, "alpha": None}, "trigger: missing section"),
        ("run", {k: None for k in ("x0", "y0", "theta0_deg", "dt", "t_final", "mode")},
         "run: missing section"),
        ("field", {"y_star": None}, "field.y_star: missing key"),
        ("field", {"theta_star_deg": None}, "field.theta_star: missing key"),
        ("dithers", {"omega2": None}, "dithers.omega2: missing key"),
        ("trigger", {"alpha": None}, "trigger.alpha: missing key"),
        ("run", {"x0": None}, "run.x0: missing key"),
        ("run", {"theta0_deg": None}, "run.theta0: missing key"),
        ("field", {"theta_star_deg": "thirty"}, "field.theta_star_deg: not a number: 'thirty'"),
        ("run", {"theta0_deg": "sixty"}, "run.theta0_deg: not a number: 'sixty'"),
        ("run", {"dt": "fast"}, "run.dt: not a number: 'fast'"),
        ("trigger", {"sigma": "nan"}, "trigger.sigma: must be finite, got 'nan'"),
        ("dithers", {"a1": "inf"}, "dithers.a1: must be finite, got 'inf'"),
        ("field", {"theta_star": "0.5"}, "field.theta_star: both theta_star and theta_star_deg given"),
        ("run", {"theta0": "1.0"}, "run.theta0: both theta0 and theta0_deg given"),
        ("dithers", {"frequency_override": "maybe"},
         "dithers.frequency_override: not a boolean: 'maybe'"),
        ("dithers", {"a2": "0"}, "dithers.a2: must be > 0"),
        ("dithers", {"a1": "-0.5"}, "dithers.a1: must be > 0"),
        ("run", {"warp": "9", "bogus": "1"}, "run.bogus: unknown key"),
        ("run", {"dt_deg": "1"}, "run.dt_deg: unknown key"),
        ("trigger", {"bias": "0.3"}, "trigger.bias: unknown key"),
        ("field", {"theta_star_rad": "0.5"}, "field.theta_star_rad: unknown key"),
    ])
    def test_reader_refusals_name_the_key(self, tmp_path, section, values, refusal):
        path = write_cfg(tmp_path, **{section: values})
        path.write_text(f"{path.read_text()}\n".replace(f"[{section}]\n\n", ""))  # an emptied section goes
        with pytest.raises(ScenarioError) as info:
            load_scenario(path)
        assert str(info.value) == refusal
        assert info.value.context == refusal.split(":")[0]

    def test_reader_refusals_come_before_the_value_checks(self, tmp_path):
        # TriggerConstants refuses sigma = 2, but the file also lacks a [run] key.
        path = write_cfg(tmp_path, trigger={"sigma": "2.0"}, run={"x0": None})
        with pytest.raises(ScenarioError, match=r"^run\.x0: missing key$"):
            load_scenario(path)

    def test_absent_optional_keys_take_their_defaults(self, tmp_path):
        path = write_cfg(tmp_path, run={"dt": None, "t_final": None, "mode": None})
        assert "frequency_override" not in path.read_text()
        sc = load_scenario(path)
        assert (sc.dt, sc.t_final, sc.mode) == (1e-4, 60.0, "full")
        assert sc.dithers.frequency_override is False

    def test_bias_follows_dithers(self, tmp_path):
        path = write_cfg(tmp_path, dithers={"a3": "0.25"})
        sc = load_scenario(path)
        from etseek.vehicle import bessel_j

        expected = 0.5 * 2.0 * abs(bessel_j(2, 0.25))
        assert sc.bias == pytest.approx(expected, abs=1e-15)


class TestModes:
    def test_mode_period(self):
        assert mode_period("full") is None
        assert mode_period("average") is None
        assert mode_period("continuous-control") == 0.0
        assert mode_period("sampled-data(0.01)") == 0.01
        with pytest.raises(ScenarioError):
            mode_period("sampled-data")
        with pytest.raises(ScenarioError):
            mode_period("sampled-data(huh)")
        with pytest.raises(ScenarioError):
            mode_period("turbo")

    @pytest.mark.parametrize("period", ["nan", "inf", "-inf", "0", "-0.01"])
    def test_mode_period_rejects_bad_periods(self, period):
        with pytest.raises(ScenarioError, match="run.mode"):
            mode_period(f"sampled-data({period})")

    def test_sampled_mode_in_config(self, tmp_path):
        path = write_cfg(tmp_path, run={"mode": "sampled-data(0.05)"})
        sc = load_scenario(path)
        assert sc.mode == "sampled-data(0.05)" and sc.update_period == 0.05

    @pytest.mark.parametrize("mode", ["turbo", None])
    def test_replace_refuses_an_unknown_mode(self, siv_scenario, mode):
        from dataclasses import replace

        with pytest.raises(ScenarioError) as info:
            replace(siv_scenario, mode=mode)
        assert (info.value.context, str(info.value)) == ("run.mode", f"run.mode: unknown mode {mode!r}")

    def test_scenario_guards(self, siv_scenario):
        from dataclasses import replace

        with pytest.raises(ScenarioError, match="run.dt"):
            replace(siv_scenario, dt=0.0)
        with pytest.raises(ScenarioError, match="run.t_final"):
            replace(siv_scenario, t_final=1e-6)
        for bad in (math.nan, math.inf):
            with pytest.raises(ScenarioError, match="run.dt"):
                replace(siv_scenario, dt=bad)
            with pytest.raises(ScenarioError, match="run.t_final"):
                replace(siv_scenario, t_final=bad)
            with pytest.raises(ScenarioError, match="run.mode"):
                replace(siv_scenario, mode=f"sampled-data({bad})")


class TestFrequencyScaling:
    def test_products_are_preserved(self, siv_scenario):
        scaled = scale_probing_frequency(siv_scenario, 2.0)
        d0, d1 = siv_scenario.dithers, scaled.dithers
        assert d1.omega3 == 2.0 * d0.omega3
        for name_a, name_w in (("a1", "omega1"), ("a2", "omega2"), ("a3", "omega3")):
            prod0 = getattr(d0, name_a) * getattr(d0, name_w)
            prod1 = getattr(d1, name_a) * getattr(d1, name_w)
            assert prod1 == pytest.approx(prod0, rel=1e-15)

    def test_bias_rederived(self, siv_scenario):
        scaled = scale_probing_frequency(siv_scenario, 2.0)
        from etseek.vehicle import bessel_j

        d = scaled.dithers
        assert scaled.bias == pytest.approx(
            d.a1 * d.omega3 * abs(bessel_j(2, d.a3)), abs=1e-15
        )


def test_the_key_table_is_the_documented_key_set():
    # README's ini block and paper_siv.cfg give both angles in degrees;
    # smallgain.cfg gives theta0 in radians and may omit what has a default.
    import configparser
    import re
    from pathlib import Path

    from etseek.config import _KEYS

    def keys(text):
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        parser.read_string(text)
        return {(section, key) for section in parser.sections() for key in parser[section]}

    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Scenario files\n.*?```ini\n(.*?)```", readme, re.S).group(1)
    table = [(section, key, kind) for section, kinds in _KEYS.items() for key, (kind, _) in kinds.items()]
    in_degrees = {(section, f"{key}_deg" if kind == "angle" else key) for section, key, kind in table}
    in_radians = {(section, key) for section, key, _ in table}
    text = {name: packaged_scenario_path(name).read_text(encoding="utf-8")
            for name in ("paper_siv.cfg", "smallgain.cfg")}
    assert keys(block) == keys(text["paper_siv.cfg"]) == in_degrees
    assert keys(text["smallgain.cfg"]) <= in_degrees | in_radians


def test_replaced_dithers_run_like_a_file_with_them(tmp_path, smallgain_scenario):
    # The trigger bias is read off the dithers, so halving a1 through
    # dataclasses.replace halves it too: the run is the one a file with a1
    # halved gives, bit for bit, events included.
    from dataclasses import replace

    from etseek.engine import run_simulation
    from etseek.trace import TRACE_COLUMNS

    text = packaged_scenario_path("smallgain.cfg").read_text(encoding="utf-8")
    assert text.count("\na1 = 0.5\n") == 1
    path = tmp_path / "halved.cfg"
    path.write_text(text.replace("\na1 = 0.5\n", "\na1 = 0.25\n"), encoding="utf-8")
    sc = smallgain_scenario
    replaced = replace(sc, dithers=replace(sc.dithers, a1=0.5 * sc.dithers.a1), t_final=1.0)
    loaded = replace(load_scenario(path), t_final=1.0)
    (a, _), (b, _) = run_simulation(replaced), run_simulation(loaded)
    for column in TRACE_COLUMNS:
        assert a.column(column).tobytes() == b.column(column).tobytes(), column
    assert a.events.tobytes() == b.events.tobytes()
    assert replaced == loaded and replaced.bias == 0.5 * sc.bias


# Valid [run] and [trigger] values, of which up to three are replaced by
# any double, written with repr (so "nan", "inf", "-0.0" and "5e-324" occur).
VALID_VALUES = {
    "sigma": 0.5, "alpha": 0.195, "x0": 12.5, "y0": 7.5, "theta0": 60.0,
    "dt": 1e-3, "t_final": 1.0, "period": 0.05,
}


@settings(
    max_examples=300, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    drawn=st.dictionaries(
        st.sampled_from(sorted(VALID_VALUES)),
        st.floats(allow_nan=True, allow_infinity=True),
        max_size=3,
    ),
    in_degrees=st.booleans(),
    mode=st.sampled_from(["full", "average", "continuous-control", "sampled-data"]),
)
def test_run_and_trigger_values_load_or_raise_scenario_error(tmp_path, drawn, in_degrees, mode):
    v = {**VALID_VALUES, **drawn}
    run = {
        "x0": repr(v["x0"]), "y0": repr(v["y0"]), "dt": repr(v["dt"]),
        "t_final": repr(v["t_final"]), "theta0_deg": None,
        "theta0_deg" if in_degrees else "theta0": repr(v["theta0"]),
        "mode": f"sampled-data({v['period']!r})" if mode == "sampled-data" else mode,
    }
    trigger = {"sigma": repr(v["sigma"]), "alpha": repr(v["alpha"])}
    path = write_cfg(tmp_path, trigger=trigger, run=run)
    theta = math.radians(v["theta0"]) if in_degrees else v["theta0"]
    period = v["period"] if mode == "sampled-data" else None
    valid = (
        all(math.isfinite(v[key]) for key in VALID_VALUES if key != "period")
        and 0.0 < v["sigma"] < 1.0
        and v["alpha"] > 0.0
        and v["dt"] > 0.0
        and v["t_final"] >= v["dt"]
        and (period is None or (math.isfinite(period) and period > 0.0))
    )
    if not valid:
        with pytest.raises(ScenarioError):
            load_scenario(path)
        return
    sc = load_scenario(path)
    assert (sc.trigger.sigma, sc.trigger.alpha) == (v["sigma"], v["alpha"])
    assert (sc.initial.x, sc.initial.y, sc.initial.theta) == (v["x0"], v["y0"], theta)
    assert (sc.dt, sc.t_final, sc.mode) == (v["dt"], v["t_final"], run["mode"])
    assert sc.update_period == {"continuous-control": 0.0, "sampled-data": period}.get(mode)
