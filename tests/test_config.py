"""Scenario config: defaults, validation messages, round-tripping."""

import json
import sys

import pytest
from oracles import sweep_scenario

import ruinfair.config
from ruinfair import ConfigError, PolicyKind
from ruinfair.config import (
    ScenarioConfig,
    Sweep,
    collision_factors,
    load_scenario,
    parse_scenario,
    scenario_to_dict,
)


class TestDefaults:
    def test_empty_object_is_a_valid_scenario(self):
        config = parse_scenario({})
        assert config.frame.n_short == 10
        assert config.frame.delta == 0.001
        assert config.topology.wap_count == 3
        assert config.traffic.mu == 450.0
        assert config.policy.kind is PolicyKind.LINEAR
        assert config.seeds.replications == 200
        assert set(config.sweeps) == {"wst", "psi"}

    def test_default_sweeps_cover_both_pipelines(self):
        config = parse_scenario({})
        assert config.sweeps["wst"].variable == "wst_count"
        assert config.sweeps["wst"].values == (5, 10, 15, 20)
        assert config.sweeps["psi"].variable == "psi"
        assert config.sweeps["psi"].values[0] == 0.0
        assert config.sweeps["psi"].values[-1] == 1.0

    def test_partial_sections_keep_other_defaults(self):
        config = parse_scenario({"traffic": {"mu": 600.0}})
        assert config.traffic.mu == 600.0
        assert config.traffic.lambda_base == 0.2


JUNK = [None, True, "x", [], {}, 10**400, -(10**400), 2**64, -1, 0, 1e308]

# Fields the schema has dropped; manifests written before still set them.
DROPPED = {"topology": ("wap_radius", "channel_count")}


def _junk_scenarios() -> list[dict]:
    """One junk value in every field of the resolved defaults, in each
    sweep's values, and in each dropped field."""
    scenarios = []
    for section, fields in scenario_to_dict(parse_scenario({})).items():
        for key, value in fields.items():
            if section == "sweeps":
                scenarios += [{"sweeps": {key: {**value, "variable": j}}} for j in JUNK]
                scenarios += [{"sweeps": {key: {**value, "values": j}}} for j in JUNK]
            else:
                scenarios += [{section: {key: j}} for j in JUNK]
    for variable in ("psi", "wst_count", "lambda_base"):
        scenarios += [
            {"sweeps": {"s": {"variable": variable, "values": [j]}}} for j in JUNK
        ]
    for section, keys in DROPPED.items():
        scenarios += [{section: {key: j}} for key in keys for j in JUNK]
    return scenarios


class TestValidationErrors:
    @pytest.mark.parametrize(
        "data,needle",
        [
            ({"traffic": {"lambda_base": -1.0}}, "traffic.lambda_base"),
            ({"traffic": {"lambda_base": "fast"}}, "traffic.lambda_base"),
            ({"frame": {"n_short": 0}}, "frame"),
            ({"frame": {"delta": "soon"}}, "frame.delta"),
            ({"topology": {"ue_count": 0}}, "topology.ue_count"),
            ({"topology": {"wap_count": 0}}, "topology.wap_count"),
            ({"radio": {"noise": 0.0}}, "radio.noise"),
            ({"policy": {"kind": "greedy"}}, "policy.kind"),
            ({"policy": {"psi_cutoff": 2.0}}, "policy.psi_cutoff"),
            ({"seeds": {"replications": 0}}, "seeds.replications"),
            ({"bogus": 1}, "bogus"),
            ({"radio": {"bandwidht": 1e7}}, "bandwidht"),
            ({"sweeps": {"s": {"variable": "psi"}}}, "sweeps.s"),
            ({"sweeps": {"s": {"variable": "voltage", "values": [1]}}}, "variable"),
            ({"sweeps": {"s": {"variable": "psi", "values": []}}}, "values"),
            ({"sweeps": {"s": {"variable": "psi", "values": [0.2, 0.1]}}}, "increasing"),
            ({"sweeps": {"s": {"variable": "psi", "values": [0.5, 1.5]}}}, "psi"),
            ({"sweeps": {"s": {"variable": "wst_count", "values": [1.5, 2.5]}}}, "wst"),
            ({"sweeps": {}}, "sweeps"),
            ({"radio": {"path_exponent": -1.0}}, "radio.path_exponent"),
            ({"radio": {"ref_distance": 0.0}}, "radio.ref_distance"),
            ({"radio": {"ref_gain": "x"}}, "radio.ref_gain"),
            ({"radio": {"tx_power": 1e308}}, "radio.tx_power"),
            ({"frame": {"n_short": "x"}}, "^frame.n_short: expected int"),
            ({"topology": {"wap_radius": 100.0}}, "^topology: unknown field"),
        ],
    )
    def test_error_names_field_path(self, data, needle):
        with pytest.raises(ConfigError, match=needle.replace(".", r"\.")):
            parse_scenario(data)

    def test_rejects_non_object_scenario(self):
        with pytest.raises(ConfigError):
            parse_scenario([1, 2, 3])

    @pytest.mark.parametrize("data", _junk_scenarios())
    def test_junk_value_is_config_error_or_accepted(self, data):
        try:
            parse_scenario(data)
        except ConfigError:
            pass


def test_docstring_defaults_table_is_the_resolved_default():
    doc = ruinfair.config.__doc__
    table = json.JSONDecoder().raw_decode(doc, doc.index("{\n"))[0]
    resolved = scenario_to_dict(parse_scenario({}))
    del resolved["sweeps"]
    assert table == resolved


class TestRoundTrip:
    def test_dict_roundtrip_is_identity(self):
        config = parse_scenario(
            {
                "traffic": {"mu": 512.0},
                "policy": {"kind": "thresholded_linear", "psi_cutoff": 0.3},
                "sweeps": {"l": {"variable": "lambda_base", "values": [0.1, 0.3]}},
            }
        )
        assert parse_scenario(scenario_to_dict(config)) == config

    def test_resolved_dict_shows_defaults(self):
        resolved = scenario_to_dict(parse_scenario({}))
        assert resolved["frame"]["n_short"] == 10
        assert resolved["seeds"]["topology"] == 7
        assert resolved["radio"]["wifi_phy_rate"] == 54e6

    def test_dict_is_json_serializable(self):
        json.dumps(scenario_to_dict(parse_scenario({})))


class TestLoadScenario:
    def test_loads_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text('{"traffic": {"mu": 300.0}}')
        assert load_scenario(path).traffic.mu == 300.0

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_scenario(tmp_path / "nope.json")

    def test_bad_json_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_scenario(path)

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit"
    )
    def test_integer_past_the_digit_limit_is_config_error(self, tmp_path):
        path = tmp_path / "long.json"
        digits = sys.get_int_max_str_digits() + 1
        path.write_text('{"seeds": {"topology": ' + "1" * digits + "}}")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_scenario(path)


def test_scenario_requires_at_least_one_sweep():
    config = parse_scenario({})
    with pytest.raises(ConfigError):
        ScenarioConfig(
            frame=config.frame,
            topology=config.topology,
            traffic=config.traffic,
            radio=config.radio,
            policy=config.policy,
            seeds=config.seeds,
            sweeps={},
        )


def test_sweep_variable_whitelist():
    with pytest.raises(ConfigError):
        Sweep(variable="frequency", values=(1.0, 2.0))


@pytest.mark.parametrize(
    "sweep",
    [
        {"variable": "wst_count", "values": [1, 5, 10, 20]},
        {"variable": "lambda_base", "values": [0.1, 10, 49.9]},
        {"variable": "psi", "values": [0.0, 0.5, 1.0]},
    ],
    ids=["wst_count", "lambda_base", "psi"],
)
def test_collision_factors_are_those_of_the_simulated_scenario(sweep):
    """Each value's ``(lambda_base, wst_per_wap)``, of the same types, is
    the one of the whole scenario the per-frame oracle simulates there; a
    psi sweep repeats the scenario's own pair."""
    config = parse_scenario({"traffic": {"lambda_base": 0.3}, "sweeps": {"s": sweep}})
    sweep = config.sweeps["s"]
    scenarios = [sweep_scenario(config, sweep, value) for value in sweep.values]
    expected = [(s.traffic.lambda_base, s.topology.wst_per_wap) for s in scenarios]
    pairs = collision_factors(config, sweep)
    assert pairs == expected
    assert [tuple(map(type, pair)) for pair in pairs] == [(float, int)] * len(expected)
    if sweep.variable == "psi":
        assert pairs == [(0.3, 10)] * 3


class TestCrossFieldLimits:
    """Every sweep value must be runnable, so ``validate`` accepting means ``run`` finishes."""

    @pytest.mark.parametrize(
        "data,needle",
        [
            (
                {
                    "traffic": {"lambda_base": 30},
                    "sweeps": {"wst": {"variable": "wst_count", "values": [5, 10, 15, 20]}},
                },
                "sweeps.wst: lambda_base x wst_count = 30.0 x 20 = 600.0",
            ),
            (
                {"sweeps": {"lam": {"variable": "lambda_base", "values": [10, 60]}}},
                "sweeps.lam: lambda_base x wst_count = 60.0 x 10 = 600.0",
            ),
            (
                {
                    "traffic": {"lambda_base": 60},
                    "sweeps": {"psi": {"variable": "psi", "values": [0.5]}},
                },
                "sweeps.psi: lambda_base x wst_count = 60.0 x 10",
            ),
            ({"frame": {"r_reserved": 0}}, "frame.r_reserved"),
            (
                {
                    "frame": {"r_reserved": 0},
                    "sweeps": {"lam": {"variable": "lambda_base", "values": [0.1]}},
                },
                "frame.r_reserved",
            ),
            (
                {"frame": {"n_short": 10**7 + 1, "delta": 1e-10}},
                "frame.n_short: 10000001 slots exceed the horizon budget of 10000000 "
                "for sweeps.wst",
            ),
            (
                {
                    "frame": {"n_short": 10**7 + 1, "delta": 1e-10},
                    "sweeps": {"lam": {"variable": "lambda_base", "values": [0.1]}},
                },
                "frame.n_short: 10000001 slots exceed the horizon budget of 10000000 "
                "for sweeps.lam",
            ),
        ],
    )
    def test_unrunnable_sweep_is_config_error(self, data, needle):
        with pytest.raises(ConfigError, match=needle.replace(".", r"\.")):
            parse_scenario(data)

    def test_rate_exactly_at_the_cap_is_accepted(self):
        config = parse_scenario(
            {
                "traffic": {"lambda_base": 25},
                "sweeps": {"wst": {"variable": "wst_count", "values": [10, 20]}},
            }
        )
        assert config.traffic.lambda_base * 20 == 500.0

    def test_psi_sweep_needs_no_premium(self):
        config = parse_scenario(
            {
                "frame": {"r_reserved": 0},
                "sweeps": {"psi": {"variable": "psi", "values": [0.0, 1.0]}},
            }
        )
        assert config.frame.r_reserved == 0

    def test_horizon_exactly_at_the_cap_is_accepted(self):
        config = parse_scenario({"frame": {"n_short": 10**7, "delta": 1e-10}})
        assert config.frame.n_short == 10**7

    def test_psi_sweep_takes_any_horizon(self):
        config = parse_scenario(
            {
                "frame": {"n_short": 10**12, "delta": 1e-15},
                "sweeps": {"psi": {"variable": "psi", "values": [0.5]}},
            }
        )
        assert config.frame.n_short == 10**12

    def test_base_scenario_outside_every_sweep_is_not_checked(self):
        # The wst sweep overrides wst_per_wap, so 60 x 10 is never simulated.
        config = parse_scenario(
            {
                "traffic": {"lambda_base": 60},
                "sweeps": {"wst": {"variable": "wst_count", "values": [2, 5]}},
            }
        )
        assert config.sweeps["wst"].values == (2, 5)


class TestSizeBudget:
    """At most 10**5 UE draws and 10**7 collision cells per sweep value."""

    def test_ue_draws_at_the_cap_are_accepted(self):
        assert parse_scenario({"topology": {"ue_count": 10**5}}).topology.ue_count == 10**5

    @pytest.mark.parametrize("ues", [10**5 + 1, 2**64])
    def test_ue_draws_past_the_cap_name_the_field(self, ues):
        with pytest.raises(ConfigError, match=r"^topology\.ue_count: "):
            parse_scenario({"topology": {"ue_count": ues}})

    @pytest.mark.parametrize(
        "waps,reps", [(1, 10**7), (4, 25 * 10**5), (10**7, 1)], ids=["reps", "both", "waps"]
    )
    def test_collision_cells_at_the_cap_are_accepted(self, waps, reps):
        config = parse_scenario(
            {"topology": {"wap_count": waps}, "seeds": {"replications": reps}}
        )
        assert config.seeds.replications * config.topology.wap_count == 10**7

    @pytest.mark.parametrize(
        "waps,reps",
        [(1, 10**7 + 1), (11, 909091), (10**7 + 1, 1), (3, 10**11)],
        ids=["reps", "both", "waps", "huge"],
    )
    def test_collision_cells_past_the_cap_name_the_fields(self, waps, reps):
        with pytest.raises(
            ConfigError, match=r"^seeds\.replications x topology\.wap_count: "
        ):
            parse_scenario({"topology": {"wap_count": waps}, "seeds": {"replications": reps}})

