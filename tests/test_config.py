"""Waveform configuration: derived fields, validation, serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangesr.bench import GridSpec
from rangesr.config import (
    C_LIGHT,
    ConfigError,
    RadarConfig,
    UavTruth,
    dump_json,
    from_json,
    load_json,
    make_radar_config,
    to_json,
)
from rangesr.pipeline import Scene, table_radar_config


def test_derived_fields_match_definitions(tiny_cfg):
    cfg = tiny_cfg
    assert cfg.chirp_rate_hz_per_s == cfg.bandwidth_hz / cfg.chirp_s
    assert cfg.range_res_m == C_LIGHT / (2.0 * cfg.bandwidth_hz)
    assert cfg.wavelength_m == C_LIGHT / cfg.carrier_hz
    assert cfg.element_spacing_m == cfg.wavelength_m / 2.0
    assert cfg.n_fast == round(cfg.chirp_s * cfg.sample_rate_hz)
    assert cfg.dt == 1.0 / cfg.sample_rate_hz


def test_beat_freq_definition(tiny_cfg):
    r = 30.0
    expected = 2.0 * tiny_cfg.chirp_rate_hz_per_s * r / C_LIGHT * tiny_cfg.dt
    assert tiny_cfg.beat_freq(r) == pytest.approx(expected, rel=1e-15)


def test_doppler_freq_definition(tiny_cfg):
    v = 40.0
    expected = 2.0 * tiny_cfg.carrier_hz * v / C_LIGHT * tiny_cfg.chirp_s
    assert tiny_cfg.doppler_freq(v) == pytest.approx(expected, rel=1e-15)


@given(r=st.floats(min_value=0.1, max_value=90.0))
@settings(max_examples=50, deadline=None)
def test_range_freq_round_trip(r):
    cfg = make_radar_config(10e9, 50e6, 12.8e-6, 5e6, 4)
    assert cfg.range_of_freq(cfg.beat_freq(r)) == pytest.approx(r, rel=1e-12)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"carrier_hz": -10e9},
        {"bandwidth_hz": 0.0},
        {"chirp_s": -1e-6},
        {"sample_rate_hz": 0.0},
        {"n_elements": 0},
        {"element_spacing_m": -0.01},
    ],
)
def test_nonpositive_parameters_rejected(kwargs):
    base = dict(
        carrier_hz=10e9,
        bandwidth_hz=50e6,
        chirp_s=12.8e-6,
        sample_rate_hz=5e6,
        n_elements=4,
    )
    base.update(kwargs)
    with pytest.raises(ConfigError):
        make_radar_config(**base)


def test_too_few_fast_samples_rejected():
    with pytest.raises(ConfigError, match="n_fast"):
        make_radar_config(10e9, 50e6, 1e-6, 5e6, 4)


def test_truth_validation():
    with pytest.raises(ConfigError):
        UavTruth(range0_m=0.0, velocity_mps=1.0)
    with pytest.raises(ConfigError):
        UavTruth(range0_m=10.0, velocity_mps=1.0, angle_rad=np.pi / 2)


def test_truth_advanced():
    t = UavTruth(range0_m=100.0, velocity_mps=44.0, angle_rad=0.1, amplitude=2j)
    t2 = t.advanced(0.5)
    assert t2.range0_m == pytest.approx(122.0)
    assert t2.velocity_mps == t.velocity_mps
    assert t2.angle_rad == t.angle_rad
    assert t2.amplitude == t.amplitude


def test_config_dict_round_trip(tiny_cfg):
    again = from_json(RadarConfig, to_json(tiny_cfg))
    assert again == tiny_cfg


def test_truth_dict_round_trip():
    t = UavTruth(range0_m=165.0, velocity_mps=44.01, angle_rad=0.2, amplitude=1 - 2j)
    assert from_json(UavTruth, to_json(t)) == t
    # scalar amplitude form accepted too
    assert from_json(UavTruth, {"range0_m": 5.0, "amplitude": 3.0}).amplitude == 3.0 + 0j


def test_dump_json_is_byte_stable(tmp_path):
    obj = {"b": [1, 2], "a": {"z": 0.5, "y": None}}
    p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
    dump_json(obj, p1)
    dump_json(obj, p2)
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    assert b1.endswith(b"\n")
    assert load_json(p1) == obj
    # keys serialize sorted regardless of insertion order
    dump_json({"a": {"y": None, "z": 0.5}, "b": [1, 2]}, p2)
    assert p2.read_bytes() == b1


def test_direct_construction_derives_and_validates():
    cfg = RadarConfig(10e9, 50e6, 1e-4, 5.12e6, 16)
    assert cfg == make_radar_config(10e9, 50e6, 1e-4, 5.12e6, 16)
    assert cfg.range_res_m == C_LIGHT / (2.0 * 50e6) > 0.0
    assert cfg.chirp_rate_hz_per_s == 50e6 / 1e-4
    assert cfg.n_fast == 512
    assert cfg.element_spacing_m == cfg.wavelength_m / 2.0
    with pytest.raises(ConfigError, match="bandwidth_hz must be positive"):
        RadarConfig(10e9, 0.0, 1e-4, 5.12e6, 16)


@pytest.mark.parametrize("name", ["carrier_hz", "bandwidth_hz", "chirp_s", "sample_rate_hz"])
def test_direct_construction_refuses_an_infinite_value(name):
    """An infinite bandwidth would give a 0 m range cell, and an infinite
    carrier a zero element spacing; each is refused by its own name."""
    values = {"carrier_hz": 10e9, "bandwidth_hz": 50e6, "chirp_s": 1e-4,
              "sample_rate_hz": 5.12e6, "n_elements": 16}
    values[name] = math.inf
    with pytest.raises(ConfigError, match=rf"^{name} must be positive and finite, got inf$"):
        RadarConfig(**values)


def test_direct_construction_refuses_a_sample_count_that_overflows():
    with pytest.raises(ConfigError, match=r"^chirp_s \* sample_rate_hz must be positive and finite"):
        RadarConfig(10e9, 50e6, 1e300, 1e300, 16)


def test_table_radar_json_form_is_pinned():
    assert to_json(table_radar_config()) == {
        "carrier_hz": 10000000000.0,
        "bandwidth_hz": 50000000.0,
        "chirp_s": 0.0001,
        "sample_rate_hz": 5120000.0,
        "n_elements": 16,
        "element_spacing_m": 0.0149896229,
    }


def test_from_json_coerces_defaults_and_rejects_unknown_keys():
    t = from_json(UavTruth, {"range0_m": 165, "angle_rad": 0})
    assert t == UavTruth(range0_m=165.0)
    assert type(t.range0_m) is float and type(t.angle_rad) is float
    assert t.velocity_mps == 0.0 and t.amplitude == 1.0 + 0.0j
    assert from_json(UavTruth, {"range0_m": 5.0, "amplitude": [0.5, -2]}).amplitude == 0.5 - 2j
    assert from_json(UavTruth, {"range0_m": 5.0, "amplitude": 2}).amplitude == 2 + 0j
    cfg = from_json(RadarConfig, {"carrier_hz": 10_000_000_000, "bandwidth_hz": 50e6,
                                  "chirp_s": 1e-4, "sample_rate_hz": 5.12e6,
                                  "n_elements": 16.0})
    assert type(cfg.carrier_hz) is float and type(cfg.n_elements) is int
    assert cfg == RadarConfig(10e9, 50e6, 1e-4, 5.12e6, 16)
    # tuple items are coerced too, so an integer-written float reads back as float
    spec = from_json(GridSpec, {"snr_values_db": [10], "trials": 2})
    assert spec.snr_values_db == (10.0,) and type(spec.snr_values_db[0]) is float
    assert to_json(spec)["snr_values_db"] == [10.0]
    # a key that names no field is an error, not its field's default
    with pytest.raises(ConfigError, match="unknown UavTruth key.*: extra"):
        from_json(UavTruth, {"range0_m": 165, "extra": "ignored"})
    with pytest.raises(ConfigError, match="unknown GridSpec key.*: k_value"):
        from_json(GridSpec, {"k_value": [2]})
    # ... at any depth
    with pytest.raises(ConfigError, match="unknown UavTruth key.*: range_m"):
        from_json(Scene, {"config": to_json(table_radar_config()), "uavs": [{"range_m": 165.0}]})


def test_from_json_names_each_missing_required_key():
    # a field without a default must be given, at any depth
    with pytest.raises(ConfigError, match=r"^missing UavTruth key\(s\): range0_m$"):
        from_json(UavTruth, {"velocity_mps": 1.0})
    radar = to_json(table_radar_config())
    del radar["carrier_hz"], radar["n_elements"]
    with pytest.raises(ConfigError, match=r"^missing RadarConfig key\(s\): carrier_hz, n_elements$"):
        from_json(RadarConfig, radar)
    with pytest.raises(ConfigError, match=r"^missing UavTruth key\(s\): range0_m$"):
        from_json(Scene, {"name": "s", "config": to_json(table_radar_config()),
                          "uavs": [{"velocity_mps": 44.0}]})
    with pytest.raises(ConfigError, match=r"^missing Scene key\(s\): name, config$"):
        from_json(Scene, {"uavs": []})


def test_from_json_reads_an_int_field_only_from_an_integral_number():
    # 2.0 reads as 2; a fraction, a bool or infinity is an error, not truncated
    spec = from_json(GridSpec, {"trials": 2.0, "k_values": [2.0, 3]})
    assert spec.trials == 2 and spec.k_values == (2, 3)
    assert type(spec.trials) is int and type(spec.k_values[0]) is int
    with pytest.raises(ConfigError, match=r"^GridSpec\.trials must be an integer, got 2\.5$"):
        from_json(GridSpec, {"trials": 2.5})
    with pytest.raises(ConfigError, match=r"^GridSpec\.k_values must be an integer, got 2\.9$"):
        from_json(GridSpec, {"k_values": [2.9]})
    with pytest.raises(ConfigError, match=r"^GridSpec\.trials must be an integer, got True$"):
        from_json(GridSpec, {"trials": True})
    with pytest.raises(ConfigError, match=r"^GridSpec\.k_values must be an integer, got False$"):
        from_json(GridSpec, {"k_values": [False]})
    with pytest.raises(ConfigError, match=r"^GridSpec\.trials must be an integer, got inf$"):
        from_json(GridSpec, {"trials": float("inf")})


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_from_json_rejects_a_non_finite_number(token):
    # json.load reads these tokens; no float or complex field takes them, in a
    # tuple or as either part of a complex number alike
    def raw(text):
        return json.loads(text.replace("X", token))

    with pytest.raises(ConfigError, match=r"^UavTruth\.velocity_mps must be finite, got "):
        from_json(UavTruth, raw('{"range0_m": 5.0, "velocity_mps": X}'))
    with pytest.raises(ConfigError, match=r"^GridSpec\.snr_values_db must be finite, got "):
        from_json(GridSpec, raw('{"snr_values_db": [10.0, X]}'))
    for amplitude in ("[X, 0.0]", "[1.0, X]", "X"):
        with pytest.raises(ConfigError, match=r"^UavTruth\.amplitude must be finite, got "):
            from_json(UavTruth, raw(f'{{"range0_m": 5.0, "amplitude": {amplitude}}}'))


def test_from_json_names_the_key_of_a_malformed_value():
    # a null is only read where the field is optional
    with pytest.raises(ConfigError, match=r"^UavTruth\.range0_m must not be null$"):
        from_json(UavTruth, {"range0_m": None})
    assert from_json(RadarConfig, {**to_json(table_radar_config()), "element_spacing_m": None}) == (
        table_radar_config()
    )
    with pytest.raises(ConfigError, match=r"^GridSpec\.trials cannot be read as int: '2x'$"):
        from_json(GridSpec, {"trials": "2x"})
    with pytest.raises(ConfigError, match=r"^GridSpec\.k_values cannot be read as int: \[2\]$"):
        from_json(GridSpec, {"k_values": [[2]]})
    with pytest.raises(ConfigError, match=r"^GridSpec\.snr_values_db must be a list, got 10$"):
        from_json(GridSpec, {"snr_values_db": 10})
    with pytest.raises(ConfigError, match=r"^UavTruth\.amplitude cannot be read as complex"):
        from_json(UavTruth, {"range0_m": 5.0, "amplitude": [1, 2, 3]})
    # ... at any depth, and a record must be a JSON object
    with pytest.raises(ConfigError, match=r"^UavTruth\.angle_rad must not be null$"):
        from_json(Scene, {"name": "s", "config": to_json(table_radar_config()),
                          "uavs": [{"range0_m": 5.0, "angle_rad": None}]})
    with pytest.raises(ConfigError, match=r"^UavTruth must be a JSON object, got 5\.0$"):
        from_json(Scene, {"name": "s", "config": to_json(table_radar_config()), "uavs": [5.0]})
