"""Cube containers, bin maps, and the sidecar+binary file format."""

import json

import numpy as np
import pytest

from rangesr.cube import (
    CubeError,
    DataCube,
    RdaCube,
    axis_values,
    export_magnitude_csv,
    load_cube,
    save_cube,
)


def test_axis_values_are_symmetric():
    assert axis_values(8).tolist() == [-4, -3, -2, -1, 0, 1, 2, 3]
    assert axis_values(7).tolist() == [-3, -2, -1, 0, 1, 2, 3]
    assert axis_values(1).tolist() == [0]


def test_data_cube_validation(tiny_cfg):
    with pytest.raises(CubeError):
        DataCube(data=np.zeros((4, 4)), axis2_kind="element", config=tiny_cfg)
    with pytest.raises(CubeError):
        DataCube(data=np.zeros((4, 4, 2), complex), axis2_kind="spam", config=tiny_cfg)
    with pytest.raises(CubeError):
        DataCube(
            data=np.zeros((4, 4, 2), complex),
            axis2_kind="beam",
            config=tiny_cfg,
            beam_angles=(0.1,),
        )


def test_rda_bin_maps_round_trip(tiny_cfg):
    rda = RdaCube(data=np.zeros((64, 32, 1), complex), config=tiny_cfg, n_slow=32)
    # one range bin equals c / (2 gamma N dt) meters
    cell = rda.range_of_bin(1)
    assert cell == pytest.approx(
        299792458.0 / (2.0 * tiny_cfg.chirp_rate_hz_per_s * 64 * tiny_cfg.dt)
    )
    # one Doppler bin equals c / (2 M T_c f_c) m/s
    assert rda.velocity_of_bin(1) == pytest.approx(
        299792458.0 / (2.0 * 32 * tiny_cfg.chirp_s * tiny_cfg.carrier_hz)
    )


def test_save_load_round_trip_time_cube(tiny_cfg, tmp_path):
    rng = np.random.default_rng(3)
    data = rng.standard_normal((16, 8, 4)) + 1j * rng.standard_normal((16, 8, 4))
    cube = DataCube(data=data, axis2_kind="element", config=tiny_cfg)
    path = save_cube(cube, tmp_path / "cube.json")
    again = load_cube(path)
    assert isinstance(again, DataCube)
    assert again.axis2_kind == "element"
    assert again.config == tiny_cfg
    # payload is float32: round trip equals the float32 cast exactly
    assert np.array_equal(again.data, data.astype(np.complex64).astype(np.complex128))


def test_save_load_round_trip_rda_cube(tiny_cfg, tmp_path):
    rng = np.random.default_rng(4)
    data = rng.standard_normal((16, 8, 2)) + 1j * rng.standard_normal((16, 8, 2))
    rda = RdaCube(data=data, config=tiny_cfg, n_slow=8, beam_angles=(-0.1, 0.1))
    again = load_cube(save_cube(rda, tmp_path / "rda.json"))
    assert isinstance(again, RdaCube)
    assert again.n_slow == 8
    assert again.beam_angles == (-0.1, 0.1)
    assert np.array_equal(again.data, data.astype(np.complex64).astype(np.complex128))


def test_payload_layout_axis0_fastest(tiny_cfg, tmp_path):
    data = np.arange(24, dtype=np.complex128).reshape(4, 3, 2) * (1 + 1j)
    cube = DataCube(data=data, axis2_kind="element", config=tiny_cfg)
    save_cube(cube, tmp_path / "cube.json")
    raw = np.frombuffer((tmp_path / "cube.bin").read_bytes(), dtype="<c8")
    assert raw[0] == data[0, 0, 0]
    assert raw[1] == data[1, 0, 0]          # fast time fastest-varying
    assert raw[4] == data[0, 1, 0]          # then slow time
    assert raw[12] == data[0, 0, 1]         # channel slowest


def test_load_rejects_bad_format_and_size(tiny_cfg, tmp_path):
    cube = DataCube(np.zeros((8, 4, 1), complex), "element", tiny_cfg)
    path = save_cube(cube, tmp_path / "cube.json")
    (tmp_path / "cube.bin").write_bytes(b"\x00" * 8)
    with pytest.raises(CubeError, match="payload"):
        load_cube(path)
    path.write_text('{"format": "other"}', encoding="utf-8")
    with pytest.raises(CubeError, match="format"):
        load_cube(path)


@pytest.mark.parametrize("kind", [None, "spam"])
def test_load_rejects_an_unknown_cube_kind(tiny_cfg, tmp_path, kind):
    path = save_cube(DataCube(np.zeros((8, 4, 1), complex), "element", tiny_cfg),
                     tmp_path / "cube.json")
    meta = json.loads(path.read_text(encoding="utf-8"))
    if kind is None:
        del meta["kind"]
    else:
        meta["kind"] = kind
    path.write_text(json.dumps(meta), encoding="utf-8")
    with pytest.raises(CubeError, match=f"cube kind {kind!r}"):
        load_cube(path)


def test_export_magnitude_csv(tiny_cfg, tmp_path):
    data = np.zeros((4, 3, 2), complex)
    data[3, 1, 1] = 2.0
    rda = RdaCube(data=data, config=tiny_cfg, n_slow=3)
    out = tmp_path / "slice.csv"
    export_magnitude_csv(rda, out, beam=1)
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0].split(",")[0] == "range_bin\\doppler_bin"
    assert lines[0].split(",")[1:] == ["-1", "0", "1"]
    assert len(lines) == 5
    cells = [row.split(",") for row in lines[1:]]
    assert [c[0] for c in cells] == ["-2", "-1", "0", "1"]
    assert float(cells[3][2]) == pytest.approx(2.0)
