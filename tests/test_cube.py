"""Cube containers and bin maps."""

from dataclasses import fields

import numpy as np
import pytest

from rangesr.cube import CubeError, DataCube, RdaCube, axis_values


def test_axis_values_are_symmetric():
    assert axis_values(8).tolist() == [-4, -3, -2, -1, 0, 1, 2, 3]
    assert axis_values(7).tolist() == [-3, -2, -1, 0, 1, 2, 3]
    assert axis_values(1).tolist() == [0]


def test_data_cube_validation(tiny_cfg):
    with pytest.raises(CubeError, match="3-D"):
        DataCube(data=np.zeros((4, 4)), config=tiny_cfg)
    with pytest.raises(CubeError, match="positive"):
        DataCube(data=np.zeros((4, 4, 0), complex), config=tiny_cfg)
    # a cube is its samples and its radar, with no channel kind
    assert [f.name for f in fields(DataCube)] == ["data", "config"]


def test_rda_bin_maps_round_trip(tiny_cfg):
    rda = RdaCube(data=np.zeros((64, 32, 1), complex), config=tiny_cfg)
    # one range bin equals c / (2 gamma N dt) meters
    cell = rda.range_of_bin(1)
    assert cell == pytest.approx(
        299792458.0 / (2.0 * tiny_cfg.chirp_rate_hz_per_s * 64 * tiny_cfg.dt)
    )
    # one Doppler bin equals c / (2 M T_c f_c) m/s, M the Doppler axis length
    assert rda.velocity_of_bin(1) == pytest.approx(
        299792458.0 / (2.0 * 32 * tiny_cfg.chirp_s * tiny_cfg.carrier_hz)
    )

