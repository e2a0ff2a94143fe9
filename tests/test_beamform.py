"""Steering-vector beamforming against a per-element loop oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangesr.beamform import (
    BeamGrid,
    beamform_cube,
    default_grid,
    steering_vector,
)
from rangesr.config import UavTruth, make_radar_config
from rangesr.cube import CubeError, DataCube
from rangesr.synth import synth_beat_cube
from spectral_oracles import beams_to_elements


def random_cube(cfg, n, m, seed):
    rng = np.random.default_rng(seed)
    shape = (n, m, cfg.n_elements)
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return DataCube(data=data, config=cfg)


def test_default_grid_uniform_in_sin(tiny_cfg):
    grid = default_grid(tiny_cfg)
    assert len(grid) == 2 * tiny_cfg.n_elements
    sines = np.sin(grid.angles_rad)
    expected = -1.0 + (2.0 * np.arange(8) + 1.0) / 8
    assert np.allclose(sines, expected, atol=1e-15)
    assert np.all(np.diff(grid.angles_rad) > 0)


def test_beam_grid_validation():
    with pytest.raises(CubeError):
        BeamGrid(angles_rad=())
    with pytest.raises(CubeError):
        BeamGrid(angles_rad=(0.2, 0.1))
    with pytest.raises(CubeError):
        BeamGrid(angles_rad=(0.0, np.pi / 2))


@given(angle=st.floats(min_value=-1.5, max_value=1.5))
@settings(max_examples=50, deadline=None)
def test_steering_vector_unit_modulus(angle):
    cfg = make_radar_config(10e9, 50e6, 12.8e-6, 5e6, 4)
    w = steering_vector(cfg, angle)
    assert w.shape == (4,)
    assert np.allclose(np.abs(w), 1.0, atol=1e-12)


def test_beamform_matches_per_element_loop(tiny_cfg):
    cube = random_cube(tiny_cfg, 8, 6, seed=0)
    grid = BeamGrid(angles_rad=(-0.5, 0.0, 0.7))
    beams = beamform_cube(cube, grid)
    assert beams.data.shape == (8, 6, 3)
    for g, angle in enumerate(grid.angles_rad):
        w = steering_vector(tiny_cfg, angle)
        for n in range(8):
            for m in range(6):
                expected = sum(cube.data[n, m, l] * w[l] for l in range(4))
                assert beams.data[n, m, g] == pytest.approx(expected, rel=1e-12)


def test_beamform_linearity(tiny_cfg):
    a = random_cube(tiny_cfg, 8, 4, seed=1)
    b = random_cube(tiny_cfg, 8, 4, seed=2)
    grid = default_grid(tiny_cfg)
    summed = DataCube(data=a.data + b.data, config=tiny_cfg)
    lhs = beamform_cube(summed, grid).data
    rhs = beamform_cube(a, grid).data + beamform_cube(b, grid).data
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_matched_beam_gets_full_array_gain(tiny_cfg):
    theta = 0.28
    cube = synth_beat_cube(tiny_cfg, [UavTruth(30.0, 0.0, angle_rad=theta)], 4)
    grid = default_grid(tiny_cfg)
    beams = beamform_cube(cube, grid)
    power = np.sum(np.abs(beams.data) ** 2, axis=(0, 1))
    best = int(np.argmax(power))
    nearest = int(np.argmin(np.abs(np.sin(grid.angles_rad) - np.sin(theta))))
    assert best == nearest
    # steering exactly at truth sums L unit phasors coherently
    w = steering_vector(tiny_cfg, theta)
    steered = cube.data @ w
    assert np.allclose(np.abs(steered), tiny_cfg.n_elements, atol=1e-9)


def test_total_power_bounded_by_cauchy_schwarz(tiny_cfg):
    cube = random_cube(tiny_cfg, 16, 8, seed=3)
    grid = default_grid(tiny_cfg)
    beams = beamform_cube(cube, grid)
    p_in = np.sum(np.abs(cube.data) ** 2)
    p_out = np.sum(np.abs(beams.data) ** 2)
    bound = tiny_cfg.n_elements * len(grid) * p_in
    assert p_out <= bound * (1.0 + 1e-12)


def test_beams_to_elements_inverts_default_grid(tiny_cfg):
    cube = random_cube(tiny_cfg, 8, 4, seed=4)
    grid = default_grid(tiny_cfg)
    back = beams_to_elements(beamform_cube(cube, grid), grid)
    assert back.data.shape == cube.data.shape
    assert np.allclose(back.data, cube.data, rtol=1e-12, atol=1e-12)


def test_beamform_input_contracts(tiny_cfg):
    grid = default_grid(tiny_cfg)
    # a cube carries no kind: the channel count is the check, so a cube of
    # fewer or more channels than the radar's four elements is refused
    for n_ch in (2, 3, 5):
        wrong_channels = DataCube(np.zeros((4, 4, n_ch), complex), tiny_cfg)
        with pytest.raises(CubeError, match="config says 4"):
            beamform_cube(wrong_channels, grid)
