"""Beat-signal synthesis against independent DFT oracles."""

import numpy as np
import pytest

from spectral_oracles import dft_peak_freq, dft_peak_resolution
from rangesr.config import UavTruth
from rangesr.synth import OutOfBandError, add_noise, array_phase, noise_sigma, synth_beat_cube


def test_no_targets_gives_zero_cube(tiny_cfg):
    cube = synth_beat_cube(tiny_cfg, [], 8)
    assert cube.data.shape == (64, 8, 4)
    assert not cube.data.any()


def test_linearity(tiny_cfg):
    a = UavTruth(range0_m=20.0, velocity_mps=30.0, angle_rad=0.2)
    b = UavTruth(range0_m=45.0, velocity_mps=-10.0, angle_rad=-0.3, amplitude=0.5j)
    both = synth_beat_cube(tiny_cfg, [a, b], 16)
    summed = synth_beat_cube(tiny_cfg, [a], 16).data + synth_beat_cube(tiny_cfg, [b], 16).data
    assert np.array_equal(both.data, summed)


def test_fast_time_tone_frequency(tiny_cfg):
    r = 37.3
    cube = synth_beat_cube(tiny_cfg, [UavTruth(range0_m=r, velocity_mps=0.0)], 4)
    line = cube.data[:, 2, 1]
    assert abs(dft_peak_freq(line) - tiny_cfg.beat_freq(r)) < dft_peak_resolution(64)


def test_slow_time_tone_frequency(tiny_cfg):
    v = 85.0
    cube = synth_beat_cube(tiny_cfg, [UavTruth(range0_m=25.0, velocity_mps=v)], 64)
    # the walk coupling vanishes at fast-time index n = 0 (storage N//2)
    line = cube.data[64 // 2, :, 0]
    assert abs(dft_peak_freq(line) - tiny_cfg.doppler_freq(v)) < dft_peak_resolution(64)


def test_element_phase_ramp(tiny_cfg):
    theta = 0.31
    cube = synth_beat_cube(tiny_cfg, [UavTruth(30.0, 0.0, angle_rad=theta)], 2)
    samples = cube.data[5, 1, :]
    step = np.angle(samples[1:] * np.conj(samples[:-1]))
    expected = np.diff(array_phase(tiny_cfg, theta))
    assert np.allclose(step, expected, atol=1e-12)


def test_envelope_range_walk(tiny_cfg):
    # per-chirp beat drift integrates to v * M * T meters of range walk
    v, m = 50.0, 256
    cube = synth_beat_cube(tiny_cfg, [UavTruth(30.0, v)], m)
    f_first = dft_peak_freq(cube.data[:, 0, 0], pad=1024)
    f_last = dft_peak_freq(cube.data[:, -1, 0], pad=1024)
    walk_m = tiny_cfg.range_of_freq(f_last - f_first)
    expected = v * (m - 1) * tiny_cfg.chirp_s
    tol = 3.0 * tiny_cfg.range_of_freq(dft_peak_resolution(64, pad=1024))
    assert abs(walk_m - expected) < tol


def test_out_of_band_target_rejected(tiny_cfg):
    r_max = tiny_cfg.range_of_freq(0.5)
    with pytest.raises(OutOfBandError):
        synth_beat_cube(tiny_cfg, [UavTruth(range0_m=r_max * 1.01, velocity_mps=0.0)], 4)
    synth_beat_cube(tiny_cfg, [UavTruth(range0_m=r_max * 0.99, velocity_mps=0.0)], 4)


def test_noise_sigma_values():
    assert noise_sigma(0.0) == 1.0
    assert noise_sigma(-20.0) == pytest.approx(10.0)
    assert noise_sigma(20.0) == pytest.approx(0.1)


def test_add_noise_passthrough_and_determinism(tiny_cfg):
    def clean():
        return synth_beat_cube(tiny_cfg, [UavTruth(30.0, 10.0)], 8)

    cube = clean()
    assert add_noise(cube, None, rng_seed=1) is cube
    assert add_noise(cube, np.inf, rng_seed=1) is cube
    # the noise goes into the caller's cube, so each draw gets a fresh one
    n1 = add_noise(clean(), 0.0, rng_seed=7)
    n2 = add_noise(clean(), 0.0, rng_seed=7)
    n3 = add_noise(clean(), 0.0, rng_seed=8)
    assert np.array_equal(n1.data, n2.data)
    assert not np.array_equal(n1.data, n3.data)


def test_add_noise_in_place_keeps_the_draw_order(tiny_cfg):
    # more chirps than one noise block, so the block order matters
    cube = synth_beat_cube(tiny_cfg, [UavTruth(30.0, 10.0)], 300)
    clean = cube.data.copy()
    noisy = add_noise(cube, 3.0, rng_seed=5)
    assert noisy.data is cube.data
    rng = np.random.default_rng(5)
    want = clean.copy()
    scale = noise_sigma(3.0) / np.sqrt(2.0)
    for m0 in (0, 256):
        block = want[:, m0 : m0 + 256, :]
        draw = rng.standard_normal(block.shape) + 1j * rng.standard_normal(block.shape)
        block += scale * draw
    assert np.array_equal(noisy.data, want)


def test_add_noise_variance_calibration(tiny_cfg):
    cube = synth_beat_cube(tiny_cfg, [], 400)
    snr_db = -6.0
    noisy = add_noise(cube, snr_db, rng_seed=11)
    power = np.mean(np.abs(noisy.data) ** 2)
    assert power == pytest.approx(noise_sigma(snr_db) ** 2, rel=0.02)
