"""Beat-signal synthesis against independent DFT oracles."""

import tracemalloc

import numpy as np
import pytest

from spectral_oracles import dft_peak_freq, dft_peak_resolution, synth_per_target
from rangesr import spans
from rangesr.config import ConfigError, UavTruth
from rangesr.cube import DataCube
from rangesr.pipeline import table_radar_config
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
    # the product over targets rounds each sample once, the sum of two cubes
    # rounds each target and then the sum: a few ulp of the peak apart
    peak = np.max(np.abs(summed))
    assert np.max(np.abs(both.data - summed)) <= 4 * np.finfo(float).eps * peak


SCENES = {
    "one": [UavTruth(range0_m=37.3, velocity_mps=12.0, angle_rad=0.4)],
    "three angles": [
        UavTruth(range0_m=20.0, velocity_mps=30.0, angle_rad=0.2),
        UavTruth(range0_m=21.1, velocity_mps=30.5, angle_rad=-0.45, amplitude=0.7),
        UavTruth(range0_m=60.0, velocity_mps=-85.0, angle_rad=0.9, amplitude=0.2 - 0.3j),
    ],
    "five, two sharing a cell": [
        UavTruth(range0_m=r, velocity_mps=v, angle_rad=th, amplitude=amp)
        for r, v, th, amp in [(15.0, 5.0, -1.2, 1.0), (15.5, 5.0, 0.3, 1.0j),
                              (33.3, -40.0, 0.0, 0.4), (70.0, 70.0, 0.6, 2.0),
                              (88.0, -3.0, -0.2, 0.05)]
    ],
}


@pytest.mark.parametrize("scene", SCENES)
@pytest.mark.parametrize("n_slow", [1, 16, 37])
def test_synthesis_is_the_per_target_sum(tiny_cfg, scene, n_slow):
    targets = SCENES[scene]
    cube = synth_beat_cube(tiny_cfg, targets, n_slow).data
    want = synth_per_target(tiny_cfg, targets, n_slow)
    # the two round the phases, the gains and the sums apart: within a few
    # ulp of the largest possible sample (measured: about 1.5 ulp)
    peak = sum(abs(t.amplitude) for t in targets)
    assert np.max(np.abs(cube - want)) <= 16 * np.finfo(float).eps * peak


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


@pytest.mark.parametrize("n_slow", [0, -1])
def test_a_dwell_of_no_chirp_is_refused(tiny_cfg, n_slow):
    with pytest.raises(ConfigError, match=f"n_slow must be >= 1, got {n_slow}"):
        synth_beat_cube(tiny_cfg, [UavTruth(range0_m=10.0)], n_slow)


def test_out_of_band_target_rejected(tiny_cfg):
    r_max = tiny_cfg.range_of_freq(0.5)
    with pytest.raises(OutOfBandError):
        synth_beat_cube(tiny_cfg, [UavTruth(range0_m=r_max * 1.01, velocity_mps=0.0)], 4)
    synth_beat_cube(tiny_cfg, [UavTruth(range0_m=r_max * 0.99, velocity_mps=0.0)], 4)


def test_noise_sigma_values():
    assert noise_sigma(0.0) == 1.0
    assert noise_sigma(-20.0) == pytest.approx(10.0)
    assert noise_sigma(20.0) == pytest.approx(0.1)


def test_nan_and_minus_inf_snr_are_rejected_and_plus_inf_adds_nothing(tiny_cfg):
    cube = synth_beat_cube(tiny_cfg, [UavTruth(30.0, 10.0)], 8)
    clean = cube.data.copy()
    for snr_db in (np.nan, -np.inf):
        with pytest.raises(ConfigError, match="snr_db"):
            noise_sigma(snr_db)
        with pytest.raises(ConfigError, match="snr_db"):
            add_noise(cube, snr_db, rng_seed=1)
    assert noise_sigma(np.inf) == 0.0
    assert add_noise(cube, np.inf, rng_seed=1) is cube
    assert np.array_equal(cube.data, clean)


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


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@pytest.mark.parametrize("rows", [1, 5, 64])
def test_add_noise_row_blocks_are_the_block_draws(tiny_cfg, monkeypatch, dtype, rows):
    # each part of a block is drawn `rows` fast-time rows at a time (5 leave
    # a short last block of the 64); any row count gives the values of the
    # part drawn whole, scaled, then cast to the cube's precision
    monkeypatch.setattr(spans, "_BLOCK_ENTRIES", rows * 256 * 4)
    data = synth_beat_cube(tiny_cfg, [UavTruth(30.0, 10.0)], 300).data.astype(dtype)
    want = data.copy()
    add_noise(DataCube(data, tiny_cfg), 3.0, rng_seed=5)
    rng = np.random.default_rng(5)
    scale = noise_sigma(3.0) / np.sqrt(2.0)
    for m0 in (0, 256):
        block = want[:, m0 : m0 + 256, :]
        for part in (block.real, block.imag):
            part += (rng.standard_normal(part.shape) * scale).astype(part.dtype)
    assert data.dtype == dtype and data.tobytes() == want.tobytes()


def test_add_noise_holds_no_block_sized_draw():
    # a 256-chirp window of the table radar's 16 elements at 5.12 MHz
    # (32 MB): each part is drawn through one 512 KB buffer of rows, where a
    # draw of the whole block would hold 16 MB
    cube = DataCube(np.zeros((512, 256, 16), complex), table_radar_config())
    tracemalloc.start()
    try:
        add_noise(cube, 0.0, rng_seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cube.data.all() and peak <= 1 << 20, peak


def test_add_noise_variance_calibration(tiny_cfg):
    cube = synth_beat_cube(tiny_cfg, [], 400)
    snr_db = -6.0
    noisy = add_noise(cube, snr_db, rng_seed=11)
    power = np.mean(np.abs(noisy.data) ** 2)
    assert power == pytest.approx(noise_sigma(snr_db) ** 2, rel=0.02)
