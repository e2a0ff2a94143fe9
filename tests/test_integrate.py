"""Scaled slow-time transform, keystone interpolation, range DFT."""

import tracemalloc

import numpy as np
import pytest
import scipy.fft as sfft

from rangesr import integrate, spans
from rangesr.beamform import beamform_cube, default_grid, steering_weights
from rangesr.config import UavTruth, make_radar_config
from rangesr.cube import DataCube, axis_values
from rangesr.integrate import integrate_cube, range_ft, scaled_slow_time_ft_fast
from rangesr.synth import synth_beat_cube
from spectral_oracles import (
    keystone_explicit,
    range_profile_ft,
    scaled_slow_time_ft_direct,
    symmetric_fft,
)


def random_beam_cube(cfg, n, m, g, seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, m, g)) + 1j * rng.standard_normal((n, m, g))
    # fast-time length is decoupled from cfg.n_fast for transform-only tests
    return DataCube(data=data, config=cfg)


def rel_err(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


def test_symmetric_fft_parseval_and_inverse():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((32, 5)) + 1j * rng.standard_normal((32, 5))
    spec = symmetric_fft(x, axis=0)
    assert np.sum(np.abs(spec) ** 2) == pytest.approx(32 * np.sum(np.abs(x) ** 2), rel=1e-12)
    assert np.allclose(shift_fft_reference(spec, 0, inverse=True), x, rtol=1e-12, atol=1e-12)


def test_symmetric_fft_places_symmetric_tone():
    n = 16
    k = 3
    x = np.exp(2j * np.pi * k * (np.arange(n) - n // 2) / n)
    spec = symmetric_fft(x)
    assert int(np.argmax(np.abs(spec))) == k + n // 2
    assert spec[k + n // 2] == pytest.approx(n)


def test_fast_path_matches_direct_oracle(tiny_cfg):
    rng = np.random.default_rng(42)
    for _ in range(6):
        n, m, g = rng.integers(3, 48), rng.integers(1, 48), rng.integers(1, 4)
        cube = random_beam_cube(tiny_cfg, int(n), int(m), int(g), seed=int(rng.integers(1e6)))
        direct = scaled_slow_time_ft_direct(cube)
        fast = scaled_slow_time_ft_fast(cube)
        assert rel_err(fast.data, direct.data) < 1e-9


def test_single_chirp_is_identity(tiny_cfg):
    cube = random_beam_cube(tiny_cfg, 8, 1, 2, seed=5)
    data = cube.data.copy()   # the fast transform writes over the cube
    assert np.allclose(scaled_slow_time_ft_direct(cube).data, data, rtol=1e-12)
    assert np.allclose(scaled_slow_time_ft_fast(cube).data, data, rtol=1e-12)


def test_zero_cube_stays_zero(tiny_cfg):
    for fn in (scaled_slow_time_ft_fast, integrate_cube):
        assert not fn(DataCube(np.zeros((16, 8, 2), complex), tiny_cfg)).data.any()


def test_transforms_act_on_each_channel_alone(tiny_cfg):
    # a cube carries no kind, so any channel count integrates (three here,
    # where the radar has four elements), each channel as it would alone
    data = random_beam_cube(tiny_cfg, 16, 12, 3, seed=3).data
    alone = [integrate_cube(DataCube(data[:, :, [c]], tiny_cfg)).data for c in range(3)]
    rda = integrate_cube(DataCube(data, tiny_cfg))
    for c in range(3):
        assert rel_err(rda.data[:, :, [c]], alone[c]) < 1e-12


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_integration_overwrites_its_input_only_when_asked(tiny_cfg, dtype):
    # by default the cube is left as it was; with overwrite_x a complex128
    # cube is integrated in its own buffer (as the stare's is, `test_stream`)
    # and a cube of another dtype is read into a new complex128 array
    data = random_beam_cube(tiny_cfg, 16, 12, 2, seed=8).data.astype(dtype)
    before = data.copy()
    want = integrate_cube(DataCube(data, tiny_cfg))
    assert want.data.dtype == np.complex128 and not np.shares_memory(want.data, data)
    assert np.array_equal(data, before)
    got = integrate_cube(DataCube(data, tiny_cfg), overwrite_x=True)
    assert np.array_equal(got.data, want.data)
    assert np.shares_memory(got.data, data) == (dtype == np.complex128)


def test_beamformed_element_rda_is_the_beam_rda(tiny_cfg):
    # integration acts per channel and beamforming mixes channels per cell,
    # so the two commute: three targets at three angles, 8 beams of 4 elements
    targets = [
        UavTruth(range0_m=30.0, velocity_mps=40.0, angle_rad=0.3),
        UavTruth(range0_m=31.2, velocity_mps=-25.0, angle_rad=-0.5, amplitude=0.6j),
        UavTruth(range0_m=55.0, velocity_mps=10.0, angle_rad=0.05),
    ]
    cube = synth_beat_cube(tiny_cfg, targets, 48)
    grid = default_grid(tiny_cfg)
    beams = integrate_cube(beamform_cube(cube, grid)).data
    formed = integrate_cube(cube).data @ steering_weights(tiny_cfg, grid)
    assert np.max(np.abs(formed - beams)) <= 1e-12 * np.max(np.abs(beams))


def on_grid_truth(cfg, n_slow, range_bin, doppler_bin):
    rda = integrate_cube(DataCube(np.zeros((cfg.n_fast, n_slow, 1), complex), cfg))
    return float(rda.range_of_bin(range_bin)), float(rda.velocity_of_bin(doppler_bin))


def test_on_grid_target_peaks_at_truth_bins(tiny_cfg_1ch):
    cfg = tiny_cfg_1ch
    m = 64
    r0, v0 = on_grid_truth(cfg, m, 10, 7)
    cube = synth_beat_cube(cfg, [UavTruth(r0, v0)], m)
    rda = integrate_cube(DataCube(cube.data, cfg))
    i, j, _ = np.unravel_index(np.argmax(np.abs(rda.data)), rda.data.shape)
    rbin, dbin = i - cfg.n_fast // 2, j - m // 2
    assert (rbin, dbin) == (10, 7)
    assert rda.range_of_bin(rbin) == pytest.approx(r0, rel=1e-12)
    assert rda.velocity_of_bin(dbin) == pytest.approx(v0, rel=1e-12)


def test_doppler_ambiguity_wraps(tiny_cfg_1ch):
    cfg = tiny_cfg_1ch
    m = 64
    delta = 0.25
    v_alias = 299792458.0 / (4.0 * cfg.carrier_hz * cfg.chirp_s) * (2.0 + delta)
    r0, _ = on_grid_truth(cfg, m, 10, 0)
    cube = synth_beat_cube(cfg, [UavTruth(r0, v_alias)], m)
    rda = integrate_cube(DataCube(cube.data, cfg))
    _, j, _ = np.unravel_index(np.argmax(np.abs(rda.data)), rda.data.shape)
    # normalized Doppler (2 + delta)/2 wraps to delta/2
    assert j - m // 2 == round(m * delta / 2.0)


def test_keystone_identity_for_stationary_target(tiny_cfg_1ch):
    cube = synth_beat_cube(tiny_cfg_1ch, [UavTruth(30.0, 0.0)], 32)
    beam = DataCube(cube.data, tiny_cfg_1ch)
    kt = keystone_explicit(beam)
    assert rel_err(kt.data, beam.data) < 1e-9


def walk_cfg():
    # experiment waveform, one channel: range cell 3 m, visible migration
    return make_radar_config(10e9, 50e6, 100e-6, 5.12e6, 1)


def test_keystone_removes_range_walk():
    cfg = walk_cfg()
    v, m = 44.07, 2000
    cube = synth_beat_cube(cfg, [UavTruth(165.0, v)], m)
    beam = DataCube(cube.data, cfg)

    def drift(bc):
        profiles = range_profile_ft(bc)
        arg = np.argmax(np.abs(profiles[:, :, 0]), axis=0)
        return int(arg.max() - arg.min())

    walk_cells = v * m * cfg.chirp_s / cfg.range_res_m
    pre = drift(beam)
    post = drift(keystone_explicit(beam))
    assert abs(pre - walk_cells) <= 1.0
    assert post <= 1


def test_keystone_then_plain_dft_matches_scaled_transform():
    cfg = walk_cfg()
    m = 256
    r0, v0 = on_grid_truth(cfg, m, 10, 7)
    cube = synth_beat_cube(cfg, [UavTruth(r0, v0)], m)
    beam = DataCube(cube.data, cfg)
    inter = symmetric_fft(keystone_explicit(beam).data, axis=1)
    via_kt = range_ft(DataCube(inter, cfg))
    via_czt = integrate_cube(beam)
    peak_kt = np.unravel_index(np.argmax(np.abs(via_kt.data)), via_kt.data.shape)
    peak_czt = np.unravel_index(np.argmax(np.abs(via_czt.data)), via_czt.data.shape)
    assert peak_kt == peak_czt
    assert np.max(np.abs(via_kt.data)) == pytest.approx(np.max(np.abs(via_czt.data)), rel=0.01)


def test_keystone_and_scaled_transform_agree_on_migrating_peak():
    cfg = walk_cfg()
    cube = synth_beat_cube(cfg, [UavTruth(165.0, 44.07)], 256)
    beam = DataCube(cube.data, cfg)
    inter = symmetric_fft(keystone_explicit(beam).data, axis=1)
    via_kt = range_ft(DataCube(inter, cfg)).data
    via_czt = integrate_cube(beam).data
    assert np.unravel_index(np.argmax(np.abs(via_kt)), via_kt.shape) == np.unravel_index(
        np.argmax(np.abs(via_czt)), via_czt.shape
    )


def test_integrate_cube_is_slow_time_ft_then_range_ft(tiny_cfg):
    cube = random_beam_cube(tiny_cfg, 16, 12, 2, seed=9)
    rda = integrate_cube(cube)
    assert rda.n_doppler == 12
    assert np.allclose(
        rda.data, range_ft(scaled_slow_time_ft_fast(cube)).data, rtol=1e-12, atol=1e-9
    )


# ------------------------------------------------ transform oracles


def scaled_dft_reference(rows, scales):
    """Out-of-place Bluestein loop: fresh arrays per chunk, kernel over all lags."""
    n_rows, n_slow, n_beams = rows.shape
    m_vals = axis_values(n_slow).astype(np.float64)
    l_fft = sfft.next_fast_len(2 * n_slow - 1)
    lags = np.arange(-(n_slow - 1), n_slow)
    lag_pos = np.mod(lags, l_fft)
    chunk = max(1, integrate._CHUNK_BUDGET // (l_fft * n_beams))
    out = np.empty((n_rows, n_slow, n_beams), dtype=np.complex128)
    m_sq = m_vals * m_vals
    lag_sq = (lags * lags).astype(np.float64)
    for i0 in range(0, n_rows, chunk):
        i1 = min(i0 + chunk, n_rows)
        w = (np.pi / n_slow) * scales[i0:i1]
        q = np.exp(-1j * np.outer(w, m_sq))
        a = np.zeros((i1 - i0, l_fft, n_beams), dtype=np.complex128)
        a[:, :n_slow, :] = rows[i0:i1] * q[:, :, None]
        b = np.zeros((i1 - i0, l_fft), dtype=np.complex128)
        b[:, lag_pos] = np.exp(1j * np.outer(w, lag_sq))
        conv = sfft.ifft(
            sfft.fft(a, axis=1) * sfft.fft(b, axis=1)[:, :, None], axis=1
        )[:, :n_slow, :]
        out[i0:i1] = q[:, :, None] * conv
    return out


@pytest.mark.parametrize("n_beams", [1, 5, 32])
@pytest.mark.parametrize("n_slow", [1, 2, 7, 64])
def test_scaled_dft_matches_out_of_place_loop_bit_for_bit(monkeypatch, n_beams, n_slow):
    # a budget of a few chunks per call leaves a partial last chunk
    l_fft = sfft.next_fast_len(2 * n_slow - 1)
    monkeypatch.setattr(integrate, "_CHUNK_BUDGET", 3 * l_fft * n_beams)
    rng = np.random.default_rng(n_beams * 100 + n_slow)
    shape = (11, n_slow, n_beams)
    rows = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    scales = 1.0 + 1e-3 * rng.random(shape[0])
    want = scaled_dft_reference(rows, scales)
    assert np.array_equal(integrate._scaled_dft(rows, scales), want)


def shift_fft_reference(x, axis, inverse=False):
    transform = sfft.ifft if inverse else sfft.fft
    shifted = np.fft.ifftshift(x, axes=axis)
    return np.fft.fftshift(transform(shifted, axis=axis), axes=axis)


@pytest.mark.parametrize("shape", [(16, 6, 3), (15, 7, 5), (8, 9, 10), (9, 4, 1)])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_symmetric_transforms_match_the_shift_form(shape, axis):
    rng = np.random.default_rng(sum(shape) + axis)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ref = shift_fft_reference(x, axis)
    assert np.allclose(symmetric_fft(x, axis=axis), ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max())


def test_symmetric_fft_keeps_dtype_and_input():
    x = (np.arange(12.0) + 1j).astype(np.complex64)
    before = x.copy()
    assert symmetric_fft(x).dtype == np.complex64
    assert np.array_equal(x, before)
    assert symmetric_fft(np.arange(8.0)).dtype == np.complex128


# ------------------------------------------------ memory guards


def traced_peak_bytes(fn, *args):
    """Peak bytes numpy allocates inside fn beyond what existed at the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak, result


def test_range_ft_allocates_about_one_output(tiny_cfg):
    cube = random_beam_cube(tiny_cfg, 256, 200, 4, seed=1)
    peak, rda = traced_peak_bytes(range_ft, cube)
    assert peak <= 1.05 * rda.data.nbytes


@pytest.mark.parametrize("n_rows", [250, 2500])
def test_scaled_dft_workspace_is_bounded_by_the_chunk_budget(monkeypatch, n_rows):
    n_slow, n_beams = 100, 5
    budget = 100_000
    monkeypatch.setattr(integrate, "_CHUNK_BUDGET", budget)
    rng = np.random.default_rng(n_rows)
    rows = rng.standard_normal((n_rows, n_slow, n_beams)) + 0j
    peak, out = traced_peak_bytes(integrate._scaled_dft, rows, np.ones(n_rows))
    # the result is written over the rows; the convolution workspace holds
    # at most `budget` entries and the chirp kernels a fraction of that, so
    # nothing grows with the row count
    assert np.shares_memory(out, rows)
    assert peak <= 2 * budget * out.itemsize


def test_scaled_dft_workspace_is_cache_sized_on_a_stare_sized_cube(monkeypatch):
    # the default budget on 64 fast-time rows of step 2's five-beam,
    # 5000-chirp stare, written over the rows: workspace, kernels and chirps
    # take 12.2 MB, where a 4e6-entry budget took 77 MB beyond the output
    monkeypatch.setattr(spans, "WORKERS", 2)
    rng = np.random.default_rng(3)
    shape = (64, 5000, 5)
    rows = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    peak, out = traced_peak_bytes(integrate._scaled_dft, rows, np.ones(shape[0]))
    assert np.shares_memory(out, rows)
    assert peak <= 16e6, f"workspace {peak / 1e6:.1f} MB"
