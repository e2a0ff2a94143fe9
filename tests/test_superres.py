"""Tests for the extraction + gridless super-resolution layer.

The solver tests run on two kinds of input: hand-built snapshot matrices
(exact atomic sums, so recovery tolerances can be tight) and matrices
extracted from synthesized cubes (exercising the demodulation/decimation
bookkeeping end to end).
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rangesr.cfar import Detection, DetectionGroup
from rangesr.config import ConfigError, UavTruth, make_radar_config
from rangesr.cube import DataCube
from rangesr.superres import (
    ExtractionRows,
    FreqBand,
    MmvMatrix,
    SuperResError,
    atom_matrix,
    extract_mmv,
    mdl_order,
    prior_band,
    solve_by_name,
)
from rangesr.sdp import nnls_powers
from rangesr.synth import synth_beat_cube

MUSIC_GRID_STEP = 1.0 / 8192.0


def extract(cube, doppler_bin, band, n_ex=32):
    """`extract_mmv` on the element cube's extraction rows."""
    return extract_mmv(ExtractionRows.of(cube, n_ex), doppler_bin, band)


@pytest.fixture(scope="module")
def cfg():
    # 64 fast-time samples, 4 elements
    return make_radar_config(10e9, 50e6, 12.8e-6, 5e6, 4)


def hand_mmv(data, band, cfg):
    """Snapshot matrix with identity bookkeeping (step 1, no shift)."""
    return MmvMatrix(
        data=np.asarray(data, dtype=np.complex128),
        f_shift=0.0,
        step=1,
        band=band,
        config=cfg,
    )


def local_freq(mm, f_global):
    """Where a fast-time tone at global frequency f_global sits in mm.data."""
    return ((f_global - mm.f_shift) * mm.step) % 1.0


@pytest.fixture()
def fixed_eta(monkeypatch):
    """Sets the noise budget that `solve_by_name` hands the SDP:
    fixed_eta(0.0) pins `MmvMatrix.default_eta` for the solves that follow."""

    def fix(eta):
        monkeypatch.setattr(MmvMatrix, "default_eta", lambda self: eta)

    return fix


def static_target(range_m, amplitude=1.0, angle_rad=0.0):
    return UavTruth(
        range0_m=range_m, velocity_mps=0.0, angle_rad=angle_rad, amplitude=amplitude
    )


def det_at_bin(refined_bin):
    """Detection stub carrying only what prior_band reads."""
    b = int(round(refined_bin))
    return Detection(
        range_bin=b,
        doppler_bin=0,
        beam=0,
        power=1.0,
        noise_power=1e-3,
        threshold=0.1,
        range_m=0.0,
        velocity_mps=0.0,
        angle_rad=0.0,
        refined_range_bin=float(refined_bin),
        refined_doppler_bin=0.0,
        refined_range_m=0.0,
        refined_velocity_mps=0.0,
        at_edge=False,
    )


# ---------------------------------------------------------------- FreqBand


def test_band_validation_and_properties():
    band = FreqBand(0.1, 0.3)
    assert band.width == pytest.approx(0.2)
    assert band.center == pytest.approx(0.2)
    full = FreqBand(0.0, 0.5)
    assert full.f_lo == 0.0 and full.f_hi == 0.5
    for lo, hi in [(0.3, 0.2), (-0.1, 0.2), (0.3, 0.6), (0.2, 0.2)]:
        with pytest.raises(ConfigError):
            FreqBand(lo, hi)


# -------------------------------------------------------------- extraction


def test_extract_rejects_full_band(cfg):
    # n_ex=32 -> step=2; 2 * 0.5 = 1 exceeds the half cycle a band may span
    cube = synth_beat_cube(cfg, [static_target(60.0)], 8)
    with pytest.raises(SuperResError, match="band too wide"):
        extract(cube, 0.0, FreqBand(0.0, 0.5))


def test_extract_sample_count_bounds(cfg):
    cube = synth_beat_cube(cfg, [static_target(60.0)], 8)
    band = FreqBand(0.28, 0.34)
    with pytest.raises(ConfigError, match="n_ex"):
        extract(cube, 0.0, band, n_ex=1)
    with pytest.raises(ConfigError, match="n_ex"):
        extract(cube, 0.0, band, n_ex=cfg.n_fast + 1)
    mm = extract(cube, 0.0, band, n_ex=cfg.n_fast)
    assert mm.step == 1 and mm.n_samples == cfg.n_fast


def test_extract_rejects_band_wider_than_stride_allows(cfg):
    cube = synth_beat_cube(cfg, [static_target(60.0)], 8)
    # n_ex=2 -> step=32; 32 * 0.2 = 6.4 aliases the demodulated band
    with pytest.raises(SuperResError, match="band too wide"):
        extract(cube, 0.0, FreqBand(0.1, 0.3), n_ex=2)


def test_extract_single_static_target_is_rank_one(cfg):
    r0 = 20.0 * cfg.range_of_freq(1.0 / cfg.n_fast)
    cube = synth_beat_cube(cfg, [static_target(r0, angle_rad=0.25)], 32)
    f0 = cfg.beat_freq(r0)
    mm = extract(cube, 0.0, FreqBand(f0 - 0.04, f0 + 0.04), n_ex=32)
    s = np.linalg.svd(mm.data, compute_uv=False)
    assert s[1] / s[0] < 1e-8


def test_extract_places_tone_at_local_frequency(cfg):
    cell = cfg.range_of_freq(1.0 / cfg.n_fast)
    r0 = 20.7 * cell
    cube = synth_beat_cube(cfg, [static_target(r0)], 16)
    f0 = cfg.beat_freq(r0)
    mm = extract(cube, 0.0, FreqBand(f0 - 0.05, f0 + 0.05), n_ex=32)
    f_loc = local_freq(mm, f0)
    lo, hi = mm.local_band()
    assert lo < f_loc < hi
    atom = np.exp(2j * np.pi * f_loc * np.arange(mm.n_samples))
    col = mm.data[:, 0]
    coherence = np.abs(atom.conj() @ col) / (
        np.linalg.norm(atom) * np.linalg.norm(col)
    )
    assert coherence == pytest.approx(1.0, abs=1e-10)
    # inverse bookkeeping is exact inside the band
    assert mm.global_freq(f_loc) == pytest.approx(f0, abs=1e-12)


def test_extract_keeps_same_velocity_subset_and_rejects_others(cfg):
    """Matched filtering at one Doppler cell keeps that cell's targets and
    suppresses a target 10.5 Doppler cells away below -26 dB."""
    cell = cfg.range_of_freq(1.0 / cfg.n_fast)
    n_slow = 256
    v_bin = 299792458.0 / (2.0 * n_slow * cfg.chirp_s * cfg.carrier_hz)
    r1, r2, r3 = 20.0 * cell, 22.0 * cell, 24.0 * cell
    targets = [
        static_target(r1),
        static_target(r2, angle_rad=0.1),
        UavTruth(range0_m=r3, velocity_mps=10.5 * v_bin, angle_rad=0.0),
    ]
    cube = synth_beat_cube(cfg, targets, n_slow)
    band = FreqBand(cfg.beat_freq(r1 - 2 * cell), cfg.beat_freq(r3 + 2 * cell))
    mm = extract(cube, 0.0, band, n_ex=32)
    atoms = atom_matrix(
        [local_freq(mm, cfg.beat_freq(r)) for r in (r1, r2, r3)], mm.n_samples
    )
    coef, *_ = np.linalg.lstsq(atoms, mm.data, rcond=None)
    amps = np.linalg.norm(coef, axis=1)
    # same-cell targets carry the full filter gain n_slow (times sqrt(L)
    # from stacking the element columns)
    expect = n_slow * np.sqrt(cfg.n_elements)
    assert amps[0] == pytest.approx(expect, rel=1e-3)
    assert amps[1] == pytest.approx(expect, rel=1e-3)
    leak_db = 20.0 * np.log10(amps[2] / amps[:2].max())
    assert leak_db < -26.0


def test_extract_noise_and_signal_gain_bookkeeping(cfg):
    """Slow-time summation multiplies noise power by M and signal power by
    M^2, so the per-entry SNR gain is 10 log10(M) dB; `sigma` reads the
    filtered noise level off the data."""
    n_slow, sigma = 64, 0.3
    rng = np.random.default_rng(11)
    noise = (
        rng.standard_normal((cfg.n_fast, n_slow, cfg.n_elements))
        + 1j * rng.standard_normal((cfg.n_fast, n_slow, cfg.n_elements))
    ) * (sigma / np.sqrt(2.0))
    noise_cube = DataCube(data=noise, config=cfg)
    band = FreqBand(0.25, 0.40)
    mm_noise = extract(noise_cube, 0.0, band, n_ex=32)
    assert mm_noise.sigma == pytest.approx(sigma * np.sqrt(n_slow), rel=0.1)
    noise_power = np.mean(np.abs(mm_noise.data) ** 2)
    assert noise_power == pytest.approx(sigma**2 * n_slow, rel=0.3)
    # the budget's tail bound covers the realized noise norm
    assert np.linalg.norm(mm_noise.data) <= mm_noise.default_eta()

    r0 = 20.0 * cfg.range_of_freq(1.0 / cfg.n_fast)
    sig_cube = synth_beat_cube(cfg, [static_target(r0)], n_slow)
    mm_sig = extract(sig_cube, 0.0, band, n_ex=32)
    gain_db = 10.0 * np.log10(
        (np.abs(mm_sig.data).max() ** 2 / noise_power)
        / (np.abs(sig_cube.data).max() ** 2 / sigma**2)
    )
    assert gain_db == pytest.approx(10.0 * np.log10(n_slow), abs=1.0)


# ------------------------------------------------- noise level from the data

N_EST, L_EST, SIGMA_EST = 32, 16, 8.0


def complex_noise(shape, sigma, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * (sigma / np.sqrt(2.0))


def tone_columns(freq, ramp, amplitude):
    """A tone in fast time whose phase ramps by `ramp` cycles per element."""
    return amplitude * np.outer(
        np.exp(2j * np.pi * freq * np.arange(N_EST)),
        np.exp(2j * np.pi * ramp * np.arange(L_EST)),
    )


SIGNALS = {
    "rank_1": lambda: tone_columns(0.21, 0.0, 50.0),
    # a fixed rank-1 rule reads the second tone as noise, about 4x sigma
    "rank_2": lambda: tone_columns(0.21, 0.0, 50.0) + tone_columns(0.27, 0.3, 30.0),
    "pure_noise": lambda: np.zeros((N_EST, L_EST), dtype=np.complex128),
}


def test_default_eta_noise_term_and_floor(cfg):
    # noise-free rank 1 reads sigma ~1e-15, so eta is the floor exactly
    data = tone_columns(0.21, 0.1, 50.0)
    quiet = hand_mmv(data, FreqBand(0.2, 0.3), cfg)
    assert quiet.default_eta() == 5e-4 * float(np.linalg.norm(data))
    loud = hand_mmv(data + complex_noise(data.shape, SIGMA_EST, 4), FreqBand(0.2, 0.3), cfg)
    m = data.size
    assert loud.default_eta() == pytest.approx(loud.sigma * np.sqrt(m + 2.0 * np.sqrt(m)))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("signal", sorted(SIGNALS))
def test_sigma_is_read_from_the_noise_bulk(cfg, signal, seed):
    data = SIGNALS[signal]() + complex_noise((N_EST, L_EST), SIGMA_EST, seed)
    mm = hand_mmv(data, FreqBand(0.2, 0.3), cfg)
    assert mm.sigma == pytest.approx(SIGMA_EST, rel=0.1)


def test_single_column_has_no_noise_bulk(cfg):
    data = tone_columns(0.21, 0.0, 50.0)[:, :1] + complex_noise((N_EST, 1), SIGMA_EST, 0)
    mm = hand_mmv(data, FreqBand(0.2, 0.3), cfg)
    assert mm.sigma == 0.0
    assert mm.default_eta() == 5e-4 * float(np.linalg.norm(data))


# two tones 0.7 cell apart (one cell is 1/N_EST here) on different element
# phase ramps: a same-cell pair seen from two angles
TWO_ANGLE_FREQS = np.array([0.21, 0.21 + 0.7 / N_EST])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_two_angle_cell_keeps_two_directions_and_both_ranges(cfg, seed):
    data = (
        tone_columns(TWO_ANGLE_FREQS[0], 0.0, 50.0)
        + tone_columns(TWO_ANGLE_FREQS[1], 0.3, 40.0)
        + complex_noise((N_EST, L_EST), SIGMA_EST, seed)
    )
    res = solve_by_name("fsram", hand_mmv(data, FreqBand(0.17, 0.27), cfg))
    assert res.diagnostics.rank == 2
    want = [cfg.range_of_freq(f) for f in TWO_ANGLE_FREQS]
    assert res.n_atoms == 2
    # a range cell is 3.0 m; the errors read 0.003-0.071 m
    assert np.abs(np.sort(res.ranges_m) - want).max() < 0.1


def test_noise_free_rank_one_keeps_one_direction(cfg):
    data = tone_columns(0.21, 0.1, 50.0)
    res = solve_by_name("fsram", hand_mmv(data, FreqBand(0.17, 0.27), cfg))
    assert res.diagnostics.rank == 1
    assert res.n_atoms == 1 and abs(res.freqs_local[0] - 0.21) < 1e-6
    assert res.amplitudes.shape == (1, L_EST)


def test_a_lapack_failure_in_the_projection_is_a_failed_solve(cfg, monkeypatch):
    import rangesr.sdp as sdp

    def failing_zheevr(a, **kwargs):
        n = a.shape[0]
        return np.zeros(n), np.zeros((n, n), complex), 0, np.zeros(2 * n, np.int32), 1

    monkeypatch.setattr(sdp, "zheevr", failing_zheevr)
    with pytest.raises(SuperResError, match="zheevr failed with info = 1"):
        solve_by_name("fsram", hand_mmv(tone_columns(0.21, 0.1, 50.0), FreqBand(0.17, 0.27), cfg))


def test_sigma_and_the_solver_share_one_rank_rule(cfg):
    import rangesr.sdp as sdp
    import rangesr.superres as superres

    assert superres.signal_rank is sdp.signal_rank
    data = SIGNALS["rank_2"]() + complex_noise((N_EST, L_EST), SIGMA_EST, 0)
    s = np.linalg.svd(data, compute_uv=False)
    r = sdp.signal_rank(s, data.shape)
    assert r == 2
    mm = hand_mmv(data, FreqBand(0.17, 0.3), cfg)
    assert mm.sigma == pytest.approx(np.sqrt(np.sum(s[r:] ** 2) / ((N_EST - r) * (L_EST - r))))
    # the noise tail is inside the ball, so the solve keeps the rule's rank
    assert np.sum(s[r:] ** 2) < mm.default_eta() ** 2
    assert solve_by_name("fsram", mm).diagnostics.rank == r


# -------------------------------------------------------------- prior band


def test_prior_band_spans_group_with_one_cell_pad():
    cfg_full = make_radar_config(1e10, 5e7, 1e-4, 5e7, 16)
    assert cfg_full.n_fast == 5000
    bin_171 = cfg_full.beat_freq(171.0) * cfg_full.n_fast
    group = DetectionGroup(members=[det_at_bin(bin_171)])
    band = prior_band(group, cfg_full.n_fast)
    assert band.f_lo == pytest.approx((bin_171 - 1.0) / 5000.0)
    assert band.f_hi == pytest.approx((bin_171 + 1.0) / 5000.0)
    # the +-1-cell pad around 171 m covers [168, 174] m
    assert band.f_lo == pytest.approx(0.0112, abs=1e-4)
    assert band.f_hi == pytest.approx(0.0116, abs=1e-4)
    assert cfg_full.range_of_freq(band.f_lo) == pytest.approx(168.0, abs=0.1)
    assert cfg_full.range_of_freq(band.f_hi) == pytest.approx(174.0, abs=0.1)


def test_prior_band_clamps_at_dc(cfg):
    # target in the first range cell: the pad would reach f <= 0
    group = DetectionGroup(members=[det_at_bin(1.0)])
    band = prior_band(group, cfg.n_fast)
    assert band.f_lo == pytest.approx(1.0 / (64.0 * cfg.n_fast))
    assert 0.0 < band.f_lo < band.f_hi


def test_prior_band_degenerate_beyond_nyquist_raises(cfg):
    group = DetectionGroup(members=[det_at_bin(40.0)])
    with pytest.raises(SuperResError, match="band"):
        prior_band(group, cfg.n_fast)


# ------------------------------------------------------------- vandermonde
# T(u) = A(f) diag(p) A(f)^H: NNLS weighs atoms at known frequencies, as the
# SDP's certificate weighs the data atoms by its iterate


def test_vandermonde_two_tones_exact():
    n = 16
    u = 2.0 * np.exp(2j * np.pi * 0.1 * np.arange(n)) + np.exp(
        2j * np.pi * 0.31 * np.arange(n)
    )
    powers = nnls_powers(u, np.array([0.1, 0.31]))
    assert np.abs(powers - np.array([2.0, 1.0])).max() < 1e-6


def test_vandermonde_close_tones_with_skewed_powers():
    # spacing far below the 1/N resolution and a 100:1 power ratio
    n = 16
    fr = np.array([0.2, 0.2 + 0.1 / n])
    pw = np.array([100.0, 1.0])
    u = (np.exp(2j * np.pi * np.outer(np.arange(n), fr)) * pw).sum(axis=1)
    powers = nnls_powers(u, fr)
    assert np.abs(powers - pw).max() < 1e-3


def test_mdl_order_counts_dominant_eigenvalues():
    lam = np.array([100.0, 50.0, 1.0, 1.0, 1.0, 1.0])
    assert mdl_order(lam, 200) == 2
    assert mdl_order(np.ones(6), 200) == 0


# ------------------------------------------------------------------ solver


def test_fsram_recovers_two_atoms_with_zero_budget(cfg, fixed_eta):
    rng = np.random.default_rng(7)
    f_true = np.array([0.20, 0.23])
    amps = rng.standard_normal((2, 16)) + 1j * rng.standard_normal((2, 16))
    data = atom_matrix(f_true, 32) @ amps
    mm = hand_mmv(data, FreqBand(0.19, 0.24), cfg)
    fixed_eta(0.0)
    res = solve_by_name("fsram", mm)
    assert res.n_atoms == 2
    assert np.abs(np.sort(res.freqs_local) - f_true).max() < 1e-6
    assert res.diagnostics.feasible
    assert res.diagnostics.data_misfit <= 1e-9 * np.linalg.norm(data)
    assert bool(np.all(res.in_band))
    assert res.amplitudes.shape == (2, 16)


def test_fsram_zero_data_gives_empty_solution(cfg, fixed_eta):
    mm = hand_mmv(np.zeros((8, 2), dtype=np.complex128), FreqBand(0.2, 0.3), cfg)
    fixed_eta(0.0)
    res = solve_by_name("fsram", mm)
    assert res.n_atoms == 0
    assert res.amplitudes.shape == (0, 2)
    assert res.method == "fsram"


def test_fsram_solution_scales_with_the_data(cfg, fixed_eta):
    rng = np.random.default_rng(7)
    amps = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    data = atom_matrix(np.array([0.11, 0.37]), 16) @ amps
    scale = 3.0j
    band = FreqBand(0.05, 0.45)
    eta = 1e-6 * np.linalg.norm(data)
    fixed_eta(eta)
    res1 = solve_by_name("fsram", hand_mmv(data, band, cfg))
    fixed_eta(abs(scale) * eta)
    res2 = solve_by_name("fsram", hand_mmv(scale * data, band, cfg))
    o1, o2 = np.argsort(res1.freqs_local), np.argsort(res2.freqs_local)
    assert np.abs(res1.freqs_local[o1] - res2.freqs_local[o2]).max() < 1e-9
    np.testing.assert_allclose(
        res2.powers[o2], abs(scale) ** 2 * res1.powers[o1], rtol=1e-6
    )
    np.testing.assert_allclose(
        res2.amplitudes[o2], scale * res1.amplitudes[o1], rtol=1e-6
    )


def test_band_constraint_is_free_when_the_band_covers_everything(
    cfg, admm_budget, monkeypatch, fixed_eta
):
    """On an (almost) full local band the constrained and unconstrained
    programs share their first-pass optimum (identity weights), so one
    tightly converged pass returns the same u from both."""
    import rangesr.superres as superres

    solved = []
    solve = superres.solve_weighted_toeplitz_sdp

    def spy(s, eta, band):
        out = solve(s, eta, band)
        solved.append(out[0])
        return out

    monkeypatch.setattr(superres, "solve_weighted_toeplitz_sdp", spy)
    rng = np.random.default_rng(7)
    amps = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    data = atom_matrix(np.array([0.11, 0.37]), 16) @ amps
    mm = hand_mmv(data, FreqBand(1e-4, 0.5 - 1e-4), cfg)
    fixed_eta(1e-6 * np.linalg.norm(data))
    admm_budget(_MAX_OUTER=1, _INNER_ITERS_FIRST=4000, _TOL_REL=1e-11)
    res_fs = solve_by_name("fsram", mm)
    res_ram = solve_by_name("ram", mm)
    u_fs, u_ram = solved
    np.testing.assert_allclose(u_fs, u_ram, rtol=1e-6)
    assert np.abs(np.sort(res_fs.freqs_local) - np.sort(res_ram.freqs_local)).max() < 1e-6


def test_extract_then_solve_recovers_ranges(cfg):
    """End-to-end: synthesize, extract one Doppler cell, solve, map back."""
    cell = cfg.range_of_freq(1.0 / cfg.n_fast)
    r1, r2 = 20.0 * cell, 22.0 * cell
    cube = synth_beat_cube(
        cfg, [static_target(r1), static_target(r2, amplitude=0.7)], 64
    )
    band = FreqBand(cfg.beat_freq(r1 - 2 * cell), cfg.beat_freq(r2 + 2 * cell))
    mm = extract(cube, 0.0, band, n_ex=32)
    assert mm.step == 2
    res = solve_by_name("fsram", mm)
    assert res.n_atoms == 2
    assert np.abs(np.sort(res.ranges_m) - np.array([r1, r2])).max() < 1e-6
    assert bool(np.all(res.in_band))
    lo, hi = mm.local_band()
    assert np.all(res.freqs_local >= lo - 1e-3)
    assert np.all(res.freqs_local <= hi + 1e-3)
    assert res.diagnostics.data_misfit <= res.eta * (1.0 + 1e-6)


def test_result_maps_each_atom_through_its_mmv(cfg):
    """A solve's global frequencies, ranges and band flags are its MMV's
    per-atom mapping of its local frequencies, for every method; shifted a
    quarter cycle, each atom leaves the band."""
    cell = cfg.range_of_freq(1.0 / cfg.n_fast)
    r1, r2 = 20.0 * cell, 22.0 * cell
    cube = synth_beat_cube(
        cfg, [static_target(r1), static_target(r2, amplitude=0.7)], 64
    )
    mm = extract(cube, 0.0, FreqBand(cfg.beat_freq(r1 - cell), cfg.beat_freq(r2 + cell)))
    assert mm.step == 2 and mm.f_shift != 0.0
    lo, hi = mm.local_band()
    guard = 1.0 / (2.0 * mm.n_samples)
    for name in ("fsram", "ram", "music"):
        solved = solve_by_name(name, mm, n_sources=2)
        assert solved.n_atoms >= 2
        shifted = replace(solved, freqs_local=solved.freqs_local + 0.25)
        for res, in_band in ((solved, True), (shifted, False)):
            f_global = [mm.f_shift + f / mm.step for f in res.freqs_local]
            assert res.freqs_global.tolist() == f_global
            assert res.ranges_m.tolist() == [cfg.range_of_freq(f) for f in f_global]
            assert res.in_band.tolist() == [lo - guard <= f <= hi + guard for f in res.freqs_local]
            assert res.in_band.tolist() == [in_band] * res.n_atoms


def test_range_frequency_map_round_trip():
    cfg_full = make_radar_config(1e10, 5e7, 1e-4, 5e7, 16)
    # 0.011 of the fast-time rate corresponds to ~165 m
    assert cfg_full.range_of_freq(0.011) == pytest.approx(165.0, abs=0.2)
    assert cfg_full.range_of_freq(0.0) == 0.0
    for f in (0.011, 0.1, 0.43):
        assert cfg_full.beat_freq(cfg_full.range_of_freq(f)) == pytest.approx(
            f, abs=1e-12
        )
    for r in (3.0, 165.0, 171.3):
        assert cfg_full.range_of_freq(cfg_full.beat_freq(r)) == pytest.approx(
            r, abs=1e-9
        )


# ------------------------------------------------------------------- music


def test_music_resolves_separated_uncorrelated_tones(cfg):
    rng = np.random.default_rng(3)
    f_true = np.array([0.15, 0.15 + 4.0 / 32])
    x = rng.standard_normal((2, 64)) + 1j * rng.standard_normal((2, 64))
    mm = hand_mmv(atom_matrix(f_true, 32) @ x, FreqBand(0.01, 0.49), cfg)
    res = solve_by_name("music", mm, n_sources=2)
    assert res.n_atoms == 2
    assert np.abs(np.sort(res.freqs_local) - f_true).max() < MUSIC_GRID_STEP


def test_music_without_a_source_count_takes_the_mdl_order(cfg):
    rng = np.random.default_rng(3)
    f_true = np.array([0.15, 0.15 + 4.0 / 32])
    x = rng.standard_normal((2, 64)) + 1j * rng.standard_normal((2, 64))
    noise = 1e-3 * (rng.standard_normal((32, 64)) + 1j * rng.standard_normal((32, 64)))
    mm = hand_mmv(atom_matrix(f_true, 32) @ x + noise, FreqBand(0.01, 0.49), cfg)
    res = solve_by_name("music", mm)
    assert res.n_atoms == 2
    assert np.array_equal(res.freqs_local, solve_by_name("music", mm, n_sources=2).freqs_local)


def test_music_collapses_on_coherent_snapshots(cfg):
    """Fully correlated returns collapse the covariance to rank one, so the
    subspace baseline cannot see two sources."""
    rng = np.random.default_rng(3)
    f_true = np.array([0.15, 0.15 + 4.0 / 32])
    atoms = atom_matrix(f_true, 32)
    c = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    data = np.outer(atoms[:, 0], c) + np.outer(atoms[:, 1], 1j * c)
    cov = data @ data.conj().T / 8
    assert np.linalg.matrix_rank(cov, tol=1e-9 * np.linalg.norm(cov, 2)) == 1
    mm = hand_mmv(data, FreqBand(0.01, 0.49), cfg)
    forced = solve_by_name("music", mm, n_sources=2)
    errs = np.abs(np.sort(forced.freqs_local) - f_true)
    # an order of magnitude worse than the uncorrelated case above
    assert errs.max() > 4.0 * MUSIC_GRID_STEP


def test_music_single_tone_peak(cfg):
    rng = np.random.default_rng(3)
    c = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    data = np.outer(atom_matrix([0.2], 32)[:, 0], c)
    res = solve_by_name("music", hand_mmv(data, FreqBand(0.01, 0.49), cfg), n_sources=1)
    assert res.n_atoms == 1
    assert abs(res.freqs_local[0] - 0.2) < MUSIC_GRID_STEP


def test_music_finds_a_tone_at_local_frequency_zero(cfg):
    # the pseudo-spectrum is circular: grid index 0 is a peak when it
    # stands above index 1 and the last index
    rng = np.random.default_rng(0)
    f_true = np.array([0.0, 0.3])
    x = rng.standard_normal((2, 16)) + 1j * rng.standard_normal((2, 16))
    noise = rng.standard_normal((32, 16)) + 1j * rng.standard_normal((32, 16))
    data = atom_matrix(f_true, 32) @ x + 0.01 * noise
    res = solve_by_name("music", hand_mmv(data, FreqBand(0.01, 0.49), cfg), n_sources=2)
    assert res.n_atoms == 2
    wrapped = (res.freqs_local[:, None] - f_true[None, :] + 0.5) % 1.0 - 0.5
    assert np.abs(wrapped).min(axis=0).max() < 1e-4


# ---------------------------------------------------------------- dispatch


def test_solve_by_name_dispatch(cfg):
    rng = np.random.default_rng(7)
    c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    data = np.outer(atom_matrix([0.22], 16)[:, 0], c)
    mm = hand_mmv(data, FreqBand(0.15, 0.3), cfg)
    for name in ("fsram", "ram", "music"):
        res = solve_by_name(name, mm, n_sources=1)
        assert res.method == name
        assert res.n_atoms == 1
        assert abs(res.freqs_local[0] - 0.22) < 1e-3
    with pytest.raises(ConfigError, match="method"):
        solve_by_name("esprit", mm)


def test_result_serialization_and_top_ranges(cfg, fixed_eta):
    rng = np.random.default_rng(7)
    f_true = np.array([0.20, 0.23])
    amps = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    data = atom_matrix(f_true, 24) @ amps
    fixed_eta(0.0)
    res = solve_by_name("fsram", hand_mmv(data, FreqBand(0.19, 0.24), cfg))
    d = res.to_dict()
    assert d["method"] == "fsram"
    assert len(d["freqs_local"]) == len(d["ranges_m"]) == res.n_atoms
    top = res.top_ranges(1)
    strongest = res.ranges_m[int(np.argmax(res.powers))]
    assert top.shape == (1,) and top[0] == pytest.approx(strongest)


def test_package_import_leaves_scipy_signal_unloaded():
    # scipy.signal costs most of the package import time and the package
    # uses none of it, not even MUSIC's peak picking, so neither the import
    # nor a MUSIC solve loads it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "from rangesr.config import make_radar_config\n"
        "from rangesr.superres import FreqBand, MmvMatrix, atom_matrix, solve_by_name\n"
        "cfg = make_radar_config(10e9, 50e6, 12.8e-6, 5e6, 4)\n"
        "data = atom_matrix([0.2, 0.3], 32) @ [[1.0, 1j], [1.0, -1j]]\n"
        "mmv = MmvMatrix(data, 0.0, 1, FreqBand(0.1, 0.4), cfg)\n"
        "solve_by_name('music', mmv, n_sources=2)\n"
        "print('scipy.signal' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert out.stdout.strip() == "False"
