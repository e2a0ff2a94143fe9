"""Step 3's accuracy against the Cramer-Rao bound (`spectral_oracles.range_crb`).

The grid's success test is 0.1 range cell, which says nothing about how
close a success comes to the best an unbiased estimator can do. The bound
here is taken at the truth ranges the grid scores against, `range0_m`: the
range at the dwell's centre chirp. It ignores the range walk over the dwell
(0.28 m at 44 m/s over 64 chirps), which the scaled slow-time DFT models.
"""

import numpy as np
import pytest

from rangesr import bench
from rangesr.bench import GridSpec
from rangesr.config import C_LIGHT
from rangesr.cube import DataCube
from rangesr.pipeline import group_mmv, table_radar_config
from rangesr.superres import ExtractionRows, FreqBand, MmvMatrix
from rangesr.synth import noise_sigma, synth_beat_cube

from spectral_oracles import range_crb


def test_range_crb_of_one_tone_is_the_closed_form():
    # var(f) = 6 sigma^2 / ((2 pi)^2 N (N^2 - 1) sum_l |a_l|^2) in local
    # cycles per sample, times (dr/df)^2 = (c / (2 gamma dt step))^2
    cfg = table_radar_config()
    rng = np.random.default_rng(4)
    n, l, step, sigma2 = 32, 16, 4, 0.3
    mmv = MmvMatrix(np.zeros((n, l), complex), 0.01, step, FreqBand(0.01, 0.1), cfg)
    amps = rng.standard_normal((1, l)) + 1j * rng.standard_normal((1, l))
    var_f = 6.0 * sigma2 / ((2 * np.pi) ** 2 * n * (n * n - 1) * np.sum(np.abs(amps) ** 2))
    slope = C_LIGHT / (2.0 * cfg.chirp_rate_hz_per_s * cfg.dt * step)
    crb = range_crb(mmv, [0.23], amps, sigma2)
    assert crb.shape == (1, 1)
    assert crb[0, 0] == pytest.approx(slope**2 * var_f, rel=1e-9)


def test_fsram_successes_on_the_grid_sit_near_the_bound(monkeypatch):
    # K=2 grid draws at each spacing; per successful trial, the RMS range
    # error over the answered targets against the root mean of the bound's
    # diagonal, with amplitudes fitted to the clean trial cube's MMV at the
    # truth frequencies and sigma^2 read off the noise alone, extracted for
    # the same group. Ten trials give each cell four or more successes.
    spec = GridSpec(k_values=(2,), delta_ratios=(0.3, 0.5, 1.0),
                    snr_values_db=(10.0, 20.0), trials=10, n_slow=64, seed_base=0)
    cfg = table_radar_config(spec.sample_rate_hz)
    solved = []

    def keep_group(rows, group):
        solved.append((group, group_mmv(rows, group)))
        return solved[-1][1]

    def extract(cube, group):
        rows = ExtractionRows.of(DataCube(cube, cfg), spec.n_ex)
        return group_mmv(rows, group).data

    monkeypatch.setattr(bench, "group_mmv", keep_group)
    medians = {}
    for delta in spec.delta_ratios:
        ratios = {snr: [] for snr in spec.snr_values_db}
        for trial in range(spec.trials):
            data = bench._prepare_trial(spec, 2, delta, trial)
            for snr in spec.snr_values_db:
                solved.clear()
                rms = bench.run_trial_method(spec, data, snr, "fsram")
                if not rms < 0.1 * cfg.range_res_m:
                    continue
                (group, mmv), = solved
                clean = extract(synth_beat_cube(cfg, data.truths, spec.n_slow).data, group)
                noise = extract(noise_sigma(snr) * data.unit_noise, group)
                freqs = (cfg.beat_freq(data.truth_ranges) - mmv.f_shift) * mmv.step
                atoms = np.exp(2j * np.pi * np.outer(np.arange(mmv.n_samples), freqs))
                amps = np.linalg.lstsq(atoms, clean, rcond=None)[0]
                crb = range_crb(mmv, freqs, amps, np.mean(np.abs(noise) ** 2))
                ratios[snr].append(rms / np.sqrt(np.mean(np.diag(crb))))
        for snr, r in ratios.items():
            assert len(r) >= 4, (delta, snr, r)
            medians[delta, snr] = float(np.median(r))
    assert max(medians.values()) <= 1.5, medians
