"""Monte Carlo benchmark harness: grid spec, assignment, success grids.

Grid cells here are tiny (a few trials, one or two cells) so the full module
stays in the tens of seconds; the light ADMM budget is plenty for the
0.1-cell success criterion, which sits orders of magnitude above solver
error on these scenes. Broad-grid behavior is exercised by the acceptance
suite.
"""

import itertools
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from rangesr.beamform import BeamGrid, beamform_cube
from rangesr.bench import (
    METHODS,
    GridSpec,
    _prepare_trial,
    assignment_rms,
    compare_methods,
    run_success_grid,
    run_trial_method,
)
from rangesr.cfar import ca_cfar, cluster_detections
from rangesr.config import ConfigError, UavTruth, from_json, to_json
from rangesr.cube import DataCube
from rangesr.integrate import integrate_cube
from rangesr.pipeline import stare, table_radar_config
from rangesr import bench, cfar, sdp, spans
from rangesr.superres import ExtractionRows, FreqBand, extract_mmv, solve_by_name
from rangesr.synth import add_noise, noise_sigma, synth_beat_cube

# the light budget, as values of the SDP's budget constants
LIGHT = {"_MAX_OUTER": 2, "_INNER_ITERS_FIRST": 150, "_INNER_ITERS": 100}


# ---------------------------------------------------------------- GridSpec


def test_grid_spec_rejects_bad_fields():
    with pytest.raises(ValueError, match="trials"):
        GridSpec(trials=0)
    with pytest.raises(ValueError, match="delta"):
        GridSpec(delta_ratios=(0.5, 0.0))
    # a NaN or infinite spacing is refused here, not in the first trial's draw
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="finite"):
            GridSpec(k_values=(2,), delta_ratios=(0.5, bad))
    with pytest.raises(ValueError, match="K"):
        GridSpec(k_values=(1, 0))
    with pytest.raises(ConfigError, match="seed_base"):
        GridSpec(seed_base=-1)
    # extraction's rows and the dwell are checked here, not in the first
    # trial's stare: the default radar has 512 fast-time rows
    for n_ex in (1, 513):
        with pytest.raises(ConfigError, match=rf"^n_ex={n_ex} must be in \[2, 512\]$"):
            GridSpec(n_ex=n_ex)
    with pytest.raises(ConfigError, match="^n_slow must be >= 1, got 0$"):
        GridSpec(n_slow=0)
    # an infinite sample rate is refused by the radar it sets, not by an
    # OverflowError from its fast-time sample count
    with pytest.raises(ConfigError, match="^sample_rate_hz must be positive and finite"):
        GridSpec(sample_rate_hz=math.inf)
    # so is an SNR that sets no noise level
    for snr_db in (math.nan, -math.inf):
        with pytest.raises(ConfigError, match="^snr_db must be a number above -inf"):
            GridSpec(snr_values_db=(0.0, snr_db))
    # an empty axis leaves no cell to run, so the grid is refused before any
    # trial is drawn
    for axis in ("k_values", "delta_ratios", "snr_values_db"):
        with pytest.raises(ConfigError, match=f"^{axis} must not be empty$"):
            GridSpec(**{axis: ()})


def test_a_repeated_method_is_rejected_before_any_trial(monkeypatch):
    prepared = []
    monkeypatch.setattr(bench, "_prepare_trial", lambda *args: prepared.append(args))
    spec = GridSpec(k_values=(1,), delta_ratios=(0.5,), trials=1)
    with pytest.raises(ConfigError, match=r"^method\(s\) fsram given more than once$"):
        compare_methods(spec, ("fsram", "ram", "fsram"))
    assert prepared == []


def test_a_bad_n_ex_is_rejected_before_any_trial(monkeypatch):
    prepared = []
    monkeypatch.setattr(bench, "_prepare_trial", lambda *args: prepared.append(args))
    with pytest.raises(ConfigError, match=r"^n_ex=1 must be in \[2, 512\]$"):
        compare_methods(GridSpec(k_values=(1,), delta_ratios=(0.5,), trials=1, n_ex=1))
    assert prepared == []


def test_a_dwell_narrower_than_the_cfar_window_is_rejected_before_any_trial(monkeypatch):
    prepared = []
    monkeypatch.setattr(bench, "_prepare_trial", lambda *args: prepared.append(args))
    spec = GridSpec(k_values=(1,), delta_ratios=(0.5,), trials=1, n_slow=20)
    with pytest.raises(ConfigError, match="^CFAR window 21 exceeds map extent 20$"):
        compare_methods(spec)
    assert prepared == []
    # 21 chirps fill the training box: the trial is drawn (here, as infeasible)
    compare_methods(replace(spec, n_slow=21))
    assert len(prepared) == 1


def test_an_empty_method_tuple_is_rejected_before_any_trial(monkeypatch):
    prepared = []
    monkeypatch.setattr(bench, "_prepare_trial", lambda *args: prepared.append(args))
    spec = GridSpec(k_values=(1,), delta_ratios=(0.5,), trials=1)
    with pytest.raises(ConfigError, match="^no method given"):
        compare_methods(spec, ())
    assert prepared == []


def test_grid_spec_dict_round_trip():
    spec = GridSpec(
        k_values=(1, 3),
        delta_ratios=(0.2, 0.7),
        snr_values_db=(-10.0, 0.0),
        trials=5,
        seed_base=42,
        n_ex=16,
        n_slow=64,
    )
    assert from_json(GridSpec, to_json(spec)) == spec
    assert from_json(GridSpec, {}) == GridSpec()


# ---------------------------------------------------- optimal assignment


def _brute_force_rms(truth, recovered, k):
    best = math.inf
    for perm in itertools.permutations(range(len(recovered)), k):
        err = truth - recovered[list(perm)]
        best = min(best, math.sqrt(np.mean(err**2)))
    return best


def test_assignment_matches_brute_force_for_small_k():
    rng = np.random.default_rng(0)
    # K = 7 takes one spare estimate: 8!/1! orderings per brute-force draw
    for k, spare, draws in ((1, 2, 25), (2, 2, 25), (3, 2, 25), (4, 2, 25), (7, 1, 3)):
        for _ in range(draws):
            truth = np.sort(rng.uniform(160.0, 175.0, k))
            recovered = rng.permutation(
                np.concatenate([truth + rng.normal(0, 0.2, k), rng.uniform(160, 175, spare)])
            )
            got = assignment_rms(truth, recovered)
            assert got == pytest.approx(_brute_force_rms(truth, recovered, k), rel=1e-12)


def test_assignment_exact_match_is_zero():
    truth = np.array([161.0, 168.5, 173.25])
    assert assignment_rms(truth, truth[::-1].copy()) == 0.0


def test_assignment_shortfall_is_inf():
    assert assignment_rms(np.array([1.0, 2.0]), np.array([1.5])) == math.inf


# ---------------------------------------------------------- success grids


@pytest.fixture(scope="module")
def easy_grid():
    spec = GridSpec(
        k_values=(1,),
        delta_ratios=(2.0,),
        snr_values_db=(10.0,),
        trials=3,
        seed_base=7,
    )
    with pytest.MonkeyPatch.context() as mp:
        for name, value in LIGHT.items():
            mp.setattr(sdp, name, value)
        return run_success_grid(spec, "fsram")


def test_single_well_separated_tone_always_succeeds(easy_grid):
    assert easy_grid.rates.shape == (1, 1, 1)
    assert easy_grid.rates[0, 0, 0] == 1.0
    assert not easy_grid.infeasible.any()
    assert easy_grid.trials_run[0, 0, 0] == 3
    cell = table_radar_config().range_res_m
    assert easy_grid.mean_rms_m[0, 0, 0] < 0.1 * cell


def test_rates_bounded_and_errors_match_formula(easy_grid):
    g = easy_grid
    assert np.all((g.rates >= 0.0) & (g.rates <= 1.0))
    p = g.rates[0, 0, 0]
    n = g.trials_run[0, 0, 0]
    assert g.standard_errors[0, 0, 0] == pytest.approx(math.sqrt(p * (1 - p) / n))
    assert g.mean_rate() == pytest.approx(p)


def test_grid_shape_covers_every_cell(admm_budget):
    spec = GridSpec(
        k_values=(1, 2),
        delta_ratios=(0.5, 1.0, 1.5),
        snr_values_db=(0.0, 10.0),
        trials=1,
        seed_base=3,
    )
    admm_budget(**LIGHT)
    g = run_success_grid(spec, "fsram")
    assert g.rates.shape == (2, 3, 2)
    assert g.trials_run.sum() == 2 * 3 * 2 * spec.trials


def test_a_trial_whose_stare_finds_no_group_fails(monkeypatch):
    # no cell clears an infinite power floor, so the CFAR finds no group and
    # no solve runs
    monkeypatch.setattr(cfar, "_MIN_POWER", math.inf)
    spec = GridSpec(k_values=(1,), delta_ratios=(0.5,), snr_values_db=(10.0,), trials=1)
    assert bench.run_trial_method(spec, bench._prepare_trial(spec, 1, 0.5, 0), 10.0,
                                  "fsram") == math.inf
    g = run_success_grid(spec, "fsram")
    assert (g.trials_run.item(), g.successes.item()) == (1, 0)
    assert math.isnan(g.mean_rms_m.item())


def test_unknown_method_rejected():
    with pytest.raises(ValueError, match="method"):
        run_success_grid(GridSpec(k_values=(1,), delta_ratios=(1.0,)), "esprit")


def test_one_pass_draws_each_trial_once_whatever_the_method_count(monkeypatch, admm_budget):
    calls = []

    def counting_prepare(spec, k, delta, trial):
        calls.append((k, delta, trial))
        return _prepare_trial(spec, k, delta, trial)

    monkeypatch.setattr(bench, "_prepare_trial", counting_prepare)
    spec = GridSpec(k_values=(1,), delta_ratios=(0.5,), snr_values_db=(0.0, 10.0),
                    trials=2, n_slow=64, seed_base=5)
    admm_budget(**LIGHT)
    grids = compare_methods(spec, METHODS)
    assert calls == [(1, 0.5, 0), (1, 0.5, 1)]
    for g in grids.values():
        assert g.trials_run.tolist() == [[[2, 2]]]


def test_success_rate_improves_with_snr_under_common_random_numbers(admm_budget):
    # 0.1-cell spacing: hard at -25 dB, mostly recovered at +25 dB.
    spec = GridSpec(
        k_values=(2,),
        delta_ratios=(0.1,),
        snr_values_db=(-25.0, 25.0),
        trials=6,
        seed_base=11,
    )
    admm_budget(**LIGHT)
    g = run_success_grid(spec, "fsram")
    lo, hi = g.rates[0, 0]
    assert hi > lo
    se = g.standard_errors[0, 0]
    assert hi - lo > float(np.hypot(se[0], se[1]))


def test_overpacked_window_is_marked_infeasible(admm_budget):
    # four targets cannot keep 0.9-cell spacing inside a two-cell window
    spec = GridSpec(
        k_values=(4,),
        delta_ratios=(0.9,),
        snr_values_db=(10.0,),
        trials=2,
        seed_base=1,
    )
    admm_budget(**LIGHT)
    g = run_success_grid(spec, "fsram")
    assert bool(g.infeasible[0, 0])
    assert g.trials_run[0, 0, 0] == 0
    assert math.isnan(g.rates[0, 0, 0])
    assert g.to_dict()["rates"][0][0][0] == -1.0


def test_inner_stop_fires_on_a_grid_trial_and_keeps_its_ranges(monkeypatch, admm_budget):
    """A grid-sized solve (N = 32) ends its ADMM passes on the inner
    residual test at the default sdp._TOL_REL, and returns the ranges of a
    solve held to 1e-6."""
    spec = GridSpec(
        k_values=(2,),
        delta_ratios=(0.5,),
        snr_values_db=(10.0,),
        trials=1,
        n_slow=64,
        seed_base=0,
    )
    data = _prepare_trial(spec, 2, 0.5, 0)
    results = []

    def recording_solve(*args, **kwargs):
        results.append(solve_by_name(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(bench, "solve_by_name", recording_solve)
    rms = run_trial_method(spec, data, 10.0, "fsram")
    admm_budget(_TOL_REL=1e-6)
    strict_rms = run_trial_method(spec, data, 10.0, "fsram")
    default, strict = results
    # the cap is 300 + 3 * 150 inner iterations
    assert sum(default.diagnostics.inner_iters) < 300 + 3 * 150
    assert rms < 0.1 * table_radar_config().range_res_m
    np.testing.assert_allclose(default.ranges_m, strict.ranges_m, rtol=0.0, atol=1e-9)
    assert rms == pytest.approx(strict_rms, rel=0.0, abs=1e-9)


def test_a_bug_in_a_grid_solve_propagates(monkeypatch):
    """Only a group without an answer (SuperResError) scores as a failed
    trial; any other exception is a bug."""
    import rangesr.superres as superres

    def bug(s, eta, band):
        raise ValueError("a bug, not a failed solve")

    monkeypatch.setattr(superres, "solve_weighted_toeplitz_sdp", bug)
    spec = GridSpec(k_values=(2,), delta_ratios=(0.5,), snr_values_db=(10.0,),
                    trials=1, n_slow=64)
    data = _prepare_trial(spec, 2, 0.5, 0)
    with pytest.raises(ValueError, match="a bug"):
        run_trial_method(spec, data, 10.0, "fsram")


# ------------------------------------------------- reproducibility / CRN


def test_grid_rerun_is_byte_identical(admm_budget):
    spec = GridSpec(
        k_values=(1,),
        delta_ratios=(0.5,),
        snr_values_db=(0.0,),
        trials=2,
        seed_base=5,
    )
    admm_budget(**LIGHT)
    a = run_success_grid(spec, "fsram")
    b = run_success_grid(spec, "fsram")
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())


def test_methods_share_identical_truth_draws(admm_budget):
    spec = GridSpec(
        k_values=(1,),
        delta_ratios=(0.5,),
        snr_values_db=(10.0,),
        trials=2,
        seed_base=5,
    )
    admm_budget(**LIGHT)
    grids = compare_methods(spec)
    assert set(grids) == set(METHODS)
    assert len({g.truth_hash for g in grids.values()}) == 1
    for name, g in grids.items():
        assert g.method == name


def test_one_pass_repeats_each_method_grid(admm_budget):
    """Each method's grid from the shared pass is the grid that method's own
    run gives, byte for byte, over two SNRs and an infeasible cell (four
    targets cannot keep 0.9-cell spacing inside the two-cell window)."""
    spec = GridSpec(k_values=(1, 4), delta_ratios=(0.9,), snr_values_db=(0.0, 10.0),
                    trials=1, n_slow=64, seed_base=3)
    admm_budget(**LIGHT)
    grids = compare_methods(spec, METHODS)
    assert list(grids) == list(METHODS)
    assert grids["fsram"].infeasible.tolist() == [[False], [True]]
    for name, g in grids.items():
        assert json.dumps(g.to_dict()) == json.dumps(run_success_grid(spec, name).to_dict())


def test_csv_export_lists_every_cell(tmp_path, admm_budget):
    spec = GridSpec(
        k_values=(1,),
        delta_ratios=(0.5, 2.0),
        snr_values_db=(10.0,),
        trials=2,
        seed_base=5,
    )
    admm_budget(**LIGHT)
    g = run_success_grid(spec, "fsram")
    path = tmp_path / "grid.csv"
    g.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("method,k,delta_ratio,snr_db,trials")
    assert len(lines) == 1 + 2  # header + one row per cell
    row = lines[1].split(",")
    assert row[0] == "fsram"
    assert int(row[4]) == 2
    assert 0.0 <= float(row[6]) <= 1.0


# ------------------------------------------- single-period baseline limit


def test_single_period_baseline_merges_equal_range_targets():
    """One modulation period carries no Doppler: two UAVs at the same range
    but different velocities collapse into a single recovered atom, while
    the distinct ranges still come out clean."""
    cfg = table_radar_config()
    uavs = [
        UavTruth(range0_m=168.00, velocity_mps=44.01),
        UavTruth(range0_m=168.00, velocity_mps=44.13),
        UavTruth(range0_m=169.20, velocity_mps=44.13),
        UavTruth(range0_m=170.40, velocity_mps=44.13),
    ]
    cube = synth_beat_cube(cfg, uavs, 128)
    mid = 64
    single = DataCube(
        data=np.ascontiguousarray(cube.data[:, mid : mid + 1, :]),
        config=cfg,
    )
    band = FreqBand(cfg.beat_freq(166.0), cfg.beat_freq(172.0))
    mmv = extract_mmv(ExtractionRows.of(single, 32), doppler_bin=0.0, band=band)
    res = solve_by_name("ram", mmv)
    ranges = np.sort(res.ranges_m)
    assert res.n_atoms == 3  # four targets, three recovered: the 168 m pair fused
    assert ranges == pytest.approx([168.0, 169.2, 170.4], abs=0.05)


# --------------------------------------------------- the trial's stare path


@pytest.fixture(scope="module")
def trial_cube():
    """A grid trial's element cube: K=2, half-cell spacing, 10 dB."""
    spec = GridSpec(k_values=(2,), delta_ratios=(0.5,), snr_values_db=(10.0,),
                    trials=1, n_slow=64)
    data = _prepare_trial(spec, 2, 0.5, 0)
    clean = synth_beat_cube(table_radar_config(), data.truths, spec.n_slow).data
    noisy = clean + noise_sigma(10.0) * data.unit_noise
    return DataCube(data=noisy, config=table_radar_config())


def test_stare_on_one_beam_is_cfar_and_grouping_of_the_integrated_beam(trial_cube):
    # merging duplicates across beams does nothing on a single beam
    grid = BeamGrid((0.0,))
    _, detections, groups, rows = stare([(0, trial_cube)],
                                        trial_cube.n_slow, grid)
    assert rows is None
    reference = ca_cfar(integrate_cube(beamform_cube(trial_cube, grid)))
    assert detections and detections == reference
    assert groups == cluster_detections(reference)


@pytest.mark.parametrize("method", METHODS)
def test_trial_windows_move_no_sample(monkeypatch, admm_budget, method):
    """The stare reads a trial's noisy dwell in chirp windows, each window's
    clean chirps synthesised from the trial's truths. The windows tile the
    cube `clean + sigma * unit_noise` bit for bit, with `clean` the whole
    dwell synthesised at once, and the trial gives the same RMS and the same
    solves as with one window of the whole dwell."""
    spec = GridSpec(k_values=(2,), delta_ratios=(0.5,), snr_values_db=(10.0,),
                    trials=1, n_slow=64)
    data = _prepare_trial(spec, 2, 0.5, 0)
    cfg = table_radar_config()
    sigma = noise_sigma(10.0)
    windows = list(bench._trial_windows(data, sigma, cfg))
    assert [(m0, w.n_slow) for m0, w in windows] == [(m, 8) for m in range(0, 64, 8)]
    noisy = np.concatenate([w.data for _, w in windows], axis=1)
    clean = synth_beat_cube(cfg, data.truths, spec.n_slow).data
    assert noisy.tobytes() == (clean + sigma * data.unit_noise).tobytes()
    del windows, noisy, clean

    admm_budget(**LIGHT)
    solves = []

    def recording_solve(*args, **kwargs):
        solves.append(solve_by_name(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(bench, "solve_by_name", recording_solve)
    windowed = run_trial_method(spec, data, 10.0, method)
    monkeypatch.setattr(spans, "_BLOCK_ENTRIES", data.unit_noise.size)
    assert len(list(bench._trial_windows(data, sigma, cfg))) == 1
    whole = run_trial_method(spec, data, 10.0, method)
    assert windowed == whole and math.isfinite(whole)
    a, b = solves
    assert np.array_equal(a.freqs_global, b.freqs_global)
    assert np.array_equal(a.powers, b.powers)
    if method == "music":
        assert a.diagnostics is b.diagnostics is None
    else:
        assert a.diagnostics.inner_iters == b.diagnostics.inner_iters


def test_a_trial_holds_one_cube(admm_budget):
    """A trial holds its unit noise and no clean cube: drawing it peaks near
    one trial cube (the noise, and add_noise's row-block buffer), and a run
    adds only a window's worth of synthesis and the stare's one-beam work
    to it. Holding the clean cube too would read two and a half cubes."""
    spec = GridSpec(k_values=(2,), delta_ratios=(0.5,), snr_values_db=(10.0,),
                    trials=1, n_slow=64)
    cfg = table_radar_config()
    cube_bytes = cfg.n_fast * spec.n_slow * cfg.n_elements * 16
    admm_budget(**LIGHT)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        data = _prepare_trial(spec, 2, 0.5, 0)
        prepare_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        rms = run_trial_method(spec, data, 10.0, "fsram")
        run_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert math.isfinite(rms)
    assert prepare_peak <= 1.25 * cube_bytes, prepare_peak / cube_bytes
    assert run_peak <= 1.75 * cube_bytes, run_peak / cube_bytes


@pytest.mark.parametrize("shape", [(512, 64, 16), (100, 64, 16)])
def test_unit_noise_is_the_one_shot_draw(shape):
    """Drawn a block of rows at a time, the noise is the one-shot draw bit
    for bit: the real parts, then the imaginary parts, each scaled by
    1/sqrt(2). The second shape's 100 rows leave a 36-row last block."""
    n_fast, n_slow, _ = shape
    # the sample rate that gives the table radar n_fast rows per chirp
    cfg = table_radar_config(n_fast / table_radar_config().chirp_s)
    got = bench._unit_noise(np.random.default_rng(11), cfg, n_slow)
    assert got.shape == shape
    rng = np.random.default_rng(11)
    scale = 1.0 / np.sqrt(2.0)
    assert got.real.tobytes() == (rng.standard_normal(shape) * scale).tobytes()
    assert got.imag.tobytes() == (rng.standard_normal(shape) * scale).tobytes()


@pytest.mark.parametrize("n_slow", [64, 256, 300])
def test_unit_noise_is_add_noise_at_0_db(n_slow):
    """One noise rule: a trial's unit noise is `add_noise` at 0 dB on a zero
    cube, bit for bit. Past 256 chirps both draw in 256-chirp blocks, not
    the whole cube at once."""
    cfg = table_radar_config()
    got = bench._unit_noise(np.random.default_rng(5), cfg, n_slow)
    zeros = DataCube(np.zeros((cfg.n_fast, n_slow, cfg.n_elements), complex), cfg)
    want = add_noise(zeros, 0.0, rng_seed=np.random.default_rng(5)).data
    assert got.dtype == np.complex128 and got.tobytes() == want.tobytes()


def test_one_chirp_extraction_ignores_the_doppler_bin(trial_cube):
    cfg = trial_cube.config
    single = DataCube(
        data=np.ascontiguousarray(trial_cube.data[:, 32:33, :]),
        config=cfg,
    )
    band = FreqBand(cfg.beat_freq(164.0), cfg.beat_freq(172.0))
    rows = ExtractionRows.of(single, 32)
    at_zero = extract_mmv(rows, doppler_bin=0.0, band=band)
    for doppler_bin in (0.37, -12.8, 31.6):
        mmv = extract_mmv(rows, doppler_bin=doppler_bin, band=band)
        assert np.array_equal(mmv.data, at_zero.data)
