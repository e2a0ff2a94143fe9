"""The dwell as a stream of chirp windows: same cubes, beams and detections as
the whole-cube chain, and no element cube held by the stare.

A window is one 256-chirp noise block, so the 600-chirp test dwells split
into two full windows and a ragged last one.
"""

import tracemalloc
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest
import scipy.fft as sfft

from rangesr import bench, cfar, integrate, pipeline, spans, synth
from rangesr.beamform import BeamGrid, beamform_cube, default_grid, steering_weights
from rangesr.cfar import ca_cfar, cluster_detections, merge_beam_duplicates
from rangesr.config import ConfigError, UavTruth, make_radar_config
from rangesr.cube import DataCube
from rangesr.integrate import integrate_cube
from rangesr.pipeline import Scene, dwell_chirps, dwell_chunks, run_step1, run_step2, stare
from rangesr.superres import ExtractionRows, FreqBand, SuperResError, extract_mmv, prior_band
from spectral_oracles import dwell_cube

N_EX = 8


@pytest.fixture
def cfg():
    # 64 fast-time samples, 8 elements
    return make_radar_config(10e9, 50e6, 12.8e-6, 5e6, 8)


def scene_of(cfg, n_slow, snr_db):
    return Scene(
        name="stream",
        config=cfg,
        uavs=(
            UavTruth(range0_m=60.0, velocity_mps=2.0, angle_rad=0.15),
            UavTruth(range0_m=61.2, velocity_mps=2.0, angle_rad=0.15, amplitude=0.7),
            UavTruth(range0_m=73.0, velocity_mps=-3.0, angle_rad=-0.2),
        ),
        dwell1_s=64 * cfg.chirp_s,
        dwell2_s=n_slow * cfg.chirp_s,
        gap_s=0.0,
        snr_db=snr_db,
        seed=4,
    )


def stare_window(cfg):
    return BeamGrid(default_grid(cfg).angles_rad[8:13])


def test_windows_are_noise_blocks_with_a_ragged_last_one(cfg):
    scene = scene_of(cfg, 600, 0.0)
    got = [(m0, chunk.n_slow, chunk.data.shape) for m0, chunk in dwell_chunks(scene, 2)]
    assert got == [(0, 256, (64, 256, 8)), (256, 256, (64, 256, 8)), (512, 88, (64, 88, 8))]


def test_a_table_radar_dwell_streams_in_noise_blocks():
    # only the first two of step 1's windows (512 x 256 x 16, 32 MB each) are built
    scene = pipeline.make_exp1_scene()
    got = [(m0, chunk.n_slow, chunk.data.shape) for m0, chunk in islice(dwell_chunks(scene, 1), 2)]
    assert got == [(0, 256, (512, 256, 16)), (256, 256, (512, 256, 16))]


@pytest.mark.parametrize("snr_db", [None, 0.0])
def test_dwell_cube_is_the_windows_and_the_one_shot_dwell(cfg, snr_db):
    scene = scene_of(cfg, 600, snr_db)
    cube = dwell_cube(scene, 2)
    chunks = [chunk.data for _, chunk in dwell_chunks(scene, 2)]
    assert np.array_equal(cube.data, np.concatenate(chunks, axis=1))
    # synthesised and noised in one go, as one cube
    whole = synth.synth_beat_cube(cfg, scene.step2_truths(), 600)
    whole = synth.add_noise(whole, snr_db, rng_seed=scene.seed * 10 + 2)
    assert np.array_equal(cube.data, whole.data)


def test_a_window_must_lie_in_the_dwell(cfg):
    for m0, m1 in ((0, 0), (-1, 4), (3, 9)):
        with pytest.raises(ConfigError, match="window"):
            synth.synth_beat_cube(cfg, [], 8, m0, m1)


@pytest.mark.parametrize("snr_db", [None, 0.0])
def test_streamed_stare_matches_the_whole_cube_chain(cfg, monkeypatch, snr_db):
    scene = scene_of(cfg, 600, snr_db)
    grid = stare_window(cfg)
    cube = dwell_cube(scene, 2)
    beams = beamform_cube(cube, grid)
    rda = replace(integrate_cube(beams), beam_angles=grid.angles_rad)
    detections = merge_beam_duplicates(ca_cfar(rda))

    integrated = []
    real_integrate = pipeline.integrate_cube

    def spy(cube, **kwargs):
        integrated.append(cube.data.copy())
        return real_integrate(cube, **kwargs)

    monkeypatch.setattr(pipeline, "integrate_cube", spy)
    got_rda, got_dets, got_groups, rows = stare(dwell_chunks(scene, 2), 600, grid, N_EX)
    (got_beams,) = integrated
    assert np.array_equal(got_beams, beams.data)
    assert np.array_equal(got_rda.data, rda.data)
    assert got_dets == detections and len(detections) > 2
    assert got_groups == cluster_detections(detections)
    assert np.array_equal(rows.data, cube.data[np.arange(N_EX) * (64 // N_EX)])


@pytest.mark.parametrize("n_beams, kind", [(32, "element"), (5, "beam"), (1, "beam")])
def test_stare_integrates_the_smaller_channel_set(monkeypatch, n_beams, kind):
    # 16 elements: the default grid's 32 beams integrate as the elements,
    # a five-beam window and a single beam as the beams. A cube carries no
    # kind, so the channel count names the domain, and the RDA carries the
    # steering weights exactly when its channels are the elements
    cfg = make_radar_config(10e9, 50e6, 12.8e-6, 5e6, 16)
    fan = default_grid(cfg)
    grid = fan if n_beams == 32 else BeamGrid(fan.angles_rad[14 : 14 + n_beams])
    integrated = []
    real_integrate = pipeline.integrate_cube

    def spy(cube, **kwargs):
        integrated.append(cube.data.shape[2])
        return real_integrate(cube, **kwargs)

    monkeypatch.setattr(pipeline, "integrate_cube", spy)
    scene = scene_of(cfg, 600, 0.0)
    rda, detections, _, _ = stare(dwell_chunks(scene, 2), 600, grid)
    assert integrated == [16 if kind == "element" else n_beams]
    if kind == "element":
        assert np.array_equal(rda.weights, steering_weights(cfg, grid))
    else:
        assert rda.weights is None
    assert rda.n_beams == n_beams and rda.beam_angles == grid.angles_rad
    assert detections and {d.beam for d in detections} <= set(range(n_beams))


@pytest.mark.parametrize("stage", ["step1", "step2", "grid_trial"])
def test_every_stare_integrates_in_its_own_channel_buffer(monkeypatch, stage):
    # the stare builds its channel cube and hands it over: step 1's 16
    # elements, step 2's five beams and a grid trial's one beam are each
    # integrated in place, so the RDA shares the cube's buffer
    integrated = []
    real_integrate = pipeline.integrate_cube

    def spy(cube, **kwargs):
        rda = real_integrate(cube, **kwargs)
        integrated.append((cube.data.shape[2], np.shares_memory(cube.data, rda.data)))
        return rda

    monkeypatch.setattr(pipeline, "integrate_cube", spy)
    scene = scene_of(make_radar_config(10e9, 50e6, 12.8e-6, 5e6, 16), 600, 0.0)
    spec = bench.GridSpec(k_values=(1,), delta_ratios=(0.5,), snr_values_db=(10.0,),
                          trials=1, n_slow=64)
    run, width = {
        "step1": (lambda: run_step1(scene), 16),
        "step2": (lambda: run_step2(scene, 0.15, n_ex=N_EX), 5),
        "grid_trial": (lambda: bench.run_trial_method(
            spec, bench._prepare_trial(spec, 1, 0.5, 0), 10.0, "music"), 1),
    }[stage]
    run()
    assert integrated == [(width, True)]


def test_step1_keeps_no_rows(cfg):
    scene = scene_of(cfg, 600, None)
    *_, rows = stare(dwell_chunks(scene, 1), dwell_chirps(scene, 1), default_grid(cfg))
    assert rows is None


def test_group_mmv_on_kept_rows_is_extract_mmv_on_the_cube(cfg):
    scene = scene_of(cfg, 600, 0.0)
    cube = dwell_cube(scene, 2)
    _, _, groups, rows = stare(dwell_chunks(scene, 2), 600, stare_window(cfg), N_EX)
    compared = 0
    for group in groups:
        try:
            band = prior_band(group, cfg.n_fast)
        except SuperResError:
            with pytest.raises(SuperResError):
                pipeline.group_mmv(rows, group)
            continue
        got = pipeline.group_mmv(rows, group)
        want = extract_mmv(
            ExtractionRows.of(cube, N_EX), group.strongest.refined_doppler_bin, band)
        assert np.array_equal(got.data, want.data)
        assert (got.f_shift, got.step, got.sigma, got.band) == (
            want.f_shift, want.step, want.sigma, want.band)
        compared += 1
    assert compared >= 2


def test_extraction_rows_must_match_n_ex(cfg):
    # the kept rows are the cube's decimation rows, and extraction reads one
    # sample from each
    cube = synth.synth_beat_cube(cfg, [UavTruth(range0_m=60.0)], 8)
    rows = ExtractionRows.of(cube, 16)
    assert np.array_equal(rows.data, cube.data[np.arange(16) * 4])
    mmv = extract_mmv(rows, 0.0, FreqBand(0.28, 0.34))
    assert (mmv.n_samples, mmv.step) == (16, 4)


@pytest.mark.parametrize("budget", [None, 1])
def test_integrate_in_place_equals_the_default_and_shares_the_buffer(
    cfg, monkeypatch, budget
):
    # the default: one inline span, the integration run on a copy
    rng = np.random.default_rng(7)
    shape = (64, 45, 5)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want = integrate_cube(DataCube(x, cfg))
    if budget is not None:
        # threaded spans of one-row chunks
        monkeypatch.setattr(spans, "_CHUNK_BUDGET", budget)
        monkeypatch.setattr(spans, "WORKERS", 3)
    got = integrate_cube(DataCube(x, cfg), overwrite_x=True)
    assert np.array_equal(got.data, want.data)
    assert np.shares_memory(got.data, x)


def test_step2_never_holds_the_element_cube(monkeypatch):
    # 16 elements: the element cube is 3.2 times the five-beam cube
    cfg = make_radar_config(10e9, 50e6, 12.8e-6, 5e6, 16)
    n_fast, n_el, n_slow = cfg.n_fast, cfg.n_elements, 2048
    # two workers, and a gate low enough that each window's synthesis and
    # the stare's passes run on both
    monkeypatch.setattr(spans, "_CHUNK_BUDGET", synth._CHUNK_M * n_fast * n_el)
    monkeypatch.setattr(spans, "WORKERS", 2)
    # the chirp-z workspace: 16 rows of five beams, split over the two spans,
    # and the chirp kernels (1/beams of that)
    workspace = 16 * 16 * sfft.next_fast_len(2 * n_slow - 1) * 5
    monkeypatch.setattr(integrate, "_CHUNK_BUDGET", workspace // 16)
    workspace += workspace // 5
    # tiles of one range row of the five beams, held as in the step-1 test
    # below once the window loop and the workspace have ended
    width = 5 * n_slow
    monkeypatch.setattr(cfar, "_TILE_ENTRIES", width)
    halo = cfar._window()[0] // 2
    tile = 2 * 8 * (1 + 2 * halo + 1 + 2 * 2) * width
    scene = scene_of(cfg, n_slow, 10.0)
    element_cube = 16 * n_fast * n_slow * n_el
    beams = 16 * n_fast * n_slow * 5
    kept = 16 * N_EX * n_slow * n_el
    chunk = 16 * n_fast * synth._CHUNK_M * n_el
    bound = beams + kept + max(chunk + workspace, tile)
    # an element cube alone would break the bound
    assert bound < element_cube

    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        report, rows = run_step2(scene, 0.15, n_ex=N_EX)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.detections and rows.data.nbytes == kept
    assert peak < bound, f"peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"


def test_step1_never_holds_the_beam_fan(monkeypatch):
    # 16 elements under 32 beams: step 1 integrates the element cube, and
    # its CFAR forms a tile of range rows of the beams at a time from the
    # element RDA
    cfg = make_radar_config(10e9, 50e6, 12.8e-6, 5e6, 16)
    n_fast, n_el, n_slow = cfg.n_fast, cfg.n_elements, 2048
    # two workers, and a gate low enough that each window's synthesis and
    # the stare's passes run on both
    monkeypatch.setattr(spans, "_CHUNK_BUDGET", synth._CHUNK_M * n_fast * n_el)
    monkeypatch.setattr(spans, "WORKERS", 2)
    # the chirp-z workspace: 16 rows of 16 elements, split over the two
    # spans, and the chirp kernels (1/elements of that)
    workspace = 16 * 16 * sfft.next_fast_len(2 * n_slow - 1) * n_el
    monkeypatch.setattr(integrate, "_CHUNK_BUDGET", workspace // 16)
    workspace += workspace // n_el
    # tiles of one range row of the 32 beams: the CFAR holds the tile's window
    # of power rows with the training window's halo and two rows of box
    # sums per box, and as much again in the workers' blocks of beams and
    # filter buffers; the window loop and the chirp-z workspace have ended
    width = 32 * n_slow
    monkeypatch.setattr(cfar, "_TILE_ENTRIES", width)
    halo = cfar._window()[0] // 2
    tile = 2 * 8 * (1 + 2 * halo + 1 + 2 * 2) * width
    scene = replace(scene_of(cfg, 64, 10.0), dwell1_s=n_slow * cfg.chirp_s)
    element_rda = 16 * n_fast * n_slow * n_el
    beam_fan = 16 * n_fast * n_slow * 32
    chunk = 16 * n_fast * synth._CHUNK_M * n_el
    bound = element_rda + max(chunk + workspace, tile)
    # the 32-beam cube alone would break the bound
    assert bound < beam_fan

    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        report = run_step1(scene)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.n_chirps == n_slow and report.detections
    assert peak < bound, f"peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"
