"""CA-CFAR thresholding, sub-bin refinement, clustering."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import maximum_filter, uniform_filter

from rangesr import cfar, spans
from rangesr.beamform import beamform_cube, default_grid, steering_weights
from rangesr.cfar import (
    Detection,
    ca_cfar,
    cluster_detections,
    merge_beam_duplicates,
    noise_level_map,
    refine_peak,
)
from rangesr.config import ConfigError, UavTruth, from_json, make_radar_config, to_json
from rangesr.cube import CubeError, DataCube, RdaCube
from rangesr.integrate import integrate_cube
from rangesr.synth import add_noise, synth_beat_cube
from spectral_oracles import ca_cfar_by_groups, cluster_all_pairs


@pytest.fixture(scope="module")
def cfg():
    return make_radar_config(10e9, 50e6, 12.8e-6, 5e6, 1)   # 64 fast-time samples


def rda_for(cfg, targets, n_slow=64):
    cube = synth_beat_cube(cfg, targets, n_slow)
    return integrate_cube(DataCube(cube.data, cfg))


def blank_rda(cfg, n_slow=64):
    return integrate_cube(DataCube(np.zeros((cfg.n_fast, n_slow, 1), complex), cfg))


@pytest.fixture()
def cfar_constants(monkeypatch):
    """Sets the detector's constants for one test, by name:
    cfar_constants(_TRAIN_CELLS=4, _PFA=1e-3)."""

    def patch(**constants):
        for name, value in constants.items():
            monkeypatch.setattr(cfar, name, value)

    return patch


def make_det(rbin=0, dbin=0, beam=0, power=1.0, **kw):
    base = dict(
        range_bin=rbin, doppler_bin=dbin, beam=beam, power=power,
        noise_power=0.1, threshold=0.5, range_m=3.0 * rbin, velocity_mps=0.03 * dbin,
        angle_rad=0.0, refined_range_bin=float(rbin), refined_doppler_bin=float(dbin),
        refined_range_m=3.0 * rbin, refined_velocity_mps=0.03 * dbin, at_edge=False,
    )
    base.update(kw)
    return Detection(**base)


def test_settings_closed_forms():
    outer, inner, n_train = cfar._window()
    assert (outer, inner, n_train) == (21, 5, 21 * 21 - 5 * 5)
    assert cfar._alpha() == pytest.approx(n_train * (1e-4 ** (-1.0 / n_train) - 1.0), rel=1e-12)


def test_noise_level_map_constant_field(cfar_constants):
    cfar_constants(_TRAIN_CELLS=3, _GUARD_CELLS=1)
    level = noise_level_map(np.full((32, 32), 7.5))
    assert np.allclose(level, 7.5, rtol=1e-12)


@pytest.mark.parametrize("guard", [0, 2])
@pytest.mark.parametrize("workers", [1, 3])
def test_noise_level_map_equals_the_two_dimensional_filter(
    monkeypatch, cfar_constants, guard, workers
):
    # the map runs as running sums down tiles of rows (one, five with a
    # short last tile, the whole map) and 1-D passes along them; it must
    # equal the one-call wrapped box filter bit for bit, including a 1-cell
    # guard box
    monkeypatch.setattr(spans, "_CHUNK_BUDGET", 1)
    monkeypatch.setattr(spans, "WORKERS", workers)
    rng = np.random.default_rng(guard)
    power = rng.exponential(size=(37, 41))
    cfar_constants(_TRAIN_CELLS=4, _GUARD_CELLS=guard)
    outer, inner = 2 * (4 + guard) + 1, 2 * guard + 1
    expected = (
        uniform_filter(power, size=outer, mode="wrap") * (outer * outer)
        - uniform_filter(power, size=inner, mode="wrap") * (inner * inner)
    ) / (outer * outer - inner * inner)
    for rows in (1, 5, 37):
        monkeypatch.setattr(cfar, "_TILE_ENTRIES", rows * power.shape[1])
        assert np.array_equal(noise_level_map(power), expected)


def test_noise_level_map_rejects_oversized_window():
    # the 21-cell window of 8 training and 2 guard cells per side
    with pytest.raises(ConfigError):
        noise_level_map(np.ones((16, 16)))


def test_single_target_detected_at_truth_bins(cfg):
    blank = blank_rda(cfg)
    r0 = float(blank.range_of_bin(10))
    v0 = float(blank.velocity_of_bin(7))
    dets = ca_cfar(rda_for(cfg, [UavTruth(r0, v0)]))
    clean = [d for d in dets if not d.at_edge]
    assert len(clean) == 1
    d = clean[0]
    assert (d.range_bin, d.doppler_bin) == (10, 7)
    assert d.range_m == pytest.approx(r0, rel=1e-12)
    assert d.velocity_mps == pytest.approx(v0, rel=1e-12)
    # on-grid peak: symmetric neighbors, essentially no refinement shift
    assert abs(d.refined_range_bin - d.range_bin) < 1e-3
    assert abs(d.refined_doppler_bin - d.doppler_bin) < 1e-3
    # map-edge leakage specks are far below the real target
    for junk in dets:
        if junk is not d:
            assert junk.at_edge and junk.power < 1e-4 * d.power
    assert d.power > d.threshold > 0.0


def test_all_zero_cube_yields_nothing(cfg):
    assert ca_cfar(blank_rda(cfg)) == []


def test_detections_sorted_by_power(cfg):
    blank = blank_rda(cfg)
    targets = [
        UavTruth(float(blank.range_of_bin(8)), 0.0, amplitude=1.0),
        UavTruth(float(blank.range_of_bin(20)), 0.0, amplitude=0.3),
    ]
    dets = ca_cfar(rda_for(cfg, targets))
    powers = [d.power for d in dets]
    assert powers == sorted(powers, reverse=True)


def test_bin_map_round_trip_and_refined_fields(cfg):
    blank = blank_rda(cfg)
    r_mid = float(blank.range_of_bin(10.5))
    v0 = float(blank.velocity_of_bin(7))
    for d in ca_cfar(rda_for(cfg, [UavTruth(r_mid, v0)])):
        assert d.range_m == pytest.approx(float(blank.range_of_bin(d.range_bin)), abs=0.0)
        assert d.refined_range_m == pytest.approx(
            float(blank.range_of_bin(d.refined_range_bin)), abs=0.0
        )
        assert abs(d.refined_range_bin - d.range_bin) <= 0.5
        assert abs(d.refined_doppler_bin - d.doppler_bin) <= 0.5


def test_mid_bin_target_refines_to_truth(cfg):
    blank = blank_rda(cfg)
    cell = float(blank.range_of_bin(1))
    r_mid = float(blank.range_of_bin(10.5))
    v0 = float(blank.velocity_of_bin(7))
    d = ca_cfar(rda_for(cfg, [UavTruth(r_mid, v0)]))[0]
    assert abs(d.range_m - r_mid) == pytest.approx(0.5 * cell, rel=1e-6)
    assert abs(d.refined_range_m - r_mid) < 0.05 * cell


def test_boundary_peak_flagged_not_refined():
    power = np.zeros((16, 16))
    power[0, 8] = 1.0
    di, dj, at_edge = refine_peak(power, 0, 8)
    assert at_edge and di == 0.0 and dj == 0.0
    power = np.zeros((16, 16))
    power[8, 15] = 1.0
    assert refine_peak(power, 8, 15)[2]


def test_lower_pfa_never_detects_more(cfar_constants):
    rng = np.random.default_rng(7)
    cfg1 = make_radar_config(10e9, 50e6, 12.8e-6, 5e6, 1)
    noise = rng.standard_normal((64, 64, 1)) + 1j * rng.standard_normal((64, 64, 1))
    rda = integrate_cube(DataCube(noise.astype(complex), cfg1))
    counts = []
    for pfa in (1e-1, 1e-2, 1e-3, 1e-4):
        cfar_constants(_TRAIN_CELLS=4, _GUARD_CELLS=1, _PFA=pfa)
        counts.append(len(ca_cfar(rda)))
    assert counts == sorted(counts, reverse=True)


def test_false_alarm_rate_matches_binomial_band(cfg, cfar_constants):
    # 320x320 exponential-power cells, pfa 1e-3: expect ~102 +/- 3*sigma(~10)
    rng = np.random.default_rng(2024)
    field = (rng.standard_normal((320, 320, 1)) + 1j * rng.standard_normal((320, 320, 1)))
    from rangesr.cube import RdaCube

    rda = RdaCube(data=field, config=cfg, beam_angles=(0.0,))
    cfar_constants(_TRAIN_CELLS=8, _GUARD_CELLS=2, _PFA=1e-3)
    n_fa = len(ca_cfar(rda))
    assert 70 <= n_fa <= 135


def test_cluster_far_apart_stays_apart():
    dets = [make_det(dbin=0), make_det(dbin=5)]
    groups = cluster_detections(dets)
    assert len(groups) == 2


def test_cluster_adjacent_bins_merge():
    dets = [make_det(rbin=10, power=2.0), make_det(rbin=11, power=1.0), make_det(rbin=12, power=0.5)]
    groups = cluster_detections(dets)
    assert len(groups) == 1
    g = groups[0]
    assert g.size == 3
    assert g.range_bins == (10, 11, 12)
    assert g.strongest.power == 2.0


def test_cluster_empty_input():
    assert cluster_detections([]) == []


def test_cluster_groups_sorted_by_strongest():
    dets = [make_det(rbin=0, power=1.0), make_det(rbin=50, power=9.0)]
    groups = cluster_detections(dets)
    assert groups[0].strongest.power == 9.0


# cells on a 6 x 5 patch, so cells repeat and neighbours touch, and four
# power levels, so strongest powers tie within and across groups
cells = st.lists(
    st.tuples(st.integers(0, 5), st.integers(-2, 2), st.sampled_from((0.5, 1.0, 2.0, 4.0))),
    max_size=40,
)


@given(cells)
@settings(max_examples=200, deadline=None)
def test_cluster_matches_the_all_pairs_oracle(hits):
    # each hit has its own beam, so equal members are the same member
    dets = [make_det(rbin=r, dbin=d, beam=i, power=p) for i, (r, d, p) in enumerate(hits)]
    assert cluster_detections(dets) == cluster_all_pairs(dets)


def test_merge_beam_duplicates_keeps_strongest():
    dets = [
        make_det(rbin=4, dbin=2, beam=0, power=1.0),
        make_det(rbin=4, dbin=2, beam=1, power=3.0),
        make_det(rbin=9, dbin=2, beam=0, power=0.5),
    ]
    merged = merge_beam_duplicates(dets)
    assert len(merged) == 2
    assert merged[0].power == 3.0 and merged[0].beam == 1


def test_with_angle_and_dict_round_trip():
    d = replace(make_det(rbin=3, dbin=-2, power=4.2), angle_rad=0.15)
    assert d.angle_rad == 0.15
    back = from_json(Detection, to_json(d))
    assert back == d


def maximum_filter_hits(rda):
    """The dense rule: threshold, power floor and a wrapped 3x3 maximum filter."""
    hits = []
    for b in range(rda.n_beams):
        pmap = np.abs(rda.data[:, :, b]) ** 2
        noise = noise_level_map(pmap)
        hit = (
            (pmap > cfar._alpha() * noise)
            & (pmap >= maximum_filter(pmap, size=3, mode="wrap"))
            & (pmap > cfar._MIN_POWER)
        )
        hits += [
            (int(i) - rda.n_range // 2, int(j) - rda.n_doppler // 2, b)
            for i, j in zip(*np.nonzero(hit))
        ]
    return sorted(hits)


@pytest.mark.parametrize("shape", [(12, 10, 3), (3, 7, 2), (16, 16, 1)])
@pytest.mark.parametrize("levels", [3, 0])
def test_local_max_gate_matches_maximum_filter(cfg, cfar_constants, shape, levels):
    # few power levels make equal-valued plateaus; the edge rows and
    # columns carry peaks whose neighbours wrap around
    rng = np.random.default_rng(sum(shape) + levels)
    if levels:
        power = rng.integers(0, levels + 1, shape).astype(float)
        power[0, :, :] = power[-1, :, :] = levels
    else:
        power = rng.exponential(size=shape)
        power[0, 0, :] = power[-1, -1, :] = 50.0
    rda = RdaCube(data=np.sqrt(power) + 0j, config=cfg)
    cfar_constants(_TRAIN_CELLS=1, _GUARD_CELLS=0, _PFA=0.3, _MIN_POWER=0.5)
    got = sorted((d.range_bin, d.doppler_bin, d.beam) for d in ca_cfar(rda))
    assert got == maximum_filter_hits(rda)
    assert got   # the maps do produce hits


# ------------------------------------------------ element-domain cubes


def element_and_beam_rda(n_elements=8):
    """A noisy three-target scene integrated as elements (carrying the
    default grid's steering weights) and as the beams of that grid."""
    cfg = make_radar_config(10e9, 50e6, 12.8e-6, 5e6, n_elements)
    targets = [
        UavTruth(range0_m=30.0, velocity_mps=40.0, angle_rad=0.3),
        UavTruth(range0_m=31.2, velocity_mps=-25.0, angle_rad=-0.5, amplitude=0.6j),
        UavTruth(range0_m=55.0, velocity_mps=10.0, angle_rad=0.05),
    ]
    cube = add_noise(synth_beat_cube(cfg, targets, 48), 0.0, rng_seed=3)
    grid = default_grid(cfg)
    beams = replace(integrate_cube(beamform_cube(cube, grid)), beam_angles=grid.angles_rad)
    elements = replace(integrate_cube(cube), beam_angles=grid.angles_rad,
                       weights=steering_weights(cfg, grid))
    return elements, beams


def detection_cells(detections):
    return [(d.range_bin, d.doppler_bin, d.beam, d.angle_rad, d.at_edge) for d in detections]


@pytest.mark.parametrize("budget", [None, 12 * 16 * 48])
def test_element_cube_detections_are_the_beam_cube_detections(monkeypatch, budget):
    if budget is not None:
        # tiles of twelve range rows of the 16 beams, the last of the 64
        # rows a tile of four
        monkeypatch.setattr(cfar, "_TILE_ENTRIES", budget)
    elements, beams = element_and_beam_rda()
    assert elements.n_beams == beams.n_beams == 16
    got, want = ca_cfar(elements), ca_cfar(beams)
    assert len(want) > 20 and len({d.beam for d in want}) > 8
    assert detection_cells(got) == detection_cells(want)
    for g, w in zip(got, want):
        assert g.refined_range_bin == pytest.approx(w.refined_range_bin, abs=1e-9)
        assert g.refined_doppler_bin == pytest.approx(w.refined_doppler_bin, abs=1e-9)
        assert g.power == pytest.approx(w.power, rel=1e-9)


def test_element_cube_cfar_is_bit_identical_for_any_worker_count(monkeypatch):
    elements, _ = element_and_beam_rda()
    # tiles of five range rows, and the 64 x 48 x 8 cube counts as large
    monkeypatch.setattr(cfar, "_TILE_ENTRIES", 5 * 16 * 48)
    monkeypatch.setattr(spans, "_CHUNK_BUDGET", 3 * 64 * 48)
    monkeypatch.setattr(spans, "_BLOCK_ENTRIES", 5 * 48 * 8)   # 13 blocks, the last short
    runs = []
    for n in (1, 3):
        monkeypatch.setattr(spans, "WORKERS", n)
        runs.append(ca_cfar(elements))
    assert runs[0] == runs[1] and runs[0]


def test_beam_weights_must_take_the_cubes_channels(cfg):
    with pytest.raises(CubeError, match="take 4 channels"):
        RdaCube(np.zeros((8, 8, 3), complex), cfg, weights=np.ones((4, 2), complex))


# ------------------------------------------------ the tile stream against the oracle


@pytest.fixture(scope="module")
def element_and_beam():
    return element_and_beam_rda()


def edge_hit_rda(cfg):
    """Three beams of exponential noise with spikes on rows 0, 1, N-2 and
    N-1 and on columns 0 and M-1, whose training rings wrap round the map."""
    rng = np.random.default_rng(11)
    n, m = 42, 36
    power = rng.exponential(size=(n, m, 3))
    for i, j, b in [(0, 9, 0), (1, 20, 1), (n - 2, 30, 2), (n - 1, 14, 0),
                    (17, 0, 1), (25, m - 1, 2), (0, 0, 2), (n - 1, m - 1, 1)]:
        power[i, j, b] = 1e3
    return RdaCube(data=np.sqrt(power) + 0j, config=cfg, beam_angles=(-0.2, 0.0, 0.2))


def floor_rda(cfg):
    """A noise-free beam: one 1e14 peak on cells that hold only rounding,
    1e-20 of power. Past the peak, the range sums' (s + 1e14) - 1e14 has
    lost the floor's power, so cancellation sets the noise level there."""
    rng = np.random.default_rng(5)
    power = 1e-20 * rng.exponential(size=(64, 48, 1))
    power[10, 7] = 1e14
    return RdaCube(data=np.sqrt(power) + 0j, config=cfg)


def dense_hit_rda(cfg, levels):
    """Two beams of 23 x 17 power, a few integer levels (equal-valued
    plateaus) or exponential noise, for a detector whose 3 x 3 training box
    passes a third of the cells: hits on every row, so the local-maximum
    test and the refinement read neighbours in the window's halo rows."""
    rng = np.random.default_rng(levels)
    shape = (23, 17, 2)
    power = rng.integers(0, levels + 1, shape) + 0.0 if levels else rng.exponential(size=shape)
    return RdaCube(data=np.sqrt(power) + 0j, config=cfg)


def smallest_rda(cfg):
    """Two beams of 21 x 21 exponential noise: the map extent equals the
    default training box, so the one-tile window's first fill wraps round
    both ends of the range axis. Each beam has a spike on the first or last
    row beside a stronger one across the wrap, which only the halo rows
    show to the local-maximum test."""
    rng = np.random.default_rng(21)
    power = rng.exponential(size=(21, 21, 2))
    power[0, 4, 0] = power[20, 15, 1] = 1e3
    power[20, 5, 0] = power[0, 14, 1] = 2e3
    return RdaCube(data=np.sqrt(power) + 0j, config=cfg)


@pytest.mark.parametrize("rows", [1, 5, None])
@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize(
    "case", ["elements", "beams", "edges", "floor", "plateaus", "dense", "smallest"]
)
def test_cfar_equals_the_group_at_a_time_oracle(
    monkeypatch, cfg, cfar_constants, element_and_beam, case, workers, rows
):
    # every Detection field, in order, for tiles of one row, of five rows
    # (a short last tile on each of these maps) and of the whole map, inline
    # and on three workers; the oracle's hits on a noise level of zero or
    # below are no hits
    if case in ("plateaus", "dense"):
        cfar_constants(_TRAIN_CELLS=1, _GUARD_CELLS=0, _PFA=0.3, _MIN_POWER=0.5)
    rda = {
        "elements": element_and_beam[0],
        "beams": element_and_beam[1],
        "edges": edge_hit_rda(cfg),
        "floor": floor_rda(cfg),
        "plateaus": dense_hit_rda(cfg, 3),
        "dense": dense_hit_rda(cfg, 0),
        "smallest": smallest_rda(cfg),
    }[case]
    width = rda.n_beams * rda.n_doppler
    monkeypatch.setattr(cfar, "_TILE_ENTRIES", (rows or rda.n_range) * width)
    monkeypatch.setattr(spans, "_CHUNK_BUDGET", 1)
    monkeypatch.setattr(spans, "WORKERS", workers)
    got = ca_cfar(rda)
    oracle = ca_cfar_by_groups(rda)
    assert got == [d for d in oracle if d.noise_power > 0.0]
    cells = {(d.range_bin + rda.n_range // 2, d.doppler_bin + rda.n_doppler // 2, d.beam)
             for d in got}
    if case == "edges":
        n, m = rda.n_range - 1, rda.n_doppler - 1
        assert {(0, 9, 0), (1, 20, 1), (n - 1, 30, 2), (n, 14, 0), (17, 0, 1),
                (25, m, 2), (0, 0, 2), (n, m, 1)} <= cells
    if case == "floor":
        # cancellation leaves the oracle's hits here on negative noise
        # levels, the 1e14 peak's own included, so none of them is a hit
        assert oracle[0].power == 1e14 and oracle[0].noise_power < 0.0
        assert sum(d.noise_power <= 0.0 for d in oracle) > 10
        assert not any(d.noise_power <= 0.0 for d in got)
    if case in ("plateaus", "dense"):
        assert {d.range_bin for d in got} == set(range(-11, 12))
    if case == "smallest":
        assert {(20, 5, 0), (0, 14, 1)} <= cells
        assert not {(0, 4, 0), (20, 15, 1)} & cells
