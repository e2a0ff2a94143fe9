"""Tests for the three-step pipeline.

Small scenes (64-sample fast-time grid) exercise each step's mechanics;
module-scoped fixtures run the two bundled experiment scenes end to end and
check the published structure: a merged cluster after the short dwell, a
Doppler split after the long dwell, and sub-cell range splitting in Step 3.

Noise-free synthetic scenes have no noise floor, so CFAR also fires on the
integration ridge of strong targets (orders of magnitude weaker, at
velocities far from the swarm). Assertions therefore match estimates against
truth by velocity gate and range window instead of counting raw detections.
"""

import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from rangesr import pipeline
from rangesr.beamform import default_grid, steering_vector
from rangesr.cfar import (
    Detection,
    DetectionGroup,
    ca_cfar,
    cluster_detections,
    merge_beam_duplicates,
)
from rangesr.config import C_LIGHT, ConfigError, UavTruth, from_json, make_radar_config
from rangesr.cube import DataCube
from rangesr.integrate import integrate_cube
from rangesr.pipeline import (
    Scene,
    Step2Report,
    UavEstimate,
    dwell_chirps,
    make_exp1_scene,
    make_exp2_scene,
    make_exp3_scene,
    run_full,
    run_step1,
    run_step2,
    run_step3,
    scene_from_dict,
    scene_to_dict,
    table_radar_config,
)
from rangesr.superres import ExtractionRows
from rangesr.synth import OutOfBandError, add_noise, synth_beat_cube

VEL_GATE = 0.045   # 1.5 long-dwell Doppler cells around a truth velocity


@pytest.fixture(scope="module")
def cfg8():
    # 64 fast-time samples, 8 elements
    return make_radar_config(10e9, 50e6, 12.8e-6, 5e6, 8)


def cell_m(cfg):
    return cfg.range_of_freq(1.0 / cfg.n_fast)


def vbin_mps(cfg, n_chirps):
    return C_LIGHT / (2.0 * n_chirps * cfg.chirp_s * cfg.carrier_hz)


def tiny_scene(cfg, uavs, **kw):
    kw.setdefault("dwell1_s", 64 * cfg.chirp_s)
    kw.setdefault("dwell2_s", 128 * cfg.chirp_s)
    kw.setdefault("gap_s", 0.0)
    return Scene(name="tiny", config=cfg, uavs=tuple(uavs), **kw)


def strong_dets(detections, rel=1e-3):
    top = max(d.power for d in detections)
    return [d for d in detections if d.power >= rel * top]


def strong_groups(report, rel=1e-3):
    top = max(d.power for d in report.detections)
    return [g for g in report.groups if g.strongest.power >= rel * top]


def ests_near(estimates, velocity, tol=VEL_GATE):
    return sorted(
        (e for e in estimates if abs(e.velocity_mps - velocity) < tol),
        key=lambda e: e.range_m,
    )


def genuine_ests(loc, step2, rel=1e-3):
    """Estimates whose source group is not an integration-ridge speck."""
    top = max(g.strongest.power for g in step2.groups)
    return [
        e
        for e in loc.estimates
        if step2.groups[e.group_index].strongest.power >= rel * top
    ]


# ----------------------------------------------------------------- scenes


def test_scene_serialization_round_trip():
    scene = make_exp1_scene(snr_db=-13.0, seed=4)
    assert scene_from_dict(scene_to_dict(scene)) == scene
    plain = Scene(
        name="p",
        config=table_radar_config(),
        uavs=(UavTruth(range0_m=100.0, velocity_mps=44.01),),
    )
    again = scene_from_dict(json.loads(json.dumps(scene_to_dict(plain))))
    assert again == plain


def test_scene_json_form_is_pinned():
    def uav(r, v):
        return {"range0_m": r, "velocity_mps": v, "angle_rad": 0.2, "amplitude": [1.0, 0.0]}

    radar = {
        "carrier_hz": 10000000000.0,
        "bandwidth_hz": 50000000.0,
        "chirp_s": 0.0001,
        "sample_rate_hz": 5120000.0,
        "n_elements": 16,
        "element_spacing_m": 0.0149896229,
    }
    assert scene_to_dict(make_exp1_scene(snr_db=-13.0, seed=4)) == {
        "name": "exp1",
        "radar": radar,
        "uavs": [uav(165.0, 44.01), uav(166.2, 44.07), uav(167.4, 44.07)],
        "step2_uavs": [uav(171.0, 44.01), uav(172.2, 44.07), uav(173.4, 44.07)],
        "dwell1_s": 0.1,
        "dwell2_s": 0.5,
        "gap_s": 0.136332651670075,
        "snr_db": -13.0,
        "seed": 4,
    }
    # a scene without step-2 truths leaves the key out; name and uavs default
    plain = scene_to_dict(Scene(name="scene", config=table_radar_config(), uavs=()))
    assert "step2_uavs" not in plain
    assert scene_from_dict({"radar": radar}) == Scene(
        name="scene", config=table_radar_config(), uavs=()
    )


def test_scene_from_dict_rejects_a_misspelled_key():
    # "snr_dB" read as a default would be a noise-free run
    d = scene_to_dict(make_exp1_scene(snr_db=0.0))
    d["snr_dB"] = d.pop("snr_db")
    with pytest.raises(ConfigError, match="unknown Scene key.*: snr_dB"):
        scene_from_dict(d)


def test_scene_advances_truth_through_the_gap():
    scene = Scene(
        name="adv",
        config=table_radar_config(),
        uavs=(UavTruth(range0_m=165.0, velocity_mps=44.01),),
    )
    # default gap reproduces the 6 m offset between the two dwell tables
    (adv,) = scene.step2_truths()
    assert adv.range0_m == pytest.approx(171.0)
    assert adv.velocity_mps == 44.01
    explicit = make_exp1_scene()
    assert [u.range0_m for u in explicit.step2_truths()] == [171.0, 172.2, 173.4]


def test_experiment_scene_factories():
    e2 = make_exp2_scene()
    assert len(e2.uavs) == 4 and e2.snr_db is None
    e3 = make_exp3_scene(seed=7)
    assert e3.snr_db == -13.0 and e3.seed == 7 and e3.name == "exp3"
    assert e3.uavs == e2.uavs


def test_table_config_is_rate_invariant_where_it_matters():
    desk = table_radar_config()
    full = table_radar_config(50e6)
    assert desk.n_fast == 512 and full.n_fast == 5000
    assert desk.range_res_m == full.range_res_m
    # same meters per fast-time cell
    assert cell_m(desk) == pytest.approx(cell_m(full))
    assert cell_m(desk) == pytest.approx(2.99792458)


def test_dwell_chirp_count(cfg8):
    empty = tiny_scene(cfg8, [])
    assert run_step1(replace(empty, dwell1_s=64 * cfg8.chirp_s)).n_chirps == 64
    # odd counts round down to even so the slow-time axis stays symmetric
    assert run_step1(replace(empty, dwell1_s=33 * cfg8.chirp_s)).n_chirps == 32
    with pytest.raises(ValueError, match="dwell"):
        run_step1(replace(empty, dwell1_s=0.4 * cfg8.chirp_s))


# ------------------------------------------------------------ small scenes


def test_step1_single_target_bins_and_angle_prior(cfg8):
    cell = cell_m(cfg8)
    v = 2.0 * vbin_mps(cfg8, 64)
    scene = tiny_scene(
        cfg8, [UavTruth(range0_m=20 * cell, velocity_mps=v, angle_rad=0.15)]
    )
    rep = run_step1(scene)
    assert rep.detections
    best = rep.detections[0]
    assert (best.range_bin, best.doppler_bin) == (20, 2)
    assert not best.at_edge
    # ridge specks, if any, sit far below the target
    assert len(strong_dets(rep.detections)) == 1
    assert abs(np.sin(rep.angle_est_rad) - np.sin(0.15)) < 0.02
    assert rep.sin_est == pytest.approx(np.sin(rep.angle_est_rad))


def test_empty_scene_short_circuits_the_pipeline(cfg8):
    res = run_full(tiny_scene(cfg8, []))
    assert res.step1.detections == []
    assert res.step1.angle_est_rad is None
    assert res.step2 is None and res.localization is None
    assert res.to_dict()["estimates"] == []


def test_step2_stays_within_one_bin_of_step1(cfg8):
    cell = cell_m(cfg8)
    v = 2.0 * vbin_mps(cfg8, 64)
    scene = tiny_scene(
        cfg8,
        [
            UavTruth(range0_m=20 * cell, velocity_mps=v, angle_rad=0.15),
            UavTruth(range0_m=26 * cell, velocity_mps=0.0, angle_rad=0.15),
        ],
    )
    s1 = run_step1(scene)
    s2, _ = run_step2(scene, s1.angle_est_rad)
    s1_bins = {d.range_bin for d in strong_dets(s1.detections)}
    for group in strong_groups(s2):
        # gap_s = 0: the truth does not move between dwells
        assert any(
            abs(b - s) <= 1 for b in group.range_bins for s in s1_bins
        )


def test_step2_separates_distinct_velocities(cfg8):
    cell = cell_m(cfg8)
    v1 = 2.0 * vbin_mps(cfg8, 64)
    v2 = 4.0 * vbin_mps(cfg8, 64)
    scene = tiny_scene(
        cfg8,
        [
            UavTruth(range0_m=20 * cell, velocity_mps=v1, angle_rad=0.15),
            UavTruth(range0_m=20 * cell, velocity_mps=v2, angle_rad=0.15),
        ],
    )
    s2, _ = run_step2(scene, 0.15)
    groups = strong_groups(s2)
    assert len(groups) == 2
    got_v = sorted(g.strongest.refined_velocity_mps for g in groups)
    assert got_v[0] == pytest.approx(v1, abs=0.01)
    assert got_v[1] == pytest.approx(v2, abs=0.01)

def per_beam_step2_reference(scene, angle_prior_rad, half_window=2):
    """Step 2 as a loop: beamform, integrate and detect one beam at a time."""
    cfg = scene.config
    m2 = dwell_chirps(scene, 2)
    cube = synth_beat_cube(cfg, scene.step2_truths(), m2)
    cube = add_noise(cube, scene.snr_db, rng_seed=scene.seed * 10 + 2)
    angles = default_grid(cfg).angles_rad
    g0 = int(np.argmin(np.abs(np.sin(angles) - np.sin(angle_prior_rad))))
    window = range(max(0, g0 - half_window), min(len(angles), g0 + half_window + 1))
    detections = []
    for slot, g in enumerate(window):
        w = steering_vector(cfg, angles[g])
        beam = DataCube((cube.data @ w)[:, :, None], cfg)
        rda = replace(integrate_cube(beam), beam_angles=(angles[g],))
        detections += [replace(d, beam=slot) for d in ca_cfar(rda)]
    return merge_beam_duplicates(detections)


@pytest.mark.parametrize("snr_db", [None, 10.0])
def test_batched_step2_matches_the_per_beam_loop(cfg8, snr_db):
    cell = cell_m(cfg8)
    v = 2.0 * vbin_mps(cfg8, 64)
    scene = tiny_scene(
        cfg8,
        [
            UavTruth(range0_m=20 * cell, velocity_mps=v, angle_rad=0.15),
            UavTruth(range0_m=24.4 * cell, velocity_mps=-v, angle_rad=-0.2),
        ],
        snr_db=snr_db,
        seed=5,
    )
    got = run_step2(scene, 0.15)[0].detections
    ref = per_beam_step2_reference(scene, 0.15)

    def key(d):
        return (d.range_bin, d.doppler_bin)

    got, ref = sorted(got, key=key), sorted(ref, key=key)
    assert [(*key(d), d.beam, d.angle_rad) for d in got] == [
        (*key(d), d.beam, d.angle_rad) for d in ref
    ]
    assert np.allclose([d.power for d in got], [d.power for d in ref], rtol=1e-12, atol=0)
    assert len(got) > 2


def test_step3_splits_a_shared_range_cell(cfg8):
    cell = cell_m(cfg8)
    v = 2.0 * vbin_mps(cfg8, 64)
    r1, r2 = 20.0 * cell, 20.4 * cell
    scene = tiny_scene(
        cfg8,
        [
            UavTruth(range0_m=r1, velocity_mps=v, angle_rad=0.15),
            UavTruth(range0_m=r2, velocity_mps=v, angle_rad=0.15, amplitude=0.8),
        ],
    )
    s2, rows = run_step2(scene, 0.15)
    loc = run_step3(s2, rows)
    matched = ests_near(loc.estimates, v)
    assert [e.step for e in matched] == ["step3", "step3"]
    assert abs(matched[0].range_m - r1) < 1e-6
    assert abs(matched[1].range_m - r2) < 1e-6
    gi = matched[0].group_index
    report = loc.group_reports[gi]
    assert report["solved"] and report["n_atoms"] == 2
    # one angle, so one direction; the report says how the solve ended
    assert report["rank"] == 1 and report["stop_reason"]
    assert report["outer_iters"] >= 1 and report["inner_iters"] >= 300
    assert report["data_misfit"] <= report["eta"] * (1.0 + 1e-6)
    # recovered ranges stay inside the prior band
    lo_m = scene.config.range_of_freq(report["band"][0])
    hi_m = scene.config.range_of_freq(report["band"][1])
    for est in matched:
        assert lo_m <= est.range_m <= hi_m
    # the estimate list is sorted, and no two estimates share a range and a
    # velocity: the stare's traffic yields no duplicate for step 3 to drop
    ranges = [e.range_m for e in loc.estimates]
    assert ranges == sorted(ranges)
    vres = vbin_mps(cfg8, s2.n_chirps)
    for i, a in enumerate(loc.estimates):
        for b in loc.estimates[i + 1 :]:
            assert (
                abs(a.range_m - b.range_m) >= 1e-3 * cfg8.range_res_m
                or abs(a.velocity_mps - b.velocity_mps) >= 1e-3 * vres
            )


def test_step3_singleton_agrees_with_refined_cfar(cfg8):
    cell = cell_m(cfg8)
    v = 2.0 * vbin_mps(cfg8, 64)
    scene = tiny_scene(
        cfg8, [UavTruth(range0_m=20.0 * cell, velocity_mps=v, angle_rad=0.15)]
    )
    s2, rows = run_step2(scene, 0.15)
    (target_group,) = [
        g
        for g in strong_groups(s2)
        if abs(g.strongest.refined_velocity_mps - v) < VEL_GATE
    ]
    refined = target_group.strongest.refined_range_m

    solved = run_step3(s2, rows)
    (est_s,) = ests_near(solved.estimates, v)
    assert est_s.step == "step3"
    assert abs(est_s.range_m - refined) < 0.1 * cfg8.range_res_m


def test_step3_singleton_beats_parabolic_refinement_off_grid(cfg8):
    """A tone 0.3 cells off the grid biases the CFAR parabola by ~0.15
    cells; the single-atom solve still lands on the truth."""
    cell = cell_m(cfg8)
    v = 2.0 * vbin_mps(cfg8, 64)
    truth = 20.3 * cell
    scene = tiny_scene(
        cfg8, [UavTruth(range0_m=truth, velocity_mps=v, angle_rad=0.15)]
    )
    solved = run_step3(*run_step2(scene, 0.15))
    (est,) = ests_near(solved.estimates, v)
    assert est.step == "step3"
    assert abs(est.range_m - truth) < 0.02


def one_uav_scene(cfg):
    v = 2.0 * vbin_mps(cfg, 64)
    return tiny_scene(
        cfg, [UavTruth(range0_m=20.0 * cell_m(cfg), velocity_mps=v, angle_rad=0.15)]
    )


def attempted_groups(loc):
    """Reports of the groups step 3 tried to solve (not gated off)."""
    return [g for g in loc.group_reports if "skipped" not in g]


def test_step3_lets_a_bug_in_the_solve_propagate(cfg8, monkeypatch):
    import rangesr.superres as superres

    def bug(s, eta, band):
        raise ValueError("a bug, not a failed solve")

    monkeypatch.setattr(superres, "solve_weighted_toeplitz_sdp", bug)
    s2, rows = run_step2(one_uav_scene(cfg8), 0.15)
    with pytest.raises(ValueError, match="a bug"):
        run_step3(s2, rows)


def test_a_linalg_failure_in_a_music_group_is_its_fallback(cfg8, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    # only MUSIC's covariance decomposition calls eigh on this path
    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    loc = run_full(one_uav_scene(cfg8), method="music").localization
    reports = attempted_groups(loc)
    assert reports
    for report in reports:
        assert report["solved"] is False
        assert report["error"] == "music solve failed: Eigenvalues did not converge"
    assert {e.step for e in loc.estimates} <= {"step2", "step3-fallback"}
    assert any(e.step == "step3-fallback" for e in loc.estimates)


@pytest.mark.parametrize("scene, kwargs, match", [
    ("empty", {"method": "bogus"}, "unknown method 'bogus'"),
    ("exp1", {"method": "bogus"}, "unknown method 'bogus'"),
    ("exp1", {"n_ex": 1}, "n_ex=1"),
])
def test_run_full_checks_its_method_and_n_ex_before_step1(
    cfg8, monkeypatch, scene, kwargs, match
):
    def spy(scene):
        raise AssertionError("step 1 ran")

    monkeypatch.setattr(pipeline, "run_step1", spy)
    scene = tiny_scene(cfg8, []) if scene == "empty" else make_exp1_scene()
    with pytest.raises(ConfigError, match=match):
        run_full(scene, **kwargs)


@pytest.mark.parametrize("step", [1, 2])
def test_run_full_refuses_a_dwell_narrower_than_the_cfar_window_before_step1(
    cfg8, monkeypatch, step
):
    # a 16-chirp dwell makes a 64 x 16 map, narrower than the 21-cell
    # training box, so the run stops before any chirp window is synthesised
    synthesised = []
    monkeypatch.setattr(pipeline, "synth_beat_cube", lambda *args: synthesised.append(args))
    scene = tiny_scene(cfg8, [], **{f"dwell{step}_s": 16 * cfg8.chirp_s})
    with pytest.raises(ConfigError, match="^CFAR window 21 exceeds map extent 16$"):
        run_full(scene)
    # a dwell under one chirp keeps its own error
    with pytest.raises(ConfigError, match="^dwell shorter than one chirp$"):
        run_full(replace(scene, **{f"dwell{3 - step}_s": 0.0}))
    assert synthesised == []


@pytest.mark.parametrize(
    "change, error, match",
    [
        ({"step2_uavs": (UavTruth(range0_m=800.0, velocity_mps=44.0),)},
         OutOfBandError, "fast-time Nyquist"),
        ({"step2_uavs": None, "gap_s": -10.0}, ConfigError, "range0_m must be positive"),
    ],
    ids=["beyond_nyquist", "behind_the_radar"],
)
def test_run_full_refuses_step2_truths_it_cannot_synthesise_before_step1(
    monkeypatch, change, error, match
):
    # a step-2 truth at 800 m beats at 0.52 cycles per sample, and exp1's
    # UAVs advanced by a gap of -10 s sit behind the radar: both are refused
    # before any chirp window of step 1 is synthesised
    synthesised = []
    monkeypatch.setattr(pipeline, "synth_beat_cube", lambda *args: synthesised.append(args))
    with pytest.raises(error, match=match):
        run_full(replace(make_exp1_scene(), **change))
    assert synthesised == []


def test_step3_checks_its_method_with_every_group_gated(cfg8, monkeypatch):
    # no group reaches a solve, so the check cannot be left to solve_by_name
    monkeypatch.setattr(pipeline, "_REL_GROUP_POWER_MIN", 2.0)
    with pytest.raises(ConfigError, match="unknown method 'bogus'"):
        run_step3(*run_step2(one_uav_scene(cfg8), 0.15), method="bogus")


def test_a_band_too_wide_for_the_stride_is_the_groups_fallback(cfg8):
    # n_ex=2 keeps every 32nd of the 64 fast-time rows; the target's band
    # spans at least two cells, 2/64, and 32 * 2/64 exceeds half a cycle
    loc = run_step3(*run_step2(one_uav_scene(cfg8), 0.15, n_ex=2))
    reports = attempted_groups(loc)
    assert reports
    for report in reports:
        assert report["solved"] is False
        assert report["error"] == "band too wide for the decimation stride"


# ------------------------------------------------------------ leakage rule


def hand_detection(cfg, range_bin, doppler_bin, power):
    """A step-2 hit on the bin grid: range `range_bin` cells, 1 m/s a bin."""
    range_m = range_bin * cell_m(cfg)
    return Detection(
        range_bin=range_bin, doppler_bin=doppler_bin, beam=0, power=power,
        noise_power=1e-6, threshold=1e-5, range_m=range_m,
        velocity_mps=float(doppler_bin), angle_rad=0.15,
        refined_range_bin=float(range_bin), refined_doppler_bin=float(doppler_bin),
        refined_range_m=range_m, refined_velocity_mps=float(doppler_bin), at_edge=False,
    )


def hand_step3(cfg, monkeypatch, answers):
    """Step 3 on three single-hit groups (range bins 20, 20, 10; Doppler bins
    2, 3, 5; CFAR powers 1, 0.5, 0.3) whose solves return `answers[g]`, a
    list of (range offset from the group's hit in m, atom power)."""
    groups = [
        DetectionGroup(members=(hand_detection(cfg, r, d, p),))
        for r, d, p in ((20, 2, 1.0), (20, 3, 0.5), (10, 5, 0.3))
    ]
    calls = iter(zip(groups, answers))

    def solve(method, mmv, n_sources=None):
        # the fields of a solve's record that run_step3 reads
        group, atoms = next(calls)
        return SimpleNamespace(
            method=method,
            n_atoms=len(atoms),
            ranges_m=np.array([group.strongest.refined_range_m + dr for dr, _ in atoms]),
            powers=np.array([p for _, p in atoms]),
            in_band=np.ones(len(atoms), dtype=bool),
            eta=1.0,
            solver_summary=lambda: {},
        )

    monkeypatch.setattr(pipeline, "solve_by_name", solve)
    rows = ExtractionRows(np.zeros((32, 128, cfg.n_elements), complex), cfg.n_fast, cfg)
    s2 = Step2Report(
        detections=[g.strongest for g in groups], groups=groups, angle_prior_rad=0.15,
        beam_angles=(0.15,), n_chirps=128,
    )
    return run_step3(s2, rows)


def group_estimates(loc, gi):
    return [e for e in loc.estimates if e.group_index == gi]


def test_a_weak_atom_beside_another_groups_strong_atom_is_leakage(cfg8, monkeypatch):
    # group 1 sits in group 0's range cell; of its atoms 1.2 m from group 0's
    # atom, the one under a tenth of its power is leakage, and one 1.8 m away
    # (over half the 3 m cell) is not
    loc = hand_step3(cfg8, monkeypatch, [
        [(0.0, 1.0)], [(1.2, 0.09), (1.2, 0.11), (1.8, 0.09)], [(0.0, 1.0)],
    ])
    r0 = 20 * cell_m(cfg8)
    kept = group_estimates(loc, 1)
    assert [(e.step, e.range_m, e.power) for e in kept] == [
        ("step3", r0 + 1.2, 0.11), ("step3", r0 + 1.8, 0.09),
    ]
    assert loc.group_reports[1]["leakage_atoms"] == 1
    # the stronger atom is never the echo of the weaker one
    assert [e.step for e in group_estimates(loc, 0)] == ["step3"]
    assert "leakage_atoms" not in loc.group_reports[0]
    assert "leakage_atoms" not in loc.group_reports[2]


def test_a_group_of_leakage_atoms_reports_its_cfar_estimate(cfg8, monkeypatch):
    loc = hand_step3(cfg8, monkeypatch, [[(0.0, 1.0)], [(0.3, 0.05)], [(0.0, 1.0)]])
    (fallback,) = group_estimates(loc, 1)
    hit = hand_detection(cfg8, 20, 3, 0.5)
    assert (fallback.step, fallback.range_m, fallback.power) == (
        "step3-fallback", hit.refined_range_m, hit.power,
    )
    report = loc.group_reports[1]
    assert report["solved"] and report["n_atoms"] == 1 and report["leakage_atoms"] == 1


def test_a_group_keeping_one_atom_reports_no_fallback(cfg8, monkeypatch):
    loc = hand_step3(cfg8, monkeypatch, [
        [(0.0, 1.0)], [(0.3, 0.05), (6.0, 0.05)], [(0.0, 1.0)],
    ])
    (kept,) = group_estimates(loc, 1)
    assert (kept.step, kept.range_m) == ("step3", 20 * cell_m(cfg8) + 6.0)
    assert loc.group_reports[1]["leakage_atoms"] == 1


def test_a_group_of_leakage_atoms_answers_in_its_place(cfg8, monkeypatch):
    # group 0's atom sits on group 1's CFAR hit, and group 1's one atom is
    # its leakage (0.02 under a tenth of 0.3), so group 1 answers with its
    # CFAR estimate at exactly group 0's range; group 2's two atoms lie nearest
    loc = hand_step3(cfg8, monkeypatch, [
        [(0.0, 0.3)], [(0.3, 0.02)], [(1.0, 1.0), (2.0, 0.5)],
    ])
    ranges = [e.range_m for e in loc.estimates]
    assert ranges == sorted(ranges)
    # each group answers once: by its atoms or by its CFAR estimate
    for gi in range(3):
        steps = [e.step for e in group_estimates(loc, gi)]
        assert steps == ["step3-fallback"] or steps and set(steps) == {"step3"}
    # the tie keeps the atom first, though the CFAR estimate is stronger
    assert [(e.group_index, e.step, e.power) for e in loc.estimates] == [
        (2, "step3", 1.0), (2, "step3", 0.5), (0, "step3", 0.3), (1, "step3-fallback", 0.5),
    ]


def test_noisy_run_is_deterministic(cfg8):
    cell = cell_m(cfg8)
    v = 2.0 * vbin_mps(cfg8, 64)
    scene = tiny_scene(
        cfg8,
        [UavTruth(range0_m=20 * cell, velocity_mps=v, angle_rad=0.15)],
        snr_db=20.0,
        seed=3,
    )
    first = json.dumps(run_full(scene).to_dict(), sort_keys=True)
    second = json.dumps(run_full(scene).to_dict(), sort_keys=True)
    assert first == second


def no_group_scene(cfg):
    """One UAV in the search dwell and none in the noise-free stare, so step
    2 finds no group and step 3 does not run."""
    return replace(one_uav_scene(cfg), step2_uavs=())


@pytest.mark.parametrize("last_step", [3, 2, 1])
def test_pipeline_json_holds_a_section_per_step_that_ran(cfg8, last_step):
    scene = {3: one_uav_scene(cfg8), 2: no_group_scene(cfg8), 1: tiny_scene(cfg8, [])}[last_step]
    res = run_full(scene)
    out = json.loads(json.dumps(res.to_dict()))
    step1 = out["step1"]
    assert set(step1) == {"step", "n_chirps", "angle_est_rad", "sin_est", "detections"}
    assert [step1[k] for k in ("step", "n_chirps", "angle_est_rad", "sin_est")] == [
        1, res.step1.n_chirps, res.step1.angle_est_rad, res.step1.sin_est
    ]
    assert [from_json(Detection, d) for d in step1["detections"]] == res.step1.detections
    assert bool(res.step1.detections) == (last_step > 1)
    if last_step < 2:
        assert res.step2 is None and "step2" not in out
    else:
        step2 = out["step2"]
        assert set(step2) == {
            "step", "n_chirps", "angle_prior_rad", "beam_angles", "detections", "n_groups"
        }
        assert [step2[k] for k in ("step", "n_chirps", "angle_prior_rad", "n_groups")] == [
            2, res.step2.n_chirps, res.step2.angle_prior_rad, len(res.step2.groups)
        ]
        assert step2["beam_angles"] == list(res.step2.beam_angles)
        assert [from_json(Detection, d) for d in step2["detections"]] == res.step2.detections
        assert bool(res.step2.groups) == (last_step > 2)
    if last_step < 3:
        assert res.localization is None and "localization" not in out
        assert out["estimates"] == []
    else:
        loc = out["localization"]
        assert set(loc) == {"method", "estimates", "groups"}
        assert loc["method"] == res.localization.method == "fsram"
        assert loc["groups"] == res.localization.group_reports
        assert out["estimates"] == loc["estimates"]
        assert [from_json(UavEstimate, e) for e in loc["estimates"]] == res.localization.estimates


# ------------------------------------------------------ experiment scenes


@pytest.fixture(scope="module")
def exp1_run():
    return run_full(make_exp1_scene())


@pytest.fixture(scope="module")
def exp2_run():
    return run_full(make_exp2_scene())


def test_exp1_short_dwell_cannot_separate_the_swarm(exp1_run):
    s1 = exp1_run.step1
    # step 1 keeps no groups: its stare clusters the same detections
    top = max(d.power for d in s1.detections)
    groups = cluster_detections(s1.detections)
    assert len([g for g in groups if g.strongest.power >= 1e-3 * top]) == 1
    best = s1.detections[0]
    assert abs(best.refined_range_m - 166.2) < 2.0 * 2.99792458
    assert abs(best.refined_velocity_mps - 44.07) < 0.2
    assert abs(s1.angle_est_rad - 0.2) < 0.02


def test_exp1_long_dwell_splits_doppler(exp1_run):
    s2 = exp1_run.step2
    groups = strong_groups(s2)
    assert len(groups) == 2
    vels = sorted(g.strongest.refined_velocity_mps for g in groups)
    assert vels[0] == pytest.approx(44.01, abs=VEL_GATE)
    assert vels[1] == pytest.approx(44.07, abs=VEL_GATE)
    # targets moved 6 m (two cells) between the dwells
    s1_bins = {d.range_bin for d in strong_dets(exp1_run.step1.detections)}
    for g in groups:
        assert any(abs(b - (s + 2)) <= 1 for b in g.range_bins for s in s1_bins)


def test_exp1_end_to_end_three_uav_localization(exp1_run):
    loc = exp1_run.localization
    assert loc is not None and loc.method == "fsram"
    assert len(loc.estimates) >= len(exp1_run.step2.groups)
    strong = genuine_ests(loc, exp1_run.step2)

    (lone,) = ests_near(strong, 44.01)
    assert abs(lone.range_m - 171.0) < 0.3
    assert abs(lone.velocity_mps - 44.01) < 0.03

    pair = ests_near(strong, 44.07)
    assert len(pair) == 2
    for est, truth in zip(pair, (172.2, 173.4)):
        assert abs(est.range_m - truth) < 0.3
        assert abs(est.velocity_mps - 44.07) < 0.03
        assert est.step == "step3"
    ranges = [e.range_m for e in loc.estimates]
    assert ranges == sorted(ranges)


def test_exp2_long_dwell_isolates_the_different_velocity(exp2_run):
    groups = strong_groups(exp2_run.step2)
    assert len(groups) == 2
    by_vel = sorted(groups, key=lambda g: g.strongest.refined_velocity_mps)
    assert by_vel[0].strongest.refined_velocity_mps == pytest.approx(
        44.01, abs=VEL_GATE
    )
    assert by_vel[1].strongest.refined_velocity_mps == pytest.approx(
        44.13, abs=VEL_GATE
    )


def test_exp2_step3_splits_the_fused_triple(exp2_run):
    loc = exp2_run.localization
    strong = genuine_ests(loc, exp2_run.step2)
    triple = ests_near(strong, 44.13)
    assert len(triple) == 3
    for est, truth in zip(triple, (168.0, 169.2, 170.4)):
        assert abs(est.range_m - truth) < 0.3
        assert est.step == "step3"
    (lone,) = ests_near(strong, 44.01)
    assert abs(lone.range_m - 168.0) < 0.3
    # step 3 splits, never merges
    assert len(loc.estimates) >= len(exp2_run.step2.groups)
