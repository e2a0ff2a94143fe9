"""Smoke tests of the command-line front end on small inputs."""

import json

import numpy as np
import pytest

from rangesr import bench, cli
from rangesr.bench import GridSpec
from rangesr.cli import main
from rangesr.config import UavTruth, dump_json, load_json, make_radar_config, to_json
from rangesr.pipeline import Scene, scene_from_dict, scene_to_dict
from rangesr.superres import SuperResError, solve_by_name


@pytest.fixture()
def scene_path(tmp_path):
    cfg = make_radar_config(10e9, 50e6, 12.8e-6, 5e6, 4)   # 64 fast-time samples
    scene = Scene(
        name="tiny",
        config=cfg,
        uavs=(UavTruth(range0_m=30.0, velocity_mps=2.0, angle_rad=0.1),),
        dwell1_s=33 * cfg.chirp_s,
        dwell2_s=64 * cfg.chirp_s,
        snr_db=20.0,
        seed=1,
    )
    path = tmp_path / "scene.json"
    dump_json(scene_to_dict(scene), path)
    return path


def test_pipeline_finds_the_uav_at_30_m(tmp_path, scene_path):
    out = tmp_path / "out"
    assert main(["pipeline", "--scene", str(scene_path), "--out-dir", str(out)]) == 0
    lines = (out / "detections.jsonl").read_text().splitlines()
    top = json.loads(lines[0])   # sorted by falling power
    # 2 m/s is a tenth of a Doppler cell at 64 chirps
    assert top["doppler_bin"] == 0
    assert top["refined_range_m"] == pytest.approx(30.0, abs=1.5)
    cell = scene_from_dict(load_json(scene_path)).config.range_res_m
    ranges = [est["range_m"] for est in load_json(out / "pipeline.json")["estimates"]]
    assert min(abs(r - 30.0) for r in ranges) <= cell


def test_pipeline_on_an_empty_scene_exits_2(tmp_path, scene_path):
    scene = load_json(scene_path)
    scene.update(uavs=[], snr_db=None)
    dump_json(scene, scene_path)
    assert main(["pipeline", "--scene", str(scene_path), "--out-dir", str(tmp_path)]) == 2
    assert load_json(tmp_path / "pipeline.json")["estimates"] == []


def test_pipeline_whose_stare_finds_no_group_exits_2(tmp_path, scene_path):
    # the search dwell sees the UAV and the noise-free stare sees nothing
    scene = load_json(scene_path)
    scene.update(step2_uavs=[], snr_db=None)
    dump_json(scene, scene_path)
    assert main(["pipeline", "--scene", str(scene_path), "--out-dir", str(tmp_path)]) == 2
    run = load_json(tmp_path / "pipeline.json")
    assert run["step1"]["detections"] and run["step2"]["n_groups"] == 0
    assert "localization" not in run and run["estimates"] == []
    assert (tmp_path / "detections.jsonl").read_text() == ""


def test_pipeline_rejects_a_dwell_shorter_than_half_a_chirp(tmp_path, scene_path, capsys):
    scene = load_json(scene_path)
    scene["dwell1_s"] = 0.4 * scene["radar"]["chirp_s"]
    dump_json(scene, scene_path)
    assert main(["pipeline", "--scene", str(scene_path), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "rangesr pipeline: dwell shorter than one chirp\n"
    assert not (tmp_path / "pipeline.json").exists()


def test_pipeline_rejects_a_negative_range_with_exit_2(tmp_path, scene_path, capsys):
    scene = load_json(scene_path)
    scene["uavs"][0]["range0_m"] = -30.0
    dump_json(scene, scene_path)
    assert main(["pipeline", "--scene", str(scene_path), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "rangesr pipeline: range0_m must be positive, got -30.0\n"
    assert not (tmp_path / "pipeline.json").exists()


@pytest.mark.parametrize(
    "drop, message",
    [
        (("radar",), 'scene lacks its "radar" config'),
        (("radar", "carrier_hz"), "missing RadarConfig key(s): carrier_hz"),
        (("uavs", 0, "range0_m"), "missing UavTruth key(s): range0_m"),
    ],
    ids=["radar", "carrier", "uav_range"],
)
def test_pipeline_rejects_a_scene_missing_a_required_key_with_exit_2(
    tmp_path, scene_path, capsys, drop, message
):
    scene = load_json(scene_path)
    *path, key = drop
    parent = scene
    for step in path:
        parent = parent[step]
    del parent[key]
    dump_json(scene, scene_path)
    assert main(["pipeline", "--scene", str(scene_path), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"rangesr pipeline: {message}\n"
    assert not (tmp_path / "pipeline.json").exists()


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("uavs", 0, "range0_m"), None, "UavTruth.range0_m must not be null"),
        (("uavs", 0, "velocity_mps"), "fast", "UavTruth.velocity_mps cannot be read as float: 'fast'"),
        (("dwell2_s",), None, "Scene.dwell2_s must not be null"),
        (("uavs",), {"range0_m": 30.0}, "Scene.uavs must be a list, got {'range0_m': 30.0}"),
    ],
    ids=["null_range", "text_velocity", "null_dwell", "uavs_object"],
)
def test_pipeline_rejects_a_malformed_field_with_exit_2(
    tmp_path, scene_path, capsys, path, value, message
):
    scene = load_json(scene_path)
    *parents, key = path
    parent = scene
    for step in parents:
        parent = parent[step]
    parent[key] = value
    dump_json(scene, scene_path)
    assert main(["pipeline", "--scene", str(scene_path), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"rangesr pipeline: {message}\n"
    assert not (tmp_path / "pipeline.json").exists()


def test_superres_resolves_two_targets_on_the_table_radar(tmp_path):
    problem = tmp_path / "problem.json"
    truth = [165.0, 166.8]
    dump_json({"ranges_m": truth, "snr_db": 30.0, "seed": 2}, problem)
    code = main(["superres", "--problem", str(problem), "--out-dir", str(tmp_path)])
    assert code == 0
    result = load_json(tmp_path / "superres.json")
    got = sorted(result["ranges_m"])
    assert len(got) == 2
    assert got == pytest.approx(truth, abs=0.3)
    # both targets sit at one angle: the solve keeps one direction
    assert result["rank"] == 1 and result["outer_iters"] >= 1
    assert result["inner_iters"] >= 300 and result["stop_reason"]
    assert result["data_misfit"] <= result["eta"] * (1.0 + 1e-6)


def test_superres_inside_the_noise_ball_reports_no_atoms(tmp_path, monkeypatch):
    # at -15 dB this draw's data norm (129.3) is inside the eta that its
    # noise level, read from the data, gives (134.92)
    solved = []

    def keep_mmv(method, mmv, **kwargs):
        solved.append(mmv)
        return solve_by_name(method, mmv, **kwargs)

    monkeypatch.setattr(cli, "solve_by_name", keep_mmv)
    problem = tmp_path / "problem.json"
    dump_json({"ranges_m": [165.0, 166.8], "snr_db": -15, "seed": 0}, problem)
    code = main(["superres", "--problem", str(problem), "--out-dir", str(tmp_path)])
    assert code == 0
    result = load_json(tmp_path / "superres.json")
    assert result["ranges_m"] == [] and result["powers"] == []
    assert result["eta"] == pytest.approx(134.92, abs=0.01)
    assert result["stop_reason"] == "inside_noise_ball"
    assert result["rank"] == result["outer_iters"] == result["inner_iters"] == 0
    (mmv,) = solved
    assert np.linalg.norm(mmv.data) < result["eta"] == mmv.default_eta()


def test_superres_failed_solve_exits_2_with_one_line(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise SuperResError("band-constrained solve failed: test")

    monkeypatch.setattr(cli, "solve_by_name", fail)
    problem = tmp_path / "problem.json"
    dump_json({"ranges_m": [165.0, 166.8], "snr_db": 30.0}, problem)
    code = main(["superres", "--problem", str(problem), "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "rangesr superres: band-constrained solve failed: test\n"
    assert not (tmp_path / "superres.json").exists()


@pytest.mark.parametrize(
    "key, message",
    [
        ({"band_m": [150.0, 400.0]}, "band too wide for the decimation stride"),
        ({"n_ex": 1}, "n_ex=1 must be in [2, 512]"),
        ({"seed": -2}, "seed must be >= 0, got -2"),
        ({"snr_dB": 0.0, "nex": 16}, "unknown Problem key(s): nex, snr_dB"),
        ({"ranges_m": None}, 'problem needs a non-empty "ranges_m" list'),
        ({"ranges_m": []}, 'problem needs a non-empty "ranges_m" list'),
        # MUSIC's order must leave a noise subspace of the 32 extracted rows;
        # -3 ran with no atoms and 40 was clamped to 31
        ({"n_atoms": -3}, "n_atoms must be in [0, 31] for 32 rows, got -3"),
        ({"n_atoms": 40}, "n_atoms must be in [0, 31] for 32 rows, got 40"),
    ],
    ids=["band_too_wide", "one_row", "negative_seed", "misspelled_keys", "no_ranges",
         "empty_ranges", "negative_order", "order_over_the_rows"],
)
def test_superres_rejects_an_invalid_problem_with_exit_2(tmp_path, capsys, key, message):
    # a key set to None is left out of the problem
    problem = tmp_path / "problem.json"
    given = {"ranges_m": [165.0, 166.8], "snr_db": 30.0, "seed": 2, **key}
    dump_json({k: v for k, v in given.items() if v is not None}, problem)
    code = main(["superres", "--problem", str(problem), "--out-dir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == f"rangesr superres: {message}\n"
    assert not (tmp_path / "superres.json").exists()


@pytest.mark.parametrize(
    "key, message",
    [
        ({"ranges_m": ["abc"]}, "Problem.ranges_m cannot be read as float: 'abc'"),
        ({"band_m": [150.0]}, "band_m must be two ranges [lo, hi], got [150.0]"),
        ({"n_ex": None}, "Problem.n_ex must not be null"),
        ({"n_ex": 16.7}, "Problem.n_ex must be an integer, got 16.7"),
        ({"ranges_m": None}, "Problem.ranges_m must not be null"),
        ({"radar": [1.0]}, "RadarConfig must be a JSON object, got [1.0]"),
    ],
    ids=["text_range", "one_band_edge", "null_n_ex", "fractional_n_ex", "null_ranges",
         "radar_list"],
)
def test_superres_rejects_a_malformed_field_with_exit_2(tmp_path, capsys, key, message):
    problem = tmp_path / "problem.json"
    dump_json({"ranges_m": [165.0, 166.8], "snr_db": 30.0, **key}, problem)
    code = main(["superres", "--problem", str(problem), "--out-dir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == f"rangesr superres: {message}\n"
    assert not (tmp_path / "superres.json").exists()


def test_superres_rejects_a_negative_seed_override_with_exit_2(tmp_path, capsys):
    problem = tmp_path / "problem.json"
    dump_json({"ranges_m": [165.0, 166.8]}, problem)
    code = main(["superres", "--problem", str(problem), "--seed", "-3",
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == "rangesr superres: seed must be >= 0, got -3\n"


@pytest.mark.parametrize("method", ["fsram", "ram"])
def test_superres_rejects_n_atoms_for_the_sdp_methods(tmp_path, monkeypatch, capsys, method):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(cli, "solve_by_name", no_solve)
    problem = tmp_path / "problem.json"
    dump_json({"ranges_m": [165.0, 166.8], "snr_db": 30.0, "n_atoms": 2}, problem)
    code = main(["superres", "--problem", str(problem), "--method", method,
                 "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == (f"rangesr superres: n_atoms is MUSIC's model order; {method} finds its "
                   "own, so drop the key or use --method music\n")
    assert not (tmp_path / "superres.json").exists()


def test_superres_solves_on_the_problems_n_ex_samples(tmp_path, monkeypatch):
    solved = []

    def keep_mmv(method, mmv, **kwargs):
        solved.append(mmv)
        return solve_by_name(method, mmv, **kwargs)

    monkeypatch.setattr(cli, "solve_by_name", keep_mmv)
    problem = tmp_path / "problem.json"
    truth = [165.0, 166.8]
    dump_json({"ranges_m": truth, "snr_db": 30.0, "seed": 2, "n_ex": 16}, problem)
    assert main(["superres", "--problem", str(problem), "--out-dir", str(tmp_path)]) == 0
    (mmv,) = solved
    # 16 of the table radar's 512 fast-time samples, every 32nd
    assert (mmv.n_samples, mmv.step) == (16, 32)
    got = sorted(load_json(tmp_path / "superres.json")["ranges_m"])
    assert len(got) == 2 and got == pytest.approx(truth, abs=0.3)


def test_superres_hands_n_atoms_to_music(tmp_path, monkeypatch):
    orders = []

    def keep_order(method, mmv, n_sources=None):
        orders.append(n_sources)
        return solve_by_name(method, mmv, n_sources=n_sources)

    monkeypatch.setattr(cli, "solve_by_name", keep_order)
    problem = tmp_path / "problem.json"
    dump_json({"ranges_m": [165.0, 166.8], "snr_db": 30.0, "seed": 2, "n_atoms": 2}, problem)
    code = main(["superres", "--problem", str(problem), "--method", "music",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    assert orders == [2]
    result = load_json(tmp_path / "superres.json")
    assert result["method"] == "music" and len(result["ranges_m"]) == 2


def test_pipeline_rejects_a_negative_seed_with_exit_2(tmp_path, scene_path, capsys):
    code = main(["pipeline", "--scene", str(scene_path), "--seed", "-1",
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == "rangesr pipeline: seed must be >= 0, got -1\n"
    assert not (tmp_path / "pipeline.json").exists()


@pytest.mark.parametrize(
    "spec, seed, message",
    [
        ({"trials": 0}, None, "trials must be >= 1"),
        ({}, "-1", "seed_base must be >= 0, got -1"),
        ({"k_value": [2]}, None, "unknown GridSpec key(s): k_value"),
        # the trial window, velocity and draw budget are fixed, not spec fields
        ({"max_draws": 50}, None, "unknown GridSpec key(s): max_draws"),
        # an empty axis leaves no cell: it ran every trial and exited 0
        ({"k_values": []}, None, "k_values must not be empty"),
        ({"delta_ratios": []}, None, "delta_ratios must not be empty"),
        ({"snr_values_db": []}, None, "snr_values_db must not be empty"),
        # extraction reads 2 to 512 rows of the default radar's 512: refused
        # with the spec, not in the first trial's stare
        ({"n_ex": 1}, None, "n_ex=1 must be in [2, 512]"),
    ],
    ids=["no_trials", "negative_seed", "misspelled_key", "fixed_trial_scene_key",
         "no_k", "no_spacing", "no_snr", "bad_n_ex"],
)
def test_bench_rejects_an_invalid_spec_with_exit_2(tmp_path, capsys, spec, seed, message):
    path = tmp_path / "spec.json"
    dump_json(spec, path)
    out = tmp_path / "out"
    argv = ["compare", "--spec", str(path), "--methods", "fsram", "--out-dir", str(out)]
    assert main(argv + (["--seed", seed] if seed else [])) == 2
    assert capsys.readouterr().err == f"rangesr compare: {message}\n"
    assert not out.exists()


def test_compare_rejects_an_unknown_method_before_any_grid_runs(
    tmp_path, monkeypatch, capsys
):
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(bench, "_prepare_trial", no_trial)
    spec = tmp_path / "spec.json"
    dump_json(to_json(GridSpec(k_values=(1,), delta_ratios=(0.5,), trials=1)), spec)
    code = main(["compare", "--spec", str(spec), "--methods", "fsram,esprit",
                 "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "rangesr compare: unknown method 'esprit'; choose from fsram,ram,music\n"
    assert not (tmp_path / "compare.json").exists()


@pytest.mark.parametrize(
    "case",
    ["compare_twice", "compare_unknown", "superres_off_band", "pipeline_far_uav"],
)
def test_a_refused_or_failed_command_leaves_no_out_dir(tmp_path, scene_path, capsys, case):
    # each fails after its input decodes: a repeated or unknown method, a
    # solve whose band misses both targets, a UAV whose beat frequency (46.9
    # cycles per sample at 9 km) the synthesis refuses
    spec, problem = tmp_path / "spec.json", tmp_path / "problem.json"
    dump_json(to_json(GridSpec(k_values=(1,), delta_ratios=(0.5,), trials=1)), spec)
    dump_json({"ranges_m": [165.0, 166.8], "band_m": [150.0, 155.0], "snr_db": 30.0,
               "seed": 2}, problem)
    scene = load_json(scene_path)
    scene["uavs"][0]["range0_m"] = 9000.0
    dump_json(scene, scene_path)
    argv = {
        "compare_twice": ["compare", "--spec", str(spec), "--methods", "fsram,fsram"],
        "compare_unknown": ["compare", "--spec", str(spec), "--methods", "esprit"],
        "superres_off_band": ["superres", "--problem", str(problem)],
        "pipeline_far_uav": ["pipeline", "--scene", str(scene_path)],
    }[case]
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"rangesr {argv[0]}: ")
    assert not out.exists()


def _strict_json(path):
    """The file's JSON, which may not hold NaN or infinity."""

    def reject(name):
        raise ValueError(f"{path.name} holds {name}")

    return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)


def test_bench_and_compare_write_their_grids(tmp_path, admm_budget):
    # the grid tests' light budget: one K=1 cell is solved far inside 0.1 cell
    admm_budget(_MAX_OUTER=2, _INNER_ITERS_FIRST=150, _INNER_ITERS=100)
    spec = tmp_path / "spec.json"
    dump_json(to_json(GridSpec(k_values=(1,), delta_ratios=(0.5,), snr_values_db=(10.0,),
                               trials=1, n_slow=64, seed_base=5)), spec)
    out = tmp_path / "fsram"
    assert main(["compare", "--spec", str(spec), "--methods", "fsram", "--out-dir", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "bench_fsram.csv", "bench_fsram.json", "compare.json"]
    grid = _strict_json(out / "bench_fsram.json")
    assert grid["method"] == "fsram" and grid["trials_run"] == [[[1]]]
    assert (out / "bench_fsram.csv").read_text().splitlines()[1].startswith("fsram,1,0.500,10.0,1,")
    assert list(_strict_json(out / "compare.json")["methods"]) == ["fsram"]

    out = tmp_path / "all"
    assert main(["compare", "--spec", str(spec), "--out-dir", str(out)]) == 0
    summary = _strict_json(out / "compare.json")["methods"]
    assert set(summary) == set(bench.METHODS)
    assert {m["truth_hash"] for m in summary.values()} == {grid["truth_hash"]}
    # the shared pass gives fsram the grid its own run gave
    assert _strict_json(out / "bench_fsram.json") == grid
    for name, method in summary.items():
        assert 0.0 <= method["mean_rates_by_snr"]["10"] <= 1.0
        assert _strict_json(out / f"bench_{name}.json")["truth_hash"] == grid["truth_hash"]
        rows = (out / f"bench_{name}.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[1].startswith(f"{name},1,0.500,10.0,1,")


def test_compare_without_a_feasible_cell_writes_valid_json(tmp_path):
    # four targets cannot keep a one-cell spacing inside the two-cell window
    spec = tmp_path / "spec.json"
    dump_json({"k_values": [4], "delta_ratios": [1.0], "snr_values_db": [10.0],
               "trials": 1, "n_slow": 64}, spec)
    assert main(["compare", "--spec", str(spec), "--out-dir", str(tmp_path)]) == 2
    summary = _strict_json(tmp_path / "compare.json")
    for method in summary["methods"].values():
        assert method["mean_rates_by_snr"] == {"10": -1.0}
