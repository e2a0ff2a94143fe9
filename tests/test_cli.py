"""Smoke tests of the command-line front end on small inputs."""

import json

import numpy as np
import pytest

from rangesr import cli
from rangesr.cli import main
from rangesr.config import UavTruth, dump_json, load_json, make_radar_config
from rangesr.cube import load_cube
from rangesr.pipeline import Scene, scene_to_dict
from rangesr.superres import SuperResError


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


@pytest.mark.parametrize("step, n_slow", [(1, 32), (2, 64)])
def test_synth_writes_the_dwell_cube(tmp_path, scene_path, step, n_slow):
    out = tmp_path / "out"
    code = main(["synth", "--scene", str(scene_path), "--step", str(step), "--out-dir", str(out)])
    assert code == 0
    cube = load_cube(out / f"cube_step{step}.json")
    # the chirp count follows the pipeline's rule: rounded, then made even
    assert cube.data.shape == (64, n_slow, 4)
    assert cube.axis2_kind == "element"


def test_synth_rejects_a_dwell_shorter_than_half_a_chirp(tmp_path, scene_path):
    scene = load_json(scene_path)
    scene["dwell1_s"] = 0.4 * scene["radar"]["chirp_s"]
    dump_json(scene, scene_path)
    with pytest.raises(ValueError, match="shorter than one chirp"):
        main(["synth", "--scene", str(scene_path), "--out-dir", str(tmp_path)])


def test_superres_resolves_two_targets_on_the_table_radar(tmp_path):
    problem = tmp_path / "problem.json"
    truth = [165.0, 166.8]
    dump_json({"ranges_m": truth, "snr_db": 30.0, "seed": 2}, problem)
    code = main(["superres", "--problem", str(problem), "--out-dir", str(tmp_path)])
    assert code == 0
    result = load_json(tmp_path / "superres.json")
    assert result["feasible"]
    got = sorted(result["ranges_m"])
    assert len(got) == 2
    assert got == pytest.approx(truth, abs=0.3)


def test_superres_inside_the_noise_ball_reports_no_atoms(tmp_path):
    # at -15 dB this draw's data norm (129.3) is inside eta (132.75)
    problem = tmp_path / "problem.json"
    dump_json({"ranges_m": [165.0, 166.8], "snr_db": -15, "seed": 0}, problem)
    code = main(["superres", "--problem", str(problem), "--out-dir", str(tmp_path)])
    assert code == 0
    result = load_json(tmp_path / "superres.json")
    assert result["ranges_m"] == [] and result["powers"] == []
    assert result["eta"] == pytest.approx(132.75, abs=0.01)


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


def test_chain_synth_beamform_integrate_detect(tmp_path, scene_path, capsys):
    out = tmp_path / "out"

    def run(*argv, out_dir=out):
        return main([*map(str, argv), "--out-dir", str(out_dir)])

    assert run("synth", "--scene", scene_path, "--step", "2") == 0
    # the message names the files that were written
    stem = capsys.readouterr().out.split()[1].removesuffix(".json/.bin")
    assert (out / "cube_step2.json").samefile(stem + ".json")
    assert (out / "cube_step2.bin").samefile(stem + ".bin")

    assert run("beamform", "--cube", out / "cube_step2.json") == 0
    beams = load_cube(out / "cube_beams.json")
    assert beams.axis2_kind == "beam" and beams.data.shape == (64, 64, 8)

    assert run("integrate", "--cube", out / "cube_beams.json", out_dir=out / "fast") == 0
    assert run("integrate", "--cube", out / "cube_beams.json", "--direct",
               out_dir=out / "direct") == 0
    fast = load_cube(out / "fast" / "cube_rda.json").data
    direct = load_cube(out / "direct" / "cube_rda.json").data
    assert fast.shape == (64, 64, 8)
    # the oracle tolerance of the keystone tests, after a float32 round trip
    assert np.max(np.abs(fast - direct)) / np.max(np.abs(direct)) < 1e-9

    capsys.readouterr()
    assert run("detect", "--cube", out / "fast" / "cube_rda.json") == 0
    assert "detections" in capsys.readouterr().out
    lines = (out / "detections.jsonl").read_text().splitlines()
    top = json.loads(lines[0])   # sorted by falling power
    # 2 m/s is a tenth of a Doppler cell at 64 chirps
    assert top["doppler_bin"] == 0
    assert top["refined_range_m"] == pytest.approx(30.0, abs=1.5)
