"""Command-line front end.

Subcommands mirror the processing chain: `synth`, `beamform`, `integrate`,
`detect`, `superres`, `pipeline`, `bench`, `compare`. Every command reads
JSON configuration, writes JSON/CSV artifacts into --out-dir, and exits 0 on
success or 2 on infeasible/diagnostic outcomes (no detections, infeasible
solve, empty pipeline result, infeasible benchmark cells).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .beamform import beamform_cube, default_grid
from .bench import METHODS, compare_methods, grid_spec_from_dict, run_success_grid
from .cfar import CfarSettings, ca_cfar
from .config import dump_json, load_json, config_from_dict, UavTruth
from .cube import export_magnitude_csv, load_cube, save_cube
from .integrate import integrate_cube
from .pipeline import (
    _n_chirps,
    run_full,
    scene_from_dict,
    table_radar_config,
    write_range_walk_csv,
)
from .superres import FreqBand, SuperResError, extract_mmv, solve_by_name
from .synth import add_noise, noise_sigma, synth_beat_cube


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_scene(args):
    scene = scene_from_dict(load_json(args.scene))
    if args.seed is not None:
        scene = dataclasses.replace(scene, seed=int(args.seed))
    return scene


def _cmd_synth(args) -> int:
    scene = _load_scene(args)
    out = _out_dir(args)
    cfg = scene.config
    if args.step == 1:
        truths, dwell, seed = scene.uavs, scene.dwell1_s, scene.seed * 10 + 1
    else:
        truths, dwell, seed = scene.step2_truths(), scene.dwell2_s, scene.seed * 10 + 2
    cube = synth_beat_cube(cfg, truths, _n_chirps(dwell, cfg.chirp_s))
    cube = add_noise(cube, scene.snr_db, rng_seed=seed)
    save_cube(cube, out / f"cube_step{args.step}.json")
    print(f"wrote {out / f'cube_step{args.step}'}.json/.bin shape={cube.data.shape}")
    return 0


def _cmd_beamform(args) -> int:
    cube = load_cube(args.cube)
    out = _out_dir(args)
    grid = default_grid(cube.config, args.beams)
    beams = beamform_cube(cube, grid)
    save_cube(beams, out / "cube_beams.json")
    print(f"wrote {out / 'cube_beams'}.json/.bin beams={len(grid.angles_rad)}")
    return 0


def _cmd_integrate(args) -> int:
    cube = load_cube(args.cube)
    out = _out_dir(args)
    rda = integrate_cube(cube, fast=not args.direct)
    save_cube(rda, out / "cube_rda.json")
    if args.csv:
        export_magnitude_csv(rda, out / "rda_beam0.csv", beam=0)
    if args.walk_csv:
        write_range_walk_csv(cube, out / "range_walk.csv", beam=0)
    print(f"wrote {out / 'cube_rda'}.json/.bin")
    return 0


def _cmd_detect(args) -> int:
    rda = load_cube(args.cube)
    out = _out_dir(args)
    settings = CfarSettings(
        train_cells=args.train, guard_cells=args.guard, pfa=args.pfa
    )
    detections = ca_cfar(rda, settings)
    path = out / "detections.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for det in detections:
            fh.write(json.dumps(det.to_dict(), sort_keys=True) + "\n")
    print(f"wrote {path} ({len(detections)} detections)")
    return 0 if detections else 2


def _cmd_superres(args) -> int:
    problem = load_json(args.problem)
    out = _out_dir(args)
    cfg = config_from_dict(problem["radar"]) if "radar" in problem else table_radar_config()
    ranges = [float(r) for r in problem["ranges_m"]]
    seed = int(args.seed if args.seed is not None else problem.get("seed", 0))
    rng = np.random.default_rng(seed)
    truths = tuple(
        UavTruth(
            range0_m=r,
            velocity_mps=0.0,
            angle_rad=0.0,
            amplitude=complex(np.exp(2j * np.pi * rng.random())),
        )
        for r in ranges
    )
    cube = synth_beat_cube(cfg, truths, n_slow=int(problem.get("n_slow", 1)))
    snr_db = problem.get("snr_db")
    cube = add_noise(cube, snr_db, rng_seed=seed + 1)
    sigma = 0.0 if snr_db is None else noise_sigma(float(snr_db))
    if "band_m" in problem:
        lo_m, hi_m = problem["band_m"]
    else:
        lo_m = min(ranges) - cfg.range_res_m
        hi_m = max(ranges) + cfg.range_res_m
    band = FreqBand(cfg.beat_freq(lo_m), cfg.beat_freq(hi_m))
    mmv = extract_mmv(
        cube,
        doppler_bin=0.0,
        band=band,
        n_ex=int(problem.get("n_ex", 32)),
        noise_sigma=sigma,
    )
    try:
        result = solve_by_name(args.method, mmv, n_atoms=problem.get("n_atoms"))
    except SuperResError as err:
        print(f"rangesr superres: {err}", file=sys.stderr)
        return 2
    dump_json(result.to_dict(), out / "superres.json")
    print(f"wrote {out / 'superres.json'} atoms={result.n_atoms}")
    return 0


def _cmd_pipeline(args) -> int:
    scene = _load_scene(args)
    out = _out_dir(args)
    result = run_full(scene, method=args.method)
    dump_json(result.to_dict(), out / "pipeline.json")
    if result.step2 is not None:
        with open(out / "detections.jsonl", "w", encoding="utf-8") as fh:
            for det in result.step2.detections:
                fh.write(json.dumps(det.to_dict(), sort_keys=True) + "\n")
    print(f"wrote {out / 'pipeline.json'}")
    if result.localization is None or not result.localization.estimates:
        return 2
    return 0


def _cmd_bench(args) -> int:
    spec = grid_spec_from_dict(load_json(args.spec))
    if args.seed is not None:
        spec = grid_spec_from_dict({**spec.to_dict(), "seed_base": int(args.seed)})
    out = _out_dir(args)
    grid = run_success_grid(spec, method=args.method)
    grid.write_csv(out / f"bench_{args.method}.csv")
    dump_json(grid.to_dict(), out / f"bench_{args.method}.json")
    print(f"wrote {out / f'bench_{args.method}.csv'}")
    return 2 if grid.infeasible.any() else 0


def _cmd_compare(args) -> int:
    spec = grid_spec_from_dict(load_json(args.spec))
    if args.seed is not None:
        spec = grid_spec_from_dict({**spec.to_dict(), "seed_base": int(args.seed)})
    out = _out_dir(args)
    methods = tuple(args.methods.split(","))
    grids = compare_methods(spec, methods=methods)
    summary = {"spec": spec.to_dict(), "methods": {}}
    for name, grid in grids.items():
        grid.write_csv(out / f"bench_{name}.csv")
        summary["methods"][name] = {
            "mean_rates_by_snr": {
                f"{snr:g}": float(np.nanmean(grid.rates[:, :, js]))
                for js, snr in enumerate(spec.snr_values_db)
            },
            "truth_hash": grid.truth_hash,
        }
    dump_json(summary, out / "compare.json")
    print(f"wrote {out / 'compare.json'}")
    infeasible = any(g.infeasible.any() for g in grids.values())
    return 2 if infeasible else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rangesr",
        description="Radar range super-resolution toolkit (synthesis to benchmark).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, method=False):
        p.add_argument("--out-dir", default=".", help="artifact directory")
        p.add_argument("--seed", type=int, default=None, help="override seed")
        if method:
            p.add_argument(
                "--method", default="fsram", choices=METHODS, help="solver"
            )

    p = sub.add_parser("synth", help="synthesize a beat-signal cube from a scene")
    p.add_argument("--scene", required=True)
    p.add_argument("--step", type=int, default=1, choices=(1, 2))
    common(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("beamform", help="element cube -> beam cube")
    p.add_argument("--cube", required=True)
    p.add_argument("--beams", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_beamform)

    p = sub.add_parser("integrate", help="keystone long-time integration")
    p.add_argument("--cube", required=True)
    p.add_argument("--direct", action="store_true", help="O(M^2) oracle path")
    p.add_argument("--csv", action="store_true", help="emit RD magnitude CSV")
    p.add_argument(
        "--walk-csv", action="store_true", help="emit per-chirp range walk CSV"
    )
    common(p)
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("detect", help="CA-CFAR on a range-Doppler cube")
    p.add_argument("--cube", required=True)
    p.add_argument("--pfa", type=float, default=1e-4)
    p.add_argument("--train", type=int, default=8)
    p.add_argument("--guard", type=int, default=2)
    common(p)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("superres", help="solve a within-cell recovery problem")
    p.add_argument("--problem", required=True)
    common(p, method=True)
    p.set_defaults(func=_cmd_superres)

    p = sub.add_parser("pipeline", help="run the three-step pipeline on a scene")
    p.add_argument("--scene", required=True)
    common(p, method=True)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("bench", help="Monte Carlo success-rate grid")
    p.add_argument("--spec", required=True)
    common(p, method=True)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("compare", help="run all methods on identical draws")
    p.add_argument("--spec", required=True)
    p.add_argument("--methods", default="fsram,ram,music")
    common(p)
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
