"""Command-line front end: `superres`, `pipeline` and `compare`.

Each command reads JSON configuration, writes JSON/CSV artifacts into --out-dir
(made just before the first write, so a command refused or failed before it
leaves no directory) and exits 0, or 2 on a problem without an answer (a band
too wide for the decimation stride or a failed solve; `superres`), no
estimate (`pipeline`), an infeasible cell (`compare`). Any command also exits
2 on an input that violates a configuration contract (`ConfigError`: an
unknown JSON key, a missing required key such as a scene's "radar" or a UAV's
"range0_m", a null in a field that is not optional, a value its field's type
cannot take, a NaN or infinity in a number field (a null "snr_db" is
noise-free), an empty "ranges_m", a "band_m" that is not two ranges, a
negative seed among them, an `n_atoms` key given to fsram or ram, which find
their own order, or an unknown or repeated method), printing
`rangesr <command>: <message>` on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .bench import METHODS, GridSpec, compare_methods
from .config import ConfigError, RadarConfig, UavTruth, dump_json, from_json, load_json, to_json
from .pipeline import run_full, scene_from_dict, table_radar_config
from .superres import ExtractionRows, FreqBand, SuperResError, extract_mmv, solve_by_name
from .synth import add_noise, synth_beat_cube


@dataclasses.dataclass(frozen=True)
class Problem:
    """A `superres` problem file; absent radar and band mean the table radar
    and the targets' span padded by a range cell."""

    ranges_m: tuple[float, ...] = ()
    radar: RadarConfig | None = None
    band_m: tuple[float, ...] | None = None
    n_atoms: int | None = None
    n_ex: int = 32
    n_slow: int = 1
    seed: int = 0
    snr_db: float | None = None

    def __post_init__(self) -> None:
        if not self.ranges_m:
            raise ConfigError("problem needs a non-empty \"ranges_m\" list")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.band_m is not None and len(self.band_m) != 2:
            raise ConfigError(f"band_m must be two ranges [lo, hi], got {list(self.band_m)}")
        if self.n_atoms is not None and not 0 <= self.n_atoms < self.n_ex:
            raise ConfigError(
                f"n_atoms must be in [0, {self.n_ex - 1}] for {self.n_ex} rows, "
                f"got {self.n_atoms}"
            )


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_scene(args):
    scene = scene_from_dict(load_json(args.scene))
    if args.seed is not None:
        scene = dataclasses.replace(scene, seed=args.seed)
    return scene


def _load_spec(args) -> GridSpec:
    spec = from_json(GridSpec, load_json(args.spec))
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed_base=args.seed)
    return spec


def _cmd_superres(args) -> int:
    problem = from_json(Problem, load_json(args.problem))
    if args.seed is not None:
        problem = dataclasses.replace(problem, seed=args.seed)
    if problem.n_atoms is not None and args.method != "music":
        raise ConfigError(
            f"n_atoms is MUSIC's model order; {args.method} finds its own, "
            "so drop the key or use --method music"
        )
    cfg = problem.radar or table_radar_config()
    rng = np.random.default_rng(problem.seed)
    truths = tuple(
        UavTruth(range0_m=r, amplitude=complex(np.exp(2j * np.pi * rng.random())))
        for r in problem.ranges_m
    )
    cube = synth_beat_cube(cfg, truths, n_slow=problem.n_slow)
    cube = add_noise(cube, problem.snr_db, rng_seed=problem.seed + 1)
    pad = cfg.range_res_m
    lo_m, hi_m = problem.band_m or (min(problem.ranges_m) - pad, max(problem.ranges_m) + pad)
    band = FreqBand(cfg.beat_freq(lo_m), cfg.beat_freq(hi_m))
    rows = ExtractionRows.of(cube, problem.n_ex)
    try:
        mmv = extract_mmv(rows, doppler_bin=0.0, band=band)
        result = solve_by_name(args.method, mmv, n_sources=problem.n_atoms)
    except SuperResError as err:
        print(f"rangesr superres: {err}", file=sys.stderr)
        return 2
    out = _out_dir(args)
    dump_json(result.to_dict(), out / "superres.json")
    print(f"wrote {out / 'superres.json'} atoms={result.n_atoms}")
    return 0


def _cmd_pipeline(args) -> int:
    scene = _load_scene(args)
    result = run_full(scene, method=args.method)
    out = _out_dir(args)
    dump_json(result.to_dict(), out / "pipeline.json")
    if result.step2 is not None:
        with open(out / "detections.jsonl", "w", encoding="utf-8") as fh:
            for det in result.step2.detections:
                fh.write(json.dumps(to_json(det), sort_keys=True) + "\n")
    print(f"wrote {out / 'pipeline.json'}")
    if result.localization is None or not result.localization.estimates:
        return 2
    return 0


def _cmd_compare(args) -> int:
    spec = _load_spec(args)
    grids = compare_methods(spec, methods=tuple(args.methods.split(",")))
    out = _out_dir(args)
    summary = {"spec": to_json(spec), "methods": {}}
    for name, grid in grids.items():
        grid.write_csv(out / f"bench_{name}.csv")
        dump_json(grid.to_dict(), out / f"bench_{name}.json")
        summary["methods"][name] = {
            # -1.0 marks an SNR without a feasible cell, as in `SuccessGrid.to_dict`
            "mean_rates_by_snr": {
                f"{snr:g}": float(np.nan_to_num(grid.mean_rate(snr), nan=-1.0))
                for snr in spec.snr_values_db
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

    p = sub.add_parser("superres", help="solve a within-cell recovery problem")
    p.add_argument("--problem", required=True)
    common(p, method=True)
    p.set_defaults(func=_cmd_superres)

    p = sub.add_parser("pipeline", help="run the three-step pipeline on a scene")
    p.add_argument("--scene", required=True)
    common(p, method=True)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("compare", help="Monte Carlo success-rate grids on identical draws")
    p.add_argument("--spec", required=True)
    p.add_argument("--methods", default=",".join(METHODS), help="comma-separated solvers")
    common(p)
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"rangesr {args.command}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
