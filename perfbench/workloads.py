"""The benchmark's workloads: inputs, one round of timed calls, and scoring.

Every workload's inputs are fixed, so each run attempts the same operations
and its accuracy figures repeat exactly between runs; a change in them comes
from the program. The seed is recorded and changes nothing (README.md says
why).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from rangesr import bench, pipeline

import checks

# the ROADMAP's fixed Monte Carlo grid, one trial per cell and round
GRID = {
    "k_values": (2, 3),
    "delta_ratios": (0.3, 0.5, 0.8),
    "snr_values_db": (0.0, 10.0),
    "trials": 1,
    "n_slow": 64,
    "seed_base": 0,
}
N_EX = 32  # decimated samples per solve, the program's default


@dataclass
class Score:
    attempted: int = 0
    failed: int = 0
    errors_m: list = field(default_factory=list)   # range errors of answered truths
    resolved: int = 0
    problems: list = field(default_factory=list)


class SceneClean:
    """`run_full` with fsram on the noise-free exp1 and exp2 scenes."""

    def __init__(self):
        self.scenes = (pipeline.make_exp1_scene(), pipeline.make_exp2_scene())

    def run_round(self, rec) -> tuple[float, list]:
        wall, results = 0.0, []
        for scene in self.scenes:
            with rec.span("workload"):
                t0 = time.perf_counter()
                results.append(pipeline.run_full(scene, method="fsram", n_ex=N_EX))
                wall += time.perf_counter() - t0
        return wall, results

    def score(self, rounds: list, cap) -> Score:
        sc = Score()
        for scene in self.scenes:
            sc.problems += checks.scene_truth_problems(scene.name, scene.step2_truths())
        for results in rounds:
            for res in results:
                sc.attempted += 1
                name = res.scene.name
                loc = res.localization
                if loc is None or len(loc.estimates) < len(checks.PAPER_TABLES[name]):
                    sc.failed += 1
                    sc.problems.append(f"{name}: fewer estimates than UAVs")
                    continue
                errors, problems = checks.match_scene(name, loc.estimates)
                sc.errors_m += errors
                sc.resolved += sum(abs(e) < checks.RESOLVED_M for e in errors)
                sc.problems += problems
                sc.problems += checks.estimate_band_problems(
                    name, loc.estimates, loc.group_reports, N_EX)
        sc.problems += _certificate_problems(cap)
        sc.problems += _repeat_problems(
            [[tuple(e.range_m for e in r.localization.estimates) if r.localization else ()
              for r in results] for results in rounds])
        return sc


class Grid:
    """`run_success_grid` over the fixed grid with one solver."""

    def __init__(self, method: str):
        self.method = method
        self.spec = bench.GridSpec(**GRID)

    def run_round(self, rec) -> tuple[float, object]:
        with rec.span("workload"):
            t0 = time.perf_counter()
            grid = bench.run_success_grid(self.spec, self.method)
            wall = time.perf_counter() - t0
        return wall, grid

    def score(self, rounds: list, cap) -> Score:
        spec, sc = self.spec, Score()
        draws = checks.grid_draws(spec.seed_base, spec.k_values, spec.delta_ratios, spec.trials)
        want_hash = checks.draws_hash(draws)
        per_round = len(draws) * len(spec.snr_values_db)
        if len(cap.trials) != per_round * len(rounds):
            sc.problems.append(
                f"captured {len(cap.trials)} trials, expected {per_round * len(rounds)}")
            return sc
        for r, grid in enumerate(rounds):
            if grid.truth_hash != want_hash:
                sc.problems.append(f"truth_hash {grid.truth_hash} != recomputed {want_hash}")
            trials = iter(cap.trials[r * per_round:(r + 1) * per_round])
            recount = np.zeros_like(grid.successes)
            for (k, delta, trial), truth in draws.items():
                ik, idx = spec.k_values.index(k), spec.delta_ratios.index(delta)
                for js, snr in enumerate(spec.snr_values_db):
                    t = next(trials)
                    sc.attempted += 1
                    if not np.array_equal(t["truth"], truth) or t["snr_db"] != snr:
                        sc.problems.append(f"trial K={k} delta={delta} #{trial} at {snr} dB: "
                                           "truth draw differs from the recomputed one")
                    errors = (checks.assigned_errors(truth, checks.top_ranges(t["solves"][-1], k))
                              if t["solves"] else None)
                    if errors is None:
                        sc.failed += 1
                        if math.isfinite(t["rms"]):
                            sc.problems.append("program scored a trial that returned no ranges")
                        continue
                    rms = float(np.sqrt(np.mean(errors ** 2)))
                    if not math.isclose(rms, t["rms"], rel_tol=1e-9, abs_tol=1e-12):
                        sc.problems.append(f"trial RMS {t['rms']} != recomputed {rms}")
                    sc.errors_m += list(errors)
                    if rms < checks.RESOLVED_M:
                        sc.resolved += 1
                        recount[ik, idx, js] += 1
                    if self.method == "fsram":
                        sc.problems += checks.atom_band_problems(t["solves"][-1], k)
            if not np.array_equal(recount, grid.successes):
                sc.problems.append(
                    f"successes {grid.successes.tolist()} != recount {recount.tolist()}")
            if not np.all(grid.trials_run == spec.trials):
                sc.problems.append(f"trials_run {grid.trials_run.tolist()} != {spec.trials}")
        sc.problems += _certificate_problems(cap)
        sc.problems += _repeat_problems([[g.successes.tolist()] for g in rounds])
        return sc


def _certificate_problems(cap) -> list[str]:
    return [p for c in cap.sdp for p in checks.certificate_problems(c)]


def _repeat_problems(per_round: list) -> list[str]:
    """Rounds repeat identical inputs, so their outputs must be identical."""
    if any(r != per_round[0] for r in per_round[1:]):
        return ["rounds on identical inputs gave different outputs"]
    return []


WORKLOADS = {
    "scene_clean": SceneClean,
    "grid_fsram": lambda: Grid("fsram"),
    "grid_ram": lambda: Grid("ram"),
}
