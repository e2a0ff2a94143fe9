"""Each correctness check passes on right outputs and fails on wrong ones."""

import itertools

import numpy as np
import pytest

import checks
import layers
import tracer
import workloads
from rangesr import bench
from rangesr.pipeline import UavEstimate, make_exp1_scene, make_exp2_scene
from rangesr.sdp import SdpDiagnostics, band_coefficients, band_matrix_from_u


def _estimates(name, shift_m=0.0, drop=None):
    out = []
    for i, (r, v) in enumerate(checks.PAPER_TABLES[name]):
        if i == drop:
            continue
        out.append(UavEstimate(range_m=r + (shift_m if i == 0 else 0.0), velocity_mps=v,
                               angle_rad=0.2, power=1.0, step="step3", group_index=0))
    # a sidelobe ghost far from every truth changes nothing
    out.append(UavEstimate(range_m=150.0, velocity_mps=40.0, angle_rad=0.2, power=1e-6,
                           step="step2", group_index=1))
    return out


@pytest.mark.parametrize("name", ["exp1", "exp2"])
def test_scene_match_accepts_the_tables(name):
    errors, problems = checks.match_scene(name, _estimates(name))
    assert problems == []
    assert errors == [0.0] * len(checks.PAPER_TABLES[name])


@pytest.mark.parametrize("name", ["exp1", "exp2"])
def test_scene_match_flags_a_shifted_estimate(name):
    _, problems = checks.match_scene(name, _estimates(name, shift_m=0.5))
    assert len(problems) == 1


@pytest.mark.parametrize("name", ["exp1", "exp2"])
def test_scene_match_flags_a_dropped_uav(name):
    _, problems = checks.match_scene(name, _estimates(name, drop=1))
    assert len(problems) == 1


def test_scene_match_pairs_one_estimate_per_uav():
    # exp2 has two UAVs at 168.0 m; one estimate cannot answer both
    ests = [e for e in _estimates("exp2") if e.velocity_mps != 44.01]
    ests.append(UavEstimate(range_m=168.0, velocity_mps=44.05, angle_rad=0.2, power=1.0,
                            step="step3", group_index=0))
    _, problems = checks.match_scene("exp2", ests)
    assert len(problems) == 1


def test_scene_factories_hold_the_paper_tables():
    assert checks.scene_truth_problems("exp1", make_exp1_scene().step2_truths()) == []
    assert checks.scene_truth_problems("exp2", make_exp2_scene().step2_truths()) == []
    assert checks.scene_truth_problems("exp2", make_exp1_scene().step2_truths())


def test_estimate_band_check():
    cell_f = 1.0 / checks.N_FAST
    reports = [{"band": [56 * cell_f, 59 * cell_f]}]
    inside = UavEstimate(range_m=57.5 * checks.CELL_M, velocity_mps=44.0, angle_rad=0.0,
                         power=1.0, step="step3", group_index=0)
    outside = UavEstimate(range_m=61.0 * checks.CELL_M, velocity_mps=44.0, angle_rad=0.0,
                          power=1.0, step="step3", group_index=0)
    assert checks.estimate_band_problems("exp1", [inside], reports, 32) == []
    assert len(checks.estimate_band_problems("exp1", [inside, outside], reports, 32)) == 1


def test_grid_draws_match_the_program():
    spec = bench.GridSpec(k_values=(2, 3), delta_ratios=(0.3, 0.8), trials=2, n_slow=8)
    draws = checks.grid_draws(spec.seed_base, spec.k_values, spec.delta_ratios, spec.trials)
    assert len(draws) == 8
    for (k, delta, trial), ranges in draws.items():
        np.testing.assert_array_equal(
            ranges, bench._prepare_trial(spec, k, delta, trial).truth_ranges)


def test_assigned_errors_match_brute_force():
    rng = np.random.default_rng(3)
    truth, rec = rng.normal(size=3), rng.normal(size=4)
    best = min(
        np.mean((truth - rec[list(p)]) ** 2) for p in itertools.permutations(range(4), 3)
    )
    errors = checks.assigned_errors(truth, rec)
    assert np.mean(errors ** 2) == pytest.approx(best)
    assert checks.assigned_errors(truth, rec[:2]) is None


def _small_grid(method="music"):
    """A grid round small enough for a unit test (MUSIC needs no SDP)."""
    g = workloads.Grid(method)
    g.spec = bench.GridSpec(k_values=(2,), delta_ratios=(0.8,), snr_values_db=(10.0,),
                            trials=2, n_slow=64)
    rec, cap = tracer.Recorder(timed=False), layers.Captures()
    with layers.installed(rec, cap, trace=False):
        _, grid = g.run_round(rec)
    return g, grid, cap


def test_grid_score_recounts_and_checks_the_hash():
    g, grid, cap = _small_grid()
    sc = g.score([grid], cap)
    assert sc.problems == []
    assert sc.attempted == 2 and sc.failed == 0
    assert sc.resolved == int(grid.successes.sum())


def test_grid_score_flags_a_mismatched_hash():
    g, grid, cap = _small_grid()
    grid.truth_hash = "0" * 64
    assert any("truth_hash" in p for p in g.score([grid], cap).problems)


def test_grid_score_flags_a_mismatched_draw():
    g, grid, cap = _small_grid()
    cap.trials[1]["truth"] = cap.trials[1]["truth"] + 1e-6
    assert any("truth draw" in p for p in g.score([grid], cap).problems)


def test_grid_score_flags_a_shifted_estimate():
    g, grid, cap = _small_grid()
    solve = cap.trials[0]["solves"][-1]
    solve["ranges_m"] = solve["ranges_m"] + 0.5
    assert any("RMS" in p for p in g.score([grid], cap).problems)


def test_grid_score_counts_a_trial_without_ranges_as_failed():
    g, grid, cap = _small_grid()
    cap.trials[0]["solves"] = []
    sc = g.score([grid], cap)
    assert sc.failed == 1 and sc.attempted == 2


def _certificate(freqs, band, misfit=0.0, feasible=True):
    n = 16
    d = np.arange(n)
    u = sum(np.exp(2j * np.pi * f * d) for f in freqs)
    s = np.exp(2j * np.pi * np.outer(d, freqs)).sum(axis=1, keepdims=True)
    y = s + misfit / np.sqrt(n)
    diag = SdpDiagnostics(eta=0.1, scale=1.0, feasible=feasible)
    return {"s": s, "eta": 0.1, "band": band, "u": u, "y": y, "diag": diag}


def test_certificate_accepts_in_band_atoms():
    assert checks.certificate_problems(_certificate([0.21, 0.24], (0.2, 0.25))) == []
    assert checks.certificate_problems(_certificate([0.1, 0.4], None)) == []


def test_certificate_flags_an_atom_outside_the_band():
    problems = checks.certificate_problems(_certificate([0.21, 0.3], (0.2, 0.25)))
    assert any("band" in p for p in problems)


def test_certificate_flags_misfit_and_infeasible():
    assert any("misfit" in p for p in checks.certificate_problems(
        _certificate([0.21], (0.2, 0.25), misfit=0.2)))
    assert any("feasible" in p for p in checks.certificate_problems(
        _certificate([0.21], (0.2, 0.25), feasible=False)))


def test_band_matrix_agrees_with_the_solver_definition():
    rng = np.random.default_rng(0)
    u = rng.normal(size=8) + 1j * rng.normal(size=8)
    u[0] = abs(u[0]) + 5.0
    t = checks._hermitian_toeplitz(u)
    h1, h2 = band_coefficients(0.1, 0.2)
    ours = h1 * t[:-1, 1:] + h2 * t[:-1, :-1] + np.conj(h1) * t[1:, :-1]
    np.testing.assert_allclose(ours, band_matrix_from_u(u, h1, h2), atol=1e-12)


def test_atom_band_check_uses_the_strongest_atoms():
    solve = {"band": (0.10, 0.11), "n_samples": 32, "step": 16,
             "freqs_global": np.array([0.105, 0.3]), "powers": np.array([1.0, 1e-6]),
             "ranges_m": np.array([1.0, 2.0])}
    assert checks.atom_band_problems(solve, 1) == []
    assert len(checks.atom_band_problems(solve, 2)) == 1
