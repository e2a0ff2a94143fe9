"""Correctness checks, computed apart from the program.

Every check returns a list of problems (empty when the output is right).
Constants come from the paper's radar and tables, not from rangesr: the
range cell is c / (2 B) with B = 50 MHz, and a global beat frequency f
(cycles per fast-time sample) lies at range f * N * cell with N = 512
fast-time samples at the 5.12 MHz rate the workloads use.
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy.optimize import linear_sum_assignment

C_LIGHT = 299_792_458.0
BANDWIDTH_HZ = 50e6
N_FAST = 512                             # 100 us chirp at 5.12 MHz
CELL_M = C_LIGHT / (2.0 * BANDWIDTH_HZ)  # one range cell, 2.998 m
RESOLVED_M = 0.1 * CELL_M                # "resolved": within 0.1 cell
RANGE_GATE_M = 0.3                       # scene truth gates
VELOCITY_GATE_MPS = 0.03

# step-2 truths (range m, velocity m/s) of the paper's experiment tables
PAPER_TABLES = {
    "exp1": ((171.0, 44.01), (172.2, 44.07), (173.4, 44.07)),
    "exp2": ((168.0, 44.01), (168.0, 44.13), (169.2, 44.13), (170.4, 44.13)),
}

_UNMATCHED = 1e12


def range_of_freq(f):
    return np.asarray(f) * N_FAST * CELL_M


# ------------------------------------------------------------------ scenes


def match_scene(name: str, estimates) -> tuple[list[float], list[str]]:
    """Pair each table truth with a distinct step-3 estimate inside the gates.

    Returns the range errors of the matched truths and the problems (one per
    truth left without an estimate within 0.3 m and 0.03 m/s).
    """
    truths = PAPER_TABLES[name]
    cands = [e for e in estimates if e.step == "step3"]
    if not cands:
        return [], [f"{name}: no step-3 estimate"]
    cost = np.full((len(truths), len(cands)), _UNMATCHED)
    for i, (r, v) in enumerate(truths):
        for j, e in enumerate(cands):
            dr, dv = e.range_m - r, e.velocity_mps - v
            if abs(dr) <= RANGE_GATE_M and abs(dv) <= VELOCITY_GATE_MPS:
                cost[i, j] = dr * dr
    rows, cols = linear_sum_assignment(cost)
    errors, problems = [], []
    matched = {i: j for i, j in zip(rows, cols) if cost[i, j] < _UNMATCHED}
    for i, (r, v) in enumerate(truths):
        if i in matched:
            errors.append(cands[matched[i]].range_m - r)
        else:
            problems.append(
                f"{name}: no step-3 estimate within {RANGE_GATE_M} m and "
                f"{VELOCITY_GATE_MPS} m/s of the UAV at {r} m, {v} m/s"
            )
    return errors, problems


def scene_truth_problems(name: str, step2_truths) -> list[str]:
    """The program's scene must hold the paper's step-2 table."""
    got = tuple((u.range0_m, u.velocity_mps) for u in step2_truths)
    if got != PAPER_TABLES[name]:
        return [f"{name}: scene truths {got} differ from the paper's table"]
    return []


def estimate_band_problems(name: str, estimates, group_reports, n_ex: int) -> list[str]:
    """Every kept step-3 atom lies in the prior band its group was solved in.

    The band is read from the group report in global frequency; the
    tolerance is half a bin of the decimated (n_ex-sample) solve grid.
    """
    guard = 1.0 / (2.0 * n_ex * (N_FAST // n_ex))
    problems = []
    for e in estimates:
        if e.step != "step3":
            continue
        rep = group_reports[e.group_index]
        if "band" not in rep:
            problems.append(f"{name}: step-3 estimate of unsolved group {e.group_index}")
            continue
        lo, hi = range_of_freq(rep["band"][0] - guard), range_of_freq(rep["band"][1] + guard)
        if not lo <= e.range_m <= hi:
            problems.append(
                f"{name}: atom at {e.range_m:.3f} m outside its band "
                f"[{lo:.3f}, {hi:.3f}] m (group {e.group_index})"
            )
    return problems


# ------------------------------------------------------------------- grids


def grid_draws(seed_base, k_values, delta_ratios, trials, window_start_m=165.0,
               window_cells=2.0, max_draws=10_000):
    """Truth ranges of every (K, delta, trial) by the common-random-number rule.

    Each trial's generator is seeded with SeedSequence((seed_base, K,
    round(1000 delta), trial)); K ranges are drawn uniformly over a
    two-cell window from window_start_m and redrawn until every sorted gap
    is at least delta cells. Returns {(K, delta, trial): sorted ranges}, in
    grid order (K, then delta, then trial); a cell whose draws never meet
    the spacing stops at its first failed trial, as the grid does.
    """
    draws = {}
    width, cell = window_cells * CELL_M, CELL_M
    for k in k_values:
        for delta in delta_ratios:
            for trial in range(trials):
                rng = np.random.default_rng(
                    np.random.SeedSequence((seed_base, k, int(round(delta * 1000)), trial))
                )
                found = None
                for _ in range(max_draws):
                    cand = np.sort(window_start_m + width * rng.random(k))
                    if k == 1 or np.min(np.diff(cand)) >= delta * cell:
                        found = cand
                        break
                if found is None:
                    break
                draws[(k, delta, trial)] = found
    return draws


def draws_hash(draws: dict) -> str:
    h = hashlib.sha256()
    for ranges in draws.values():
        h.update(np.ascontiguousarray(ranges, dtype=np.float64).tobytes())
    return h.hexdigest()


def assigned_errors(truth, recovered) -> np.ndarray | None:
    """Range errors of the K truths under the pairing with the least squared
    error; None when fewer than K ranges came back."""
    truth = np.asarray(truth, dtype=np.float64)
    recovered = np.asarray(recovered, dtype=np.float64)
    if recovered.shape[0] < truth.shape[0]:
        return None
    cost = (truth[:, None] - recovered[None, :]) ** 2
    rows, cols = linear_sum_assignment(cost)
    return recovered[cols] - truth[rows]


def top_ranges(solve: dict, k: int) -> np.ndarray:
    """Ranges of the k strongest atoms of a captured solve."""
    order = np.argsort(solve["powers"])[::-1][:k]
    return solve["ranges_m"][order]


def atom_band_problems(solve: dict, k: int) -> list[str]:
    """The k strongest atoms of a band-constrained solve lie in its band."""
    guard = 1.0 / (2.0 * solve["n_samples"] * solve["step"])
    lo, hi = solve["band"]
    order = np.argsort(solve["powers"])[::-1][:k]
    f = solve["freqs_global"][order]
    bad = f[(f < lo - guard) | (f > hi + guard)]
    return [f"fsram atom at global frequency {x:.6f} outside band [{lo:.6f}, {hi:.6f}]"
            for x in bad]


# ------------------------------------------------------------ certificates


def _hermitian_toeplitz(u: np.ndarray) -> np.ndarray:
    n = u.shape[0]
    i, j = np.indices((n, n))
    lag = i - j
    return np.where(lag >= 0, u[np.abs(lag)], np.conj(u[np.abs(lag)]))


def _min_eig_ok(a: np.ndarray, rel: float = 1e-6) -> bool:
    vals = np.linalg.eigvalsh(0.5 * (a + a.conj().T))
    return vals[0] >= -rel * max(vals[-1], 1e-300)


def certificate_problems(cap: dict) -> list[str]:
    """A returned solve must be feasible: T(u) PSD, the band matrix PSD when a
    band was imposed, and ||S - Y||_F within eta (relative slack 1e-6, plus
    the solver's 1e-9 absolute slack in its normalised units)."""
    diag = cap["diag"]
    problems = []
    if not diag.feasible:
        problems.append("solve returned with feasible=False")
    misfit = float(np.linalg.norm(cap["s"] - cap["y"]))
    limit = cap["eta"] * (1.0 + 1e-6) + 1e-9 * diag.scale
    if misfit > limit:
        problems.append(f"data misfit {misfit:.6e} exceeds eta bound {limit:.6e}")
    t = _hermitian_toeplitz(np.asarray(cap["u"], dtype=np.complex128))
    if not _min_eig_ok(t):
        problems.append("T(u) is not positive semidefinite")
    if cap["band"] is not None:
        lo, hi = cap["band"]
        h1 = np.exp(1j * np.pi * (lo + hi))
        h2 = -2.0 * np.cos(np.pi * (hi - lo))
        tb = h1 * t[:-1, 1:] + h2 * t[:-1, :-1] + np.conj(h1) * t[1:, :-1]
        if not _min_eig_ok(tb):
            problems.append(f"band matrix for [{lo:.4f}, {hi:.4f}] is not PSD: "
                            "an atom lies outside the band")
    return problems
