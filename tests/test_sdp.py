"""Weighted-Toeplitz SDP engine: structure helpers, ADMM solve, audits."""

import numpy as np
import pytest
from scipy.linalg import toeplitz

from rangesr.config import ConfigError
from rangesr.sdp import (
    AdmmError,
    _band_diagonals,
    _diag_means,
    _objective_gradient,
    _signal_subspace,
    band_coefficients,
    band_matrix_from_u,
    hermitize,
    psd_project,
    signal_rank,
    solve_weighted_toeplitz_sdp,
    toeplitz_from_u,
)
from rangesr.superres import vandermonde_decompose


def atoms(freqs, n):
    return np.exp(2j * np.pi * np.outer(np.arange(n), freqs))


def atom_mmv(freqs, n, n_snap, seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal((len(freqs), n_snap)) + 1j * rng.standard_normal(
        (len(freqs), n_snap)
    )
    return atoms(freqs, n) @ amps


def min_eig(a):
    return float(np.linalg.eigvalsh(hermitize(a))[0])


def test_hermitize_basics():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = hermitize(a)
    assert np.allclose(h, h.conj().T)
    assert np.allclose(hermitize(h), h)


def test_psd_project_clips_negative_eigenvalues():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = hermitize(a)
    p = psd_project(h)
    assert min_eig(p) >= -1e-12 * max(1.0, np.abs(p).max())
    # already-PSD input passes through
    g = h @ h.conj().T
    assert np.allclose(psd_project(g), g, atol=1e-10)


def test_toeplitz_from_u_layout():
    u = np.array([2.0, 1.0 + 0.5j, -0.25j])
    t = toeplitz_from_u(u)
    assert np.allclose(np.diag(t), 2.0)
    assert t[1, 0] == u[1] and t[2, 1] == u[1] and t[2, 0] == u[2]
    assert t[0, 1] == np.conj(u[1]) and t[0, 2] == np.conj(u[2])
    # a single atom gives the rank-one moment matrix a(f) a(f)^H
    f = 0.137
    a = atoms([f], 8)[:, 0]
    u_atom = np.exp(2j * np.pi * f * np.arange(8))
    assert np.allclose(toeplitz_from_u(u_atom), np.outer(a, a.conj()), atol=1e-12)


ORACLE_SIZES = [2, 3, 8, 31, 32, 48]


@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_diag_means_match_per_diagonal_loop(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    loop = np.array([np.diagonal(a, offset=-d).mean() for d in range(n)])
    np.testing.assert_allclose(_diag_means(a), loop, rtol=1e-14, atol=0.0)
    # a strided block of a larger matrix, as the ADMM loop passes it
    big = np.zeros((n + 3, n + 3), dtype=complex)
    big[3:, 3:] = a
    np.testing.assert_allclose(_diag_means(big[3:, 3:]), loop, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_objective_gradient_matches_superdiagonal_loop(n):
    rng = np.random.default_rng(200 + n)
    w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    supers = np.array([np.diagonal(w, offset=d).sum() for d in range(1, n)])
    g = _objective_gradient(w)
    assert g[0] == 0.5 * np.sqrt(n) * np.trace(w).real
    np.testing.assert_allclose(g[1::2], np.sqrt(n) * supers.real, rtol=1e-13, atol=1e-14 * n)
    np.testing.assert_allclose(g[2::2], -np.sqrt(n) * supers.imag, rtol=1e-13, atol=1e-14 * n)


@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_toeplitz_builds_equal_scipy_toeplitz(n):
    rng = np.random.default_rng(100 + n)
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    col = u.copy()
    col[0] = col[0].real
    assert np.array_equal(toeplitz_from_u(u), toeplitz(col, col.conj()))
    assert u[0].imag != 0.0  # the input is left as it was
    h1, h2 = band_coefficients(0.1, 0.3)
    bcol = _band_diagonals(u, h1, h2)
    bcol[0] = bcol[0].real
    assert np.array_equal(band_matrix_from_u(u, h1, h2), toeplitz(bcol, bcol.conj()))


def test_band_coefficients_closed_form():
    h1, h2 = band_coefficients(0.1, 0.3)
    assert h1 == pytest.approx(np.exp(1j * np.pi * 0.4), abs=1e-15)
    assert h2 == pytest.approx(-2.0 * np.cos(np.pi * 0.2), abs=1e-15)
    with pytest.raises(ConfigError):
        band_coefficients(0.3, 0.1)
    with pytest.raises(ConfigError):
        band_coefficients(0.0, 1.0)


@pytest.mark.parametrize("f", [0.151, 0.25, 0.349])
def test_band_matrix_psd_for_in_band_atom(f):
    h1, h2 = band_coefficients(0.15, 0.35)
    u = np.exp(2j * np.pi * f * np.arange(10))
    tb = band_matrix_from_u(u, h1, h2)
    assert min_eig(tb) >= -1e-9 * np.abs(tb).max()


def test_band_matrix_indefinite_for_out_of_band_atom():
    f_lo, f_hi = 0.15, 0.35
    h1, h2 = band_coefficients(f_lo, f_hi)
    u = np.exp(2j * np.pi * (f_hi + 0.05) * np.arange(10))
    tb = band_matrix_from_u(u, h1, h2)
    assert min_eig(tb) < -1e-3 * np.linalg.norm(tb, 2)


def test_band_atom_weight_sign_matches_closed_form():
    # Tb of a unit atom is w(f) * a a^H with w = 2 cos(2pi f - pi(lo+hi)) - 2 cos(pi(hi-lo))
    f_lo, f_hi = 0.1, 0.4
    h1, h2 = band_coefficients(f_lo, f_hi)
    n = 7
    for f in (0.12, 0.25, 0.38, 0.05, 0.45):
        u = np.exp(2j * np.pi * f * np.arange(n))
        tb = band_matrix_from_u(u, h1, h2)
        w = 2.0 * np.cos(2.0 * np.pi * f - np.pi * (f_lo + f_hi)) - 2.0 * np.cos(
            np.pi * (f_hi - f_lo)
        )
        a = atoms([f], n - 1)[:, 0]
        assert np.allclose(tb, w * np.outer(a, a.conj()), atol=1e-12)


def test_solver_input_validation():
    with pytest.raises(ConfigError):
        solve_weighted_toeplitz_sdp(np.ones(4, dtype=complex), 0.1)
    with pytest.raises(ConfigError):
        solve_weighted_toeplitz_sdp(np.ones((1, 3), dtype=complex), 0.1)
    with pytest.raises(ConfigError):
        solve_weighted_toeplitz_sdp(np.ones((4, 2), dtype=complex), -1.0)


def test_zero_data_short_circuit():
    u, y, diag = solve_weighted_toeplitz_sdp(np.zeros((6, 3), dtype=complex), 0.5)
    assert not u.any() and not y.any()
    assert diag.stop_reason == "inside_noise_ball"


@pytest.mark.parametrize("slack", [1.0, 1.03])
def test_data_inside_the_noise_ball_gives_an_empty_spectrum(slack):
    s = atom_mmv([0.21, 0.26], 8, 2, seed=3)
    eta = slack * np.linalg.norm(s)
    u, y, diag = solve_weighted_toeplitz_sdp(s, eta, band=(0.15, 0.3))
    assert u.shape == (8,) and y.shape == s.shape
    assert not u.any() and not y.any()
    assert diag.stop_reason == "inside_noise_ball"
    assert diag.outer_iters == 0 and diag.inner_iters == []
    assert diag.data_misfit == pytest.approx(np.linalg.norm(s)) and diag.feasible
    freqs, powers = vandermonde_decompose(u, 2)
    assert freqs.size == 0 and powers.size == 0


def test_data_just_outside_the_noise_ball_is_solved():
    s = atom_mmv([0.21], 8, 2, seed=3)
    u, _, diag = solve_weighted_toeplitz_sdp(s, 0.5 * np.linalg.norm(s), band=(0.15, 0.3))
    assert diag.stop_reason != "inside_noise_ball"
    assert diag.inner_iters and u.any()


def audit(s, eta, u, y, band=None):
    assert np.linalg.norm(s - y) <= eta * (1.0 + 1e-6) + 1e-12
    t = toeplitz_from_u(u)
    assert min_eig(t) >= -1e-6 * max(np.linalg.eigvalsh(t)[-1], 1e-300)
    if band is not None:
        tb = band_matrix_from_u(u, *band_coefficients(*band))
        assert min_eig(tb) >= -1e-6 * max(np.abs(tb).max(), 1e-300)


def test_single_atom_full_band_recovery():
    f0 = 0.217
    s = atom_mmv([f0], 8, 2, seed=3)
    eta = 1e-6 * np.linalg.norm(s)
    u, y, diag = solve_weighted_toeplitz_sdp(s, eta)
    assert diag.feasible
    audit(s, eta, u, y)
    freqs, powers = vandermonde_decompose(u, 1)
    assert abs(freqs[0] - f0) < 1e-8
    assert powers[0] > 0.0


def test_two_atoms_band_constrained_recovery():
    band = (0.15, 0.35)
    truth = [0.21, 0.29]
    s = atom_mmv(truth, 8, 2, seed=4)
    eta = 1e-6 * np.linalg.norm(s)
    u, y, diag = solve_weighted_toeplitz_sdp(s, eta, band=band)
    assert diag.feasible
    audit(s, eta, u, y, band=band)
    freqs, _ = vandermonde_decompose(u, 2)
    assert np.allclose(np.sort(freqs), truth, atol=1e-6)
    assert all(band[0] - 1e-3 <= f <= band[1] + 1e-3 for f in freqs)


def test_scaling_covariance():
    s = atom_mmv([0.217], 8, 2, seed=3)
    eta = 1e-6 * np.linalg.norm(s)
    u1, y1, _ = solve_weighted_toeplitz_sdp(s, eta)
    c = 3j
    u2, y2, _ = solve_weighted_toeplitz_sdp(c * s, abs(c) * eta)
    assert np.allclose(u2, abs(c) ** 2 * u1, rtol=1e-6, atol=1e-9 * np.abs(u2).max())
    assert np.allclose(y2, c * y1, rtol=1e-6, atol=1e-9 * np.abs(y2).max())


def test_infeasible_problem_raises_with_diagnostics(admm_budget):
    rng = np.random.default_rng(5)
    s = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    admm_budget(_MAX_OUTER=2, _INNER_ITERS_FIRST=60, _INNER_ITERS=40)
    with pytest.raises(AdmmError) as info:
        solve_weighted_toeplitz_sdp(s, 0.0, band=(0.2, 0.25))
    assert info.value.diagnostics is not None
    assert not info.value.diagnostics.feasible
    assert "vs eta" in str(info.value)


def test_missing_certificate_raises_without_quoting_a_misfit(monkeypatch, admm_budget):
    # the certificate is the only exit: without one the solve fails, and the
    # message says there was nothing to audit instead of a misfit of zero
    import rangesr.sdp as sdp

    monkeypatch.setattr(sdp, "nnls_powers", lambda u, freqs: np.zeros(freqs.size))
    s = atom_mmv([0.21], 8, 2, seed=3)
    admm_budget(_MAX_OUTER=1, _INNER_ITERS_FIRST=20)
    with pytest.raises(AdmmError, match="no atomic certificate") as info:
        solve_weighted_toeplitz_sdp(s, 1e-3 * np.linalg.norm(s), band=(0.15, 0.3))
    assert "misfit" not in str(info.value)
    assert not info.value.diagnostics.feasible
    assert info.value.diagnostics.outer_iters == 1


def test_out_of_band_tones_stop_after_the_first_pass():
    # no in-band atom explains tones at 0.6 and 0.7, so the first pass's
    # certificate misses by far more than ten etas and the solve ends there
    s = atom_mmv([0.6, 0.7], 8, 2, seed=4)
    eta = 1e-3 * np.linalg.norm(s)
    with pytest.raises(AdmmError, match="vs eta") as info:
        solve_weighted_toeplitz_sdp(s, eta, band=(0.15, 0.35))
    diag = info.value.diagnostics
    assert diag.stop_reason == "doomed_after_first_pass"
    assert diag.outer_iters == 1 and diag.inner_iters == [300]
    assert diag.data_misfit > 10.0 * eta and not diag.feasible


def test_default_budget_matches_eight_passes_on_the_banded_fixture(admm_budget):
    s = atom_mmv([0.21, 0.29], 8, 2, seed=4)
    eta = 1e-6 * np.linalg.norm(s)
    u_default, _, diag = solve_weighted_toeplitz_sdp(s, eta, band=(0.15, 0.35))
    # every pass runs: the budget is the only exit after the first pass
    assert diag.outer_iters == len(diag.inner_iters) == 4
    assert diag.stop_reason == "max_outer"
    admm_budget(_MAX_OUTER=8)
    u_eight, _, diag = solve_weighted_toeplitz_sdp(s, eta, band=(0.15, 0.35))
    assert diag.outer_iters == len(diag.inner_iters) == 8
    assert diag.stop_reason == "max_outer"
    found = [vandermonde_decompose(u)[0] for u in (u_default, u_eight)]
    assert found[0].size == found[1].size == 2
    np.testing.assert_allclose(found[0], found[1], rtol=0.0, atol=1e-9)


def test_a_first_pass_miss_within_ten_etas_is_not_stopped(monkeypatch, admm_budget):
    # six in-band tones and a 10-iteration first pass: the first certificate
    # misses by a few etas, and the later passes reach the noise ball
    import rangesr.sdp as sdp

    misfits = []
    certificate = sdp._atomic_certificate

    def spy(u, ss, band, eta_s):
        cert = certificate(u, ss, band, eta_s)
        misfits.append(np.linalg.norm(ss - cert[1]) / eta_s)
        return cert

    monkeypatch.setattr(sdp, "_atomic_certificate", spy)
    rng = np.random.default_rng(98)
    freqs = np.sort(rng.uniform(0.18, 0.53, 6))
    noise = 0.01 * (rng.standard_normal((8, 1)) + 1j * rng.standard_normal((8, 1))) / np.sqrt(2)
    s = atom_mmv(freqs, 8, 1, seed=98) + noise
    eta = float(np.linalg.norm(noise))
    admm_budget(_INNER_ITERS_FIRST=10)
    u, y, diag = solve_weighted_toeplitz_sdp(s, eta, band=(0.18, 0.53))
    assert 1.0 < misfits[0] < 10.0
    assert diag.outer_iters > 1 and diag.stop_reason != "doomed_after_first_pass"
    assert diag.feasible and misfits[-1] <= 1.0
    audit(s, eta, u, y, band=(0.18, 0.53))


def noisy(s, rel, seed):
    """s plus white noise of total norm rel * ||s||."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(s.shape) + 1j * rng.standard_normal(s.shape)
    return s + w * (rel * np.linalg.norm(s) / np.linalg.norm(w))


FULL_SPACE_CASES = {
    # (data, eta as a fraction of the data norm, band)
    "noisy_rank_1": lambda: (noisy(atom_mmv([0.21], 16, 8, 1), 0.05, 1), 0.06, (0.15, 0.3)),
    "noisy_rank_2": lambda: (noisy(atom_mmv([0.21, 0.27], 16, 8, 2), 0.05, 2), 0.06, (0.15, 0.3)),
    "tiny_eta_rank_2": lambda: (atom_mmv([0.21, 0.29], 8, 2, seed=4), 1e-6, (0.15, 0.35)),
    "one_column_unbanded": lambda: (noisy(atom_mmv([0.3], 12, 1, 3), 0.05, 3), 0.06, None),
}


@pytest.mark.parametrize("case", sorted(FULL_SPACE_CASES))
def test_a_returned_solve_fits_the_full_data(case):
    s, rel_eta, band = FULL_SPACE_CASES[case]()
    eta = rel_eta * np.linalg.norm(s)
    u, y, diag = solve_weighted_toeplitz_sdp(s, eta, band=band)
    assert y.shape == s.shape
    assert 1 <= diag.rank <= min(s.shape)
    misfit = np.linalg.norm(s - y)
    assert misfit <= eta * (1.0 + 1e-6)
    assert diag.data_misfit == pytest.approx(misfit, rel=1e-9)
    # Y lies in the span of the kept right singular vectors
    assert np.linalg.matrix_rank(y, tol=1e-9 * np.linalg.norm(y)) <= diag.rank


def test_tiny_eta_on_rank_two_data_raises_the_rank_to_min_n_l():
    # the threshold counts one direction of this 8x2 fixture, but the second
    # singular value alone overfills the ball, so r rises to min(N, L) = 2
    s = atom_mmv([0.21, 0.29], 8, 2, seed=4)
    assert signal_rank(np.linalg.svd(s, compute_uv=False), s.shape) < 2
    _, _, diag = solve_weighted_toeplitz_sdp(s, 1e-6 * np.linalg.norm(s), band=(0.15, 0.35))
    assert diag.rank == 2
    # with noise, every direction carries energy above a tiny ball
    s = noisy(atom_mmv([0.21, 0.29], 16, 6, seed=5), 1e-3, 5)
    vr, tail = _signal_subspace(s, 1e-6 * np.linalg.norm(s))
    assert vr.shape == (6, 6) and tail == 0.0


def test_the_rank_grows_only_while_the_tail_fills_the_ball():
    s = noisy(atom_mmv([0.21], 16, 8, 6), 0.05, 6)
    sv = np.linalg.svd(s, compute_uv=False)
    assert signal_rank(sv, s.shape) == 1
    vr, tail = _signal_subspace(s, 1.5 * np.linalg.norm(sv[1:]))
    assert vr.shape == (8, 1) and tail == pytest.approx(np.sum(sv[1:] ** 2))
    vr, tail = _signal_subspace(s, 0.99 * np.linalg.norm(sv[1:]))
    assert vr.shape[1] >= 2 and tail < (0.99 * np.linalg.norm(sv[1:])) ** 2
