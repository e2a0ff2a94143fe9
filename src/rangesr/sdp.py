"""Reweighted Toeplitz-constrained SDP solved by ADMM.

Solves, for a multi-snapshot matrix S in C^{N x L} and noise budget eta,

    min  (sqrt(N)/2) Tr(W T(u)) + (1/(2 sqrt(N))) Tr(Z)
    s.t. [[Z, Y^H], [Y, T(u)]] >= 0,   ||S - Y||_F <= eta,
         Tb(u) >= 0                      (optional, band-selective)

where T(u) is Hermitian Toeplitz with first column u and Tb is the
(N-1)x(N-1) combination h1*T[:-1,1:] + h2*T[:-1,:-1] + conj(h1)*T[1:,:-1].
With h1 = exp(j pi (f_lo+f_hi)) and h2 = -2 cos(pi (f_hi-f_lo)), a unit
power atom a(f)_n = exp(j 2 pi f n) gives Tb = 2(cos(2 pi f - pi(f_lo+f_hi))
- cos(pi(f_hi-f_lo))) a'a'^H, which is PSD exactly when f lies inside
[f_lo, f_hi]; imposing Tb >= 0 therefore confines the recovered line
spectrum to the band.

The solve runs on the data's signal subspace. With V_r the top r right
singular vectors of S, Y is confined to Y = Y_r V_r^H. Then
||S - Y||_F^2 = ||S V_r - Y_r||_F^2 + sum_{i>=r} s_i^2 (Pythagoras), and
min Tr(Z) depends on Y only through Y Y^H = Y_r Y_r^H, so the problem above
with Y of that form is the same SDP on the N x r data S V_r with the ball
radius eta_r = sqrt(eta^2 - sum_{i>=r} s_i^2). The caller's eta is
unchanged, and every returned Y is feasible for the caller's problem.
r starts at the Gavish-Donoho rank of S (`signal_rank`, the count that
`MmvMatrix.sigma` uses), at least 1, and grows while the tail alone fills
the ball (sum_{i>=r} s_i^2 >= eta^2); at r = min(N, L) the problem is the
original one up to a unitary rotation of the snapshots. Every synthetic
scene puts its same-cell UAVs at one angle, so r = 1 there, and the ADMM
block shrinks from (N+L)x(N+L) to (N+r)x(N+r): 33x33 instead of 48x48 at
N=32, L=16. The data fit's misfit (`SdpDiagnostics.data_misfit`, the
returned Y's misfit too) is measured as ||S - Y||_F on the full S.

The answer path has four steps:
1. Data atoms. Forward selection on the kept data S V_r picks the
   in-band frequency whose atom best correlates with the residual, refits
   every chosen frequency by projected Gauss-Newton (clipped to the band),
   and stops at the first set whose least-squares fit lies inside the
   ball; without one it keeps the closest fit. When that fit's misfit on
   the full S exceeds eta, the band cannot explain the data, and the solve
   raises AdmmError before any ADMM pass.
2. ADMM passes. The weight W is refreshed between passes as
   (T(u) + eps I)^{-1}, with u the last pass's iterate
   (majorization-minimization for log-det sparsity); W = I on the first
   pass. eps is lambda_max(T(u_1))/10 after the first pass and halves
   after each later one. Every one of the _MAX_OUTER passes runs: the
   first of at most _INNER_ITERS_FIRST ADMM iterations and the rest of at
   most _INNER_ITERS (the comment on those constants gives the cost). A
   pass ends earlier when the primal and dual residuals fall below
   _TOL_REL of their scales, Boyd et al.'s relative test (FnT ML 2011,
   sec. 3.3.1) at their 1e-3.
3. Weights. The last iterate u weighs the data atoms by nonnegative least
   squares (`nnls_powers`); a solve where no atom gets a positive power
   raises AdmmError.
4. Audit. With atoms A, powers P (floored at 1e-9 of the largest) and the
   data fit's amplitudes C, the returned certificate is the Gram-form
   [[C^H P^-1 C, C^H A^H], [A C, A P A^H]], which is PSD by construction
   with Tb PSD because in-band atoms have nonnegative transform weights.
   Its Y = A C is step 1's fit, which already lies in the ball (within
   eta(1+1e-6)+1e-9); it must still pass the eigenvalue audit (block
   matrix and Tb eigenvalues above -1e-6 relative, one test per
   constraint), or the solve raises AdmmError.

So the data choose the frequencies, and the SDP only weighs them: T(u) =
A(f) P A(f)^H, and `SdpDiagnostics.atom_freqs` and `atom_powers` carry
that decomposition, minus the atoms whose power is at most _RANK_TOL of
the largest (u keeps them at the 1e-9 floor). A fit holds at most
min(N-1, 16) atoms, so T(u) is never full rank. Data already inside the
noise ball (||S||_F <= eta) never reaches step 1; u = 0 and Y = 0 are
optimal there, and the solve returns that empty spectrum.

ADMM splitting: the PSD constraints are one list, the block matrix and,
with a band, Tb(u), each with one consensus copy (Q, P) and one scaled
dual (Lambda, Gamma). Z, Y, u have closed-form updates; then each
constraint is relaxed, projected and its dual updated. The residuals add
over the constraints in quadrature, and the stop scale is the largest
norm of any constraint's new matrix or projected copy. A projection
onto the PSD cone (`psd_project`) computes only the eigenpairs with
positive eigenvalues, through LAPACK's subset eigensolver zheevr. The iterates
are low rank: on the benchmark grid's solves (N = 32, r = 1) the 33x33
block matrix has 1-5 positive eigenvalues in all but 7 of 4,308
projections, and the 31x31 band matrix 0-2 in 3,999, so a projection
costs half of a full eigendecomposition. The u update is a banded real
least-squares problem whose normal matrix depends only on (N, band). One
real matrix, built from its Cholesky factor once per (N, band) and cached
read-only, maps the diagonal sums of the T block of Q - Lambda and of
P - Gamma to u, and the objective's gradient term is solved once per pass.

The structure maps of the inner loop (the diagonal sums that feed the u
update, and the Toeplitz layouts of T(u) and Tb(u)) are gathers through
flat index maps computed once per N and cached, so an inner iteration runs
no per-diagonal Python loop. Q - Lambda and P - Gamma are Hermitian up to
rounding and are not symmetrized: each update reads one triangle of them,
as LAPACK reads one triangle of the matrices it projects. On those grid
solves an inner iteration costs about 0.26 ms, 0.16 ms of it in the two
projections (0.56 ms with full eigendecompositions; 2-core x86 host, BLAS
on one thread).

Stop reasons (`SdpDiagnostics.stop_reason`):
- "inside_noise_ball": ||S||_F <= eta, returned before any work;
- "misfit_over_eta": raised before any ADMM pass, the data atoms' fit
  misses the data by more than eta;
- "max_outer": all _MAX_OUTER passes ran; the weights and the audit then
  return or raise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import block_diag, cho_factor, cho_solve
from scipy.linalg.lapack import zheevr
from scipy.optimize import nnls

from .config import ConfigError

_OVER_RELAX = 1.8
_RHO_INIT = 0.05
_ADAPT_EVERY = 25      # inner iterations between residual-balancing rho updates
_ADAPT_RATIO = 5.0     # residual imbalance that triggers an update
_ADAPT_FACTOR = 1.5
_RHO_MIN = 1e-4
_RHO_MAX = 1e4
_EPS_DECAY = 0.5       # reweighting eps shrinks by this per outer pass
_RANK_TOL = 1e-6       # T(u) eigenvalues and atom powers above this share of the top are signal
_GN_ITERS = 30         # Gauss-Newton steps of the data atoms' refit

# The ADMM budget: reweighting passes, and inner iterations per pass. The
# data fix the atoms' frequencies before the first pass, so the passes
# change only the weights that the last iterate gives them (`nnls_powers`),
# and with them which atoms fall below _RANK_TOL. Four passes: on the fixed
# grids (fsram and ram) and the noise-free exp1/exp2 scenes, three, four
# and eight passes gave the same successes and ranges (to 2e-8 m); only the
# four K=3 grid trials whose prior band misses a target moved. On exp2 at
# 0 dB, seed 0, three passes keep two ghost atoms of one group (60.475 and
# 63.824 m) that the fourth removes; exp1 at 0 dB and exp2 at 10 dB read
# the same at three and four passes. The inner stop (_TOL_REL, see the
# module docstring) can be loose because the frequencies come from the
# data: at 1e-3 the grid successes and the noise-free exp1/exp2 ranges
# repeat those of 1e-6 (to 1e-8 m), and the benchmark's inner iterations
# halved when it was set (grid_fsram 8,700 -> 4,232, scene_clean 3,000 ->
# 1,472). 1e-4 saves 1% of them, and 3e-3 moves atoms in ghost groups of
# exp2 at 0 dB. The cost is at most proportional to
# _INNER_ITERS_FIRST + (_MAX_OUTER - 1) * _INNER_ITERS, and each inner
# iteration projects the (N+r)x(N+r) block matrix (r the kept rank,
# `SdpDiagnostics.rank`) and, with a band, the (N-1)x(N-1) band matrix onto
# the PSD cone, computing only their positive eigenpairs: about 0.26 ms per
# iteration at N = 32, r = 1 with a band (the module docstring gives the
# split). The solver reads these names at call time, so a test can patch
# them.
_MAX_OUTER = 4
_INNER_ITERS_FIRST = 300
_INNER_ITERS = 150
_TOL_REL = 1e-3


@dataclass
class SdpDiagnostics:
    inner_iters: list = field(default_factory=list)   # ADMM iterations per pass
    eta: float = 0.0
    scale: float = 1.0
    data_misfit: float = 0.0   # ||S - Y||_F on the full S
    rank: int = 0              # right singular directions of S the solve kept
    feasible: bool = True
    stop_reason: str = ""
    # the returned T(u)'s atoms: local frequencies (cycles/sample, ascending)
    # and powers in the caller's units; empty inside the noise ball
    atom_freqs: np.ndarray = field(default_factory=lambda: np.empty(0))
    atom_powers: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def outer_iters(self) -> int:
        """Reweighting passes run, one per entry of `inner_iters`."""
        return len(self.inner_iters)


class AdmmError(RuntimeError):
    """The solve has no audited feasible answer: raised before the ADMM runs
    when the band's data atoms miss the data by more than eta, or after it
    when the iterate weighs no atom or the certificate fails its audit."""

    def __init__(self, message: str, diagnostics: SdpDiagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


def hermitize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().T)


def psd_project(a: np.ndarray) -> np.ndarray:
    """Projection of the Hermitian matrix a onto the PSD cone, V+ L+ V+^H.

    Only the upper triangle of a is read. LAPACK's subset eigensolver zheevr
    computes just the eigenpairs (V+, L+) with eigenvalues in (0, inf), so
    a matrix with no positive eigenvalue projects to exact zeros. A nonzero
    LAPACK `info` raises LinAlgError.
    """
    vals, vecs, m, _, info = zheevr(a, range="V", vl=0.0, vu=np.inf)
    if info != 0:
        raise np.linalg.LinAlgError(f"zheevr failed with info = {info}")
    vecs = vecs[:, :m]
    return (vecs * vals[:m]) @ vecs.conj().T


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=64)
def _toeplitz_index(n: int) -> np.ndarray:
    """(n, n) index into concatenate((col, conj(col))) laying out the
    Hermitian Toeplitz matrix with first column col: lag i-j >= 0 reads
    col[i-j], lag < 0 reads conj(col)[j-i]."""
    lag = np.subtract.outer(np.arange(n), np.arange(n))
    return _frozen(np.where(lag >= 0, lag, n - lag))


@lru_cache(maxsize=64)
def _diag_index(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices of the lower diagonals d = 0..n-1 of an (n, n) matrix,
    diagonal after diagonal, with the start and length of each diagonal."""
    lengths = np.arange(n, 0, -1)
    starts = np.concatenate(([0], np.cumsum(lengths[:-1])))
    d = np.repeat(np.arange(n), lengths)
    col = np.arange(lengths.sum()) - np.repeat(starts, lengths)
    return _frozen((col + d) * n + col), _frozen(starts), _frozen(lengths)


def _hermitian_toeplitz(col: np.ndarray) -> np.ndarray:
    """Hermitian Toeplitz matrix with first column col (col[0] made real in place)."""
    col[0] = col[0].real
    return np.concatenate((col, col.conj())).take(_toeplitz_index(col.shape[0]))


def toeplitz_from_u(u: np.ndarray) -> np.ndarray:
    return _hermitian_toeplitz(np.array(u, dtype=np.complex128))


def band_coefficients(f_lo: float, f_hi: float) -> tuple[complex, float]:
    """Coefficients (h1, h2) of the band-selective transform."""
    if not f_lo < f_hi:
        raise ConfigError("band requires f_lo < f_hi")
    if f_hi - f_lo >= 1.0:
        raise ConfigError("band width must be below one cycle")
    h1 = np.exp(1j * np.pi * (f_lo + f_hi))
    h2 = -2.0 * np.cos(np.pi * (f_hi - f_lo))
    return complex(h1), float(h2)


def _band_diagonals(u: np.ndarray, h1: complex, h2: float) -> np.ndarray:
    """First column of Tb(u): tb_e = h1 u_{e-1} + h2 u_e + conj(h1) u_{e+1}."""
    n = u.shape[0]
    ue_minus = np.concatenate(([np.conj(u[1])], u[: n - 2]))
    ue = u[: n - 1]
    ue_plus = u[1:n]
    return h1 * ue_minus + h2 * ue + np.conj(h1) * ue_plus


def band_matrix_from_u(u: np.ndarray, h1: complex, h2: float) -> np.ndarray:
    return _hermitian_toeplitz(_band_diagonals(np.asarray(u, dtype=np.complex128), h1, h2))


def _diag_sums(a: np.ndarray) -> np.ndarray:
    """Sum of each lower diagonal d = 0..n-1 of a square matrix."""
    flat, starts, _ = _diag_index(a.shape[0])
    return np.add.reduceat(a.take(flat), starts)


def _diag_means(a: np.ndarray) -> np.ndarray:
    """Mean of each lower diagonal d = 0..n-1 of a Hermitian matrix."""
    return _diag_sums(a) / _diag_index(a.shape[0])[2]


def _real_pairs(x: np.ndarray) -> np.ndarray:
    """Rows of x, which index the real parameters [Re u0, Re u1, Im u1, ...],
    with a zero row for Im u0 inserted after row 0: the result's rows index
    u as real pairs, the layout of `u.view(np.float64)`."""
    return np.insert(x, 1, 0.0, axis=0)


def _weigh_pairs(weights: np.ndarray) -> np.ndarray:
    """Matrix taking the real pairs of a complex vector v to
    [w0 Re v0, w1 Re v1, w1 Im v1, ...]: each pair weighed, less Im v0."""
    return np.delete(np.diag(np.repeat(weights, 2)), 1, axis=0)


class _UUpdate:
    """Prefactored least-squares map for the Toeplitz vector update.

    Minimizes over u:
        g(W)^T x + (rho/2)(||T(u) - A||_F^2 + ||Tb(u) - B||_F^2)
    which in real parameters x is g^T x + (rho/2)||Phi x - tau(A, B)||^2,
    so x = C^-1 Phi^T tau - C^-1 g / rho with C = Phi^T Phi. Phi depends only
    on (N, band), and tau is linear in the lower-diagonal sums of A and B
    (each sum weighed by its kappa or mu over the diagonal's length). So one
    real matrix, `gain`, built once per (N, band) (`_u_update`), maps those
    sums (as real pairs) straight to the first term, and `gradient_step`
    gives the second once per pass. Both yield u as real pairs, with Im
    u0 = 0.
    """

    def __init__(self, n: int, band: tuple[complex, float] | None):
        kappa = np.sqrt(np.array([n] + [2.0 * (n - d) for d in range(1, n)]))
        weigh = [_weigh_pairs(kappa)]
        from_sums = [_weigh_pairs(kappa / np.arange(n, 0, -1))]
        if band is not None:
            mu = np.sqrt(np.array([n - 1.0] + [2.0 * (n - 1 - e) for e in range(1, n - 1)]))
            weigh.append(_weigh_pairs(mu))
            from_sums.append(_weigh_pairs(mu / np.arange(n - 1, 0, -1)))

        def apply(x: np.ndarray) -> np.ndarray:
            """Phi x: the weighed diagonals of T(u) and Tb(u)."""
            u = _real_pairs(x).view(np.complex128)
            parts = [weigh[0] @ u.view(np.float64)]
            if band is not None:
                parts.append(weigh[1] @ _band_diagonals(u, *band).view(np.float64))
            return np.concatenate(parts)

        dim = 2 * n - 1
        phi = np.stack([apply(col) for col in np.eye(dim)], axis=1)
        factor, lower = cho_factor(phi.T @ phi + 1e-12 * np.eye(dim))
        self.cho = (_frozen(factor), lower)
        self.gain = _frozen(_real_pairs(cho_solve(self.cho, phi.T @ block_diag(*from_sums))))

    def gradient_step(self, g: np.ndarray) -> np.ndarray:
        """C^-1 g as real pairs of u."""
        return _real_pairs(cho_solve(self.cho, g))


@lru_cache(maxsize=64)
def _u_update(n: int, band: tuple[complex, float] | None) -> _UUpdate:
    """The u update of every solve of N samples in `band`, built once: its
    arrays are read-only, so the solves share them."""
    return _UUpdate(n, band)


def _objective_gradient(w: np.ndarray) -> np.ndarray:
    """Gradient of (sqrt(N)/2) Tr(W T(u)) in the real parameterization."""
    n = w.shape[0]
    root = np.sqrt(n)
    g = np.empty(2 * n - 1)
    g[0] = 0.5 * root * np.trace(w).real
    supers = _diag_sums(w.T)[1:]  # superdiagonals of w = lower diagonals of w.T
    g[1::2] = root * supers.real
    g[2::2] = -root * supers.imag
    return g


def _ball_project(a: np.ndarray, s: np.ndarray, eta: float) -> np.ndarray:
    diff = a - s
    nrm = np.linalg.norm(diff)
    if nrm <= eta:
        return a
    return s + diff * (eta / nrm)


def _assemble(z: np.ndarray, y: np.ndarray, u: np.ndarray) -> np.ndarray:
    l, n = y.shape[1], y.shape[0]
    m = np.empty((l + n, l + n), dtype=np.complex128)
    m[:l, :l] = z
    m[l:, :l] = y
    m[:l, l:] = y.conj().T
    m[l:, l:] = toeplitz_from_u(u)
    return m


def _norm(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.sqrt(np.vdot(a, a).real))


def atom_matrix(freqs: np.ndarray, n: int) -> np.ndarray:
    """Columns exp(j 2 pi f k), k = 0..n-1."""
    k = np.arange(n)[:, None]
    return np.exp(2j * np.pi * k * np.asarray(freqs)[None, :])


def nnls_powers(u: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Nonnegative atom powers fitting u: u_d ~= sum_q p_q e^{j2pi f_q d}."""
    basis = atom_matrix(freqs, u.shape[0])
    stacked = np.vstack([basis.real, basis.imag])
    target = np.concatenate([u.real, u.imag])
    powers, _ = nnls(stacked, target)
    return powers


def _least_squares_fit(ss: np.ndarray, freqs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(atoms, amplitudes) of the least-squares fit of ss by the atoms at freqs."""
    atoms = atom_matrix(freqs, ss.shape[0])
    coef, *_ = np.linalg.lstsq(atoms, ss, rcond=None)
    return atoms, coef


def _gn_refine(
    ss: np.ndarray,
    freqs: np.ndarray,
    band: tuple[float, float] | None,
) -> tuple[np.ndarray, float]:
    """Refine atom frequencies against the data by projected Gauss-Newton.

    Variable projection with the Kaufman approximation: amplitudes are the
    least-squares fit at each step, the Jacobian uses only the projected
    atom derivatives. Frequencies stay clipped to the prior band, so the
    refined atoms keep nonnegative band-transform weights.
    """
    n, l = ss.shape
    idx = np.arange(n)[:, None]
    lo, hi = band if band is not None else (0.0, 1.0)
    f = np.clip(np.sort(freqs), lo, hi)

    def fit(fv: np.ndarray):
        a, c = _least_squares_fit(ss, fv)
        r = ss - a @ c
        return a, c, r, float(np.linalg.norm(r) ** 2)

    a, c, r, cost = fit(f)
    for _ in range(_GN_ITERS):
        da = (2j * np.pi * idx) * a
        jac = np.empty((2 * n * l, f.size))
        for q in range(f.size):
            m_q = da[:, q][:, None] * c[q][None, :]
            proj, *_ = np.linalg.lstsq(a, m_q, rcond=None)
            col = (m_q - a @ proj).ravel()
            jac[:, q] = np.concatenate([col.real, col.imag])
        rhs = np.concatenate([r.ravel().real, r.ravel().imag])
        delta, *_ = np.linalg.lstsq(jac, rhs, rcond=None)
        if not np.all(np.isfinite(delta)):
            break
        step = 1.0
        improved = False
        for _ in range(6):
            f_try = np.clip(f + step * delta, lo, hi)
            a_t, c_t, r_t, cost_t = fit(f_try)
            if cost_t < cost:
                f, a, c, r, cost = f_try, a_t, c_t, r_t, cost_t
                improved = True
                break
            step *= 0.5
        if not improved or np.max(np.abs(delta)) * step < 1e-13:
            break
    return np.sort(f), cost


def _peak_grid(n: int, band: tuple[float, float] | None) -> tuple[np.ndarray, np.ndarray]:
    """(grid, conjugate atoms): a dense grid of frequencies over the band and
    the conjugate transpose of its (n, 2048) atom matrix, which `_residual_peak`
    correlates with a residual."""
    lo, hi = band if band is not None else (0.0, 1.0)
    grid = lo + (hi - lo) * np.arange(2048) / (2048 if band is None else 2047)
    return grid, atom_matrix(grid, n).conj().T


def _residual_peak(residual: np.ndarray, grid: np.ndarray, atoms_h: np.ndarray) -> float:
    """Frequency of `_peak_grid` whose atom best correlates with the residual."""
    corr = atoms_h @ residual
    return float(grid[int(np.argmax(np.sum(np.abs(corr) ** 2, axis=1)))])


def _fit_tol(eta_s: float) -> float:
    """Largest data misfit the audit accepts for a (scaled) noise budget."""
    return eta_s * (1.0 + 1e-6) + 1e-9


def _data_atoms(
    ss: np.ndarray, band: tuple[float, float] | None, eta_s: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(frequencies ascending, atoms, amplitudes) of a least-squares fit that
    explains the data ss, by forward selection on residual peaks with a
    Gauss-Newton refit after each pick: the first set whose fit lies inside
    the eta_s ball, or else the closest fit."""
    fits: list[tuple[tuple, float]] = []
    forward, residual = np.empty(0), ss
    grid, atoms_h = _peak_grid(ss.shape[0], band)
    for _ in range(min(ss.shape[0] - 1, 16)):
        init = np.append(forward, _residual_peak(residual, grid, atoms_h))
        refined, cost = _gn_refine(ss, init, band)
        # atoms the refit moved onto one frequency count once
        forward = refined[np.concatenate(([True], np.diff(refined) > 1e-9))]
        atoms, coef = _least_squares_fit(ss, forward)
        misfit = float(np.sqrt(cost))
        if misfit <= _fit_tol(eta_s):
            return forward, atoms, coef
        fits.append(((forward, atoms, coef), misfit))
        residual = ss - atoms @ coef
    return min(fits, key=lambda fit: fit[1])[0]


def _atomic_certificate(
    u_admm: np.ndarray, freqs: np.ndarray, atoms: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """Exactly feasible (z, y, u) from the data fit by the atoms at freqs
    with amplitudes c, weighed by the iterate u_admm, and the powers that
    make u.

    With atoms A, powers Sigma and amplitudes C the block matrix
    [[C^H Sigma^-1 C, C^H A^H], [A C, A Sigma A^H]] is a Gram matrix, hence
    PSD to machine precision, and every in-band atom has a nonnegative
    band-transform weight, so Tb(u) is PSD as well. There is no
    certificate (None) when no atom gets a positive power in u.
    """
    powers = nnls_powers(u_admm, freqs)
    if powers.max() <= 0.0:
        return None
    powers = np.maximum(powers, 1e-9 * powers.max())
    z = c.conj().T @ ((1.0 / powers)[:, None] * c)
    u = atoms @ powers.astype(np.complex128)
    return z, atoms @ c, u, powers


def signal_rank(sv: np.ndarray, shape: tuple[int, int]) -> int:
    """Number of singular values `sv` (descending) of an (N, L) matrix above
    omega(beta) times their median: Gavish & Donoho's hard threshold for an
    unknown noise level (IEEE TIT 2014), beta = min(N, L) / max(N, L). May be
    0. Values at rounding level (at most max(N, L) * eps * s_1, the usual
    numerical-rank tolerance) never count, so exactly low-rank data reads
    its rank rather than a rounding outlier."""
    beta = min(shape) / max(shape)
    omega = 0.56 * beta**3 - 0.95 * beta**2 + 1.82 * beta + 1.43
    rounding = max(shape) * np.finfo(np.float64).eps * sv[0]
    return int(np.count_nonzero(sv > max(omega * np.median(sv), rounding)))


def _signal_subspace(s: np.ndarray, eta: float) -> tuple[np.ndarray, float]:
    """(V_r, tail): the top r right singular vectors of s as columns, and
    the energy sum_{i>=r} s_i^2 that their span leaves out.

    r starts at the `signal_rank` of s (at least 1) and grows while the tail
    alone fills the noise ball, so the restricted ball keeps a positive
    radius; at r = min(N, L) the tail is empty.
    """
    _, sv, vh = np.linalg.svd(s, full_matrices=False)
    tails = np.append(np.cumsum(sv[::-1] ** 2)[::-1], 0.0)  # tails[r] = sum_{i>=r} s_i^2
    r = max(signal_rank(sv, s.shape), 1)
    while r < sv.size and tails[r] >= eta**2:
        r += 1
    return vh[:r].conj().T, float(tails[r])


def solve_weighted_toeplitz_sdp(
    s: np.ndarray,
    eta: float,
    band: tuple[float, float] | None = None,
) -> tuple[np.ndarray, np.ndarray, SdpDiagnostics]:
    """Returns (u, Y, diagnostics); T(u) carries the recovered line spectrum,
    whose atoms are `diagnostics.atom_freqs` and `atom_powers`.

    Y has the shape of S: Y = Y_r V_r^H, with V_r the `diag.rank` top right
    singular vectors of S that the solve kept.
    """
    s = np.asarray(s, dtype=np.complex128)
    if s.ndim != 2:
        raise ConfigError("S must be a 2-D (samples x snapshots) array")
    n = s.shape[0]
    if n < 2:
        raise ConfigError("need at least two samples per snapshot")
    if eta < 0:
        raise ConfigError("eta must be non-negative")
    diag = SdpDiagnostics(eta=eta)

    scale = float(np.sqrt(np.mean(np.abs(s) ** 2)))
    diag.scale = scale
    norm_s = float(np.linalg.norm(s))
    if norm_s <= eta:
        # Y = 0 already fits the data, and u = 0 minimises the objective:
        # the spectrum is empty
        diag.data_misfit = norm_s
        diag.stop_reason = "inside_noise_ball"
        return np.zeros(n, dtype=np.complex128), np.zeros_like(s), diag

    # the solve runs on S V_r; Y = Y_r V_r^H, and by Pythagoras
    # ||S - Y||^2 = ||S V_r - Y_r||^2 + tail, so the ball shrinks to eta_r.
    # The scale stays that of S: YY^H = Y_r Y_r^H, so the scaled optimum is
    # the caller's
    vr, tail = _signal_subspace(s, eta)
    vr_h = vr.conj().T
    l = vr.shape[1]
    diag.rank = l
    s_full = s / scale
    ss = s_full @ vr
    eta_s = eta / scale
    eta_r_s = np.sqrt(max(eta**2 - tail, 0.0)) / scale

    hcoefs = band_coefficients(*band) if band is not None else None
    # the data choose the atoms; the ADMM passes below only weigh them, and
    # the certificate returns their fit Y_r = atoms @ coef, so this misfit
    # ||S - Y_r V_r^H||_F (in scaled units) is also the answer's
    freqs, atoms, coef = _data_atoms(ss, band, eta_r_s)
    misfit = float(np.linalg.norm(s_full - (atoms @ coef) @ vr_h))
    diag.data_misfit = misfit * scale
    if misfit > _fit_tol(eta_s):
        diag.stop_reason = "misfit_over_eta"
        diag.feasible = False
        raise AdmmError(
            f"no in-band atomic fit reaches the noise ball: data misfit "
            f"{diag.data_misfit:.3e} vs eta {diag.eta:.3e}",
            diag,
        )
    upd = _u_update(n, hcoefs)
    root = np.sqrt(n)

    def constraints(z, y, u):
        """The matrices held PSD: the block matrix, then Tb(u) with a band."""
        mats = [_assemble(z, y, u)]
        if hcoefs is not None:
            mats.append(band_matrix_from_u(u, *hcoefs))
        return mats

    # cold start from the sample covariance of the kept data
    t0 = hermitize(ss @ ss.conj().T) / l
    u = _diag_means(t0)
    u[0] = u[0].real
    y = ss.copy()
    z = hermitize(y.conj().T @ y) / root
    copies = [psd_project(c) for c in constraints(z, y, u)]
    duals = [np.zeros_like(c) for c in copies]
    rho = _RHO_INIT

    w = np.eye(n, dtype=np.complex128)
    eps = None

    for outer in range(_MAX_OUTER):
        if outer > 0:
            # reweight at the last pass's iterate
            vals, vecs = np.linalg.eigh(toeplitz_from_u(u))
            if eps is None:
                eps = max(float(vals[-1]), 1e-12) / 10.0
            else:
                eps *= _EPS_DECAY
            w = (vecs * (1.0 / (np.clip(vals, 0.0, None) + eps))) @ vecs.conj().T
        g_step = upd.gradient_step(_objective_gradient(w))
        max_inner = _INNER_ITERS_FIRST if outer == 0 else _INNER_ITERS
        for it in range(max_inner):
            # each copy - dual is Hermitian up to rounding; each update reads
            # one triangle of it
            a = [c - d for c, d in zip(copies, duals)]
            z = a[0][:l, :l] - (1.0 / (2.0 * root * rho)) * np.eye(l)
            y = _ball_project(a[0][l:, :l], ss, eta_r_s)
            sums = np.concatenate([_diag_sums(a[0][l:, l:])] + [_diag_sums(b) for b in a[1:]])
            u = (upd.gain @ sums.view(np.float64) - g_step / rho).view(np.complex128)

            r_norm = s_norm = m_scale = 0.0
            for k, new in enumerate(constraints(z, y, u)):
                prev = copies[k]
                relax = _OVER_RELAX * new + (1.0 - _OVER_RELAX) * prev
                copies[k] = psd_project(relax + duals[k])
                duals[k] = duals[k] + relax - copies[k]
                r_norm = np.hypot(r_norm, _norm(new - copies[k]))
                s_norm = np.hypot(s_norm, rho * _norm(copies[k] - prev))
                m_scale = max(m_scale, _norm(new), _norm(copies[k]))

            if r_norm < _TOL_REL * m_scale and s_norm < _TOL_REL * rho * m_scale:
                break
            if (it + 1) % _ADAPT_EVERY == 0:
                if r_norm > _ADAPT_RATIO * s_norm and rho < _RHO_MAX:
                    rho *= _ADAPT_FACTOR
                    duals = [d / _ADAPT_FACTOR for d in duals]
                elif s_norm > _ADAPT_RATIO * r_norm and rho > _RHO_MIN:
                    rho /= _ADAPT_FACTOR
                    duals = [d * _ADAPT_FACTOR for d in duals]
        diag.inner_iters.append(it + 1)

    diag.stop_reason = "max_outer"
    cert = _atomic_certificate(u, freqs, atoms, coef)
    if cert is None:
        diag.feasible = False
        raise AdmmError(
            "no atomic certificate: the iterate gives no atom a positive "
            f"power, so nothing can be audited against eta {diag.eta:.3e}",
            diag,
        )
    z_c, y_c, u_c, powers = cert
    extremes = [np.linalg.eigvalsh(c)[[0, -1]] for c in constraints(z_c, y_c, u_c)]
    diag.feasible = all(lo >= -1e-6 * max(hi, 1e-12) for lo, hi in extremes)
    if not diag.feasible:
        raise AdmmError(
            "the atomic certificate fails its feasibility audit (data misfit "
            f"{diag.data_misfit:.3e} vs eta {diag.eta:.3e}); eta may be "
            "below the distance from the data to the band-constrained "
            "signal set",
            diag,
        )
    keep = powers > _RANK_TOL * powers.max()
    diag.atom_freqs = freqs[keep]
    diag.atom_powers = powers[keep] * scale * scale
    return u_c * scale * scale, (y_c @ vr_h) * scale, diag
