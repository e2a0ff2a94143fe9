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
N=32, L=16. The audits below (the first-pass "doomed" test, the final
misfit, `SdpDiagnostics.data_misfit`) measure ||S - Y||_F on the full S,
so _DOOMED_RATIO counts the caller's etas.

The weight W is refreshed between passes as (T(u) + eps I)^{-1}, with u
the last pass's iterate (majorization-minimization for log-det sparsity);
W = I on the first pass. eps is lambda_max(T(u_1))/10 after the first pass
and halves after each later one. Every pass runs: the loop keeps no
acceptance test, because the objectives of loose ADMM iterates are not
those of feasible points and so cannot say whether a pass helped. The
last pass's iterate goes to the certificate below.

The budget is fixed: _MAX_OUTER reweighting passes, the first of at most
_INNER_ITERS_FIRST ADMM iterations and the rest of at most _INNER_ITERS
(the comment on those constants gives the cost). A pass ends earlier when
the primal and dual residuals fall below _TOL_REL of their scales, Boyd et
al.'s relative test (FnT ML 2011, sec. 3.3.1) at their 1e-3; on the
benchmark's solves it saves about half the inner iterations.

ADMM splitting: consensus copies Q (of the big block matrix) and P (of Tb)
carry the PSD constraints; Z, Y, u have closed-form updates. The u update
is a banded real least-squares problem whose normal matrix depends only on
(N, band), so it is Cholesky-factored once per solve.

The structure maps of the inner loop (the diagonal means that feed the u
update, and the Toeplitz layouts of T(u) and Tb(u)) are gathers through
flat index maps computed once per N and cached, so an inner iteration runs
no per-diagonal Python loop.

The returned solution must survive a feasibility audit (ball within
eta(1+1e-6)+1e-9, block matrix and Tb eigenvalues above -1e-6 relative).
First-order iterates approach that set tangentially near low-rank optima,
so the solver refits the atoms of the final iterate to the data
(projected Gauss-Newton on the frequencies, clipped to the band) and
returns the Gram-form certificate [[C^H P^-1 C, C^H A^H], [A C, A P A^H]],
which is PSD by construction with Tb PSD because in-band atoms have
nonnegative transform weights. Only the data misfit can then fail, which
is exactly the eta-infeasible case. The certificate is the only way out
of the ADMM loop: a solve whose certificate fails the audit, or that yields
none, raises AdmmError. Data already inside the noise ball (||S||_F <= eta)
never enters the loop; u = 0 and Y = 0 are optimal there, and the solve
returns that empty spectrum with stop reason "inside_noise_ball".

The certificate of the first pass's iterate is audited too: a misfit above
_DOOMED_RATIO * eta means the band cannot explain the data (on the noisy
exp scenes the groups that fail read 35-535 eta there, and those that are
solved read at most 1), so the solve raises AdmmError at once instead of
spending its remaining passes.

Stop reasons (`SdpDiagnostics.stop_reason`):
- "inside_noise_ball": ||S||_F <= eta, returned before any ADMM work;
- "doomed_after_first_pass": raised after pass 1, the certificate misfit
  exceeds _DOOMED_RATIO * eta;
- "max_outer": all _MAX_OUTER passes ran; the certificate audit then
  returns or raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import cho_factor, cho_solve
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
_RANK_TOL = 1e-6       # eigenvalues of T(u) above this fraction of the top are signal
_DOOMED_RATIO = 10.0   # first-pass certificate misfit, in etas, that ends a solve
_GN_ITERS = 30         # Gauss-Newton steps of the certificate's atom refit

# The ADMM budget: reweighting passes, and inner iterations per pass. Four
# passes: the answers are the atoms of the certificate refitted to the data.
# On the fixed grids (fsram and ram) and the noise-free exp1/exp2 scenes,
# three, four and eight passes give the same successes and ranges (to 2e-8
# m); only the four K=3 grid trials whose prior band misses a target move.
# On exp2 at 0 dB, seed 0, three passes keep two ghost atoms of one group
# (60.475 and 63.824 m) that the fourth removes; exp1 at 0 dB and exp2 at
# 10 dB read the same at three and four passes. The inner stop (_TOL_REL,
# see the module docstring) can be loose because the certificate refits its
# atoms to the data: at 1e-3 the grid successes and the noise-free exp1/exp2
# ranges repeat those of 1e-6 (to 1e-8 m), and the benchmark's inner
# iterations halved when it was set (grid_fsram 8,700 -> 4,232, scene_clean
# 3,000 -> 1,472). 1e-4 saves 1% of them, and 3e-3 moves atoms in ghost
# groups of exp2 at 0 dB. The cost is at most proportional to
# _INNER_ITERS_FIRST + (_MAX_OUTER - 1) * _INNER_ITERS, and each inner
# iteration projects the (N+r)x(N+r) block matrix (r the kept rank,
# `SdpDiagnostics.rank`) and, with a band, the (N-1)x(N-1) band matrix onto
# the PSD cone. The solver reads these names at call time, so a test can
# patch them.
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

    @property
    def outer_iters(self) -> int:
        """Reweighting passes run, one per entry of `inner_iters`."""
        return len(self.inner_iters)


class AdmmError(RuntimeError):
    """Solver could not produce an audited feasible iterate within budget."""

    def __init__(self, message: str, diagnostics: SdpDiagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


def hermitize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().T)


def psd_project(a: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(hermitize(a))
    np.maximum(vals, 0.0, out=vals)
    return (vecs * vals) @ vecs.conj().T


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


def _interleave(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """[w0*Re v0, w1*Re v1, w1*Im v1, ...]: index 0 is real-only."""
    out = np.empty(2 * values.shape[0] - 1)
    out[0] = weights[0] * values[0].real
    out[1::2] = weights[1:] * values[1:].real
    out[2::2] = weights[1:] * values[1:].imag
    return out


def _u_from_x(x: np.ndarray) -> np.ndarray:
    n = (x.shape[0] + 1) // 2
    u = np.empty(n, dtype=np.complex128)
    u[0] = x[0]
    u[1:] = x[1::2] + 1j * x[2::2]
    return u


class _UUpdate:
    """Prefactored least-squares map for the Toeplitz vector update.

    Minimizes over u:
        g(W)^T x + (rho/2)(||T(u) - A||_F^2 + ||Tb(u) - B||_F^2)
    which in real parameters x is g^T x + (rho/2)||Phi x - tau(A, B)||^2.
    Phi depends only on (N, band), so its normal matrix is factored once.
    tau is built from the diagonal means of A and B, which `_diag_means`
    gathers through an index map cached per N.
    """

    def __init__(self, n: int, band: tuple[complex, float] | None):
        self.n = n
        self.band = band
        self.kappa = np.sqrt(np.array([n] + [2.0 * (n - d) for d in range(1, n)]))
        if band is not None:
            self.mu = np.sqrt(
                np.array([n - 1.0] + [2.0 * (n - 1 - e) for e in range(1, n - 1)])
            )
        dim = 2 * n - 1
        cols = [self._apply(np.eye(dim)[:, j]) for j in range(dim)]
        phi = np.stack(cols, axis=1)
        self.phi = phi
        self.cho = cho_factor(phi.T @ phi + 1e-12 * np.eye(dim))

    def _apply(self, x: np.ndarray) -> np.ndarray:
        u = _u_from_x(x)
        parts = [_interleave(self.kappa, u)]
        if self.band is not None:
            h1, h2 = self.band
            parts.append(_interleave(self.mu, _band_diagonals(u, h1, h2)))
        return np.concatenate(parts)

    def target(self, a_means: np.ndarray, b_means: np.ndarray | None) -> np.ndarray:
        parts = [_interleave(self.kappa, a_means)]
        if self.band is not None:
            parts.append(_interleave(self.mu, b_means))
        return np.concatenate(parts)

    def solve(self, g: np.ndarray, rho: float, tau: np.ndarray) -> np.ndarray:
        rhs = self.phi.T @ tau - g / rho
        return _u_from_x(cho_solve(self.cho, rhs, check_finite=False))


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
        return a.copy()
    return s + diff * (eta / nrm)


def _assemble(z: np.ndarray, y: np.ndarray, u: np.ndarray) -> np.ndarray:
    l, n = y.shape[1], y.shape[0]
    m = np.empty((l + n, l + n), dtype=np.complex128)
    m[:l, :l] = z
    m[l:, :l] = y
    m[:l, l:] = y.conj().T
    m[l:, l:] = toeplitz_from_u(u)
    return m


def atom_matrix(freqs: np.ndarray, n: int) -> np.ndarray:
    """Columns exp(j 2 pi f k), k = 0..n-1."""
    k = np.arange(n)[:, None]
    return np.exp(2j * np.pi * k * np.asarray(freqs)[None, :])


def esprit(u: np.ndarray, n_atoms: int | None = None) -> tuple[np.ndarray, int]:
    """Atom frequencies of T(u) by rotational invariance, and the rank of T(u).

    The signal subspace holds the `n_atoms` dominant eigenvectors, or those
    whose eigenvalues exceed _RANK_TOL of the largest; at most n-1 either way.
    """
    n = u.shape[0]
    vals, vecs = np.linalg.eigh(toeplitz_from_u(u))
    rank = int(np.count_nonzero(vals > _RANK_TOL * max(vals[-1], 1e-300)))
    size = min(rank if n_atoms is None else int(n_atoms), n - 1)
    if rank == 0 or size <= 0:
        return np.empty(0), rank
    sub = vecs[:, n - size:]
    rot = np.linalg.pinv(sub[:-1]) @ sub[1:]
    f = np.angle(np.linalg.eigvals(rot)) / (2.0 * np.pi)
    return np.sort(np.mod(f, 1.0)), rank


def nnls_powers(u: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Nonnegative atom powers fitting u: u_d ~= sum_q p_q e^{j2pi f_q d}."""
    basis = atom_matrix(freqs, u.shape[0])
    stacked = np.vstack([basis.real, basis.imag])
    target = np.concatenate([u.real, u.imag])
    powers, _ = nnls(stacked, target)
    return powers


def _gn_refine(
    ss: np.ndarray,
    freqs: np.ndarray,
    band: tuple[float, float] | None,
) -> tuple[np.ndarray, np.ndarray, float]:
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
        a = atom_matrix(fv, n)
        c, *_ = np.linalg.lstsq(a, ss, rcond=None)
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
    order = np.argsort(f)
    return f[order], c[order], cost


def _residual_peak(residual: np.ndarray, band: tuple[float, float] | None) -> float:
    """Frequency whose atom best correlates with the residual, on a dense grid."""
    n = residual.shape[0]
    lo, hi = band if band is not None else (0.0, 1.0)
    grid = lo + (hi - lo) * np.arange(2048) / (2048 if band is None else 2047)
    corr = atom_matrix(grid, n).conj().T @ residual
    return float(grid[int(np.argmax(np.sum(np.abs(corr) ** 2, axis=1)))])


def _refined_fit(
    ss: np.ndarray, init: np.ndarray, band: tuple[float, float] | None
) -> tuple[np.ndarray, np.ndarray, float]:
    freqs, c, cost = _gn_refine(ss, init, band)
    keep = np.concatenate(([True], np.diff(freqs) > 1e-9))
    return freqs[keep], c[keep], float(np.sqrt(cost))


def _fit_tol(eta_s: float) -> float:
    """Largest data misfit the audit accepts for a (scaled) noise budget."""
    return eta_s * (1.0 + 1e-6) + 1e-9


def _atomic_certificate(
    u_admm: np.ndarray,
    ss: np.ndarray,
    band: tuple[float, float] | None,
    eta_s: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Exactly feasible (z, y, u) built from refined atoms of the iterate.

    With atoms A, powers Sigma and amplitudes C the block matrix
    [[C^H Sigma^-1 C, C^H A^H], [A C, A Sigma A^H]] is a Gram matrix, hence
    PSD to machine precision, and every clipped atom has a nonnegative
    band-transform weight, so Tb(u) is PSD as well. The only quantity left
    to audit is the data misfit ||S - AC||, which the caller compares
    against eta; a miss there means the band cannot explain the data.

    Candidate atom sets come from ESPRIT on the iterate and from forward
    selection on residual peaks; the fewest atoms that stay inside the eta
    ball win. A half-converged iterate can split one true atom in two, and
    reading its rank verbatim would lock in the overfit. There is no
    certificate (None) when no atom gets a positive power in u.
    """
    n = u_admm.shape[0]
    fit_ok = _fit_tol(eta_s)
    candidates: list[tuple[np.ndarray, np.ndarray, float]] = []

    freqs, _ = esprit(u_admm)
    if band is not None:
        freqs = np.clip(freqs, band[0], band[1])
    freqs = np.unique(freqs)
    if freqs.size:
        candidates.append(_refined_fit(ss, freqs, band))

    forward: list[float] = []
    for _ in range(min(n - 1, 16)):
        a = atom_matrix(forward, n)
        coef, *_ = np.linalg.lstsq(a, ss, rcond=None) if forward else (np.zeros((0, ss.shape[1])),)
        forward.append(_residual_peak(ss - a @ coef, band))
        cand = _refined_fit(ss, np.array(forward), band)
        candidates.append(cand)
        forward = list(cand[0])
        if cand[2] <= fit_ok:
            break

    feasible = [c for c in candidates if c[2] <= fit_ok]
    freqs = min(feasible or candidates, key=lambda c: (c[0].size, c[2]))[0]
    powers = nnls_powers(u_admm, freqs)
    if powers.max() <= 0.0:
        return None
    powers = np.maximum(powers, 1e-9 * powers.max())
    atoms = atom_matrix(freqs, n)
    c, *_ = np.linalg.lstsq(atoms, ss, rcond=None)
    y = atoms @ c
    z = hermitize(c.conj().T @ ((1.0 / powers)[:, None] * c))
    u = atoms @ powers.astype(np.complex128)
    return z, y, u


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
    """Returns (u, Y, diagnostics); T(u) carries the recovered line spectrum.

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

    def full_misfit(y_r: np.ndarray) -> float:
        """||S - Y_r V_r^H||_F in scaled units: the caller's misfit."""
        return float(np.linalg.norm(s_full - y_r @ vr_h))

    hcoefs = band_coefficients(*band) if band is not None else None
    upd = _UUpdate(n, hcoefs)
    root = np.sqrt(n)

    # cold start from the sample covariance of the kept data
    t0 = hermitize(ss @ ss.conj().T) / l
    u = _diag_means(t0)
    u[0] = u[0].real
    y = ss.copy()
    z = hermitize(y.conj().T @ y) / root
    q = psd_project(_assemble(z, y, u))
    lam = np.zeros_like(q)
    p = gam = None
    if hcoefs is not None:
        p = psd_project(band_matrix_from_u(u, *hcoefs))
        gam = np.zeros_like(p)
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
        g_vec = _objective_gradient(w)
        max_inner = _INNER_ITERS_FIRST if outer == 0 else _INNER_ITERS
        inner_done = 0
        for it in range(max_inner):
            a = hermitize(q - lam)  # exactly Hermitian, and so is each diagonal block
            z = a[:l, :l] - (1.0 / (2.0 * root * rho)) * np.eye(l)
            y = _ball_project(a[l:, :l], ss, eta_r_s)
            a_means = _diag_means(a[l:, l:])
            b_means = None
            if hcoefs is not None:
                b = hermitize(p - gam)
                b_means = _diag_means(b)
            tau = upd.target(a_means, b_means)
            u = upd.solve(g_vec, rho, tau)

            m_new = _assemble(z, y, u)
            q_prev = q
            m_relax = _OVER_RELAX * m_new + (1.0 - _OVER_RELAX) * q_prev
            q = psd_project(m_relax + lam)
            lam = lam + m_relax - q
            r_norm = np.linalg.norm(m_new - q)
            s_norm = rho * np.linalg.norm(q - q_prev)
            m_scale = max(np.linalg.norm(m_new), np.linalg.norm(q))
            if hcoefs is not None:
                tb_new = band_matrix_from_u(u, *hcoefs)
                p_prev = p
                tb_relax = _OVER_RELAX * tb_new + (1.0 - _OVER_RELAX) * p_prev
                p = psd_project(tb_relax + gam)
                gam = gam + tb_relax - p
                r_norm = np.hypot(r_norm, np.linalg.norm(tb_new - p))
                s_norm = np.hypot(s_norm, rho * np.linalg.norm(p - p_prev))
                m_scale = max(m_scale, np.linalg.norm(tb_new))
            inner_done = it + 1

            if r_norm < _TOL_REL * m_scale and s_norm < _TOL_REL * rho * m_scale:
                break
            if (it + 1) % _ADAPT_EVERY == 0:
                if r_norm > _ADAPT_RATIO * s_norm and rho < _RHO_MAX:
                    rho *= _ADAPT_FACTOR
                    lam /= _ADAPT_FACTOR
                    if gam is not None:
                        gam /= _ADAPT_FACTOR
                elif s_norm > _ADAPT_RATIO * r_norm and rho > _RHO_MIN:
                    rho /= _ADAPT_FACTOR
                    lam *= _ADAPT_FACTOR
                    if gam is not None:
                        gam *= _ADAPT_FACTOR
        diag.inner_iters.append(inner_done)

        if outer == 0:
            cert = _atomic_certificate(u, ss, band, eta_r_s)
            if cert is not None:
                misfit = full_misfit(cert[1])
                if misfit > _DOOMED_RATIO * _fit_tol(eta_s):
                    diag.stop_reason = "doomed_after_first_pass"
                    diag.data_misfit = misfit * scale
                    diag.feasible = False
                    raise AdmmError(
                        "doomed after the first pass: the atomic certificate's "
                        f"data misfit {diag.data_misfit:.3e} vs eta {diag.eta:.3e} "
                        f"is over {_DOOMED_RATIO:g}x, so the band cannot explain "
                        "the data",
                        diag,
                    )

    diag.stop_reason = "max_outer"

    # an ADMM iterate rarely passes the audit at loose inner tolerances, so
    # its atoms are refitted to the data; that certificate is exactly
    # feasible by construction unless eta genuinely cannot cover the residual
    cert = _atomic_certificate(u, ss, band, eta_r_s)
    if cert is None:
        diag.feasible = False
        raise AdmmError(
            "no atomic certificate: no atom of the iterate has positive "
            f"power, so nothing can be audited against eta {diag.eta:.3e}",
            diag,
        )
    z_c, y_c, u_c = cert
    vals_m = np.linalg.eigvalsh(hermitize(_assemble(z_c, y_c, u_c)))
    ok = vals_m[0] >= -1e-6 * max(vals_m[-1], 1e-12)
    if hcoefs is not None:
        vals_b = np.linalg.eigvalsh(band_matrix_from_u(u_c, *hcoefs))
        ok = ok and vals_b[0] >= -1e-6 * max(vals_b[-1], 1e-12)
    misfit = full_misfit(y_c)
    diag.data_misfit = misfit * scale
    diag.feasible = ok and misfit <= _fit_tol(eta_s)
    if not diag.feasible:
        raise AdmmError(
            "the atomic certificate fails its feasibility audit (data misfit "
            f"{diag.data_misfit:.3e} vs eta {diag.eta:.3e}); eta may be "
            "below the distance from the data to the band-constrained "
            "signal set",
            diag,
        )
    return u_c * scale * scale, (y_c @ vr_h) * scale, diag
