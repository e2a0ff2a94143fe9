"""Within-cell range super-resolution on extracted multi-snapshot data.

A detected range-Doppler cell is turned back into a fast-time line-spectrum
problem: matched-filtering the element cube over slow time at the detected
(scaled) Doppler bin collapses each element's fast-time sequence to a sum of
tones whose frequencies encode the in-cell ranges. The sequence is
demodulated so the expected band sits around a quarter cycle, then decimated
with an integer stride so a small number of samples still spans the full
chirp (keeping the native range aperture). The resulting N_ex x L matrix S
feeds either the band-constrained reweighted Toeplitz SDP, its
unconstrained variant, or MUSIC; recovered local frequencies map affinely
back to absolute range. The noise level comes from S itself, not the scene.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cfar import DetectionGroup, parabolic_offset
from .config import ConfigError, RadarConfig
from .cube import DataCube, axis_values
from .sdp import (
    _RANK_TOL,
    AdmmError,
    SdpDiagnostics,
    atom_matrix,
    esprit,
    nnls_powers,
    signal_rank,
    solve_weighted_toeplitz_sdp,
)

_CHUNK_N = 64
_ETA_MODEL_REL = 5e-4   # eta floor, as a fraction of the data norm
_BAND_PAD_CELLS = 1.0   # prior band reaches this many range cells past the group
_MUSIC_GRID = 8192      # MUSIC pseudo-spectrum points per cycle


class SuperResError(RuntimeError):
    pass


@dataclass(frozen=True)
class FreqBand:
    """Normalized fast-time frequency band, inside the unambiguous (0, 0.5)."""

    f_lo: float
    f_hi: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.f_lo < self.f_hi <= 0.5:
            raise ConfigError(f"band ({self.f_lo}, {self.f_hi}) must satisfy 0 <= lo < hi <= 0.5")

    @classmethod
    def full(cls) -> "FreqBand":
        return cls(0.0, 0.5)

    @property
    def is_full(self) -> bool:
        return self.f_lo == 0.0 and self.f_hi == 0.5

    @property
    def width(self) -> float:
        return self.f_hi - self.f_lo

    @property
    def center(self) -> float:
        return 0.5 * (self.f_lo + self.f_hi)


@dataclass(frozen=True)
class MmvMatrix:
    """Extracted snapshot matrix plus the bookkeeping to undo the mapping.

    A fast-time tone at global frequency f appears in `data` at local
    frequency (f - f_shift) * step (mod 1).
    """

    data: np.ndarray
    f_shift: float
    step: int
    doppler_bin: float
    band: FreqBand
    config: RadarConfig

    @property
    def n_samples(self) -> int:
        return self.data.shape[0]

    @property
    def n_snapshots(self) -> int:
        return self.data.shape[1]

    def local_freq(self, f_global: float) -> float:
        return ((f_global - self.f_shift) * self.step) % 1.0

    def global_freq(self, f_local) -> np.ndarray:
        return self.f_shift + np.asarray(f_local, dtype=np.float64) / self.step

    def local_band(self) -> tuple[float, float]:
        lo = (self.band.f_lo - self.f_shift) * self.step
        hi = (self.band.f_hi - self.f_shift) * self.step
        return float(lo), float(hi)

    @property
    def sigma(self) -> float:
        """Per-entry noise standard deviation, read from the data: the rank r
        is `sdp.signal_rank`, the count of singular values above
        omega(beta) * median (Gavish & Donoho's unknown-noise threshold, IEEE
        TIT 2014; r may be 0), which the SDP also starts its kept rank from,
        and the rest give sigma = sqrt(sum_{i>=r} s_i^2 / ((N - r)(L - r))).
        `default_eta` and the SDP's tail share those s_i, so at r = 1 a noise
        eta leaves the restricted ball eta_r^2 / eta^2 = 1 - 465 / 557.25 =
        0.166 at N=32, L=16. A single column has no noise bulk, so it reads 0
        and eta is the model floor; the pipeline and the grid never build one
        (their snapshots are the 16 elements)."""
        n, l = self.data.shape
        if min(n, l) < 2:
            return 0.0
        s = np.linalg.svd(self.data, compute_uv=False)
        r = signal_rank(s, (n, l))
        return float(np.sqrt(np.sum(s[r:] ** 2) / ((n - r) * (l - r))))

    def default_eta(self) -> float:
        """Noise budget: Frobenius tail bound for noise of the level `sigma`
        reads from the data, floored at a small fraction of the data norm.

        The floor covers the extraction's model error: the slow-time matched
        filter runs at the refined (fractional) Doppler bin, which cancels
        the range walk only approximately, and neighboring Doppler channels
        leak in at the Dirichlet-sidelobe level, so even noise-free data sits
        a few 1e-5 away from an exact sum of atoms. Without the floor,
        noise-free solves are handed an unattainable eta = 0; much looser and
        eta admits fits with one atom too few (the closest smaller-order fit
        observed sits near 5e-3 of the data norm).
        """
        m = self.data.size
        noise = self.sigma * np.sqrt(m + 2.0 * np.sqrt(m))
        floor = _ETA_MODEL_REL * float(np.linalg.norm(self.data))
        return float(max(noise, floor))


def decimation_rows(n_fast: int, n_ex: int) -> np.ndarray:
    """Storage indices of the fast-time rows that extraction reads: every
    (n_fast // n_ex)-th row from the first, n_ex of them."""
    if n_ex < 2 or n_ex > n_fast:
        raise ConfigError(f"n_ex={n_ex} must be in [2, {n_fast}]")
    return np.arange(n_ex) * (n_fast // n_ex)


@dataclass(frozen=True)
class ExtractionRows:
    """The rows `decimation_rows(n_fast, n_ex)` of an element cube, which is
    all that extraction reads of it: the stare keeps them for step 3."""

    data: np.ndarray       # complex, shape (n_ex, M, L)
    n_fast: int            # fast-time length of the cube they come from
    config: RadarConfig

    @classmethod
    def of(cls, cube: DataCube, n_ex: int) -> "ExtractionRows":
        if cube.axis2_kind != "element":
            raise ConfigError("extraction wants the raw element cube")
        return cls(cube.data[decimation_rows(cube.n_fast, n_ex)], cube.n_fast, cube.config)

    @property
    def n_ex(self) -> int:
        return self.data.shape[0]


def extract_mmv(
    cube: DataCube | ExtractionRows,
    doppler_bin: float,
    band: FreqBand,
    n_ex: int = 32,
) -> MmvMatrix:
    """Matched-filter, demodulate, and decimate one detected Doppler cell.

    `cube` is an element cube, or the n_ex rows of one that extraction reads
    (`ExtractionRows`); both run the same code.
    """
    if band.is_full:
        raise ConfigError("extraction needs a finite prior band for demodulation")
    if isinstance(cube, DataCube):
        cube = ExtractionRows.of(cube, n_ex)
    elif cube.n_ex != n_ex:
        raise ConfigError(f"n_ex={n_ex}, but {cube.n_ex} rows were kept")
    n_fast = cube.n_fast
    _, n_slow, n_channels = cube.data.shape
    step = n_fast // n_ex
    if step * band.width > 0.5:
        raise ConfigError("band too wide for the decimation stride")
    cfg = cube.config
    f_shift = band.center - 0.25 / step

    n_vals = (decimation_rows(n_fast, n_ex) - n_fast // 2).astype(np.float64)
    m_vals = axis_values(n_slow).astype(np.float64)
    alphas = 1.0 + cfg.chirp_rate_hz_per_s * n_vals * cfg.dt / cfg.carrier_hz
    out = np.empty((n_ex, n_channels), dtype=np.complex128)
    for j0 in range(0, n_ex, _CHUNK_N):
        j1 = min(j0 + _CHUNK_N, n_ex)
        phase = np.exp(
            (-2j * np.pi * doppler_bin / n_slow) * np.outer(alphas[j0:j1], m_vals)
        )
        filtered = np.einsum("nm,nml->nl", phase, cube.data[j0:j1])
        demod = np.exp(-2j * np.pi * f_shift * n_vals[j0:j1])
        out[j0:j1] = filtered * demod[:, None]
    return MmvMatrix(
        data=out,
        f_shift=float(f_shift),
        step=int(step),
        doppler_bin=float(doppler_bin),
        band=band,
        config=cfg,
    )


def prior_band(group: DetectionGroup, n_fast: int) -> FreqBand:
    """Frequency band covering the group's range bins plus a one-cell pad."""
    bins = [d.refined_range_bin for d in group.members]
    lo = (min(bins) - _BAND_PAD_CELLS) / n_fast
    hi = (max(bins) + _BAND_PAD_CELLS) / n_fast
    eps = 1.0 / (64.0 * n_fast)
    lo = max(lo, eps)
    hi = min(hi, 0.5 - eps)
    if not lo < hi:
        raise SuperResError(f"group bins {bins} leave no usable band")
    return FreqBand(lo, hi)


def vandermonde_decompose(
    u: np.ndarray, n_atoms: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies and non-negative powers of T(u) = sum_k p_k a(f_k)a(f_k)^H.

    Frequencies come from a shift-invariance (ESPRIT style) fit on the signal
    eigenspace; powers from non-negative least squares on the Toeplitz
    entries. Atoms whose power is at most _RANK_TOL of the largest (the
    floor that counts signal eigenvalues) are dropped: their frequencies are
    arbitrary. Raises when T(u) is numerically full rank, which signals that
    the solver was run with too small a noise budget.
    """
    u = np.asarray(u, dtype=np.complex128)
    freqs, rank = esprit(u, n_atoms)
    if n_atoms is None and rank >= u.shape[0]:
        raise SuperResError(
            "Toeplitz factor is full rank; increase the noise budget eta"
        )
    if freqs.size == 0:
        return np.empty(0), np.empty(0)
    powers = nnls_powers(u, freqs)
    keep = powers > _RANK_TOL * powers.max()
    return freqs[keep], powers[keep]


def mdl_order(eigvals: np.ndarray, n_snapshots: int) -> int:
    """Minimum-description-length source count from covariance eigenvalues."""
    lam = np.sort(np.asarray(eigvals, dtype=np.float64))[::-1]
    n_eff = int(min(lam.shape[0], n_snapshots))
    lam = np.maximum(lam[:n_eff], 1e-18 * max(lam[0], 1e-300))
    best_k, best_val = 0, np.inf
    for k in range(n_eff):
        tail = lam[k:]
        geo = np.exp(np.mean(np.log(tail)))
        ari = np.mean(tail)
        ll = -n_snapshots * (n_eff - k) * np.log(max(geo / ari, 1e-300))
        pen = 0.5 * k * (2 * n_eff - k) * np.log(max(n_snapshots, 2))
        val = ll + pen
        if val < best_val:
            best_k, best_val = k, val
    return best_k


@dataclass
class SuperResResult:
    """One solve's line spectrum.

    For fsram and ram, `powers` are the weights of the atoms of T(u) after
    the last of the fixed reweighting passes, so they depend on the pass
    budget (`sdp._MAX_OUTER`): on the fixed grid's solves whose frequencies
    stay put, four passes read 0.09-1.03x of their eight-pass values
    (fsram) and 0.61-1.13x (ram). They also depend on where the inner
    residual test (`sdp._TOL_REL`) stops each pass: at 1e-3 they read
    0.90-1.58x (fsram) and 0.80-1.20x (ram) of their 1e-6 values on those
    solves. Use them only relative to each other, as the step-3 gates do
    (the 1% keep gate, the 10% leakage test, the dedup order and
    `top_ranges`). For music they are mean squared amplitudes.
    """

    method: str
    freqs_local: np.ndarray
    freqs_global: np.ndarray
    ranges_m: np.ndarray
    powers: np.ndarray
    amplitudes: np.ndarray            # atoms x snapshots
    eta: float
    in_band: np.ndarray
    diagnostics: SdpDiagnostics | None = None

    @property
    def n_atoms(self) -> int:
        return int(self.freqs_local.shape[0])

    def top_ranges(self, k: int) -> np.ndarray:
        order = np.argsort(self.powers)[::-1][:k]
        return np.sort(self.ranges_m[order])

    def solver_summary(self) -> dict:
        """What a run report says about the SDP solve: kept rank, stop
        reason, passes, total inner iterations and full-data misfit; empty
        for music."""
        d = self.diagnostics
        if d is None:
            return {}
        return {
            "rank": d.rank,
            "stop_reason": d.stop_reason,
            "outer_iters": d.outer_iters,
            "inner_iters": int(sum(d.inner_iters)),
            "data_misfit": d.data_misfit,
        }

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "freqs_local": [float(f) for f in self.freqs_local],
            "freqs_global": [float(f) for f in self.freqs_global],
            "ranges_m": [float(r) for r in self.ranges_m],
            "powers": [float(p) for p in self.powers],
            "eta": self.eta,
            "in_band": [bool(b) for b in self.in_band],
            **self.solver_summary(),
        }


def _solve_band(local: tuple[float, float], n_ex: int) -> tuple[float, float]:
    """Clamp the local band into (0, 0.5) and enforce a minimum width."""
    lo, hi = local
    floor = 1.0 / (4.0 * n_ex)
    if hi - lo < floor:
        mid = 0.5 * (lo + hi)
        lo, hi = mid - 0.5 * floor, mid + 0.5 * floor
    lo = max(lo, 1e-4)
    hi = min(hi, 0.5 - 1e-4)
    if not lo < hi:
        raise SuperResError(f"degenerate local band ({lo}, {hi})")
    return lo, hi


def _finalize(
    method: str,
    mmv: MmvMatrix,
    freqs_local: np.ndarray,
    powers: np.ndarray,
    y: np.ndarray,
    eta: float,
    diagnostics: SdpDiagnostics | None,
) -> SuperResResult:
    freqs_local = np.asarray(freqs_local, dtype=np.float64)
    powers = np.asarray(powers, dtype=np.float64)
    if freqs_local.size:
        amps = np.linalg.pinv(atom_matrix(freqs_local, mmv.n_samples)) @ y
    else:
        amps = np.zeros((0, mmv.n_snapshots), dtype=np.complex128)
    f_global = mmv.global_freq(freqs_local)
    ranges = np.array([mmv.config.range_of_freq(f) for f in f_global])
    lo, hi = mmv.local_band()
    guard = 1.0 / (2.0 * mmv.n_samples)
    in_band = (freqs_local >= lo - guard) & (freqs_local <= hi + guard)
    return SuperResResult(
        method=method,
        freqs_local=freqs_local,
        freqs_global=np.asarray(f_global, dtype=np.float64),
        ranges_m=ranges,
        powers=powers,
        amplitudes=amps,
        eta=eta,
        in_band=in_band,
        diagnostics=diagnostics,
    )


def _toeplitz_solve(
    method: str,
    mmv: MmvMatrix,
    eta: float | None,
    n_atoms: int | None,
    band: tuple[float, float] | None,
    failure: str,
) -> SuperResResult:
    eta = mmv.default_eta() if eta is None else float(eta)
    try:
        u, y, diag = solve_weighted_toeplitz_sdp(mmv.data, eta, band)
    except AdmmError as exc:
        raise SuperResError(f"{failure} solve failed: {exc}") from exc
    freqs, powers = vandermonde_decompose(u, n_atoms=n_atoms)
    return _finalize(method, mmv, freqs, powers, y, eta, diag)


def fsram_solve(
    mmv: MmvMatrix, eta: float | None = None, n_atoms: int | None = None
) -> SuperResResult:
    """Band-constrained reweighted Toeplitz recovery (the primary method)."""
    band = _solve_band(mmv.local_band(), mmv.n_samples)
    return _toeplitz_solve("fsram", mmv, eta, n_atoms, band, "band-constrained")


def ram_solve(
    mmv: MmvMatrix, eta: float | None = None, n_atoms: int | None = None
) -> SuperResResult:
    """Same solver without the band constraint (baseline)."""
    return _toeplitz_solve("ram", mmv, eta, n_atoms, None, "unconstrained")


def music_spectrum(
    data: np.ndarray, n_sources: int, grid: np.ndarray
) -> np.ndarray:
    """MUSIC pseudo-spectrum of an N x L snapshot matrix on `grid` freqs."""
    n, l = data.shape
    cov = data @ data.conj().T / max(l, 1)
    vals, vecs = np.linalg.eigh(cov)
    noise = vecs[:, : n - n_sources]
    a = atom_matrix(grid, n)
    denom = np.sum(np.abs(noise.conj().T @ a) ** 2, axis=0)
    return 1.0 / np.maximum(denom, 1e-300)


def music_solve(mmv: MmvMatrix, n_sources: int | None = None) -> SuperResResult:
    """Classic subspace baseline; degrades on coherent snapshots by design."""
    data = mmv.data
    n, l = data.shape
    cov = data @ data.conj().T / max(l, 1)
    vals = np.linalg.eigvalsh(cov)
    if n_sources is None:
        n_sources = mdl_order(vals, l)
    n_sources = int(min(max(n_sources, 0), n - 1))
    if n_sources == 0:
        return _finalize(
            "music", mmv, np.empty(0), np.empty(0), data, 0.0, None
        )
    grid = np.linspace(0.0, 1.0, _MUSIC_GRID, endpoint=False)
    spec = music_spectrum(data, n_sources, grid)
    # imported here: scipy.signal is about half of `import rangesr` otherwise
    from scipy.signal import find_peaks

    wrapped = np.concatenate([spec, spec[:1]])
    peaks, props = find_peaks(wrapped, height=0.0)
    peaks = peaks % _MUSIC_GRID
    if peaks.size == 0:
        peaks = np.array([int(np.argmax(spec))])
        heights = spec[peaks]
    else:
        heights = props["peak_heights"]
    order = np.argsort(heights)[::-1][:n_sources]
    sel = np.sort(np.unique(peaks[order]))
    logspec = np.log(spec)
    offsets = [
        parabolic_offset(logspec[pk - 1], logspec[pk], logspec[(pk + 1) % _MUSIC_GRID])
        for pk in sel
    ]
    freqs = np.mod((sel + np.asarray(offsets)) / _MUSIC_GRID, 1.0)
    amps = np.linalg.pinv(atom_matrix(freqs, n)) @ data
    powers = np.mean(np.abs(amps) ** 2, axis=1)
    return _finalize("music", mmv, freqs, powers, data, 0.0, None)


def solve_by_name(method: str, mmv: MmvMatrix, n_atoms: int | None = None) -> SuperResResult:
    if method == "fsram":
        return fsram_solve(mmv, n_atoms=n_atoms)
    if method == "ram":
        return ram_solve(mmv, n_atoms=n_atoms)
    if method == "music":
        return music_solve(mmv, n_sources=n_atoms)
    raise ConfigError(f"unknown method {method!r}")
