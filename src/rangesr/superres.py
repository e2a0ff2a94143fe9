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
back to absolute range.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import nnls

from .cfar import DetectionGroup
from .config import ConfigError, RadarConfig
from .cube import DataCube, axis_values
from .sdp import (
    AdmmError,
    AdmmOptions,
    SdpDiagnostics,
    solve_weighted_toeplitz_sdp,
    toeplitz_from_u,
)

_CHUNK_N = 64


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
    frequency (f - f_shift) * step (mod 1); `sigma` is the per-entry noise
    standard deviation after slow-time matched filtering.
    """

    data: np.ndarray
    f_shift: float
    step: int
    start_sample: int
    sigma: float
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

    def default_eta(self, model_rel: float = 5e-4) -> float:
        """Noise budget: Frobenius tail bound for the filtered noise, floored
        at a small fraction of the data norm.

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
        floor = model_rel * float(np.linalg.norm(self.data))
        return float(max(noise, floor))


def extract_mmv(
    cube: DataCube,
    doppler_bin: float,
    band: FreqBand,
    n_ex: int = 32,
    noise_sigma: float = 0.0,
) -> MmvMatrix:
    """Matched-filter, demodulate, and decimate one detected Doppler cell."""
    if cube.axis2_kind != "element":
        raise ConfigError("extraction wants the raw element cube")
    if band.is_full:
        raise ConfigError("extraction needs a finite prior band for demodulation")
    n_fast, n_slow, _ = cube.data.shape
    if n_ex < 2 or n_ex > n_fast:
        raise ConfigError(f"n_ex={n_ex} must be in [2, {n_fast}]")
    step = n_fast // n_ex
    if step * band.width > 0.5:
        raise ConfigError("band too wide for the decimation stride")
    cfg = cube.config
    f_shift = band.center - 0.25 / step

    n_vals = cube.fast_index().astype(np.float64)
    m_vals = axis_values(n_slow).astype(np.float64)
    alphas = 1.0 + cfg.chirp_rate_hz_per_s * n_vals * cfg.dt / cfg.carrier_hz
    pick = np.arange(n_ex) * step
    out = np.empty((n_ex, cube.data.shape[2]), dtype=np.complex128)
    for j0 in range(0, n_ex, _CHUNK_N):
        j1 = min(j0 + _CHUNK_N, n_ex)
        rows = pick[j0:j1]
        phase = np.exp(
            (-2j * np.pi * doppler_bin / n_slow) * np.outer(alphas[rows], m_vals)
        )
        filtered = np.einsum("nm,nml->nl", phase, cube.data[rows])
        demod = np.exp(-2j * np.pi * f_shift * n_vals[rows])
        out[j0:j1] = filtered * demod[:, None]
    return MmvMatrix(
        data=out,
        f_shift=float(f_shift),
        step=int(step),
        start_sample=int(n_vals[0]),
        sigma=float(noise_sigma) * np.sqrt(n_slow),
        doppler_bin=float(doppler_bin),
        band=band,
        config=cfg,
    )


def prior_band(
    group: DetectionGroup, n_fast: int, pad_cells: float = 1.0
) -> FreqBand:
    """Frequency band covering the group's range bins plus a one-cell pad."""
    bins = [d.refined_range_bin for d in group.members]
    lo = (min(bins) - pad_cells) / n_fast
    hi = (max(bins) + pad_cells) / n_fast
    eps = 1.0 / (64.0 * n_fast)
    lo = max(lo, eps)
    hi = min(hi, 0.5 - eps)
    if not lo < hi:
        raise SuperResError(f"group bins {bins} leave no usable band")
    return FreqBand(lo, hi)


def atom_matrix(freqs: np.ndarray, n: int) -> np.ndarray:
    """Columns exp(j 2 pi f k), k = 0..n-1."""
    k = np.arange(n)[:, None]
    return np.exp(2j * np.pi * k * np.asarray(freqs)[None, :])


def vandermonde_decompose(
    u: np.ndarray,
    n_atoms: int | None = None,
    rank_tol: float = 1e-6,
) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies and non-negative powers of T(u) = sum_k p_k a(f_k)a(f_k)^H.

    Frequencies come from a shift-invariance (ESPRIT style) fit on the signal
    eigenspace; powers from non-negative least squares on the Toeplitz
    entries. Raises when T(u) is numerically full rank, which signals that
    the solver was run with too small a noise budget.
    """
    u = np.asarray(u, dtype=np.complex128)
    n = u.shape[0]
    t = toeplitz_from_u(u)
    vals, vecs = np.linalg.eigh(t)
    lam_max = float(vals[-1])
    if lam_max <= 0.0:
        return np.empty(0), np.empty(0)
    if n_atoms is None:
        rank = int(np.sum(vals > rank_tol * lam_max))
    else:
        rank = min(int(n_atoms), n - 1)
    if rank == 0:
        return np.empty(0), np.empty(0)
    if rank >= n and n_atoms is None:
        raise SuperResError(
            "Toeplitz factor is full rank; increase the noise budget eta"
        )
    rank = min(rank, n - 1)
    u_s = vecs[:, n - rank :]
    shifted = np.linalg.pinv(u_s[:-1]) @ u_s[1:]
    roots = np.linalg.eigvals(shifted)
    freqs = np.sort(np.mod(np.angle(roots) / (2.0 * np.pi), 1.0))

    d = np.arange(n)
    basis = np.exp(2j * np.pi * np.outer(d, freqs))
    a_stack = np.vstack([basis.real, basis.imag])
    b_stack = np.concatenate([u.real, u.imag])
    powers, _ = nnls(a_stack, b_stack)
    return freqs, powers


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
    method: str
    freqs_local: np.ndarray
    freqs_global: np.ndarray
    ranges_m: np.ndarray
    powers: np.ndarray
    amplitudes: np.ndarray            # atoms x snapshots
    eta: float
    in_band: np.ndarray
    diagnostics: SdpDiagnostics | None = None
    extras: dict = field(default_factory=dict)

    @property
    def n_atoms(self) -> int:
        return int(self.freqs_local.shape[0])

    def top_ranges(self, k: int) -> np.ndarray:
        order = np.argsort(self.powers)[::-1][:k]
        return np.sort(self.ranges_m[order])

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "freqs_local": [float(f) for f in self.freqs_local],
            "freqs_global": [float(f) for f in self.freqs_global],
            "ranges_m": [float(r) for r in self.ranges_m],
            "powers": [float(p) for p in self.powers],
            "eta": self.eta,
            "in_band": [bool(b) for b in self.in_band],
            "feasible": bool(self.diagnostics.feasible) if self.diagnostics else True,
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


def fsram_solve(
    mmv: MmvMatrix,
    eta: float | None = None,
    n_atoms: int | None = None,
    options: AdmmOptions | None = None,
) -> SuperResResult:
    """Band-constrained reweighted Toeplitz recovery (the primary method)."""
    eta = mmv.default_eta() if eta is None else float(eta)
    band = _solve_band(mmv.local_band(), mmv.n_samples)
    try:
        u, y, diag = solve_weighted_toeplitz_sdp(mmv.data, eta, band, options)
    except AdmmError as exc:
        raise SuperResError(f"band-constrained solve failed: {exc}") from exc
    freqs, powers = vandermonde_decompose(u, n_atoms=n_atoms)
    return _finalize("fsram", mmv, freqs, powers, y, eta, diag)


def ram_solve(
    mmv: MmvMatrix,
    eta: float | None = None,
    n_atoms: int | None = None,
    options: AdmmOptions | None = None,
) -> SuperResResult:
    """Same solver without the band constraint (baseline)."""
    eta = mmv.default_eta() if eta is None else float(eta)
    try:
        u, y, diag = solve_weighted_toeplitz_sdp(mmv.data, eta, None, options)
    except AdmmError as exc:
        raise SuperResError(f"unconstrained solve failed: {exc}") from exc
    freqs, powers = vandermonde_decompose(u, n_atoms=n_atoms)
    return _finalize("ram", mmv, freqs, powers, y, eta, diag)


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


def music_solve(
    mmv: MmvMatrix,
    n_sources: int | None = None,
    grid_size: int = 8192,
) -> SuperResResult:
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
    grid = np.linspace(0.0, 1.0, grid_size, endpoint=False)
    spec = music_spectrum(data, n_sources, grid)
    # imported here: scipy.signal is about half of `import rangesr` otherwise
    from scipy.signal import find_peaks

    wrapped = np.concatenate([spec, spec[:1]])
    peaks, props = find_peaks(wrapped, height=0.0)
    peaks = peaks % grid_size
    if peaks.size == 0:
        peaks = np.array([int(np.argmax(spec))])
        heights = spec[peaks]
    else:
        heights = props["peak_heights"]
    order = np.argsort(heights)[::-1][:n_sources]
    sel = np.sort(np.unique(peaks[order]))
    freqs = []
    logspec = np.log(spec)
    for pk in sel:
        lo, mid, hi = (
            logspec[(pk - 1) % grid_size],
            logspec[pk],
            logspec[(pk + 1) % grid_size],
        )
        denom = lo - 2.0 * mid + hi
        delta = 0.5 * (lo - hi) / denom if denom < -1e-300 else 0.0
        freqs.append((pk + np.clip(delta, -0.5, 0.5)) / grid_size)
    freqs = np.mod(np.asarray(freqs), 1.0)
    amps = np.linalg.pinv(atom_matrix(freqs, n)) @ data
    powers = np.mean(np.abs(amps) ** 2, axis=1)
    return _finalize("music", mmv, freqs, powers, data, 0.0, None)


def solve_by_name(method: str, mmv: MmvMatrix, **kwargs) -> SuperResResult:
    if method == "fsram":
        return fsram_solve(mmv, **kwargs)
    if method == "ram":
        return ram_solve(mmv, **kwargs)
    if method == "music":
        allowed = {}
        if "n_atoms" in kwargs and kwargs["n_atoms"] is not None:
            allowed["n_sources"] = kwargs["n_atoms"]
        return music_solve(mmv, **allowed)
    raise ConfigError(f"unknown method {method!r}")
