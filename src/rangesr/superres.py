"""Within-cell range super-resolution on extracted multi-snapshot data.

A detected range-Doppler cell is turned back into a fast-time line-spectrum
problem: matched-filtering the element cube over slow time at the detected
(scaled) Doppler bin collapses each element's fast-time sequence to a sum of
tones whose frequencies encode the in-cell ranges. The sequence is
demodulated so the expected band sits around a quarter cycle, then decimated
with an integer stride so a small number of samples still spans the full
chirp (keeping the native range aperture). The resulting N_ex x L matrix S
feeds one entry, `solve_by_name`, which picks the method by name: "fsram"
(the band-constrained reweighted Toeplitz SDP), "ram" (the same SDP without
the band) or "music". fsram's band is the MMV's local band
(`MmvMatrix.local_band`), which extraction confines to [0, 0.5]; recovered
local frequencies map affinely back to absolute range. A solve's record
(`SuperResResult`) stores what the solver chose (its MMV, local frequencies,
powers, amplitudes and eta) and derives the global frequencies, ranges and
band membership from that MMV. The noise level comes from S itself, not the
scene. The SDP methods find their own model order: their atoms are those of
the audited certificate (`SdpDiagnostics.atom_freqs`). Only MUSIC takes a
source count K, and estimates it by MDL when none is given. Every failure of
a group, from its band to its solve, raises `SuperResError`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cfar import DetectionGroup, parabolic_offset
from .config import ConfigError, RadarConfig
from .cube import DataCube, axis_values
from .sdp import (
    AdmmError,
    SdpDiagnostics,
    atom_matrix,
    signal_rank,
    solve_weighted_toeplitz_sdp,
)

_ETA_MODEL_REL = 5e-4   # eta floor, as a fraction of the data norm
_BAND_PAD_CELLS = 1.0   # prior band reaches this many range cells past the group
_MUSIC_GRID = 8192      # MUSIC pseudo-spectrum points per cycle


class SuperResError(RuntimeError):
    """One group has no answer: its prior band is unusable or too wide for
    the decimation stride, or its solve failed."""


@dataclass(frozen=True)
class FreqBand:
    """Normalized fast-time frequency band, inside the unambiguous (0, 0.5)."""

    f_lo: float
    f_hi: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.f_lo < self.f_hi <= 0.5:
            raise ConfigError(f"band ({self.f_lo}, {self.f_hi}) must satisfy 0 <= lo < hi <= 0.5")

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
    band: FreqBand
    config: RadarConfig

    @property
    def n_samples(self) -> int:
        return self.data.shape[0]

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
        return cls(cube.data[decimation_rows(cube.n_fast, n_ex)], cube.n_fast, cube.config)


def extract_mmv(rows: ExtractionRows, doppler_bin: float, band: FreqBand) -> MmvMatrix:
    """Matched-filter, demodulate, and decimate one detected Doppler cell of
    the element cube whose extraction rows are `rows`; the MMV has one sample
    per kept row. The band, demodulated to be centred on a quarter cycle,
    must fit in [0, 0.5] after decimation (step * width <= 0.5), or the group
    has no answer (`SuperResError`); its local band then lies in [0, 0.5].
    """
    n_fast = rows.n_fast
    n_ex, n_slow, _ = rows.data.shape
    step = n_fast // n_ex
    if step * band.width > 0.5:
        raise SuperResError("band too wide for the decimation stride")
    cfg = rows.config
    f_shift = band.center - 0.25 / step

    n_vals = (decimation_rows(n_fast, n_ex) - n_fast // 2).astype(np.float64)
    m_vals = axis_values(n_slow).astype(np.float64)
    phase = np.exp(
        (-2j * np.pi * doppler_bin / n_slow) * np.outer(cfg.keystone_scale(n_vals), m_vals)
    )
    filtered = np.einsum("nm,nml->nl", phase, rows.data)
    demod = np.exp(-2j * np.pi * f_shift * n_vals)
    return MmvMatrix(
        data=filtered * demod[:, None],
        f_shift=float(f_shift),
        step=int(step),
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


def mdl_order(eigvals: np.ndarray, n_obs: int) -> int:
    """Minimum-description-length source count from the eigenvalues of a
    covariance estimated from `n_obs` snapshots."""
    lam = np.sort(np.asarray(eigvals, dtype=np.float64))[::-1]
    n_eff = int(min(lam.shape[0], n_obs))
    lam = np.maximum(lam[:n_eff], 1e-18 * max(lam[0], 1e-300))
    best_k, best_val = 0, np.inf
    for k in range(n_eff):
        tail = lam[k:]
        geo = np.exp(np.mean(np.log(tail)))
        ari = np.mean(tail)
        ll = -n_obs * (n_eff - k) * np.log(max(geo / ari, 1e-300))
        pen = 0.5 * k * (2 * n_eff - k) * np.log(max(n_obs, 2))
        val = ll + pen
        if val < best_val:
            best_k, best_val = k, val
    return best_k


@dataclass
class SuperResResult:
    """One solve's line spectrum, as `solve_by_name` returns it.

    It stores what the solver chose; `freqs_global`, `ranges_m` and
    `in_band` (the local band widened by 1/(2 n_samples) on each side) are
    derived from `mmv`.

    fsram solves on the MMV's local band and ram without one; both choose
    their own number of atoms (the audited certificate's), and only music
    is handed a source count K. For fsram and ram, `powers` are the weights
    of the atoms of T(u) after the last of the fixed reweighting passes, so
    they depend on the pass budget (`sdp._MAX_OUTER`): on the fixed grid's
    solves whose frequencies stay put, four passes read 0.09-1.03x of their
    eight-pass values (fsram) and 0.61-1.13x (ram). They also depend on
    where the inner residual test (`sdp._TOL_REL`) stops each pass: at 1e-3
    they read 0.90-1.58x (fsram) and 0.80-1.20x (ram) of their 1e-6 values
    on those solves. Use them only relative to each other, as the step-3
    gates (the 1% keep gate, the 10% leakage test) and `top_ranges` do.
    For music they are mean squared amplitudes.
    """

    method: str
    mmv: MmvMatrix
    freqs_local: np.ndarray
    powers: np.ndarray
    amplitudes: np.ndarray            # atoms x snapshots
    eta: float
    diagnostics: SdpDiagnostics | None = None

    @property
    def n_atoms(self) -> int:
        return int(self.freqs_local.shape[0])

    @property
    def freqs_global(self) -> np.ndarray:
        return self.mmv.global_freq(self.freqs_local)

    @property
    def ranges_m(self) -> np.ndarray:
        return self.mmv.config.range_of_freq(self.freqs_global)

    @property
    def in_band(self) -> np.ndarray:
        lo, hi = self.mmv.local_band()
        guard = 1.0 / (2.0 * self.mmv.n_samples)
        return (self.freqs_local >= lo - guard) & (self.freqs_local <= hi + guard)

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


def _amplitudes(freqs_local: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares atom amplitudes of y (atoms x snapshots)."""
    return np.linalg.pinv(atom_matrix(freqs_local, y.shape[0])) @ y


def _music(mmv: MmvMatrix, n_sources: int | None) -> SuperResResult:
    """Classic subspace baseline; degrades on coherent snapshots by design.
    One covariance eigendecomposition gives both the MDL order and the noise
    subspace of the pseudo-spectrum. The spectrum is circular: a peak is a
    grid point strictly above both of its neighbours modulo the grid, so
    local frequency 0 (index 0, next to the last point) is a peak like any
    other; with no such point, the spectrum's maximum is the one peak. The
    n_sources highest peaks are refined by a log-power parabola."""
    data = mmv.data
    n, l = data.shape
    cov = data @ data.conj().T / max(l, 1)
    vals, vecs = np.linalg.eigh(cov)
    if n_sources is None:
        n_sources = mdl_order(vals, l)
    n_sources = int(min(max(n_sources, 0), n - 1))
    grid = np.linspace(0.0, 1.0, _MUSIC_GRID, endpoint=False)
    noise = vecs[:, : n - n_sources]
    denom = np.sum(np.abs(noise.conj().T @ atom_matrix(grid, n)) ** 2, axis=0)
    spec = 1.0 / np.maximum(denom, 1e-300)
    peaks = np.flatnonzero((spec > np.roll(spec, 1)) & (spec > np.roll(spec, -1)))
    if peaks.size == 0:
        peaks = np.array([int(np.argmax(spec))])
    order = np.argsort(spec[peaks])[::-1][:n_sources]
    sel = np.sort(peaks[order])
    logspec = np.log(spec)
    offsets = [
        parabolic_offset(logspec[pk - 1], logspec[pk], logspec[(pk + 1) % _MUSIC_GRID])
        for pk in sel
    ]
    freqs = np.mod((sel + np.asarray(offsets)) / _MUSIC_GRID, 1.0)
    amps = _amplitudes(freqs, data)
    powers = np.mean(np.abs(amps) ** 2, axis=1)
    return SuperResResult("music", mmv, freqs, powers, amps, 0.0)


# what a failed solve of each method calls itself
_SOLVE_KIND = {"fsram": "band-constrained", "ram": "unconstrained", "music": "music"}
METHODS = tuple(_SOLVE_KIND)


def require_method(method: str) -> None:
    """Raise ConfigError unless `solve_by_name` runs `method`."""
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; choose from {','.join(METHODS)}")


def solve_by_name(method: str, mmv: MmvMatrix, n_sources: int | None = None) -> SuperResResult:
    """Solve `mmv` with fsram (the reweighted Toeplitz SDP confined to the
    local band), ram (the same SDP without a band) or music. `n_sources` is
    MUSIC's model order (MDL when None); fsram and ram find their own order.
    The SDP's noise budget is `mmv.default_eta()`. A solve that fails, in
    the SDP's audit or in a linear-algebra routine, raises SuperResError."""
    require_method(method)
    try:
        if method == "music":
            return _music(mmv, n_sources)
        eta = mmv.default_eta()
        band = mmv.local_band() if method == "fsram" else None
        _, y, diag = solve_weighted_toeplitz_sdp(mmv.data, eta, band)
        freqs = diag.atom_freqs
        return SuperResResult(
            method, mmv, freqs, diag.atom_powers, _amplitudes(freqs, y), eta, diag
        )
    except (AdmmError, np.linalg.LinAlgError) as exc:
        raise SuperResError(f"{_SOLVE_KIND[method]} solve failed: {exc}") from exc
