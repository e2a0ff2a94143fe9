"""Monte Carlo success-rate benchmark for within-cell range recovery.

Each trial drops K targets into a two-cell range window with a minimum
mutual spacing (rejection sampling), all at the same velocity and angle with
unit amplitudes and random phases, then runs the pipeline's stare-and-solve
path: `pipeline.stare` on one matched beam (keystone integration, CFAR,
Doppler-channel grouping, the rows extraction reads), `pipeline.group_mmv`
on the strongest group (band construction, extraction), and the chosen
solver. Only MUSIC is told the target count K; fsram and ram find their
own model order. The K strongest atoms are scored (fewer than K is a
failure): success is a per-target RMS range error below 0.1 range cells
after optimal assignment.

Common random numbers: truth and noise draws are keyed by
(seed_base, K, spacing, trial) only, so every SNR sees the same targets and
the same unit-variance noise realization (scaled to the SNR under test).
`compare_methods` runs every method in one pass: each trial is drawn and
synthesised once and handed to each method in turn, so the methods share
their draws by construction, and one hash of the truth draws serves them
all. Baselines ("ram", "music") receive a single modulation period,
as the comparison prescribes; the band-constrained solver gets the full
dwell.

What a trial holds: its targets (`UavTruth`) and their unit-power noise
(`_TrialData`), one element cube of noise, 8 MB at the 512 x 64 x 16 cube
of the default 5.12 MHz radar and 64 chirps and 82 MB at 50 MHz, and
`compare_methods` lets them go before it draws the next trial. The noise
is kept because every SNR must see the same draw. It is `synth.add_noise`
at 0 dB on a zero cube of the trial's shape (`_unit_noise`), the scenes'
one noise rule: a trial of at most `synth._CHUNK_M` (256) chirps is one
noise block, so its noise is one draw of the whole cube's real parts, then
one of its imaginary parts, scaled by 1/sqrt(2). No clean or noisy cube is
built: `run_trial_method` hands `pipeline.stare` the dwell `clean + sigma *
unit_noise` as chirp windows of about `spans._BLOCK_ENTRIES` samples (1 MB,
8 chirps), each window's clean chirps synthesised from the targets
(`synth_beat_cube` over the window's chirps), as `pipeline.dwell_chunks`
hands it a scene's dwell. A window synthesises its chirps of the whole
dwell bit for bit, and every sample is the same two operations whatever
window holds it, so the windows change no output. The price is one
synthesis of the dwell per run, that is per SNR and method, not per trial:
a three-method `compare_methods` takes about 4% longer. The benchmark's
`grid_fsram` workload peaks at 102.6 MB RSS over 20 s runs and 100.3 MB
after one round, 8 MB (one trial cube) under holding each trial's clean
cube beside its noise (medians, 2 cores, numpy 2.4; about 80 MB of that is
the imports).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import spans
from .beamform import BeamGrid
from .cfar import check_map_extent
from .config import ConfigError, RadarConfig, UavTruth, to_json
from .cube import DataCube
from .pipeline import group_mmv, stare, table_radar_config
from .superres import METHODS, SuperResError, decimation_rows, require_method, solve_by_name
from .synth import add_noise, noise_sigma, synth_beat_cube

# Not called here: perfbench/layers.py patches these names in this module; the
# trial reaches them through `pipeline.stare` and `pipeline.group_mmv`.
from .cfar import ca_cfar, cluster_detections  # noqa: F401
from .integrate import integrate_cube  # noqa: F401
from .superres import extract_mmv  # noqa: F401


# the trial scene: K targets drawn in a two-cell window from 165 m, all at
# the velocity of the paper's experiment tables; a cell whose spacing cannot
# be drawn within _MAX_DRAWS tries is infeasible
_WINDOW_START_M = 165.0
_WINDOW_CELLS = 2.0
_VELOCITY_MPS = 44.07
_MAX_DRAWS = 10_000


@dataclass(frozen=True)
class GridSpec:
    k_values: tuple[int, ...] = (1, 2, 3, 4)
    delta_ratios: tuple[float, ...] = (
        0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
    )
    snr_values_db: tuple[float, ...] = (0.0,)
    trials: int = 20
    seed_base: int = 0
    n_ex: int = 32
    n_slow: int = 128
    sample_rate_hz: float = 5.12e6

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        empty = [name for name in ("k_values", "delta_ratios", "snr_values_db")
                 if not getattr(self, name)]
        if empty:
            raise ConfigError(f"{', '.join(empty)} must not be empty")
        if not all(0 < d < math.inf for d in self.delta_ratios):
            raise ConfigError(
                f"delta ratios must be positive and finite, got {self.delta_ratios}"
            )
        if any(k < 1 for k in self.k_values):
            raise ConfigError("K values must be >= 1")
        if self.seed_base < 0:
            raise ConfigError(f"seed_base must be >= 0, got {self.seed_base}")
        if self.n_slow < 1:
            raise ConfigError(f"n_slow must be >= 1, got {self.n_slow}")
        decimation_rows(table_radar_config(self.sample_rate_hz).n_fast, self.n_ex)
        for snr_db in self.snr_values_db:
            noise_sigma(snr_db)


@dataclass
class SuccessGrid:
    """Axes: (K, delta, SNR). Cells where drawing failed are infeasible."""

    spec: GridSpec
    method: str
    successes: np.ndarray
    trials_run: np.ndarray
    mean_rms_m: np.ndarray
    infeasible: np.ndarray
    truth_hash: str

    @property
    def rates(self) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return np.where(
                self.trials_run > 0, self.successes / self.trials_run, np.nan
            )

    @property
    def standard_errors(self) -> np.ndarray:
        p = self.rates
        with np.errstate(invalid="ignore"):
            return np.sqrt(p * (1.0 - p) / np.maximum(self.trials_run, 1))

    def mean_rate(self, snr_db: float | None = None) -> float:
        """Mean rate over the cells that ran trials (at one SNR); NaN if none did."""
        rates = self.rates
        if snr_db is not None:
            js = list(self.spec.snr_values_db).index(snr_db)
            rates = rates[:, :, js : js + 1]
        return math.nan if np.isnan(rates).all() else float(np.nanmean(rates))

    def to_dict(self) -> dict:
        return {
            "spec": to_json(self.spec),
            "method": self.method,
            "successes": self.successes.tolist(),
            "trials_run": self.trials_run.tolist(),
            "rates": np.nan_to_num(self.rates, nan=-1.0).tolist(),
            "standard_errors": np.nan_to_num(self.standard_errors, nan=-1.0).tolist(),
            "mean_rms_m": np.nan_to_num(self.mean_rms_m, nan=-1.0).tolist(),
            "infeasible": self.infeasible.tolist(),
            "truth_hash": self.truth_hash,
        }

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                "method,k,delta_ratio,snr_db,trials,successes,rate,"
                "standard_error,mean_rms_m,infeasible\n"
            )
            for ik, k in enumerate(self.spec.k_values):
                for idx, d in enumerate(self.spec.delta_ratios):
                    for js, snr in enumerate(self.spec.snr_values_db):
                        bad = bool(self.infeasible[ik, idx])
                        n = int(self.trials_run[ik, idx, js])
                        s = int(self.successes[ik, idx, js])
                        rate = f"{s / n:.6f}" if n else ""
                        se = (
                            f"{self.standard_errors[ik, idx, js]:.6f}" if n else ""
                        )
                        rms = self.mean_rms_m[ik, idx, js]
                        rms_s = f"{rms:.6f}" if math.isfinite(rms) else ""
                        fh.write(
                            f"{self.method},{k},{d:.3f},{snr:.1f},{n},{s},"
                            f"{rate},{se},{rms_s},{int(bad)}\n"
                        )


def assignment_rms(truth: np.ndarray, recovered: np.ndarray) -> float:
    """Per-target RMS range error under the best truth-recovery pairing."""
    truth = np.asarray(truth, dtype=np.float64)
    recovered = np.asarray(recovered, dtype=np.float64)
    if recovered.shape[0] < truth.shape[0]:
        return float("inf")
    rows, cols = linear_sum_assignment((truth[:, None] - recovered[None, :]) ** 2)
    err = truth[rows] - recovered[cols]
    return math.sqrt(float(np.mean(err * err)))


def _draw_ranges(rng, spec: GridSpec, k: int, delta_ratio: float):
    cfg = table_radar_config(spec.sample_rate_hz)
    width = _WINDOW_CELLS * cfg.range_res_m
    min_sep = delta_ratio * cfg.range_res_m
    for _ in range(_MAX_DRAWS):
        cand = _WINDOW_START_M + width * rng.random(k)
        if k == 1:
            return np.sort(cand)
        cand = np.sort(cand)
        if np.min(np.diff(cand)) >= min_sep:
            return cand
    return None


def _unit_noise(rng, cfg: RadarConfig, n_slow: int) -> np.ndarray:
    """The unit-power noise of a trial of `n_slow` chirps of radar `cfg`:
    `add_noise` at 0 dB (sigma 1) drawn into a zero cube of the trial's
    shape, so a trial draws its noise by the scenes' rule (`synth`)."""
    zeros = np.zeros((cfg.n_fast, n_slow, cfg.n_elements), complex)
    return add_noise(DataCube(zeros, cfg), 0.0, rng).data


@dataclass
class _TrialData:
    """One trial's draws, all that the trial holds while its methods and
    SNRs run: its targets and their unit-power noise, one 8 MB array at the
    grid's 512 x 64 x 16 trial cube. The noise is `add_noise` at 0 dB on
    zeros (`_unit_noise`). Neither the clean dwell nor the noisy one is
    ever built whole; the stare reads `clean + sigma * unit_noise` a chirp
    window at a time, synthesising each window's clean chirps from
    `truths` (`_trial_windows`)."""

    truth_ranges: np.ndarray
    truths: tuple[UavTruth, ...]
    unit_noise: np.ndarray     # element cube, full dwell


def _prepare_trial(spec: GridSpec, k: int, delta_ratio: float, trial: int):
    entropy = (
        spec.seed_base,
        int(k),
        int(round(delta_ratio * 1000)),
        int(trial),
    )
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    ranges = _draw_ranges(rng, spec, k, delta_ratio)
    if ranges is None:
        return None
    phases = 2.0 * np.pi * rng.random(k)
    cfg = table_radar_config(spec.sample_rate_hz)
    truths = tuple(
        UavTruth(
            range0_m=float(r),
            velocity_mps=_VELOCITY_MPS,
            angle_rad=0.0,
            amplitude=complex(np.exp(1j * ph)),
        )
        for r, ph in zip(ranges, phases)
    )
    noise_rng = np.random.default_rng(np.random.SeedSequence(entropy + (999,)))
    unit = _unit_noise(noise_rng, cfg, spec.n_slow)
    return _TrialData(truth_ranges=ranges, truths=truths, unit_noise=unit)


def _trial_windows(data: _TrialData, sigma: float, cfg: RadarConfig):
    """The noisy dwell as `(m0, window)` pairs, each window the chirps from
    `m0` on, about `spans._BLOCK_ENTRIES` samples: the window's clean chirps
    synthesised from the trial's truths, plus `sigma * unit_noise` over
    them. A synthesised window equals the same chirps of the whole clean
    dwell, and every sample is the same two operations whatever window holds
    it, so the windows equal the whole cube `clean + sigma * unit_noise`
    chirp for chirp, bit for bit."""
    n_fast, n_slow, n_elements = data.unit_noise.shape
    width = max(1, spans._BLOCK_ENTRIES // (n_fast * n_elements))
    for m0 in range(0, n_slow, width):
        m1 = min(m0 + width, n_slow)
        window = synth_beat_cube(cfg, data.truths, n_slow, m0, m1).data
        window += sigma * data.unit_noise[:, m0:m1]
        yield m0, DataCube(data=window, config=cfg)
        del window   # only the stare may hold this window while the next is formed


def run_trial_method(spec: GridSpec, data: _TrialData, snr_db: float, method: str) -> float:
    """Returns the assignment RMS in meters; inf when CFAR finds no group or
    the strongest group has no answer (`SuperResError`).

    `pipeline.stare` reads the noisy dwell in chirp windows
    (`_trial_windows`, 8 chirps of the grid's trial cube), each synthesised
    for it, so beside the trial's unit noise the run holds one 1 MB window,
    the one-beam cube and the kept extraction rows, never a clean or noisy
    cube. Each call synthesises the trial's dwell once."""
    cfg = table_radar_config(spec.sample_rate_hz)
    sigma = noise_sigma(snr_db)
    k = data.truth_ranges.shape[0]

    _, _, groups, rows = stare(
        _trial_windows(data, sigma, cfg), spec.n_slow, BeamGrid((0.0,)), spec.n_ex
    )
    if not groups:
        return float("inf")
    if method != "fsram":
        # the baselines see one chirp, whose matched filter is exp(0) at
        # any Doppler bin
        mid = spec.n_slow // 2
        rows = replace(rows, data=np.ascontiguousarray(rows.data[:, mid : mid + 1, :]))
    try:
        # groups come sorted by falling power
        mmv = group_mmv(rows, groups[0])
        result = solve_by_name(method, mmv, n_sources=k)
    except SuperResError:
        return float("inf")
    return assignment_rms(data.truth_ranges, result.top_ranges(k))


def run_success_grid(spec: GridSpec, method: str = "fsram") -> SuccessGrid:
    return compare_methods(spec, (method,))[method]


def compare_methods(
    spec: GridSpec, methods: tuple[str, ...] = METHODS
) -> dict[str, SuccessGrid]:
    """Every method's grid from one pass over the trials: each trial is drawn
    once, then run at each SNR by each method.

    One trial's data is alive at a time: its targets and unit noise go
    before the next trial is drawn, so the pass holds one 8 MB array at the
    grid's trial cube, and a 1 MB window synthesised beside it while the
    stare runs (`run_trial_method`), whatever the trial count. Every run
    synthesises its trial's dwell, once per SNR and method. The methods and
    the dwell's CFAR map extent are checked before any trial is drawn."""
    if not methods:
        raise ConfigError(f"no method given; choose from {','.join(METHODS)}")
    for m in methods:
        require_method(m)
    repeated = sorted({m for m in methods if methods.count(m) > 1})
    if repeated:
        raise ConfigError(f"method(s) {','.join(repeated)} given more than once")
    cfg = table_radar_config(spec.sample_rate_hz)
    check_map_extent(cfg.n_fast, spec.n_slow)
    ok_limit = 0.1 * cfg.range_res_m
    shape = (len(methods), len(spec.k_values), len(spec.delta_ratios), len(spec.snr_values_db))
    successes = np.zeros(shape, dtype=np.int64)
    trials_run = np.zeros(shape, dtype=np.int64)
    rms_sums = np.zeros(shape)
    rms_counts = np.zeros(shape, dtype=np.int64)
    infeasible = np.zeros(shape[1:3], dtype=bool)
    hasher = hashlib.sha256()

    for ik, k in enumerate(spec.k_values):
        for idx, delta in enumerate(spec.delta_ratios):
            for trial in range(spec.trials):
                data = _prepare_trial(spec, k, delta, trial)
                if data is None:
                    infeasible[ik, idx] = True
                    break
                hasher.update(np.ascontiguousarray(data.truth_ranges).tobytes())
                for js, snr in enumerate(spec.snr_values_db):
                    for im, method in enumerate(methods):
                        rms = run_trial_method(spec, data, snr, method)
                        cell = (im, ik, idx, js)
                        trials_run[cell] += 1
                        if rms < ok_limit:
                            successes[cell] += 1
                        if math.isfinite(rms):
                            rms_sums[cell] += rms
                            rms_counts[cell] += 1
                del data   # the next trial is drawn without this one alive
    with np.errstate(invalid="ignore"):
        mean_rms = np.where(rms_counts > 0, rms_sums / np.maximum(rms_counts, 1), np.nan)
    truth_hash = hasher.hexdigest()
    return {
        method: SuccessGrid(
            spec=spec,
            method=method,
            successes=successes[im],
            trials_run=trials_run[im],
            mean_rms_m=mean_rms[im],
            infeasible=infeasible,
            truth_hash=truth_hash,
        )
        for im, method in enumerate(methods)
    }
