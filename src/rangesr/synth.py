"""LFMCW beat-signal synthesis for point-target scenes.

Discrete dechirped model for target k at initial range R, radial velocity v,
angle theta, element l (one-based), fast-time index n, chirp index m:

    C_k * exp(j2pi (2 gamma R / c) n dt)
        * exp(j2pi (2 gamma v / c) m T n dt)      (range walk coupling)
        * exp(j2pi (2 f_c v / c) m T)             (Doppler)
        * exp(j2pi f_c l d sin(theta) / c)        (array phase)

with C_k the scattering amplitude times the carrier phase exp(j2pi f_c 2R/c).
The quadratic residual exp(-j pi gamma tau^2) of dechirping is negligible at
these delays and is omitted.

The model separates into an (n, m) signal and an element phase per
target, so a block of fast-time rows is one matrix product: the
(rows * M, K) signals times the (K, L) element phases, summing the K
targets of each sample in one pass instead of adding K cubes of L
channels. Each sample is then rounded once, not once per target, so a
scene equals the sum of its targets' cubes to a few ulp, not bit for bit.

Spans of whole blocks run on threads (`spans`: workers come from the CPU
affinity, span bounds depend only on the shape and the worker count, small
cubes run inline). Each block is computed by the same code whatever its
span, so the cube is bit-identical for any worker count.

A dwell can be synthesised a window of chirps at a time: every sample is
the same sum over targets of functions of its (n, m, l) axis values,
whatever block holds it, so a window equals the same chirps of the whole
dwell bit for bit (the tests check both). `add_noise` draws in blocks of
`_CHUNK_M` chirps from a generator that may be carried across windows;
windows that start on a multiple of `_CHUNK_M` then draw exactly the noise
of the whole dwell.

`add_noise` is the package's one noise drawer: a grid trial's unit noise is
`add_noise` at 0 dB on a zero cube (`bench._unit_noise`). Within a block it
draws the real parts, then the imaginary parts, a block of rows at a time
into one buffer of at most `spans._BLOCK_ENTRIES` float64 entries (512 KB),
which it scales and adds in place. The generator fills a draw in C order,
so the row blocks take the values of the block's parts drawn whole, and no
draw as large as a block (16 MB per part at 5.12 MHz, 164 MB at 50 MHz) is
ever alive beside the cube.
"""

from __future__ import annotations

import numpy as np

from . import spans
from .config import C_LIGHT, ConfigError, RadarConfig, UavTruth
from .cube import DataCube, axis_values

# slow-time block size of the noise draws
_CHUNK_M = 256


class OutOfBandError(ConfigError):
    """Target's beat frequency exceeds the fast-time Nyquist limit."""


def array_phase(cfg: RadarConfig, angle_rad: float) -> np.ndarray:
    """Per-element phase 2pi f_c l d sin(theta) / c, l = 1..L."""
    l = np.arange(1, cfg.n_elements + 1)
    return 2.0 * np.pi * cfg.carrier_hz * l * cfg.element_spacing_m * np.sin(angle_rad) / C_LIGHT


def check_nyquist(cfg: RadarConfig, targets: list[UavTruth]) -> None:
    """Raises OutOfBandError for the first target whose beat frequency is at
    or above the fast-time Nyquist limit."""
    for t in targets:
        f_beat = cfg.beat_freq(t.range0_m)
        if f_beat >= 0.5:
            raise OutOfBandError(
                f"target at {t.range0_m} m maps to normalized beat frequency "
                f"{f_beat:.4f} >= 0.5 (fast-time Nyquist)"
            )


def synth_beat_cube(
    cfg: RadarConfig,
    targets: list[UavTruth],
    n_slow: int,
    m0: int = 0,
    m1: int | None = None,
) -> DataCube:
    """Noise-free beat-signal cube over (n, m, l) for the given scene.

    Only chirps `[m0, m1)` of the `n_slow`-chirp dwell are synthesised (all of
    them by default); the slow-time axis values stay those of the whole dwell.
    """
    if n_slow < 1:
        raise ConfigError(f"n_slow must be >= 1, got {n_slow}")
    m1 = n_slow if m1 is None else m1
    if not 0 <= m0 < m1 <= n_slow:
        raise ConfigError(f"chirps [{m0}, {m1}) are not a window of {n_slow}")
    check_nyquist(cfg, targets)
    n_fast = cfg.n_fast
    m = axis_values(n_slow)[m0:m1].astype(np.float64)
    n_chirps = m1 - m0
    data = np.zeros((n_fast, n_chirps, cfg.n_elements), dtype=np.complex128)
    if not targets:
        return DataCube(data=data, config=cfg)

    n = axis_values(n_fast).astype(np.float64)
    dt = cfg.dt
    gamma = cfg.chirp_rate_hz_per_s
    terms = []
    phases = np.empty((len(targets), cfg.n_elements), dtype=np.complex128)
    for k, t in enumerate(targets):
        f_beat = cfg.beat_freq(t.range0_m)
        c_amp = t.amplitude * np.exp(2j * np.pi * cfg.carrier_hz * 2.0 * t.range0_m / C_LIGHT)
        f_dop = cfg.doppler_freq(t.velocity_mps)
        walk = 2.0 * np.pi * (2.0 * gamma * t.velocity_mps / C_LIGHT) * cfg.chirp_s * dt
        phases[k] = np.exp(1j * array_phase(cfg, t.angle_rad))
        terms.append((c_amp, 2.0 * np.pi * f_beat * n, walk, (2.0 * np.pi * f_dop) * m))

    # one block of fast-time rows at a time: each target's (n, m) signal
    # fills one row of a (K, rows * M) block, and one matrix product with
    # the (K, L) element phases writes the block's (rows * M, L) samples;
    # spans of whole blocks run on threads, each with its own signal buffer
    rows = max(1, spans._BLOCK_ENTRIES // (n_chirps * cfg.n_elements))
    n_blocks = -(-n_fast // rows)

    def fill(b0: int, b1: int) -> None:
        signal = np.empty((len(terms), min(rows, n_fast), n_chirps), dtype=np.complex128)
        for n0 in range(b0 * rows, min(b1 * rows, n_fast), rows):
            n1 = min(n0 + rows, n_fast)
            sig = signal[:, : n1 - n0]
            for k, (c_amp, phase_n, walk, phase_m) in enumerate(terms):
                # phase over (n, m): beat tone + walk coupling + Doppler
                ph = phase_n[n0:n1, None] + walk * np.outer(n[n0:n1], m) + phase_m[None, :]
                np.multiply(c_amp, np.exp(1j * ph), out=sig[k])
            flat = sig.reshape(len(terms), -1)
            np.matmul(flat.T, phases, out=data[n0:n1].reshape(-1, cfg.n_elements))

    spans.run(fill, spans.split(n_blocks, data.size))
    return DataCube(data=data, config=cfg)


def noise_sigma(snr_db: float) -> float:
    """Per-sample complex noise std for a unit-amplitude target at `snr_db`:
    0 at +inf (no noise); NaN and -inf have none and raise ConfigError."""
    if not snr_db > -np.inf:
        raise ConfigError(f"snr_db must be a number above -inf, got {snr_db!r}")
    return 10.0 ** (-snr_db / 20.0)


def add_noise(
    cube: DataCube, snr_db: float | None, rng_seed: int | np.random.Generator
) -> DataCube:
    """Add circular complex white Gaussian noise at the given per-sample SNR.

    SNR reference: a unit-amplitude target, per element, per fast-time sample,
    before any integration. The noise is added to `cube.data` in place, and
    `cube` itself is returned. `snr_db=None` (or +inf) disables noise; NaN
    and -inf raise ConfigError (`noise_sigma`).
    `rng_seed` may be a generator, which is then drawn from (and advanced)
    as it is: a dwell synthesised in windows passes one generator to each.

    Each `_CHUNK_M`-chirp block takes `standard_normal(block.shape) * sigma
    / sqrt(2)` as its real parts, then a second such draw as its imaginary
    parts, each drawn a block of rows at a time into one buffer of at most
    `spans._BLOCK_ENTRIES` float64 entries and added in place.
    """
    if snr_db is None or snr_db == np.inf:
        return cube
    sigma = noise_sigma(float(snr_db))
    rng = np.random.default_rng(rng_seed)
    data = cube.data
    n_rows = data.shape[0]
    scale = sigma / np.sqrt(2.0)
    for m0 in range(0, data.shape[1], _CHUNK_M):
        block = data[:, m0:m0 + _CHUNK_M, :]
        # the generator fills a draw in C order, so row blocks of a part's
        # draw take the values of the part drawn whole
        rows = max(1, spans._BLOCK_ENTRIES // block[0].size)
        buf = np.empty((min(rows, n_rows),) + block.shape[1:])
        for part in (block.real, block.imag):
            for n0 in range(0, n_rows, rows):
                draw = buf[: min(rows, n_rows - n0)]
                rng.standard_normal(out=draw)
                draw *= scale
                part[n0 : n0 + len(draw)] += draw.astype(part.dtype, copy=False)
    return cube
