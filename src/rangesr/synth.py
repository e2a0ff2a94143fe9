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

Synthesis fills blocks of fast-time rows, and spans of whole blocks run on
threads (`spans`: workers come from the CPU affinity, span bounds depend
only on the shape and the worker count, small cubes run inline). Each block
is computed by the same code whatever its span, so the cube is
bit-identical for any worker count.
"""

from __future__ import annotations

import numpy as np

from . import spans
from .config import C_LIGHT, ConfigError, RadarConfig, UavTruth
from .cube import DataCube, axis_values

# slow-time block size for memory-bounded noise loops
_CHUNK_M = 256
# complex entries per fast-time row block of the synthesis accumulator
_BLOCK_ENTRIES = 1 << 16


class OutOfBandError(ConfigError):
    """Target's beat frequency exceeds the fast-time Nyquist limit."""


def array_phase(cfg: RadarConfig, angle_rad: float) -> np.ndarray:
    """Per-element phase 2pi f_c l d sin(theta) / c, l = 1..L."""
    l = np.arange(1, cfg.n_elements + 1)
    return 2.0 * np.pi * cfg.carrier_hz * l * cfg.element_spacing_m * np.sin(angle_rad) / C_LIGHT

def synth_beat_cube(
    cfg: RadarConfig,
    targets: list[UavTruth],
    n_slow: int,
    dtype=np.complex128,
) -> DataCube:
    """Noise-free beat-signal cube over (n, m, l) for the given scene."""
    if n_slow < 1:
        raise ConfigError(f"n_slow must be >= 1, got {n_slow}")
    n_fast = cfg.n_fast
    data = np.zeros((n_fast, n_slow, cfg.n_elements), dtype=dtype)
    if not targets:
        return DataCube(data=data, axis2_kind="element", config=cfg)

    n = axis_values(n_fast).astype(np.float64)
    m = axis_values(n_slow).astype(np.float64)
    dt = cfg.dt
    gamma = cfg.chirp_rate_hz_per_s
    terms = []
    for t in targets:
        f_beat = cfg.beat_freq(t.range0_m)
        if f_beat >= 0.5:
            raise OutOfBandError(
                f"target at {t.range0_m} m maps to normalized beat frequency "
                f"{f_beat:.4f} >= 0.5 (fast-time Nyquist)"
            )
        c_amp = t.amplitude * np.exp(2j * np.pi * cfg.carrier_hz * 2.0 * t.range0_m / C_LIGHT)
        f_dop = cfg.doppler_freq(t.velocity_mps)
        walk = 2.0 * np.pi * (2.0 * gamma * t.velocity_mps / C_LIGHT) * cfg.chirp_s * dt
        elem = np.exp(1j * array_phase(cfg, t.angle_rad)).astype(dtype)
        terms.append((c_amp, 2.0 * np.pi * f_beat * n, walk, (2.0 * np.pi * f_dop) * m, elem))

    # accumulate every target into one block of fast-time rows at a time, so
    # the block and its per-target term stay small; spans of whole blocks run
    # on threads, each with its own term buffer
    rows = max(1, _BLOCK_ENTRIES // (n_slow * cfg.n_elements))
    n_blocks = -(-n_fast // rows)

    def fill(b0: int, b1: int) -> None:
        term = np.empty((min(rows, n_fast), n_slow, cfg.n_elements), dtype=np.complex128)
        for n0 in range(b0 * rows, min(b1 * rows, n_fast), rows):
            n1 = min(n0 + rows, n_fast)
            block, tmp = data[n0:n1], term[: n1 - n0]
            for c_amp, phase_n, walk, phase_m, elem in terms:
                # phase over (n, m): beat tone + walk coupling + Doppler
                ph = phase_n[n0:n1, None] + walk * np.outer(n[n0:n1], m) + phase_m[None, :]
                np.multiply((c_amp * np.exp(1j * ph))[:, :, None], elem, out=tmp)
                block += tmp.astype(dtype, copy=False)

    spans.run(fill, spans.split(n_blocks, data.size))
    return DataCube(data=data, axis2_kind="element", config=cfg)


def noise_sigma(snr_db: float) -> float:
    """Per-sample complex noise std for a unit-amplitude target at `snr_db`."""
    return 10.0 ** (-snr_db / 20.0)


def add_noise(cube: DataCube, snr_db: float | None, rng_seed: int) -> DataCube:
    """Add circular complex white Gaussian noise at the given per-sample SNR.

    SNR reference: a unit-amplitude target, per element, per fast-time sample,
    before any integration. The noise is added to `cube.data` in place, and
    `cube` itself is returned. `snr_db=None` (or +inf) disables noise.
    """
    if snr_db is None or np.isinf(snr_db):
        return cube
    sigma = noise_sigma(float(snr_db))
    rng = np.random.default_rng(rng_seed)
    data = cube.data
    scale = sigma / np.sqrt(2.0)
    for m0 in range(0, data.shape[1], _CHUNK_M):
        block = data[:, m0:m0 + _CHUNK_M, :]
        shape = block.shape
        noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        block += (scale * noise).astype(block.dtype)
    return cube
