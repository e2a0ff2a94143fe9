"""Reference transforms for the test suite.

Kept out of conftest.py so that the package and benchmark test trees can be
collected in one pytest run, each with its own conftest. The package has one
path per stage; these are the second paths its tests compare it with. Each
docstring says whether the oracle shares code with the package.
"""

import numpy as np

from rangesr.beamform import steering_vector
from rangesr.cfar import DetectionGroup
from rangesr.cube import CubeError, DataCube, axis_values
from rangesr.config import C_LIGHT
from rangesr.integrate import _scaled_dft, _symmetric
from rangesr.pipeline import dwell_chirps, dwell_chunks
from rangesr.sdp import hermitize
from rangesr.synth import array_phase


def symmetric_fft(x, axis=0):
    """DFT with both time and frequency indexed symmetrically about zero.

    Shares code with the package: it is `integrate._symmetric`, which runs
    in place on complex input and so consumes the range DFT's input; the
    oracle runs it on a copy and leaves `x` as it was.
    """
    return _symmetric(np.array(x), axis)


def dwell_cube(scene, step):
    """The whole noisy element cube of a dwell, assembled from `dwell_chunks`.

    The streamed stare never holds it; its tests compare the stream with it.
    """
    cfg = scene.config
    data = np.empty((cfg.n_fast, dwell_chirps(scene, step), cfg.n_elements), np.complex128)
    for m0, m1, chunk in dwell_chunks(scene, step):
        data[:, m0:m1] = chunk.data
    return DataCube(data=data, config=cfg)


def dft_peak_freq(x, pad=64):
    """Zero-padded DFT argmax of a 1-D sequence, cycles/sample in [-0.5, 0.5).

    Deliberately independent of the package's transforms: plain numpy FFT of
    the sequence as stored (start phase does not move the magnitude peak).
    """
    x = np.asarray(x)
    n = x.shape[0]
    spec = np.fft.fft(x, pad * n)
    k = int(np.argmax(np.abs(spec)))
    f = k / (pad * n)
    return f - 1.0 if f >= 0.5 else f


def dft_peak_resolution(n, pad=64):
    """Half a padded bin: the argmax oracle's worst-case quantization."""
    return 0.5 / (pad * n)


def scaled_slow_time_ft_direct(cube: DataCube) -> DataCube:
    """O(M^2) direct evaluation of the scaled slow-time DFT.

    Independent of the chirp-z core: it shares only the package's scale
    factors (`RadarConfig.keystone_scale`). It reads `cube` and writes a new
    cube, where the package's transform consumes its input.
    """
    m = axis_values(cube.n_slow).astype(np.float64)
    alphas = cube.config.keystone_scale(cube.fast_index())
    out = np.empty_like(cube.data, dtype=np.complex128)
    km = np.outer(m, m)  # k and m share the same symmetric index set
    for i, alpha in enumerate(alphas):
        kernel = np.exp(-2j * np.pi * alpha / cube.n_slow * km)
        out[i] = kernel @ cube.data[i]
    return DataCube(data=out, config=cube.config)


def range_profile_ft(cube: DataCube) -> np.ndarray:
    """Per-chirp range profiles: DFT along fast time only (no slow-time work).

    Shares code with the package: it is `symmetric_fft` on axis 0, so it
    leaves `cube` as it was.
    """
    return symmetric_fft(cube.data, axis=0)


def keystone_explicit(cube: DataCube) -> DataCube:
    """Interpolating keystone transform.

    Resamples each fast-time row at slow-time positions m / alpha_n by
    evaluating the row's trigonometric interpolant there,

        y[n, m, g] = (1/M) sum_k spec[n, k, g] e^{+j2pi k (m/alpha_n) / M},

    i.e. a scaled inverse DFT of the row spectrum. Shares code with the
    package: it runs through the same chirp-z core (`integrate._scaled_dft`)
    and symmetric DFT (`integrate._symmetric`), so it checks the keystone's
    geometry, not the transform's arithmetic. Truncated finite-support
    kernels hop a range cell on the first/last few chirps (one-sided
    windows); the full interpolant has no such edge. It reads `cube` and
    writes a new cube: the chirp-z core runs on the conjugated spectrum, a
    copy.
    """
    spec = symmetric_fft(cube.data, axis=1)
    inv_scales = 1.0 / cube.config.keystone_scale(cube.fast_index())
    out = np.conj(_scaled_dft(np.conj(spec), inv_scales)) / cube.n_slow
    return DataCube(data=out, config=cube.config)


def beams_to_elements(cube: DataCube, grid) -> DataCube:
    """Invert beamforming for a full uniform-in-sin grid over [-1, 1).

    With G >= L beams placed by `default_grid`, beamforming is an
    oversampled discrete Fourier transform along the element axis; the
    adjoint sum divided by G restores the element-domain samples exactly.
    `grid` is the `BeamGrid` that formed the beam cube, whose channels are
    its beams (a cube carries no kind). Shares the package's
    `steering_vector`, not its beamformer.
    """
    g = len(grid)
    if g < cube.config.n_elements or cube.data.shape[2] != g:
        raise CubeError(
            f"need the cube's beams, at least L={cube.config.n_elements} of them; "
            f"the grid has {g}, the cube {cube.data.shape[2]}"
        )
    weights = np.stack(
        [steering_vector(cube.config, a) for a in grid.angles_rad], axis=1
    )  # (L, G)
    data = cube.data @ weights.conj().T.astype(cube.data.dtype) / g
    return DataCube(data=data, config=cube.config)


def synth_per_target(cfg, targets, n_slow):
    """The beat cube summed one target at a time over the whole (n, m, l) grid.

    Shares the package's axis values, frequency maps and array phase, not
    its block loop or its matrix product: each target's samples are
    C_k exp(j phase(n, m)) exp(j array_phase(l)), added to the cube in turn.
    """
    n = axis_values(cfg.n_fast).astype(np.float64)[:, None]
    m = axis_values(n_slow).astype(np.float64)[None, :]
    data = np.zeros((cfg.n_fast, n_slow, cfg.n_elements), dtype=np.complex128)
    for t in targets:
        c_amp = t.amplitude * np.exp(2j * np.pi * cfg.carrier_hz * 2.0 * t.range0_m / C_LIGHT)
        walk = (2.0 * np.pi * (2.0 * cfg.chirp_rate_hz_per_s * t.velocity_mps / C_LIGHT)
                * cfg.chirp_s * cfg.dt)
        ph = (2.0 * np.pi * cfg.beat_freq(t.range0_m) * n + walk * n * m
              + 2.0 * np.pi * cfg.doppler_freq(t.velocity_mps) * m)
        elem = np.exp(1j * array_phase(cfg, t.angle_rad))
        data += (c_amp * np.exp(1j * ph))[:, :, None] * elem
    return data


def cluster_all_pairs(detections):
    """Detection groups by testing every pair of detections.

    The package labels the connected components of the detections' cells
    on a map; this oracle shares only `DetectionGroup` with it: union-find
    over all pairs at most one range and one Doppler bin apart, members in
    input order, groups sorted by falling strongest power.
    """
    n = len(detections)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        for j in range(i + 1, n):
            di, dj = detections[i], detections[j]
            if (
                abs(di.range_bin - dj.range_bin) <= 1
                and abs(di.doppler_bin - dj.doppler_bin) <= 1
            ):
                parent[find(i)] = find(j)
    buckets = {}
    for i in range(n):
        buckets.setdefault(find(i), []).append(detections[i])
    groups = [DetectionGroup(members=tuple(v)) for v in buckets.values()]
    groups.sort(key=lambda g: -g.strongest.power)
    return groups


def psd_project_eigh(a):
    """Projection of a onto the PSD cone by a full eigendecomposition.

    Shares `sdp.hermitize` with the package: every eigenpair of the
    Hermitian part of a, with the negative eigenvalues clipped to zero.
    """
    vals, vecs = np.linalg.eigh(hermitize(a))
    np.maximum(vals, 0.0, out=vals)
    return (vecs * vals) @ vecs.conj().T


def range_crb(mmv, freqs_local, amplitudes, sigma2):
    """Cramer-Rao bound (m^2, K x K) on the ranges of K tones in `mmv`.

    The deterministic multi-snapshot bound of Stoica & Nehorai (IEEE TASSP
    1989): for data A X + noise of complex variance `sigma2` per entry, where
    A's columns are exp(j 2 pi f k), k = 0..N-1, at the local frequencies f
    and X (K x L) holds the `amplitudes`, any unbiased estimate of f (cycles
    per sample) has covariance at least
    sigma2 / 2 {Re[(D^H P D) * (X X^H)^T]}^-1, with D the columns'
    derivatives in f and P the projection off A's range. A local frequency
    maps affinely to range through the MMV (`step`, then
    `config.range_of_freq`), so the bound scales by that map's slope
    squared. Shares only the MMV's frequency map with the package.
    """
    f = np.asarray(freqs_local, dtype=np.float64)
    k = np.arange(mmv.n_samples, dtype=np.float64)[:, None]
    a = np.exp(2j * np.pi * k * f[None, :])
    d = 2j * np.pi * k * a
    proj = np.eye(mmv.n_samples) - a @ np.linalg.pinv(a)
    x = np.asarray(amplitudes)
    fisher = np.real((d.conj().T @ proj @ d) * (x @ x.conj().T).T)
    slope = mmv.config.range_of_freq(1.0 / mmv.step)
    return slope**2 * 0.5 * sigma2 * np.linalg.inv(fisher)
