"""Reference transforms for the test suite.

Kept out of conftest.py so that the package and benchmark test trees can be
collected in one pytest run, each with its own conftest. The package has one
path per stage; these are the second paths its tests compare it with. Each
docstring says whether the oracle shares code with the package.
"""

import numpy as np
from scipy.ndimage import uniform_filter1d

from rangesr import cfar, spans
from rangesr.beamform import steering_vector
from rangesr.cfar import Detection, DetectionGroup, refine_peak
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
    for m0, chunk in dwell_chunks(scene, step):
        data[:, m0:m0 + chunk.n_slow] = chunk.data
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


# power-map entries of one group of beams in the group-at-a-time CFAR
GROUP_ENTRIES = 4_000_000


def _box_filter(lines, size, axis, out):
    if size > 1:
        uniform_filter1d(lines, size, axis=axis, output=out, mode="wrap")
    elif out is not lines:
        out[...] = lines


def noise_level_map_by_columns(power, entries=None):
    """The CA-CFAR noise map of one whole power map, as 1-D box filters.

    The range-axis pass runs `uniform_filter1d` on column spans of the map
    and the Doppler-axis pass on row spans, with whole-map buffers for the
    ring and guard sums. Shares the package's window constants (`cfar._window`).
    """
    outer, inner, n_train = cfar._window()
    entries = power.size if entries is None else entries
    noise = np.empty_like(power)
    inner_sum = np.empty_like(power)

    def down(a, b):
        _box_filter(power[:, a:b], outer, 0, noise[:, a:b])
        _box_filter(power[:, a:b], inner, 0, inner_sum[:, a:b])

    def across(a, b):
        rows, inner_rows = noise[a:b], inner_sum[a:b]
        _box_filter(rows, outer, 1, rows)
        _box_filter(inner_rows, inner, 1, inner_rows)
        rows *= outer * outer
        inner_rows *= inner * inner
        rows -= inner_rows
        rows /= n_train

    spans.run(down, spans.split(power.shape[1], entries))
    spans.run(across, spans.split(power.shape[0], entries))
    return noise


def _group_power_maps(rda, b0, maps):
    """|beam|^2 of beams [b0, b0 + len(maps)) into whole (beams, N, M) maps."""
    data = rda.data
    n_range, n_doppler, n_ch = data.shape
    if rda.weights is None:
        for k, pmap in enumerate(maps):
            def power(r0, r1, b=b0 + k, pmap=pmap):
                np.abs(data[r0:r1, :, b], out=pmap[r0:r1])
                np.square(pmap[r0:r1], out=pmap[r0:r1])

            spans.run(power, spans.split(n_range, data.size))
        return
    w_t = np.ascontiguousarray(rda.weights[:, b0 : b0 + len(maps)].T)
    rows = max(1, spans._BLOCK_ENTRIES // (n_doppler * n_ch))

    def form(k0, k1):
        for i0 in range(k0 * rows, min(k1 * rows, n_range), rows):
            i1 = min(i0 + rows, n_range)
            beams = w_t @ data[i0:i1].reshape(-1, n_ch).T
            block = maps[:, i0:i1]
            np.abs(beams.reshape(block.shape), out=block)
            np.square(block, out=block)

    spans.run(form, spans.split(-(-n_range // rows), data.size))


def _wrapped_local_max(pmap, rows, cols):
    n_i, n_j = pmap.shape
    peak = pmap[rows, cols]
    keep = np.ones(rows.shape, dtype=bool)
    for di in (-1, 0, 1):
        ni = (rows + di) % n_i
        for dj in (-1, 0, 1):
            if di or dj:
                keep &= peak >= pmap[ni, (cols + dj) % n_j]
    return keep


def _beam_detections(rda, b, pmap):
    alpha, min_power = cfar._alpha(), cfar._MIN_POWER
    rows = spans.split(rda.n_range, rda.data.size)
    noise = noise_level_map_by_columns(pmap, rda.data.size)
    angle = rda.beam_angles[b] if rda.beam_angles is not None else 0.0

    def detect(r0, r1):
        block = pmap[r0:r1]
        hit = (block > alpha * noise[r0:r1]) & (block > min_power)
        hit_rows, hit_cols = np.nonzero(hit)
        hit_rows += r0
        keep = _wrapped_local_max(pmap, hit_rows, hit_cols)
        detections = []
        for i, j in zip(hit_rows[keep], hit_cols[keep]):
            di, dj, at_edge = refine_peak(pmap, int(i), int(j))
            rbin = int(i) - rda.n_range // 2
            dbin = int(j) - rda.n_doppler // 2
            detections.append(
                Detection(
                    range_bin=rbin,
                    doppler_bin=dbin,
                    beam=b,
                    power=float(pmap[i, j]),
                    noise_power=float(noise[i, j]),
                    threshold=float(alpha * noise[i, j]),
                    range_m=float(rda.range_of_bin(rbin)),
                    velocity_mps=float(rda.velocity_of_bin(dbin)),
                    angle_rad=float(angle),
                    refined_range_bin=rbin + di,
                    refined_doppler_bin=dbin + dj,
                    refined_range_m=float(rda.range_of_bin(rbin + di)),
                    refined_velocity_mps=float(rda.velocity_of_bin(dbin + dj)),
                    at_edge=at_edge,
                )
            )
        return detections

    return [d for hits in spans.run(detect, rows) for d in hits]


def ca_cfar_by_groups(rda):
    """CA-CFAR over whole power maps, a group of beams at a time.

    Forms as many beams' (N, M) power maps as `GROUP_ENTRIES` entries hold
    (an element RDA is read once per group and beamformed block by block,
    one matrix product of the group's weights each), filters each map with
    `noise_level_map_by_columns`, and finds each beam's hits on row spans
    with a wrapped 3 x 3 local-maximum test over the whole map; beams in
    order, hits in row-major order, then a stable sort by falling power.
    Shares the package's settings, `Detection` and `refine_peak`, not its
    tile stream or running sums.
    """
    group = max(1, min(rda.n_beams, GROUP_ENTRIES // (rda.n_range * rda.n_doppler)))
    maps = np.empty((group, rda.n_range, rda.n_doppler))
    detections = []
    for b0 in range(0, rda.n_beams, group):
        pmaps = maps[: min(group, rda.n_beams - b0)]
        _group_power_maps(rda, b0, pmaps)
        for k, pmap in enumerate(pmaps):
            detections += _beam_detections(rda, b0 + k, pmap)
    detections.sort(key=lambda d: -d.power)
    return detections


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
