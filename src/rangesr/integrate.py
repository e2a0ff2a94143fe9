"""Keystone-based long-time integration.

The slow-time rescaling m_hat = (1 + gamma n dt / f_c) m removes the
range-walk coupling between fast time and chirp index. Doing the rescale and
the slow-time DFT in one go is a scaled discrete Fourier transform

    out[n, k, g] = sum_m in[n, m, g] exp(-j 2pi k alpha_n m / M),
    alpha_n = 1 + gamma n dt / f_c,

evaluated here either by direct summation (the oracle) or by the chirp-z
(Bluestein) factorization: k m = (k^2 + m^2 - (k-m)^2)/2 turns the scaled DFT
into a pre-chirp multiply, a cyclic convolution of length >= 2M-1 done with
FFTs, and a post-chirp multiply. The chirp kernels are computed once per
chunk of fast-time rows and shared by every beam of the chunk; the
convolution runs in one reused workspace with in-place FFTs. An explicit
interpolating keystone transform is kept alongside as an independent check.

The symmetric DFT (time and frequency both indexed about zero) of an
even-length axis is a sign-modulated FFT, (-1)^(k + N/2) FFT((-1)^n x)[k],
which needs one output array where the shift-based form needs four. The
range DFT goes one step further and overwrites the intermediate that
`integrate_cube` owns.

Threading (`spans`): the chirp-z transform runs spans of fast-time rows on
threads, each span with its own 1/workers share of the workspace budget,
and the range FFT runs on scipy.fft's own `workers`. Workers come from the
CPU affinity, span bounds depend only on the shape and the worker count,
and small cubes run inline. Each row's transform is the same code whatever
its span, so outputs are bit-identical for any worker count.
"""

from __future__ import annotations

import numpy as np
import scipy.fft as sfft

from . import spans
from .cube import CubeError, DataCube, RdaCube, axis_values

# cap on the convolution workspace of the Bluestein chunks, in complex
# entries (chunk rows x FFT length x beams, summed over spans); the chirp
# kernels add 1/beams of that. The same figure is the spans' inline gate.
_CHUNK_BUDGET = spans._CHUNK_BUDGET


def _symmetric(
    transform, x: np.ndarray, axis: int, overwrite: bool = False, workers: int = 1
) -> np.ndarray:
    """Apply `transform` along `axis` with both indices centred on zero.

    With `overwrite`, an even-length complex `x` is transformed in place and
    the result shares its buffer.
    """
    x = np.asarray(x)
    n = x.shape[axis]
    if n % 2:
        shifted = np.fft.ifftshift(x, axes=axis)
        return np.fft.fftshift(transform(shifted, axis=axis, workers=workers), axes=axis)
    shape = [1] * x.ndim
    shape[axis] = n
    sign = np.ones(n, dtype=np.result_type(x.real.dtype, np.float32))
    sign[1::2] = -1.0
    sign = sign.reshape(shape)
    if overwrite and np.iscomplexobj(x):
        x *= sign
    else:
        x = x * sign
    out = transform(x, axis=axis, overwrite_x=True, workers=workers)
    out *= sign if n % 4 == 0 else -sign
    return out


def symmetric_fft(x: np.ndarray, axis: int = 0) -> np.ndarray:
    """DFT with both time and frequency indexed symmetrically about zero."""
    return _symmetric(sfft.fft, x, axis)


def symmetric_ifft(x: np.ndarray, axis: int = 0) -> np.ndarray:
    """Inverse of :func:`symmetric_fft` (1/length normalization)."""
    return _symmetric(sfft.ifft, x, axis)


def _alphas(cube: DataCube) -> np.ndarray:
    cfg = cube.config
    n = cube.fast_index().astype(np.float64)
    return 1.0 + cfg.chirp_rate_hz_per_s * n * cfg.dt / cfg.carrier_hz


def _require_beam(cube: DataCube) -> None:
    if cube.axis2_kind != "beam":
        raise CubeError(f"slow-time integration expects a beam cube, got {cube.axis2_kind!r}")


def scaled_slow_time_ft_direct(cube: DataCube) -> DataCube:
    """O(M^2) direct evaluation of the scaled slow-time DFT; the oracle path."""
    _require_beam(cube)
    m = axis_values(cube.n_slow).astype(np.float64)
    alphas = _alphas(cube)
    out = np.empty_like(cube.data, dtype=np.complex128)
    km = np.outer(m, m)  # k and m share the same symmetric index set
    for i, alpha in enumerate(alphas):
        kernel = np.exp(-2j * np.pi * alpha / cube.n_slow * km)
        out[i] = kernel @ cube.data[i]
    return DataCube(
        data=out, axis2_kind="beam", config=cube.config, beam_angles=cube.beam_angles
    )


def _scaled_dft(rows: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Per-row scaled DFT out[i,k,:] = sum_m rows[i,m,:] e^{-j2pi scales[i] k m / M}.

    Both k and m run over the symmetric index set of length M. Evaluated by the
    Bluestein factorization on spans of rows, each chunked over rows within
    its share of the workspace budget.
    """
    n_rows, n_slow, n_beams = rows.shape
    m_vals = axis_values(n_slow).astype(np.float64)
    l_fft = sfft.next_fast_len(2 * n_slow - 1)
    bounds = spans.split(n_rows, rows.size)
    chunk = max(1, min(n_rows, _CHUNK_BUDGET // len(bounds) // (l_fft * n_beams)))
    out = np.empty((n_rows, n_slow, n_beams), dtype=np.complex128)
    m_sq = m_vals * m_vals
    # the kernel is even in the lag: lags 0..M-1, mirrored to -(M-1)..-1
    lag_sq = np.arange(n_slow, dtype=np.float64) ** 2

    def transform(r0: int, r1: int) -> None:
        work = np.empty((min(chunk, r1 - r0), l_fft, n_beams), dtype=np.complex128)
        kernel = np.empty((work.shape[0], l_fft), dtype=np.complex128)
        for i0 in range(r0, r1, chunk):
            i1 = min(i0 + chunk, r1)
            a, b = work[: i1 - i0], kernel[: i1 - i0]
            w = (np.pi / n_slow) * scales[i0:i1]          # (nc,)
            q = np.exp(-1j * np.outer(w, m_sq))           # pre/post chirp, (nc, M)
            np.multiply(rows[i0:i1], q[:, :, None], out=a[:, :n_slow, :])
            a[:, n_slow:, :] = 0.0
            half = np.exp(1j * np.outer(w, lag_sq))
            b[:, :n_slow] = half
            b[:, n_slow : l_fft - n_slow + 1] = 0.0
            b[:, l_fft - n_slow + 1 :] = half[:, :0:-1]
            b = sfft.fft(b, axis=1, overwrite_x=True)
            a = sfft.fft(a, axis=1, overwrite_x=True)
            a *= b[:, :, None]
            a = sfft.ifft(a, axis=1, overwrite_x=True)
            np.multiply(q[:, :, None], a[:, :n_slow, :], out=out[i0:i1])

    spans.run(transform, bounds)
    return out


def scaled_slow_time_ft_fast(cube: DataCube) -> DataCube:
    """Chirp-z evaluation of the scaled slow-time DFT, chunked over fast time."""
    _require_beam(cube)
    out = _scaled_dft(cube.data, _alphas(cube))
    return DataCube(
        data=out, axis2_kind="beam", config=cube.config, beam_angles=cube.beam_angles
    )


def range_ft(inter: DataCube) -> RdaCube:
    """DFT along fast time, completing the 2-D integration.

    The transform is written over `inter.data` when it is complex of even
    length; the returned cube then shares that buffer.
    """
    data = _symmetric(
        sfft.fft, inter.data, 0, overwrite=True, workers=spans.workers(inter.data.size)
    )
    return RdaCube(
        data=data,
        config=inter.config,
        n_slow=inter.n_slow,
        beam_angles=inter.beam_angles,
    )


def range_profile_ft(cube: DataCube) -> np.ndarray:
    """Per-chirp range profiles: DFT along fast time only (no slow-time work)."""
    return symmetric_fft(cube.data, axis=0)


def keystone_explicit(cube: DataCube) -> DataCube:
    """Interpolating keystone transform (didactic/oracle path).

    Resamples each fast-time row at slow-time positions m / alpha_n by
    evaluating the row's trigonometric interpolant there,

        y[n, m, g] = (1/M) sum_k spec[n, k, g] e^{+j2pi k (m/alpha_n) / M},

    i.e. a scaled inverse DFT of the row spectrum, run through the same
    chirp-z core as the fast path. Truncated finite-support kernels hop a
    range cell on the first/last few chirps (one-sided windows); the full
    interpolant has no such edge.
    """
    _require_beam(cube)
    spec = symmetric_fft(cube.data, axis=1)
    inv_scales = 1.0 / _alphas(cube)
    out = np.conj(_scaled_dft(np.conj(spec), inv_scales)) / cube.n_slow
    return DataCube(
        data=out, axis2_kind="beam", config=cube.config, beam_angles=cube.beam_angles
    )


def integrate_cube(cube: DataCube, fast: bool = True) -> RdaCube:
    """Scaled slow-time FT, then the range DFT in place on its output."""
    ft = scaled_slow_time_ft_fast if fast else scaled_slow_time_ft_direct
    return range_ft(ft(cube))
