"""Keystone-based long-time integration.

The slow-time rescaling m_hat = (1 + gamma n dt / f_c) m removes the
range-walk coupling between fast time and chirp index. Doing the rescale and
the slow-time DFT in one go is a scaled discrete Fourier transform

    out[n, k, g] = sum_m in[n, m, g] exp(-j 2pi k alpha_n m / M),
    alpha_n = 1 + gamma n dt / f_c,

evaluated here by the chirp-z (Bluestein) factorization:
k m = (k^2 + m^2 - (k-m)^2)/2 turns the scaled DFT into a pre-chirp multiply,
a cyclic convolution of length >= 2M-1 done with FFTs, and a post-chirp
multiply. The chirp kernels are computed once per chunk of fast-time rows and
shared by every channel of the chunk, and the pre/post chirp is the kernel's
conjugate at lag |m|, so a chunk takes one set of complex exponentials. The
convolution runs in one reused workspace with in-place FFTs, capped at
`_CHUNK_BUDGET` entries (8 MB) across spans whatever the cube's size. The
test suite checks it against a direct O(M^2) summation and an explicit
interpolating keystone transform (`tests/spectral_oracles.py`).

The symmetric DFT (time and frequency both indexed about zero) of an
even-length axis is a sign-modulated FFT, (-1)^(k + N/2) FFT((-1)^n x)[k],
which needs one output array where the shift-based form needs four.

The transforms consume their input: the chirp-z transform is written over
a complex128 cube (each chunk reads its rows into the workspace before it
writes them) and the range DFT over that. Input of another dtype is read
into a new complex128 array first. `integrate_cube` leaves its input as it
was unless `overwrite_x` (scipy's sense: the input's contents are then
lost); the stare, which builds its channel cube and never reads it again,
passes it, so a complex128 cube of even fast-time length integrates in its
own buffer and the returned RDA shares it.

Both transforms act on each channel alone, so they commute with
beamforming, which mixes channels at each (n, m): an element cube
integrates to the element RDA whose beams are the beam cube's RDA. A cube
carries no channel kind, so the transforms take any channel count; the
stare integrates whichever of its element and beam sets is smaller and
names the domain on the RDA (`pipeline.stare`, `RdaCube.weights`).

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
from .cube import DataCube, RdaCube, axis_values

# cap on the convolution workspace of the Bluestein chunks, in complex
# entries (chunk rows x FFT length x channels, summed over spans): 8 MB of
# complex128 whatever the cube's size. The chirp kernels add 1/channels of
# that.
_CHUNK_BUDGET = 1 << 19


def _symmetric(x: np.ndarray, axis: int, workers: int = 1) -> np.ndarray:
    """DFT along `axis` with both indices centred on zero.

    An even-length complex `x` is transformed in place and the result shares
    its buffer.
    """
    x = np.asarray(x)
    n = x.shape[axis]
    if n % 2:
        shifted = np.fft.ifftshift(x, axes=axis)
        return np.fft.fftshift(sfft.fft(shifted, axis=axis, workers=workers), axes=axis)
    shape = [1] * x.ndim
    shape[axis] = n
    sign = np.ones(n, dtype=np.result_type(x.real.dtype, np.float32))
    sign[1::2] = -1.0
    sign = sign.reshape(shape)
    if np.iscomplexobj(x):
        x *= sign
    else:
        x = x * sign
    out = sfft.fft(x, axis=axis, overwrite_x=True, workers=workers)
    out *= sign if n % 4 == 0 else -sign
    return out


def _scaled_dft(rows: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Per-row scaled DFT out[i,k,:] = sum_m rows[i,m,:] e^{-j2pi scales[i] k m / M}.

    Both k and m run over the symmetric index set of length M. Evaluated by the
    Bluestein factorization on spans of rows, each chunked over rows within
    its share of the workspace budget. A complex128 `rows` receives the
    result: each chunk reads its rows into the workspace before it writes
    them, and spans are disjoint.
    """
    n_rows, n_slow, n_ch = rows.shape
    l_fft = sfft.next_fast_len(2 * n_slow - 1)
    bounds = spans.split(n_rows, rows.size)
    chunk = max(1, min(n_rows, _CHUNK_BUDGET // len(bounds) // (l_fft * n_ch)))
    if rows.dtype == np.complex128:
        out = rows
    else:
        out = np.empty((n_rows, n_slow, n_ch), dtype=np.complex128)
    # the kernel is even in the lag: lags 0..M-1, mirrored to -(M-1)..-1;
    # the pre/post chirp exp(-j w m^2) is its conjugate at lag |m|
    lag_sq = np.arange(n_slow, dtype=np.float64) ** 2
    abs_m = np.abs(axis_values(n_slow))

    def transform(r0: int, r1: int) -> None:
        work = np.empty((min(chunk, r1 - r0), l_fft, n_ch), dtype=np.complex128)
        kernel = np.empty((work.shape[0], l_fft), dtype=np.complex128)
        for i0 in range(r0, r1, chunk):
            i1 = min(i0 + chunk, r1)
            a, b = work[: i1 - i0], kernel[: i1 - i0]
            w = (np.pi / n_slow) * scales[i0:i1]          # (nc,)
            half = np.exp(1j * np.outer(w, lag_sq))
            q = half[:, abs_m].conj()                     # pre/post chirp, (nc, M)
            np.multiply(rows[i0:i1], q[:, :, None], out=a[:, :n_slow, :])
            a[:, n_slow:, :] = 0.0
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
    """Chirp-z evaluation of the scaled slow-time DFT, chunked over fast time.

    A complex128 `cube.data` is overwritten by the result.
    """
    out = _scaled_dft(cube.data, cube.config.keystone_scale(cube.fast_index()))
    return DataCube(data=out, config=cube.config)


def range_ft(inter: DataCube) -> RdaCube:
    """DFT along fast time, completing the 2-D integration.

    The transform is written over `inter.data` when it is complex of even
    length; the returned cube then shares that buffer.
    """
    data = _symmetric(inter.data, 0, workers=spans.workers(inter.data.size))
    return RdaCube(data=data, config=inter.config)


def integrate_cube(cube: DataCube, overwrite_x: bool = False) -> RdaCube:
    """Scaled slow-time FT, then the range DFT in place on its output.

    The transforms run on a complex128 copy of `cube.data`; with
    `overwrite_x` they run on `cube.data` itself, and for a complex128 cube
    of even length the result shares its buffer.
    """
    if not overwrite_x:
        cube = DataCube(np.array(cube.data, dtype=np.complex128), cube.config)
    return range_ft(scaled_slow_time_ft_fast(cube))
