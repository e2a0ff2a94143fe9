"""Independent spectral oracles for the test suite.

Kept out of conftest.py so that the package and benchmark test trees can be
collected in one pytest run, each with its own conftest.
"""

import numpy as np


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
