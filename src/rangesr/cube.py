"""Data-cube containers, held in memory only.

A cube is a complex tensor over (fast-time n, slow-time m, element/beam).
Fast-time and slow-time (or their transformed bins) are indexed symmetrically
about zero, matching the signal model: index axis value = storage index -
size//2.

A data cube is its samples and its radar: it carries no channel kind and
no beam angles. Only the package builds cubes (synthesis, beamforming, the
stare and the grid trial), and each knows what its channels are:
`beamform_cube` checks that a cube holds the radar's elements, and
`pipeline.stare` names the beams once, on the RDA it integrates (and gives
an element RDA the steering weights that form them). The stare's
integration overwrites the cube it builds (`integrate`). An RDA's Doppler
axis is as long as its dwell has chirps, so its velocity bins are read from
`n_doppler`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import C_LIGHT, RadarConfig


class CubeError(ValueError):
    """Raised on cube contract violations (shapes, channel counts)."""


def axis_values(size: int) -> np.ndarray:
    """Symmetric index values for an axis of length `size`."""
    return np.arange(size) - size // 2


@dataclass
class DataCube:
    """Time-domain cube over (n, m, l-or-g)."""

    data: np.ndarray           # complex, shape (N, M, n_channels)
    config: RadarConfig

    def __post_init__(self) -> None:
        if self.data.ndim != 3:
            raise CubeError(f"cube must be 3-D, got shape {self.data.shape}")
        if min(self.data.shape) < 1:
            raise CubeError(f"cube dimensions must be positive, got {self.data.shape}")

    @property
    def n_fast(self) -> int:
        return self.data.shape[0]

    @property
    def n_slow(self) -> int:
        return self.data.shape[1]

    def fast_index(self) -> np.ndarray:
        return axis_values(self.n_fast)


@dataclass
class RdaCube:
    """Range-frequency x Doppler x channel cube (the integration output).

    The channels are beams, or elements with `weights`: the (L, G) steering
    weights whose columns form the G beams (`data[i, j] @ weights`), so a
    cube integrated in the element domain forms its beams only where they
    are read. Bin maps use symmetric bin values n_fhat in [-N/2, N/2-1] and
    n_mhat in [-M/2, M/2-1].
    """

    data: np.ndarray
    config: RadarConfig
    beam_angles: tuple[float, ...] | None = None
    weights: np.ndarray | None = None              # (L, G) when the channels are elements

    def __post_init__(self) -> None:
        if self.data.ndim != 3:
            raise CubeError(f"rda cube must be 3-D, got shape {self.data.shape}")
        if self.weights is not None and self.weights.shape[0] != self.data.shape[2]:
            raise CubeError(
                f"beam weights take {self.weights.shape[0]} channels, "
                f"the cube has {self.data.shape[2]}"
            )

    @property
    def n_range(self) -> int:
        return self.data.shape[0]

    @property
    def n_doppler(self) -> int:
        return self.data.shape[1]

    @property
    def n_beams(self) -> int:
        return self.data.shape[2] if self.weights is None else self.weights.shape[1]

    def range_of_bin(self, n_fhat) -> np.ndarray | float:
        cfg = self.config
        return np.asarray(n_fhat) * C_LIGHT / (
            2.0 * cfg.chirp_rate_hz_per_s * self.n_range * cfg.dt
        )

    def velocity_of_bin(self, n_mhat) -> np.ndarray | float:
        cfg = self.config
        return np.asarray(n_mhat) * C_LIGHT / (
            2.0 * self.n_doppler * cfg.chirp_s * cfg.carrier_hz
        )

