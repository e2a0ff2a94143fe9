"""Conventional steering-vector beamforming over the uniform linear array.

`beamform_cube` writes spans of fast-time rows from threads (`spans`: workers
come from the CPU affinity, span bounds depend only on the shape and the
worker count, small cubes run inline). Each row is the same matrix product
whatever its span, so the beam cube is bit-identical for any worker count.
With `out=`, a chunk of chirps is formed into its slice of a larger beam
cube, so a dwell can be beamformed as it is synthesised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spans
from .config import RadarConfig
from .cube import CubeError, DataCube
from .synth import array_phase


@dataclass(frozen=True)
class BeamGrid:
    """Ordered set of steering angles (radians)."""

    angles_rad: tuple[float, ...]

    def __post_init__(self) -> None:
        a = np.asarray(self.angles_rad, dtype=float)
        if a.size == 0:
            raise CubeError("beam grid must contain at least one angle")
        if np.any(np.abs(a) >= np.pi / 2):
            raise CubeError("beam angles must lie inside (-pi/2, pi/2)")
        if a.size > 1 and not np.all(np.diff(a) > 0):
            raise CubeError("beam angles must be strictly increasing")

    def __len__(self) -> int:
        return len(self.angles_rad)


def default_grid(cfg: RadarConfig) -> BeamGrid:
    """G = 2L beams uniform in sin(theta) over [-1, 1).

    Midpoint placement keeps every angle strictly inside (-pi/2, pi/2) and
    makes the beam set an oversampled DFT across the element axis, so the
    beam-domain data can be mapped back to elements exactly (the test suite's
    `beams_to_elements` oracle does so).
    """
    g = 2 * cfg.n_elements
    s = -1.0 + (2.0 * np.arange(g) + 1.0) / g
    return BeamGrid(angles_rad=tuple(np.arcsin(s)))


def steering_vector(cfg: RadarConfig, angle_rad: float) -> np.ndarray:
    """Weight vector whose element l carries exp(-j 2pi f_c l d sin(theta)/c)."""
    if not abs(angle_rad) < np.pi / 2:
        raise CubeError(f"|steering angle| must be < pi/2, got {angle_rad!r}")
    return np.exp(-1j * array_phase(cfg, angle_rad))


def steering_weights(cfg: RadarConfig, grid: BeamGrid) -> np.ndarray:
    """The (L, G) weights whose column g forms beam g: beams = elements @ weights."""
    return np.stack([steering_vector(cfg, a) for a in grid.angles_rad], axis=1)


def beamform_cube(
    cube: DataCube, grid: BeamGrid, out: np.ndarray | None = None
) -> DataCube:
    """Sum the element axis under each steering vector: out[n,m,g].

    `out`, when given, receives the beams (shape (N, M, G), the element
    cube's dtype) and becomes the returned cube's data.
    """
    if cube.data.shape[2] != cube.config.n_elements:
        raise CubeError(
            f"cube has {cube.data.shape[2]} channels, config says {cube.config.n_elements}"
        )
    weights = steering_weights(cube.config, grid).astype(cube.data.dtype)
    data = cube.data
    shape = data.shape[:2] + (len(grid),)
    if out is None:
        out = np.empty(shape, dtype=np.result_type(data, weights))
    elif out.shape != shape:
        raise CubeError(f"beam output has shape {out.shape}, the beams need {shape}")

    def form(a: int, b: int) -> None:
        np.matmul(data[a:b], weights, out=out[a:b])

    spans.run(form, spans.split(data.shape[0], data.size))
    return DataCube(data=out, config=cube.config)
