"""Conventional steering-vector beamforming over the uniform linear array.

`beamform_cube` writes spans of fast-time rows from threads (`spans`: workers
come from the CPU affinity, span bounds depend only on the shape and the
worker count, small cubes run inline). Each row is the same matrix product
whatever its span, so the beam cube is bit-identical for any worker count.
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


def default_grid(cfg: RadarConfig, n_beams: int | None = None) -> BeamGrid:
    """Beams uniform in sin(theta) over [-1, 1), G = 2L by default.

    Midpoint placement keeps every angle strictly inside (-pi/2, pi/2) and
    makes the beam set an oversampled DFT across the element axis, so the
    beam-domain data can be mapped back to elements exactly.
    """
    g = 2 * cfg.n_elements if n_beams is None else int(n_beams)
    s = -1.0 + (2.0 * np.arange(g) + 1.0) / g
    return BeamGrid(angles_rad=tuple(np.arcsin(s)))


def steering_vector(cfg: RadarConfig, angle_rad: float) -> np.ndarray:
    """Weight vector whose element l carries exp(-j 2pi f_c l d sin(theta)/c)."""
    if not abs(angle_rad) < np.pi / 2:
        raise CubeError(f"|steering angle| must be < pi/2, got {angle_rad!r}")
    return np.exp(-1j * array_phase(cfg, angle_rad))


def beamform_cube(cube: DataCube, grid: BeamGrid) -> DataCube:
    """Sum the element axis under each steering vector: out[n,m,g]."""
    if cube.axis2_kind != "element":
        raise CubeError(f"beamforming expects an element cube, got {cube.axis2_kind!r}")
    if cube.data.shape[2] != cube.config.n_elements:
        raise CubeError(
            f"cube has {cube.data.shape[2]} channels, config says {cube.config.n_elements}"
        )
    weights = np.stack(
        [steering_vector(cube.config, a) for a in grid.angles_rad], axis=1
    ).astype(cube.data.dtype)  # (L, G)
    data = cube.data
    out = np.empty(data.shape[:2] + (len(grid),), dtype=np.result_type(data, weights))

    def form(a: int, b: int) -> None:
        np.matmul(data[a:b], weights, out=out[a:b])

    spans.run(form, spans.split(data.shape[0], data.size))
    return DataCube(
        data=out, axis2_kind="beam", config=cube.config, beam_angles=tuple(grid.angles_rad)
    )


def beams_to_elements(cube: DataCube) -> DataCube:
    """Invert beamforming for a full uniform-in-sin grid over [-1, 1).

    With G >= L beams placed by :func:`default_grid`, beamforming is an
    oversampled discrete Fourier transform along the element axis; the
    adjoint sum divided by G restores the element-domain samples exactly.
    """
    if cube.axis2_kind != "beam":
        raise CubeError("beams_to_elements expects a beam cube")
    if cube.beam_angles is None:
        raise CubeError("beam cube lacks its beam angles")
    g = len(cube.beam_angles)
    if g < cube.config.n_elements:
        raise CubeError(f"need at least L={cube.config.n_elements} beams, got {g}")
    weights = np.stack(
        [steering_vector(cube.config, a) for a in cube.beam_angles], axis=1
    )  # (L, G)
    data = cube.data @ weights.conj().T.astype(cube.data.dtype) / g
    return DataCube(data=data, axis2_kind="element", config=cube.config)
