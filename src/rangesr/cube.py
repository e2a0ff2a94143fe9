"""Data-cube containers and their sidecar+binary file format.

A cube is a complex tensor over (fast-time n, slow-time m, element/beam).
Fast-time and slow-time (or their transformed bins) are indexed symmetrically
about zero, matching the signal model: index axis value = storage index -
size//2. Files are a JSON sidecar plus a raw little-endian interleaved
float32 payload with the fast-time axis fastest-varying.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import C_LIGHT, RadarConfig, dump_json, from_json, load_json, to_json


class CubeError(ValueError):
    """Raised on cube contract violations (axis kinds, shapes, formats)."""


def axis_values(size: int) -> np.ndarray:
    """Symmetric index values for an axis of length `size`."""
    return np.arange(size) - size // 2


@dataclass
class DataCube:
    """Time-domain cube over (n, m, l-or-g)."""

    data: np.ndarray           # complex, shape (N, M, n_channels)
    axis2_kind: str            # "element" | "beam"
    config: RadarConfig
    beam_angles: tuple[float, ...] | None = None   # set when axis2_kind == "beam"

    def __post_init__(self) -> None:
        if self.data.ndim != 3:
            raise CubeError(f"cube must be 3-D, got shape {self.data.shape}")
        if min(self.data.shape) < 1:
            raise CubeError(f"cube dimensions must be positive, got {self.data.shape}")
        if self.axis2_kind not in ("element", "beam"):
            raise CubeError(f"axis2_kind must be 'element' or 'beam', got {self.axis2_kind!r}")
        if self.axis2_kind == "beam" and self.beam_angles is not None:
            if len(self.beam_angles) != self.data.shape[2]:
                raise CubeError("beam_angles length does not match axis 2")

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
    """Range-frequency x Doppler x beam cube (the integration output).

    Bin maps use symmetric bin values n_fhat in [-N/2, N/2-1] and
    n_mhat in [-M/2, M/2-1].
    """

    data: np.ndarray
    config: RadarConfig
    n_slow: int                                    # M of the dwell that produced this
    beam_angles: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.data.ndim != 3:
            raise CubeError(f"rda cube must be 3-D, got shape {self.data.shape}")

    @property
    def n_range(self) -> int:
        return self.data.shape[0]

    @property
    def n_doppler(self) -> int:
        return self.data.shape[1]

    @property
    def n_beams(self) -> int:
        return self.data.shape[2]

    def range_of_bin(self, n_fhat) -> np.ndarray | float:
        cfg = self.config
        return np.asarray(n_fhat) * C_LIGHT / (
            2.0 * cfg.chirp_rate_hz_per_s * self.n_range * cfg.dt
        )

    def velocity_of_bin(self, n_mhat) -> np.ndarray | float:
        cfg = self.config
        return np.asarray(n_mhat) * C_LIGHT / (
            2.0 * self.n_slow * cfg.chirp_s * cfg.carrier_hz
        )


def _payload_path(sidecar_path: Path) -> Path:
    return sidecar_path.with_suffix(".bin")


def save_cube(cube: DataCube | RdaCube, sidecar_path) -> Path:
    """Write a cube as JSON sidecar + raw binary payload.

    Payload layout: little-endian float32 pairs (re, im), axis 0 (fast time /
    range frequency) fastest-varying.
    """
    sidecar_path = Path(sidecar_path)
    meta = {
        "format": "rangesr-cube-v1",
        "shape": list(cube.data.shape),
        "dtype": "complex64-interleaved-le",
        "order": "axis0-fastest",
        "radar": to_json(cube.config),
        "payload": _payload_path(sidecar_path).name,
    }
    if isinstance(cube, DataCube):
        meta["kind"] = "time"
        meta["axis2_kind"] = cube.axis2_kind
        if cube.beam_angles is not None:
            meta["beam_angles"] = list(cube.beam_angles)
    else:
        meta["kind"] = "rda"
        meta["n_slow"] = cube.n_slow
        if cube.beam_angles is not None:
            meta["beam_angles"] = list(cube.beam_angles)
    payload = np.ascontiguousarray(cube.data.astype("<c8").transpose(2, 1, 0))
    _payload_path(sidecar_path).write_bytes(payload.tobytes())
    dump_json(meta, sidecar_path)
    return sidecar_path


def load_cube(sidecar_path) -> DataCube | RdaCube:
    sidecar_path = Path(sidecar_path)
    meta = load_json(sidecar_path)
    if meta.get("format") != "rangesr-cube-v1":
        raise CubeError(f"unrecognized cube format in {sidecar_path}")
    kind = meta.get("kind")
    if kind not in ("time", "rda"):
        raise CubeError(f"cube kind {kind!r} in {sidecar_path} is neither 'time' nor 'rda'")
    shape = tuple(meta["shape"])
    raw = np.frombuffer(
        (sidecar_path.parent / meta["payload"]).read_bytes(), dtype="<c8"
    )
    if raw.size != int(np.prod(shape)):
        raise CubeError(
            f"payload has {raw.size} samples, sidecar shape {shape} wants {int(np.prod(shape))}"
        )
    data = raw.reshape(shape[::-1]).transpose(2, 1, 0).astype(np.complex128)
    cfg = from_json(RadarConfig, meta["radar"])
    angles = tuple(meta["beam_angles"]) if "beam_angles" in meta else None
    if kind == "time":
        return DataCube(data=data, axis2_kind=meta["axis2_kind"], config=cfg, beam_angles=angles)
    return RdaCube(data=data, config=cfg, n_slow=int(meta["n_slow"]), beam_angles=angles)


def export_magnitude_csv(cube: RdaCube, path, beam: int = 0) -> None:
    """Dump one beam's |RdaCube| slice as CSV (row = range bin, col = Doppler bin)."""
    mag = np.abs(cube.data[:, :, beam])
    rows = []
    header = ["range_bin\\doppler_bin"] + [str(int(b)) for b in axis_values(cube.n_doppler)]
    rows.append(",".join(header))
    rbins = axis_values(cube.n_range)
    for i in range(cube.n_range):
        rows.append(",".join([str(int(rbins[i]))] + [f"{v:.8e}" for v in mag[i]]))
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")
