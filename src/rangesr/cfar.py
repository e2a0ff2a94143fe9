"""Cell-averaging CFAR detection on range-Doppler-beam cubes.

Per beam, the noise level at each cell is estimated as the mean power over a
square training ring (a (2(t+g)+1)^2 box minus the inner (2g+1)^2 guard box),
computed with wraparound so every cell sees exactly the same number of
training cells. For exponentially distributed cell powers the scale factor
alpha = N_t (pfa^(-1/N_t) - 1) makes the false-alarm probability exact.
Detections are additionally required to be 3x3 local maxima so one target
yields one hit, and are refined to sub-bin accuracy by a three-point
parabolic fit on log power.

Beams are independent, so `ca_cfar` hands spans of beams to threads
(`spans`: workers come from the CPU affinity, span bounds depend only on the
shape and the worker count, small cubes run inline). Each worker reduces a
beam to its detections before taking the next, so no more than one power map
per worker is alive; the lists are joined in beam order before the sort, and
the result is identical for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.ndimage import uniform_filter

from . import spans
from .config import ConfigError
from .cube import RdaCube


@dataclass(frozen=True)
class CfarSettings:
    """Training/guard half-widths are per axis; pfa is per tested cell."""

    train_cells: int = 8
    guard_cells: int = 2
    pfa: float = 1e-4
    min_power: float = 1e-24

    def __post_init__(self) -> None:
        if self.train_cells < 1:
            raise ConfigError("train_cells must be >= 1")
        if self.guard_cells < 0:
            raise ConfigError("guard_cells must be >= 0")
        if not 0.0 < self.pfa < 1.0:
            raise ConfigError("pfa must be in (0, 1)")

    @property
    def n_train(self) -> int:
        outer = 2 * (self.train_cells + self.guard_cells) + 1
        inner = 2 * self.guard_cells + 1
        return outer * outer - inner * inner

    @property
    def alpha(self) -> float:
        n_t = self.n_train
        return n_t * (self.pfa ** (-1.0 / n_t) - 1.0)


@dataclass(frozen=True)
class Detection:
    """One CFAR hit. Bin fields use symmetric (zero-centered) bin values."""

    range_bin: int
    doppler_bin: int
    beam: int
    power: float
    noise_power: float
    threshold: float
    range_m: float                 # bin map of the integer bin, no refinement
    velocity_mps: float
    angle_rad: float
    refined_range_bin: float
    refined_doppler_bin: float
    refined_range_m: float         # bin map of the sub-bin peak position
    refined_velocity_mps: float
    at_edge: bool

    def to_dict(self) -> dict:
        return {
            "range_bin": self.range_bin,
            "doppler_bin": self.doppler_bin,
            "beam": self.beam,
            "power": self.power,
            "noise_power": self.noise_power,
            "threshold": self.threshold,
            "range_m": self.range_m,
            "velocity_mps": self.velocity_mps,
            "angle_rad": self.angle_rad,
            "refined_range_bin": self.refined_range_bin,
            "refined_doppler_bin": self.refined_doppler_bin,
            "refined_range_m": self.refined_range_m,
            "refined_velocity_mps": self.refined_velocity_mps,
            "at_edge": self.at_edge,
        }


def detection_from_dict(d: dict) -> Detection:
    return Detection(
        range_bin=int(d["range_bin"]),
        doppler_bin=int(d["doppler_bin"]),
        beam=int(d["beam"]),
        power=float(d["power"]),
        noise_power=float(d["noise_power"]),
        threshold=float(d["threshold"]),
        range_m=float(d["range_m"]),
        velocity_mps=float(d["velocity_mps"]),
        angle_rad=float(d["angle_rad"]),
        refined_range_bin=float(d["refined_range_bin"]),
        refined_doppler_bin=float(d["refined_doppler_bin"]),
        refined_range_m=float(d["refined_range_m"]),
        refined_velocity_mps=float(d["refined_velocity_mps"]),
        at_edge=bool(d["at_edge"]),
    )


def noise_level_map(power: np.ndarray, settings: CfarSettings) -> np.ndarray:
    """Mean training-ring power per cell, with wraparound at the edges."""
    t, g = settings.train_cells, settings.guard_cells
    outer = 2 * (t + g) + 1
    inner = 2 * g + 1
    if outer > min(power.shape):
        raise ConfigError(
            f"CFAR window {outer} exceeds map extent {min(power.shape)}"
        )
    outer_sum = uniform_filter(power, size=outer, mode="wrap") * (outer * outer)
    inner_sum = uniform_filter(power, size=inner, mode="wrap") * (inner * inner)
    return (outer_sum - inner_sum) / settings.n_train


def parabolic_offset(lo: float, mid: float, hi: float) -> float:
    """Vertex offset, within +-0.5, of the parabola through three samples."""
    denom = lo - 2.0 * mid + hi
    if denom >= -1e-300:   # flat or non-concave: no refinement
        return 0.0
    delta = 0.5 * (lo - hi) / denom
    return float(np.clip(delta, -0.5, 0.5))


def refine_peak(power: np.ndarray, i: int, j: int) -> tuple[float, float, bool]:
    """Sub-bin peak offset from a 3-point log-power parabola per axis.

    Returns (di, dj, at_edge); offsets are zero when the peak sits on the map
    edge, where the one-sided neighborhood cannot support a fit.
    """
    n_i, n_j = power.shape
    if i <= 0 or i >= n_i - 1 or j <= 0 or j >= n_j - 1:
        return 0.0, 0.0, True
    floor = 1e-300
    logp = np.log(np.maximum(power[i - 1 : i + 2, j - 1 : j + 2], floor))
    di = parabolic_offset(logp[0, 1], logp[1, 1], logp[2, 1])
    dj = parabolic_offset(logp[1, 0], logp[1, 1], logp[1, 2])
    return di, dj, False


def _is_local_max(pmap: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Whether each cell (rows[k], cols[k]) is >= its 8 wrapped neighbours."""
    n_i, n_j = pmap.shape
    peak = pmap[rows, cols]
    keep = np.ones(rows.shape, dtype=bool)
    for di in (-1, 0, 1):
        ni = (rows + di) % n_i
        for dj in (-1, 0, 1):
            if di or dj:
                keep &= peak >= pmap[ni, (cols + dj) % n_j]
    return keep


def _beam_detections(rda: RdaCube, b: int, settings: CfarSettings) -> list[Detection]:
    """CA-CFAR hits of one beam, in row-major cell order."""
    alpha = settings.alpha
    pmap = np.abs(rda.data[:, :, b]) ** 2
    noise = noise_level_map(pmap, settings)
    rows, cols = np.nonzero((pmap > alpha * noise) & (pmap > settings.min_power))
    keep = _is_local_max(pmap, rows, cols)
    angle = rda.beam_angles[b] if rda.beam_angles is not None else 0.0
    detections = []
    for i, j in zip(rows[keep], cols[keep]):
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


def ca_cfar(rda: RdaCube, settings: CfarSettings | None = None) -> list[Detection]:
    """Run per-beam 2-D CA-CFAR; returns detections sorted by falling power."""
    settings = settings or CfarSettings()

    def detect(b0: int, b1: int) -> list[Detection]:
        return [d for b in range(b0, b1) for d in _beam_detections(rda, b, settings)]

    per_span = spans.run(detect, spans.split(rda.n_beams, rda.data.size))
    detections = [d for hits in per_span for d in hits]
    detections.sort(key=lambda d: -d.power)
    return detections


@dataclass(frozen=True)
class DetectionGroup:
    """Detections that plausibly share one range cell neighborhood."""

    members: tuple[Detection, ...] = field(default_factory=tuple)

    @property
    def strongest(self) -> Detection:
        return max(self.members, key=lambda d: d.power)

    @property
    def range_bins(self) -> tuple[int, ...]:
        return tuple(sorted({d.range_bin for d in self.members}))

    @property
    def size(self) -> int:
        return len(self.members)


def cluster_detections(detections: list[Detection]) -> list[DetectionGroup]:
    """Union-find grouping of detections at most one range and one Doppler
    bin apart (any beam)."""
    n = len(detections)
    parent = list(range(n))

    def find(a: int) -> int:
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
    buckets: dict[int, list[Detection]] = {}
    for i in range(n):
        buckets.setdefault(find(i), []).append(detections[i])
    groups = [DetectionGroup(members=tuple(v)) for v in buckets.values()]
    groups.sort(key=lambda g: -g.strongest.power)
    return groups


def merge_beam_duplicates(detections: list[Detection]) -> list[Detection]:
    """Collapse hits sharing a (range, Doppler) cell across beams to the strongest."""
    best: dict[tuple[int, int], Detection] = {}
    for det in detections:
        key = (det.range_bin, det.doppler_bin)
        if key not in best or det.power > best[key].power:
            best[key] = det
    out = list(best.values())
    out.sort(key=lambda d: -d.power)
    return out


def with_angle(det: Detection, angle_rad: float) -> Detection:
    return replace(det, angle_rad=float(angle_rad))
