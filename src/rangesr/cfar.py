"""Cell-averaging CFAR detection on range-Doppler-channel cubes.

Per beam, the noise level at each cell is estimated as the mean power over a
square training ring (a (2(t+g)+1)^2 box minus the inner (2g+1)^2 guard box),
computed with wraparound so every cell sees exactly the same number of
training cells. For exponentially distributed cell powers the scale factor
alpha = N_t (pfa^(-1/N_t) - 1) makes the false-alarm probability exact.
Detections are additionally required to be 3x3 local maxima so one target
yields one hit, and are refined to sub-bin accuracy by a three-point
parabolic fit on log power. Hits whose cells touch, in any beam, form one
group: the groups are the labelled 8-connected components of the hits'
range-Doppler cells.

The detector runs at fixed settings, module constants read at call time:
t = `_TRAIN_CELLS` = 8 and g = `_GUARD_CELLS` = 2 cells per axis, pfa =
`_PFA` = 1e-4 per tested cell, and no hit below `_MIN_POWER` = 1e-24. The
ring then holds N_t = 21^2 - 5^2 = 416 training cells (alpha = 9.31, a
threshold 9.7 dB over the local mean), and a 512 x 5000 x 5 step-2 stare
tests 12.8 million cells, so it expects about 1,300 noise cells over the
threshold before the local-maximum gate (ROADMAP item 4).

The cube's channels are beams, or elements with the steering weights that
form the beams (`RdaCube.weights`). Either way the beams' power maps are
formed a group at a time into contiguous (beams, N, M) buffers, as many
beams as `_GROUP_ENTRIES` (4,000,000) map entries hold: seven of step 1's
512 x 1000 maps per read of its element RDA. A beam cube's maps are read
straight from it. An element cube is read once per group, a block of rows
at a time, and each block is beamformed by one matrix product, so the beam
cube is never built: integrating the elements and forming the beams after
commute (`integrate`).

The work is split into spans of lines, not of beams, so every worker gets
an equal share whatever the beam count (`spans`: workers come from the CPU
affinity, span bounds depend only on the shape and the worker count, small
cubes run inline). A beam cube's maps are formed on row spans and an
element cube's on spans of row blocks; beam by beam, the training-ring box
sums run as two 1-D passes (range axis on column spans, Doppler axis on row
spans) and the hits are found on row spans. Each block and line is computed
by the same code whatever span holds it, so the box sums equal the one-call
2-D filter bit for bit; hits come out in row-major order per beam and beams
in order before the sort, so the result is identical for any worker count.
One group's power maps and one beam's noise maps are alive at a time.

Why the stare's cube stays complex128 and the power maps float64: on a
noise-free scene the cells away from the targets hold only rounding, and
each cell is tested against the mean of its own neighbourhood, so a
coarser rounding floor adds hits. Measured on the noise-free exp1/exp2
scenes with a single-precision copy of the stare: complex64 storage and
transforms raised step 1's detections from 1 to 3 (exp1) and from 2 to 7
(exp2), with new hits at range bins -202 to -200 and 67-94 dB under the
dwell's strongest hit; complex64 storage with complex128 transforms added
one step-1 hit on exp2 and one and two step-2 hits on exp1 and exp2, 88-92
dB under it. Either moves the 316 hits of a benchmark `scene_clean` round
(316 -> 345 and 316 -> 318), so a complex64 front end waits for a
detection gate relative to the peak (ROADMAP item 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import label, uniform_filter1d

from . import spans
from .config import ConfigError
from .cube import RdaCube

# power-map entries of one group of beams (32 MB of float64); an element
# RDA is read once per group
_GROUP_ENTRIES = 4_000_000


# training and guard half-widths per axis, false-alarm probability per
# tested cell, and the power floor under which no cell is a hit
_TRAIN_CELLS = 8
_GUARD_CELLS = 2
_PFA = 1e-4
_MIN_POWER = 1e-24


def _window() -> tuple[int, int, int]:
    """The training box side, the guard box side and the training-ring count."""
    outer = 2 * (_TRAIN_CELLS + _GUARD_CELLS) + 1
    inner = 2 * _GUARD_CELLS + 1
    return outer, inner, outer * outer - inner * inner


def _alpha() -> float:
    """Threshold scale N_t (pfa^(-1/N_t) - 1) over the mean training power."""
    n_t = _window()[2]
    return n_t * (_PFA ** (-1.0 / n_t) - 1.0)


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


def _box_filter(lines: np.ndarray, size: int, axis: int, out: np.ndarray) -> None:
    """Wrapped running mean of `size` cells along one axis, into `out` (which
    may be `lines`, as inside `uniform_filter`); an axis of size 1 is copied,
    not filtered, as `uniform_filter` does."""
    if size > 1:
        uniform_filter1d(lines, size, axis=axis, output=out, mode="wrap")
    elif out is not lines:
        out[...] = lines


def noise_level_map(power: np.ndarray, entries: int | None = None) -> np.ndarray:
    """Mean training-ring power per cell, with wraparound at the edges.

    `entries` sizes the pass for `spans` (default: the map's size).
    """
    outer, inner, n_train = _window()
    if outer > min(power.shape):
        raise ConfigError(
            f"CFAR window {outer} exceeds map extent {min(power.shape)}"
        )
    entries = power.size if entries is None else entries
    noise = np.empty_like(power)
    inner_sum = np.empty_like(power)

    def down(a: int, b: int) -> None:
        _box_filter(power[:, a:b], outer, 0, noise[:, a:b])
        _box_filter(power[:, a:b], inner, 0, inner_sum[:, a:b])

    def across(a: int, b: int) -> None:
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


def _power_maps(rda: RdaCube, b0: int, maps: np.ndarray) -> None:
    """|beam|^2 of beams [b0, b0 + len(maps)) into `maps` (beams, N, M).

    A beam cube's maps are read straight from it, beam by beam on row spans.
    An element cube is read once for the whole group, in blocks of rows of
    about `spans._BLOCK_ENTRIES` entries, each beamformed by one matrix
    product; spans of whole blocks run on threads, so every block is the
    same product for any worker count.
    """
    data = rda.data
    n_range, n_doppler, n_ch = data.shape
    if rda.weights is None:
        for k, pmap in enumerate(maps):
            def power(r0: int, r1: int, b: int = b0 + k, pmap: np.ndarray = pmap) -> None:
                np.abs(data[r0:r1, :, b], out=pmap[r0:r1])
                np.square(pmap[r0:r1], out=pmap[r0:r1])

            spans.run(power, spans.split(n_range, data.size))
        return
    w_t = np.ascontiguousarray(rda.weights[:, b0 : b0 + len(maps)].T)   # (beams, L)
    rows = max(1, spans._BLOCK_ENTRIES // (n_doppler * n_ch))

    def form(k0: int, k1: int) -> None:
        for i0 in range(k0 * rows, min(k1 * rows, n_range), rows):
            i1 = min(i0 + rows, n_range)
            beams = w_t @ data[i0:i1].reshape(-1, n_ch).T   # (beams, rows * M)
            block = maps[:, i0:i1]
            np.abs(beams.reshape(block.shape), out=block)
            np.square(block, out=block)

    spans.run(form, spans.split(-(-n_range // rows), data.size))


def _beam_detections(rda: RdaCube, b: int, pmap: np.ndarray) -> list[Detection]:
    """CA-CFAR hits of beam `b`, whose power map is `pmap`, in row-major cell order."""
    alpha, min_power = _alpha(), _MIN_POWER
    rows = spans.split(rda.n_range, rda.data.size)
    noise = noise_level_map(pmap, rda.data.size)
    angle = rda.beam_angles[b] if rda.beam_angles is not None else 0.0

    def detect(r0: int, r1: int) -> list[Detection]:
        block = pmap[r0:r1]
        hit = (block > alpha * noise[r0:r1]) & (block > min_power)
        hit_rows, hit_cols = np.nonzero(hit)
        hit_rows += r0
        keep = _is_local_max(pmap, hit_rows, hit_cols)
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


def ca_cfar(rda: RdaCube) -> list[Detection]:
    """Run per-beam 2-D CA-CFAR; returns detections sorted by falling power.

    The beams' power maps are formed a group at a time, as many as
    `_GROUP_ENTRIES` map entries hold (at least one beam).
    """
    group = max(1, min(rda.n_beams, _GROUP_ENTRIES // (rda.n_range * rda.n_doppler)))
    maps = np.empty((group, rda.n_range, rda.n_doppler))
    detections = []
    for b0 in range(0, rda.n_beams, group):
        pmaps = maps[: min(group, rda.n_beams - b0)]
        _power_maps(rda, b0, pmaps)
        for k, pmap in enumerate(pmaps):
            detections += _beam_detections(rda, b0 + k, pmap)
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
    """Group detections at most one range and one Doppler bin apart (any
    beam), chained: the groups are the 8-connected components of the
    detections' cells, labelled by `scipy.ndimage.label` on a map over their
    bounding box. Members keep the input order; groups come sorted by
    falling strongest power."""
    if not detections:
        return []
    cells = np.array([(d.range_bin, d.doppler_bin) for d in detections])
    rows, cols = (cells - cells.min(axis=0)).T
    occupied = np.zeros((rows.max() + 1, cols.max() + 1), dtype=bool)
    occupied[rows, cols] = True
    labels = label(occupied, structure=np.ones((3, 3)))[0]
    buckets: dict[int, list[Detection]] = {}
    for lab, det in zip(labels[rows, cols], detections):
        buckets.setdefault(lab, []).append(det)
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
