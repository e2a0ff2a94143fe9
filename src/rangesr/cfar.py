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
`_PFA` = 1e-4 per tested cell, and no hit below `_MIN_POWER` = 1e-24 or
on a noise level of zero or below. The ring then holds N_t = 21^2 - 5^2 =
416 training cells (alpha = 9.31, a threshold 9.7 dB over the local mean),
and a 512 x 5000 x 5 step-2 stare tests 12.8 million cells, so it expects
about 1,300 noise cells over the threshold before the local-maximum gate
(ROADMAP item 4).

The cube's channels are beams, or elements with the steering weights that
form the beams (`RdaCube.weights`). The detector streams over tiles of
range rows, every beam of a tile at once, and holds no whole power, noise
or guard-sum map. A power row is the row of every beam, beams * Doppler
entries, and a tile is as many rows as `_TILE_ENTRIES` (2^20) entries hold:
32 of step 1's 32 x 1000 rows, 41 of step 2's 5 x 5000. Power rows sit in a
window that holds the tile and the training box's halo, t + g + 1 rows
before it and t + g after, in row order. Between tiles the window's last
2 (t + g) + 1 rows move to its front, where they are the next tile's
halo, and the tile's new rows are read once from the RDA behind them.
A beam cube's rows are read as stored. An element cube's are beamformed a
block of rows at a time, all beams by one matrix product, so the beam cube
is never built: integrating the elements and forming the beams after
commute (`integrate`). The window and two box sums of tile rows come to about
30 MB at step 1's and step 2's shapes, whatever the range extent. Smaller
tiles run slower and raise the peak RSS: with glibc's malloc, 2^17 to 2^19
entries took a benchmark `scene_clean` run's peak from 364 to 390 MB,
because the heap that step 1's CFAR grows is then too small to hold step
2's 32 MB chirp windows, which get mappings of their own beside it.

Per tile, the range-axis box sums of every beam run down the rows as
running sums: s(i) = s(i - 1) + (p(i + h) - p(i - h - 1)), indices wrapped,
started at the in-order sum of the first box, and each row emits s / size,
for the 21-cell training box and the 5-cell guard box. That is the
arithmetic `uniform_filter1d(mode="wrap")` does along a line, cell for
cell, so the sums equal the filter bit for bit, rounding residue included;
the sums carry from tile to tile, so the tile size changes no bit. A map
that fits one tile (the grid trial's 512 x 64 beam) runs the same sums
down its rows. The Doppler-axis pass is `uniform_filter1d` along the
tile's rows, and the training-ring arithmetic, threshold and local-maximum
tests follow on the same rows. The element product gives each beam the bits
that a product over any other block of rows, with any other group of two or
more beams, gives (measured with OpenBLAS; a one-beam product goes through
gemv and may round differently). Hits are sorted by falling power, ties in
(beam, range, Doppler) order. So the detections equal those of whole-map
filtering a group of beams at a time (`tests/spectral_oracles.py`), less
the oracle's hits on a noise level of zero or below: past a peak 1e34 over
its neighbours, (s + peak) - peak loses the floor's power, the training
mean goes negative, and any positive cell there would pass the threshold.
Such a cell is no hit, and neither is the peak when its own level cancels
below zero.

The work is split into spans of lines, not of beams, so every worker gets
an equal share whatever the beam count (`spans`: workers come from the CPU
affinity, span bounds depend only on the shape and the worker count, small
cubes run inline). Per tile, the new power rows are formed on row spans,
in two parts where they wrap round the range extent, the range sums run on
column spans of the beams' rows laid end to end, and the Doppler pass and
hit tests run on row spans. Each row operation covers every beam of a
worker's span, 16,000 entries at step 1 on two workers, so numpy runs it
without the GIL. Each line is computed by the same code
whatever span holds it, so the result is identical for any worker count.

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

# power entries of one tile's range rows, every beam (8 MB of float64)
_TILE_ENTRIES = 1 << 20


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


def check_map_extent(n_range: int, n_doppler: int) -> None:
    """Raise ConfigError unless the training box fits an n_range x n_doppler map."""
    outer = _window()[0]
    if outer > min(n_range, n_doppler):
        raise ConfigError(
            f"CFAR window {outer} exceeds map extent {min(n_range, n_doppler)}"
        )


def _stream(shape: tuple[int, int, int], form, visit, gate: int) -> list:
    """Run the CA-CFAR noise map over (range, beams, Doppler) power a tile of
    range rows at a time, and return what `visit` finds, in row order.

    A tile [r0, r0 + n) reads power rows [r0 - halo - 1, r0 + n + halo),
    wrapped at the range extent, from a window of rows, each the row of
    every beam (beams * Doppler entries): slot k holds power row
    r0 - halo - 1 + k, so row r0 + k is slot k + halo + 1. Between tiles the
    window's last 2 halo + 1 rows move to its front and only the tile's new
    rows are formed. `form(p0, p1, out)` writes stored rows [p0, p1) into
    the slots `out`. `visit(i0, window, s0, noise)` gets the noise rows
    [i0, i0 + len(noise)), whose power rows are window[s0 : s0 + len(noise)],
    and returns a list. `gate` is the input size that decides, through
    `spans`, whether the passes run on every worker.
    """
    n_range, n_beams, n_doppler = shape
    check_map_extent(n_range, n_doppler)
    outer, inner, n_train = _window()
    width = n_beams * n_doppler
    rows = max(1, min(n_range, _TILE_ENTRIES // width))
    halo = outer // 2
    keep = 2 * halo + 1
    window = np.empty((rows + keep, width))
    # row 0 of a box's sums carries the running sum of the row before the tile
    boxes = [(size, np.empty((rows + 1, width))) for size in (outer, inner)]
    columns = spans.split(width, gate)

    def fill(v0: int, out: np.ndarray) -> None:
        while len(out):   # power rows [v0, v0 + len(out)), cut at the wrap
            p0 = v0 % n_range
            k = min(len(out), n_range - p0)
            form(p0, p0 + k, out[:k])
            v0, out = v0 + k, out[k:]

    found = []
    fill(-halo - 1, window)
    for r0 in range(0, n_range, rows):
        n = min(rows, n_range - r0)
        if r0:
            window[:keep] = window[rows : rows + keep]
            fill(r0 + halo, window[keep : keep + n])

        def down(a: int, b: int, r0: int = r0, n: int = n) -> None:
            for size, sums in boxes:
                h = size // 2
                if size == 1:
                    sums[1 : n + 1, a:b] = window[halo + 1 : halo + 1 + n, a:b]
                    continue
                k0 = 0
                if r0 == 0:   # the first row's sum, in `uniform_filter1d`'s order
                    k0 = 1
                    first = sums[1, a:b]
                    first[...] = 0.0
                    for s in range(halo + 1 - h, halo + 2 + h):
                        first += window[s, a:b]
                for k in range(k0, n):   # sum(i) = sum(i - 1) + (p[i + h] - p[i - h - 1])
                    row = sums[1 + k, a:b]
                    np.subtract(
                        window[halo + 1 + k + h, a:b], window[halo + k - h, a:b], out=row
                    )
                    np.add(sums[k, a:b], row, out=row)
                sums[0, a:b] = sums[n, a:b]
                sums[1 : n + 1, a:b] /= size

        def across(k0: int, k1: int, r0: int = r0) -> list:
            (_, box_sum), (_, guard_sum) = boxes
            noise, guard = box_sum[1 + k0 : 1 + k1], guard_sum[1 + k0 : 1 + k1]
            for size, sums in ((outer, noise), (inner, guard)):
                if size > 1:   # a box of one cell is the cell, as in `uniform_filter`
                    lines = sums.reshape(k1 - k0, n_beams, n_doppler)
                    uniform_filter1d(lines, size, axis=2, output=lines, mode="wrap")
            noise *= outer * outer
            guard *= inner * inner
            noise -= guard
            noise /= n_train
            return visit(r0 + k0, window, halo + 1 + k0, noise)

        spans.run(down, columns)
        for part in spans.run(across, spans.split(n, gate)):
            found += part
    return found


def noise_level_map(power: np.ndarray) -> np.ndarray:
    """Mean training-ring power per cell, with wraparound at the edges."""
    noise = np.empty_like(power)

    def form(p0: int, p1: int, out: np.ndarray) -> None:
        out[...] = power[p0:p1]

    def keep(i0: int, window: np.ndarray, s0: int, rows: np.ndarray) -> list:
        noise[i0 : i0 + len(rows)] = rows
        return []

    _stream((power.shape[0], 1, power.shape[1]), form, keep, power.size)
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


def _is_local_max(
    window: np.ndarray, slots: np.ndarray, cols: np.ndarray, n_j: int
) -> np.ndarray:
    """Whether each cell (slots[k], cols[k]) of the power window is >= its 8
    neighbours: the rows slots[k] - 1 and slots[k] + 1 are in the window, and
    the columns wrap within each beam's n_j."""
    base = cols - cols % n_j
    peak = window[slots, cols]
    keep = np.ones(slots.shape, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di or dj:
                keep &= peak >= window[slots + di, base + (cols + dj) % n_j]
    return keep


def _former(rda: RdaCube):
    """`form` for `_stream`: the power rows of every beam of `rda`.

    The rows are split into equal spans, one per worker, and each span is
    formed in blocks of about `spans._BLOCK_ENTRIES` entries of the cube. A
    beam cube's block is read as it is stored. An element cube's block is
    beamformed by one matrix product, all beams at once, which gives every
    beam the bits a product of any other group of two or more beams gives.
    """
    data = rda.data
    n_range, n_doppler, n_ch = data.shape
    n_beams = rda.n_beams
    block = max(1, spans._BLOCK_ENTRIES // (n_doppler * n_ch))
    w_t = None if rda.weights is None else np.ascontiguousarray(rda.weights.T)

    def form(p0: int, p1: int, out: np.ndarray) -> None:
        def run(a: int, b: int) -> None:
            for i0 in range(p0 + a, p0 + b, block):
                i1 = min(i0 + block, p0 + b)
                rows = out[i0 - p0 : i1 - p0].reshape(i1 - i0, n_beams, n_doppler)
                if w_t is None:
                    dst = rows.transpose(0, 2, 1)   # (rows, Doppler, beams), as stored
                    np.abs(data[i0:i1], out=dst)
                else:
                    dst = rows.transpose(1, 0, 2)   # (beams, rows, Doppler)
                    beams = w_t @ data[i0:i1].reshape(-1, n_ch).T
                    np.abs(beams.reshape(dst.shape), out=dst)
                np.square(dst, out=dst)

        spans.run(run, spans.split(p1 - p0, data.size))

    return form


def ca_cfar(rda: RdaCube) -> list[Detection]:
    """Run per-beam 2-D CA-CFAR; returns detections sorted by falling power,
    ties in (beam, range, Doppler) order."""
    alpha, min_power = _alpha(), _MIN_POWER
    n_range, n_doppler = rda.n_range, rda.n_doppler
    angles = rda.beam_angles

    def detect(i0: int, window: np.ndarray, s0: int, noise: np.ndarray) -> list[Detection]:
        power = window[s0 : s0 + len(noise)]
        hit = (power > alpha * noise) & (power > min_power) & (noise > 0.0)
        rows, cols = np.nonzero(hit)
        keep = _is_local_max(window, rows + s0, cols, n_doppler)
        detections = []
        for k, c in zip(rows[keep].tolist(), cols[keep].tolist()):
            b, j = divmod(c, n_doppler)
            i = i0 + k
            if 0 < i < n_range - 1:   # beam b's rows i - 1 to i + 1
                around = window[s0 + k - 1 : s0 + k + 2, c - j : c - j + n_doppler]
                di, dj, at_edge = refine_peak(around, 1, j)
            else:
                di, dj, at_edge = 0.0, 0.0, True
            rbin = i - n_range // 2
            dbin = j - n_doppler // 2
            detections.append(
                Detection(
                    range_bin=rbin,
                    doppler_bin=dbin,
                    beam=b,
                    power=float(power[k, c]),
                    noise_power=float(noise[k, c]),
                    threshold=float(alpha * noise[k, c]),
                    range_m=float(rda.range_of_bin(rbin)),
                    velocity_mps=float(rda.velocity_of_bin(dbin)),
                    angle_rad=float(angles[b]) if angles is not None else 0.0,
                    refined_range_bin=rbin + di,
                    refined_doppler_bin=dbin + dj,
                    refined_range_m=float(rda.range_of_bin(rbin + di)),
                    refined_velocity_mps=float(rda.velocity_of_bin(dbin + dj)),
                    at_edge=at_edge,
                )
            )
        return detections

    shape = (n_range, rda.n_beams, n_doppler)
    detections = _stream(shape, _former(rda), detect, rda.data.size)
    detections.sort(key=lambda d: (-d.power, d.beam, d.range_bin, d.doppler_bin))
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
