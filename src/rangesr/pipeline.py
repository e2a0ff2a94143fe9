"""Three-step range super-resolution pipeline over synthetic scenes.

Step 1 (search): short dwell, full beam fan, keystone integration, CFAR;
produces a swarm angle prior as a power-weighted beam centroid. Step 2
(stare): long dwell on the prior angle, a narrow beam window integrated in
one batch, per-beam CFAR; detection groups carry refined range/Doppler cells.
Step 3 (super-resolve): per group, extract the multi-snapshot matrix at the
detected Doppler, build the range prior band, run the gridless solver, and
map recovered frequencies back to meters.

`stare` (beamform, integrate, CFAR, group) is the detection chain of steps 1
and 2, and `group_mmv` (prior band, extraction) is step 3's input; the Monte
Carlo grid (`bench`) runs the same two helpers on its trial cubes.

A dwell is never held as one element cube. `dwell_chunks` synthesises it a
window of chirps at a time, with noise from one generator carried across
the windows, and `stare` beamforms each window into its slice of the beam
cube and keeps only the fast-time rows that step 3 extracts from. A window
is the smallest multiple of `synth._CHUNK_M` chirps that holds at least
`spans._CHUNK_BUDGET` entries: the multiple keeps the noise draws those of
the whole dwell, and the size keeps synthesis and beamforming threaded.

Scenes are JSON-serializable truth sets. The two dwells observe the scene at
different times; the long-dwell truth can be given explicitly (as the
experiment tables do) or derived by advancing ranges through a configurable
gap.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace

import numpy as np

from . import spans, synth
from .beamform import BeamGrid, beamform_cube, default_grid
from .cfar import (
    Detection,
    DetectionGroup,
    ca_cfar,
    cluster_detections,
    merge_beam_duplicates,
)
from .config import C_LIGHT, RadarConfig, UavTruth, from_json, to_json
from .cube import DataCube, RdaCube
from .integrate import integrate_cube
from .superres import (
    ExtractionRows,
    MmvMatrix,
    SuperResError,
    decimation_rows,
    extract_mmv,
    prior_band,
    solve_by_name,
)
from .synth import add_noise, synth_beat_cube

DEFAULT_GAP_S = 6.0 / 44.01   # the table offsets: 6 m advance at swarm speed
_STARE_HALF_WINDOW = 2        # step 2 stares on the prior beam and 2 either side
_CENTROID_HALF_WINDOW = 2     # step 1's angle centroid spans the peak beam and 2 either side
_REL_POWER_MIN = 1e-2         # step-3 atoms below this fraction of the group's top are dropped
_REL_GROUP_POWER_MIN = 1e-5   # groups 50 dB under the strongest keep their CFAR estimate


def table_radar_config(sample_rate_hz: float = 5.12e6) -> RadarConfig:
    """The experiment radar: X band, 50 MHz ramp over 100 us, 16 elements.

    The published runs sample at 50 MHz (5000 fast-time samples). The default
    here keeps every derived quantity that matters to the method (range cell
    size, cell index per meter, keystone warp, Doppler axis) identical while
    shrinking the fast-time grid tenfold; pass 50e6 to reproduce the
    full-rate grid. Noise-free exp1 runs end to end in 49 s at a 2.8 GB peak
    RSS at 50e6, and in 7 s at 0.42 GB by default (2 cores, BLAS on one
    thread); at 50e6 step 1's 32-beam cube sets the peak.
    """
    return RadarConfig(
        carrier_hz=10e9,
        bandwidth_hz=50e6,
        chirp_s=100e-6,
        sample_rate_hz=sample_rate_hz,
        n_elements=16,
    )


@dataclass(frozen=True)
class Scene:
    name: str
    config: RadarConfig
    uavs: tuple[UavTruth, ...]
    step2_uavs: tuple[UavTruth, ...] | None = None
    dwell1_s: float = 0.1
    dwell2_s: float = 0.5
    gap_s: float = DEFAULT_GAP_S
    snr_db: float | None = None
    seed: int = 0

    def step2_truths(self) -> tuple[UavTruth, ...]:
        if self.step2_uavs is not None:
            return self.step2_uavs
        return tuple(u.advanced(self.gap_s) for u in self.uavs)


def scene_to_dict(scene: Scene) -> dict:
    """The scene's JSON form; the radar sits under "radar", and step-2
    truths only when they are given."""
    d = to_json(scene)
    d["radar"] = d.pop("config")
    if scene.step2_uavs is None:
        del d["step2_uavs"]
    return d


def scene_from_dict(d: dict) -> Scene:
    return from_json(Scene, {"name": "scene", "uavs": [], **d, "config": d["radar"]})


def _swarm(name, cfg, rows, step2_rows, angle, snr_db, seed):
    def truths(rows):
        return tuple(
            UavTruth(range0_m=r, velocity_mps=v, angle_rad=angle) for r, v in rows
        )

    return Scene(
        name=name,
        config=cfg,
        uavs=truths(rows),
        step2_uavs=truths(step2_rows),
        snr_db=snr_db,
        seed=seed,
    )


def make_exp1_scene(
    snr_db: float | None = None,
    sample_rate_hz: float = 5.12e6,
    angle_rad: float = 0.2,
    seed: int = 0,
) -> Scene:
    """Three UAVs, same direction; the close pair shares one range cell."""
    return _swarm(
        "exp1",
        table_radar_config(sample_rate_hz),
        [(165.00, 44.01), (166.20, 44.07), (167.40, 44.07)],
        [(171.00, 44.01), (172.20, 44.07), (173.40, 44.07)],
        angle_rad,
        snr_db,
        seed,
    )


def make_exp2_scene(
    snr_db: float | None = None,
    sample_rate_hz: float = 5.12e6,
    angle_rad: float = 0.2,
    seed: int = 0,
) -> Scene:
    """Four UAVs; three share a range-Doppler cell, one differs in Doppler."""
    return _swarm(
        "exp2",
        table_radar_config(sample_rate_hz),
        [(162.00, 44.01), (162.00, 44.13), (163.20, 44.13), (164.40, 44.13)],
        [(168.00, 44.01), (168.00, 44.13), (169.20, 44.13), (170.40, 44.13)],
        angle_rad,
        snr_db,
        seed,
    )


def make_exp3_scene(seed: int = 0, sample_rate_hz: float = 5.12e6) -> Scene:
    return replace(make_exp2_scene(sample_rate_hz=sample_rate_hz, seed=seed),
                   name="exp3", snr_db=-13.0)


def _n_chirps(dwell_s: float, chirp_s: float) -> int:
    m = int(round(dwell_s / chirp_s))
    if m < 1:
        raise ValueError("dwell shorter than one chirp")
    return m - (m % 2) if m >= 2 else m


def dwell_chirps(scene: Scene, step: int) -> int:
    """Chirp count of step 1's search or step 2's stare dwell."""
    dwell = scene.dwell1_s if step == 1 else scene.dwell2_s
    return _n_chirps(dwell, scene.config.chirp_s)


def _chunk_chirps(cfg: RadarConfig) -> int:
    """Chirps per dwell window: the smallest multiple of the noise block whose
    window holds at least `spans._CHUNK_BUDGET` entries."""
    block = synth._CHUNK_M * cfg.n_fast * cfg.n_elements
    return synth._CHUNK_M * max(1, -(-spans._CHUNK_BUDGET // block))


def dwell_chunks(scene: Scene, step: int) -> Iterator[tuple[int, int, DataCube]]:
    """The noisy element cube of a dwell as `(m0, m1, chirps [m0, m1))`.

    Step 1 observes `uavs` for `dwell1_s`, step 2 the step-2 truths for
    `dwell2_s`; the noise generator is seeded with `seed * 10 + step`.
    """
    cfg = scene.config
    truths = scene.uavs if step == 1 else scene.step2_truths()
    n_slow = dwell_chirps(scene, step)
    width = _chunk_chirps(cfg)
    rng = np.random.default_rng(scene.seed * 10 + step)
    for m0 in range(0, n_slow, width):
        m1 = min(m0 + width, n_slow)
        chunk = synth_beat_cube(cfg, truths, n_slow, m0, m1)
        yield m0, m1, add_noise(chunk, scene.snr_db, rng_seed=rng)
        del chunk   # only the consumer may hold this window while the next is built


@dataclass
class Step1Report:
    detections: list[Detection]
    groups: list[DetectionGroup]
    angle_est_rad: float | None
    sin_est: float | None
    n_chirps: int

    def to_dict(self) -> dict:
        return {
            "step": 1,
            "n_chirps": self.n_chirps,
            "angle_est_rad": self.angle_est_rad,
            "sin_est": self.sin_est,
            "detections": to_json(self.detections),
        }


@dataclass
class Step2Report:
    """The long stare's detections and groups and the rows step 3 extracts
    from; step 3 reads its noise level from the data (`MmvMatrix.sigma`)."""

    detections: list[Detection]
    groups: list[DetectionGroup]
    angle_prior_rad: float
    beam_angles: tuple[float, ...]
    n_chirps: int
    extraction_rows: ExtractionRows | None = None

    def to_dict(self) -> dict:
        return {
            "step": 2,
            "n_chirps": self.n_chirps,
            "angle_prior_rad": self.angle_prior_rad,
            "beam_angles": list(self.beam_angles),
            "detections": to_json(self.detections),
            "n_groups": len(self.groups),
        }


@dataclass(frozen=True)
class UavEstimate:
    """One reported UAV. `power` is the group's CFAR peak power for a step-2
    estimate, and the atom's weight in T(u) for a step-3 one: a reweighted
    value that depends on the SDP's fixed pass count and inner tolerance
    (`SuperResResult.powers`), so it is for relative use only (the 10%
    leakage test and the dedup order)."""

    range_m: float
    velocity_mps: float
    angle_rad: float
    power: float
    step: str            # "step2" | "step3" | "step3-fallback"
    group_index: int


@dataclass
class LocalizationResult:
    estimates: list[UavEstimate]
    group_reports: list[dict]
    method: str

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "estimates": to_json(self.estimates),
            "groups": self.group_reports,
        }


def _angle_centroid(rda: RdaCube, det: Detection) -> float:
    i = det.range_bin + rda.n_range // 2
    j = det.doppler_bin + rda.n_doppler // 2
    pw = np.abs(rda.data[i, j, :]) ** 2
    g0 = int(np.argmax(pw))
    half = _CENTROID_HALF_WINDOW
    sel = slice(max(0, g0 - half), min(pw.shape[0], g0 + half + 1))
    sines = np.sin(np.asarray(rda.beam_angles[sel]))
    weights = pw[sel]
    if weights.sum() <= 0.0:
        return float(rda.beam_angles[g0])
    centroid = float(np.sum(weights * sines) / np.sum(weights))
    return float(np.arcsin(np.clip(centroid, -1.0, 1.0)))


def stare(
    chunks: Iterable[tuple[int, int, DataCube]],
    n_slow: int,
    grid: BeamGrid,
    n_ex: int | None = None,
) -> tuple[RdaCube, list[Detection], list[DetectionGroup], ExtractionRows | None]:
    """Form `grid`'s beams from an `n_slow`-chirp element cube given as
    windows `(m0, m1, chirps [m0, m1))`, integrate them and CFAR-test them
    together; a detection's `beam` is its slot in `grid`, and a cell hit in
    several beams keeps its strongest hit. Detections and groups come sorted
    by falling power.

    Each window is beamformed into its slice of one beam cube, which the
    integration then overwrites. With `n_ex`, the rows that extraction reads
    (`decimation_rows`) are kept as the last result; otherwise it is None.
    """
    beams = kept = pick = None
    for m0, m1, chunk in chunks:
        if beams is None:
            cfg, dtype = chunk.config, chunk.data.dtype
            beams = np.empty((chunk.n_fast, n_slow, len(grid)), dtype=dtype)
            if n_ex is not None:
                pick = decimation_rows(chunk.n_fast, n_ex)
                kept = np.empty((n_ex, n_slow, chunk.data.shape[2]), dtype=dtype)
        beamform_cube(chunk, grid, out=beams[:, m0:m1])
        if kept is not None:
            kept[:, m0:m1] = chunk.data[pick]
        del chunk   # the element window goes before the next one is built
    cube = DataCube(beams, "beam", cfg, beam_angles=tuple(grid.angles_rad))
    rda = integrate_cube(cube, overwrite_x=True)
    del cube, beams
    detections = merge_beam_duplicates(ca_cfar(rda))
    if kept is not None:
        kept = ExtractionRows(kept, rda.n_range, cfg)
    return rda, detections, cluster_detections(detections), kept


def group_mmv(rows: ExtractionRows, group: DetectionGroup) -> MmvMatrix:
    """Step 3's input for one group: the kept rows extracted over the group's
    prior band at its strongest member's refined Doppler bin."""
    return extract_mmv(
        rows,
        doppler_bin=group.strongest.refined_doppler_bin,
        band=prior_band(group, rows.n_fast),
        n_ex=rows.n_ex,
    )


def run_step1(scene: Scene) -> Step1Report:
    grid = default_grid(scene.config)
    rda, detections, groups, _ = stare(dwell_chunks(scene, 1), dwell_chirps(scene, 1), grid)
    angle = sin_est = None
    if detections:
        angle = _angle_centroid(rda, detections[0])
        sin_est = float(np.sin(angle))
    return Step1Report(
        detections=detections,
        groups=groups,
        angle_est_rad=angle,
        sin_est=sin_est,
        n_chirps=rda.n_slow,
    )


def run_step2(scene: Scene, angle_prior_rad: float, n_ex: int = 32) -> Step2Report:
    """Long stare at the prior angle over a narrow beam window.

    The window's beams go through `stare` together; a detection's `beam` is
    its slot in `beam_angles`. The report keeps the `n_ex` element-cube rows
    that step 3 extracts from, not the cube.
    """
    grid = default_grid(scene.config)
    sines = np.sin(np.asarray(grid.angles_rad))
    g0 = int(np.argmin(np.abs(sines - np.sin(angle_prior_rad))))
    lo = max(0, g0 - _STARE_HALF_WINDOW)
    hi = min(len(sines), g0 + _STARE_HALF_WINDOW + 1)
    beam_angles = grid.angles_rad[lo:hi]

    rda, detections, groups, kept = stare(
        dwell_chunks(scene, 2), dwell_chirps(scene, 2), BeamGrid(beam_angles), n_ex
    )
    return Step2Report(
        detections=detections,
        groups=groups,
        angle_prior_rad=float(angle_prior_rad),
        beam_angles=beam_angles,
        n_chirps=rda.n_slow,
        extraction_rows=kept,
    )


def _dedup(estimates: list[UavEstimate], cfg: RadarConfig, n_slow: int) -> list[UavEstimate]:
    range_tol = 1e-3 * cfg.range_res_m
    vel_tol = 1e-3 * C_LIGHT / (2.0 * n_slow * cfg.chirp_s * cfg.carrier_hz)
    kept: list[UavEstimate] = []
    for est in sorted(estimates, key=lambda e: -e.power):
        dup = any(
            abs(est.range_m - k.range_m) < range_tol
            and abs(est.velocity_mps - k.velocity_mps) < vel_tol
            for k in kept
        )
        if not dup:
            kept.append(est)
    kept.sort(key=lambda e: e.range_m)
    return kept


def _strip_leakage(
    estimates: list[UavEstimate],
    fallbacks: dict[int, UavEstimate],
    reports: list[dict],
    cfg: RadarConfig,
) -> list[UavEstimate]:
    """Drop solved atoms that echo a much stronger atom of another group.

    A strong target bleeds into neighboring Doppler channels through the
    slow-time filter sidelobes, so a weak channel's solve can return a
    genuine tone at the intruder's range. Such an echo sits within a
    fraction of a range cell of the source atom but carries a small
    fraction of its power; a real target sharing the range at a different
    velocity shows up at comparable power in its own channel and survives.
    A group whose every atom was leakage still detected something, so its
    CFAR estimate is restored.
    """
    tol = 0.5 * cfg.range_res_m
    atoms = [e for e in estimates if e.step == "step3"]
    kept: list[UavEstimate] = []
    dropped: dict[int, int] = {}
    for est in estimates:
        if est.step == "step3" and any(
            other.group_index != est.group_index
            and abs(other.range_m - est.range_m) <= tol
            and est.power < 0.1 * other.power
            for other in atoms
        ):
            dropped[est.group_index] = dropped.get(est.group_index, 0) + 1
            continue
        kept.append(est)
    survivors = {e.group_index for e in kept if e.step == "step3"}
    for gi, n in dropped.items():
        reports[gi]["leakage_atoms"] = n
        if gi not in survivors and gi in fallbacks:
            kept.append(replace(fallbacks[gi], step="step3-fallback"))
    return kept


def run_step3(step2: Step2Report, method: str = "fsram") -> LocalizationResult:
    """Solve each detection group; falls back to the CFAR estimate if a solve
    returns nothing usable (keeps the final count >= the group count).
    Estimates carry the stare's prior angle.

    Single-cell groups are solved too: several targets in one range-Doppler
    cell look exactly like one, so cell count cannot identify the
    multi-target suspects. The cost of solving true singletons is
    cross-channel leakage atoms, which `_strip_leakage` removes after the fact.

    Groups more than 50 dB below the strongest group keep their CFAR
    estimate without a solve; on noise-free synthetic scenes the integration
    sidelobes clear the CFAR floor and would otherwise burn one SDP solve per
    speck. Of a solved group, the in-band atoms within 20 dB of its strongest
    atom become estimates.
    """
    rows = step2.extraction_rows
    if rows is None:
        raise ValueError("step-2 report lacks the extraction rows")
    cfg = rows.config
    power_top = max((g.strongest.power for g in step2.groups), default=0.0)
    estimates: list[UavEstimate] = []
    group_reports: list[dict] = []
    fallbacks: dict[int, UavEstimate] = {}
    for gi, group in enumerate(step2.groups):
        rep = group.strongest
        report: dict = {
            "group_index": gi,
            "size": group.size,
            "range_bins": list(group.range_bins),
            "doppler_bin": rep.doppler_bin,
            "velocity_mps": rep.refined_velocity_mps,
        }
        fallback = UavEstimate(
            range_m=rep.refined_range_m,
            velocity_mps=rep.refined_velocity_mps,
            angle_rad=step2.angle_prior_rad,
            power=rep.power,
            step="step2",
            group_index=gi,
        )
        if rep.power < _REL_GROUP_POWER_MIN * power_top:
            estimates.append(fallback)
            report.update({"solved": False, "skipped": "below dynamic-range gate"})
            group_reports.append(report)
            continue
        try:
            mmv = group_mmv(rows, group)
            result = solve_by_name(method, mmv)
        except (SuperResError, ValueError) as err:
            estimates.append(replace(fallback, step="step3-fallback"))
            report.update({"solved": False, "error": str(err)})
            group_reports.append(report)
            continue
        keep = result.powers >= _REL_POWER_MIN * max(
            result.powers.max() if result.n_atoms else 0.0, 1e-300
        )
        keep &= result.in_band
        ranges = result.ranges_m[keep]
        powers = result.powers[keep]
        report.update(
            {
                "solved": True,
                "method": result.method,
                "band": [mmv.band.f_lo, mmv.band.f_hi],
                "eta": result.eta,
                "n_atoms": int(keep.sum()),
                **result.solver_summary(),
            }
        )
        if ranges.size == 0:
            estimates.append(replace(fallback, step="step3-fallback"))
        else:
            fallbacks[gi] = fallback
            for r, p in zip(ranges, powers):
                estimates.append(
                    UavEstimate(
                        range_m=float(r),
                        velocity_mps=rep.refined_velocity_mps,
                        angle_rad=step2.angle_prior_rad,
                        power=float(p),
                        step="step3",
                        group_index=gi,
                    )
                )
        group_reports.append(report)
    estimates = _strip_leakage(estimates, fallbacks, group_reports, cfg)
    estimates = _dedup(estimates, cfg, step2.n_chirps)
    return LocalizationResult(
        estimates=estimates,
        group_reports=group_reports,
        method=method,
    )


@dataclass
class FullRunResult:
    scene: Scene
    step1: Step1Report
    step2: Step2Report | None
    localization: LocalizationResult | None
    method: str

    def to_dict(self) -> dict:
        out = {
            "scene": scene_to_dict(self.scene),
            "method": self.method,
            "step1": self.step1.to_dict(),
        }
        if self.step2 is not None:
            out["step2"] = self.step2.to_dict()
        if self.localization is not None:
            out["localization"] = self.localization.to_dict()
            out["estimates"] = to_json(self.localization.estimates)
        else:
            out["estimates"] = []
        return out


def run_full(scene: Scene, method: str = "fsram", n_ex: int = 32) -> FullRunResult:
    step1 = run_step1(scene)
    if not step1.detections:
        return FullRunResult(scene, step1, None, None, method)
    step2 = run_step2(scene, step1.angle_est_rad, n_ex=n_ex)
    if not step2.groups:
        return FullRunResult(scene, step1, step2, None, method)
    loc = run_step3(step2, method=method)
    step2.extraction_rows = None
    return FullRunResult(scene, step1, step2, loc, method)

