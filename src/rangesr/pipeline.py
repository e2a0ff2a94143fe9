"""Three-step range super-resolution pipeline over synthetic scenes.

Step 1 (search): short dwell, full beam fan, keystone integration, CFAR;
produces a swarm angle prior as a power-weighted beam centroid. Step 2
(stare): long dwell on the prior angle, a narrow beam window integrated in
one batch, per-beam CFAR; detection groups carry refined range/Doppler cells.
Step 3 (super-resolve): per group, extract the multi-snapshot matrix at the
detected Doppler, build the range prior band, run the gridless solver, and
map recovered frequencies back to meters. One rule answers a group: its
step-3 atoms that survive the leakage filter, or else its CFAR estimate.

`stare` (beamform, integrate, CFAR, group) is the detection chain of steps 1
and 2, and `group_mmv` (prior band, extraction) is step 3's input; the Monte
Carlo grid (`bench`) runs the same two helpers on its trial cubes.

The channel-domain rule: `stare` integrates whichever channel set is
smaller. Beamforming mixes the channels of each sample and the keystone
chirp-z and range DFT transform each channel alone, so the two commute.
Step 1's 32-beam fan is integrated as its 16 elements, and the CFAR forms
the beams from the element RDA a tile of range rows at a time (`cfar`), so
the 32-beam cube is never built. Step 2's five beams and the grid trial's one
beam are fewer than the elements, so they are formed first and integrated.

`dwell_chunks` synthesises a dwell a window of chirps at a time, with noise
from one generator carried across the windows. `stare` copies each window
into its slice of the element cube, or beamforms it into its slice of the
beam cube, and keeps only the fast-time rows that step 3 extracts from
(`run_step2` returns them beside its report); so step 2 never holds its
element cube. A window is one noise block, `synth._CHUNK_M` (256) chirps,
so the windows draw the noise of the whole dwell. At the table radar's 16
elements a window holds 2^21 entries at 5.12 MHz (32 MB of complex128) and
2.048e7 at 50 MHz, over the `spans._CHUNK_BUDGET` gate, so synthesis and
beamforming of each window still use every worker.

Scenes are JSON-serializable truth sets. The two dwells observe the scene at
different times; the long-dwell truth can be given explicitly (as the
experiment tables do) or derived by advancing ranges through a configurable
gap.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace

import numpy as np

from . import synth
from .beamform import BeamGrid, beamform_cube, default_grid, steering_weights
from .cfar import (
    Detection,
    DetectionGroup,
    ca_cfar,
    check_map_extent,
    cluster_detections,
    merge_beam_duplicates,
)
from .config import ConfigError, RadarConfig, UavTruth, from_json, to_json
from .cube import DataCube, RdaCube
from .integrate import integrate_cube
from .superres import (
    ExtractionRows,
    MmvMatrix,
    SuperResError,
    decimation_rows,
    extract_mmv,
    prior_band,
    require_method,
    solve_by_name,
)
from .synth import add_noise, check_nyquist, synth_beat_cube

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
    full-rate grid. Noise-free exp1 runs end to end in 27 s at a 2.35 GB
    peak RSS at 50e6, and in 3.2 s at 0.36 GB by default (2 cores, BLAS on
    one thread). At 50e6 step 2's window loop sets the peak, its five-beam
    cube (2.0 GB) beside a 330 MB chirp window of the elements, and its
    CFAR reads 2.07 GB; step 1, which integrates its 16 elements (1.28 GB)
    instead of 32 beams, peaks at 1.6 GB.
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

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

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
    if "radar" not in d:
        raise ConfigError("scene lacks its \"radar\" config")
    fields = {k: v for k, v in d.items() if k != "radar"}
    return from_json(Scene, {"name": "scene", "uavs": [], **fields, "config": d["radar"]})


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


def dwell_chirps(scene: Scene, step: int) -> int:
    """Chirp count of step 1's search or step 2's stare dwell."""
    dwell = scene.dwell1_s if step == 1 else scene.dwell2_s
    m = int(round(dwell / scene.config.chirp_s))
    if m < 1:
        raise ConfigError("dwell shorter than one chirp")
    return m - (m % 2) if m >= 2 else m


def dwell_chunks(scene: Scene, step: int) -> Iterator[tuple[int, DataCube]]:
    """The noisy element cube of a dwell as `(m0, window)` pairs, each
    window one noise block (`synth._CHUNK_M` chirps) from chirp `m0` on.

    Step 1 observes `uavs` for `dwell1_s`, step 2 the step-2 truths for
    `dwell2_s`; the noise generator is seeded with `seed * 10 + step`.
    """
    cfg = scene.config
    truths = scene.uavs if step == 1 else scene.step2_truths()
    n_slow = dwell_chirps(scene, step)
    rng = np.random.default_rng(scene.seed * 10 + step)
    for m0 in range(0, n_slow, synth._CHUNK_M):
        m1 = min(m0 + synth._CHUNK_M, n_slow)
        chunk = synth_beat_cube(cfg, truths, n_slow, m0, m1)
        yield m0, add_noise(chunk, scene.snr_db, rng_seed=rng)
        del chunk   # only the consumer may hold this window while the next is built


@dataclass
class Step1Report:
    detections: list[Detection]
    angle_est_rad: float | None
    sin_est: float | None
    n_chirps: int


@dataclass
class Step2Report:
    """The long stare's detections and groups. The rows step 3 extracts from
    come beside it from `run_step2`, and step 3 reads its noise level from
    the data (`MmvMatrix.sigma`)."""

    detections: list[Detection]
    groups: list[DetectionGroup]
    angle_prior_rad: float
    beam_angles: tuple[float, ...]
    n_chirps: int


@dataclass(frozen=True)
class UavEstimate:
    """One reported UAV: a step-3 atom of its group (`step` "step3"), or the
    group's CFAR estimate when no atom of the group survives, "step2" if the
    group was gated off and "step3-fallback" otherwise (`run_step3`).

    `power` is the group's CFAR peak power for a CFAR estimate, and the
    atom's weight in T(u) for a step-3 one: a reweighted value that depends
    on the SDP's fixed pass count and inner tolerance
    (`SuperResResult.powers`), so it is for relative use only (the 10%
    leakage test)."""

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


def _angle_centroid(rda: RdaCube, det: Detection) -> float:
    """Power-weighted sine centroid of `det`'s cell over the beams around its
    strongest. Step 1's RDA holds elements, since `default_grid` has 2L
    beams for L elements, so its weights form the cell's beams. The weights
    sum to more than zero: the strongest beam is in the window, and a hit's
    own beam holds at least `cfar._MIN_POWER`."""
    i = det.range_bin + rda.n_range // 2
    j = det.doppler_bin + rda.n_doppler // 2
    pw = np.abs(rda.data[i, j, :] @ rda.weights) ** 2   # the one cell's beams
    g0 = int(np.argmax(pw))
    half = _CENTROID_HALF_WINDOW
    sel = slice(max(0, g0 - half), min(pw.shape[0], g0 + half + 1))
    sines = np.sin(np.asarray(rda.beam_angles[sel]))
    weights = pw[sel]
    centroid = float(np.sum(weights * sines) / np.sum(weights))
    return float(np.arcsin(np.clip(centroid, -1.0, 1.0)))


def stare(
    chunks: Iterable[tuple[int, DataCube]],
    n_slow: int,
    grid: BeamGrid,
    n_ex: int | None = None,
) -> tuple[RdaCube, list[Detection], list[DetectionGroup], ExtractionRows | None]:
    """Integrate an `n_slow`-chirp element cube, given as `(m0, window)`
    pairs, each window the cube's chirps from `m0` on, and CFAR-test
    `grid`'s beams together; a detection's `beam` is its slot in `grid`,
    and a cell hit in several beams keeps its strongest hit. Detections and
    groups come sorted by falling power.

    The integration runs on whichever channel set is smaller. With fewer
    beams than elements, each window is beamformed into its slice of one
    beam cube; otherwise it is copied into its slice of one element cube,
    and the RDA carries the steering weights, so the CFAR forms the beams
    where it reads them. The cube carries no channel kind; the RDA carries
    the weights exactly when its channels are elements. The stare owns the
    cube and never reads it again, so the integration overwrites it and
    the RDA shares its buffer. With `n_ex`, the rows that extraction reads
    (`decimation_rows`) are kept as the last result; otherwise it is None.

    The windows come from one of two sources: `dwell_chunks`, which
    synthesises a scene's dwell window by window with its noise, and a grid
    trial (`bench.run_trial_method`), which synthesises each window and adds
    its chirps of the trial's unit noise. Neither builds the whole clean or
    noisy cube, and each window may go once it is copied or beamformed.
    """
    channels = kept = pick = None
    for m0, chunk in chunks:
        m1 = m0 + chunk.n_slow
        if channels is None:
            cfg, dtype = chunk.config, chunk.data.dtype
            in_beams = len(grid) < cfg.n_elements
            width = len(grid) if in_beams else cfg.n_elements
            channels = np.empty((chunk.n_fast, n_slow, width), dtype=dtype)
            if n_ex is not None:
                pick = decimation_rows(chunk.n_fast, n_ex)
                kept = np.empty((n_ex, n_slow, chunk.data.shape[2]), dtype=dtype)
        if in_beams:
            beamform_cube(chunk, grid, out=channels[:, m0:m1])
        else:
            channels[:, m0:m1] = chunk.data
        if kept is not None:
            kept[:, m0:m1] = chunk.data[pick]
        del chunk   # the element window goes before the next one is built
    rda = integrate_cube(DataCube(channels, cfg), overwrite_x=True)
    del channels
    weights = None if in_beams else steering_weights(cfg, grid)
    rda = replace(rda, beam_angles=tuple(grid.angles_rad), weights=weights)
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
    )


def run_step1(scene: Scene) -> Step1Report:
    grid = default_grid(scene.config)
    n_chirps = dwell_chirps(scene, 1)
    rda, detections, _, _ = stare(dwell_chunks(scene, 1), n_chirps, grid)
    angle = sin_est = None
    if detections:
        angle = _angle_centroid(rda, detections[0])
        sin_est = float(np.sin(angle))
    return Step1Report(
        detections=detections,
        angle_est_rad=angle,
        sin_est=sin_est,
        n_chirps=n_chirps,
    )


def run_step2(
    scene: Scene, angle_prior_rad: float, n_ex: int = 32
) -> tuple[Step2Report, ExtractionRows]:
    """Long stare at the prior angle over a narrow beam window.

    The window's beams go through `stare` together; a detection's `beam` is
    its slot in `beam_angles`. Returns the report and the `n_ex`
    element-cube rows that step 3 extracts from (`run_step3`), not the cube.
    """
    grid = default_grid(scene.config)
    sines = np.sin(np.asarray(grid.angles_rad))
    g0 = int(np.argmin(np.abs(sines - np.sin(angle_prior_rad))))
    lo = max(0, g0 - _STARE_HALF_WINDOW)
    hi = min(len(sines), g0 + _STARE_HALF_WINDOW + 1)
    beam_angles = grid.angles_rad[lo:hi]

    n_chirps = dwell_chirps(scene, 2)
    _, detections, groups, rows = stare(
        dwell_chunks(scene, 2), n_chirps, BeamGrid(beam_angles), n_ex
    )
    report = Step2Report(detections, groups, float(angle_prior_rad), beam_angles, n_chirps)
    return report, rows


def _strip_leakage(
    atoms: list[UavEstimate], cfg: RadarConfig
) -> tuple[list[UavEstimate], dict[int, int]]:
    """The step-3 atoms that do not echo a much stronger atom of another
    group, and the count dropped per group.

    A strong target bleeds into neighboring Doppler channels through the
    slow-time filter sidelobes, so a weak channel's solve can return a
    genuine tone at the intruder's range. Such an echo sits within half a
    range cell of the source atom but carries under a tenth of its power; a
    real target sharing the range at a different velocity shows up at
    comparable power in its own channel and survives.
    """
    tol = 0.5 * cfg.range_res_m
    kept: list[UavEstimate] = []
    dropped: dict[int, int] = {}
    for atom in atoms:
        if any(
            other.group_index != atom.group_index
            and abs(other.range_m - atom.range_m) <= tol
            and atom.power < 0.1 * other.power
            for other in atoms
        ):
            dropped[atom.group_index] = dropped.get(atom.group_index, 0) + 1
        else:
            kept.append(atom)
    return kept, dropped


def run_step3(
    step2: Step2Report, rows: ExtractionRows, method: str = "fsram"
) -> LocalizationResult:
    """Answer each detection group from the extraction rows `run_step2`
    returned, by one rule: a group reports its step-3 atoms that survive
    the leakage filter, or else its CFAR estimate, so there are at least as
    many estimates as groups. Estimates carry the stare's prior angle.

    A group's atoms come from one of three outcomes. Gated: a group more
    than 50 dB below the strongest is not solved, and its CFAR estimate is
    labelled "step2" (on noise-free scenes the integration sidelobes clear
    the CFAR floor and would burn one SDP solve per speck); every other
    group's is "step3-fallback". No answer: its band is unusable or too
    wide for the decimation stride, or its solve failed (`SuperResError`,
    reported as `solved: False` with the message); any other exception is a
    bug and propagates. Solved: its in-band atoms within 20 dB of its
    strongest atom. `_strip_leakage` then drops, across groups, the atoms
    that echo a much stronger atom of another group (`leakage_atoms` in the
    group's report). The estimates are the kept atoms and the CFAR estimate
    of each group that kept none, sorted by range; exact range ties keep
    that order (atoms in group order, then CFAR estimates in group order).

    Single-cell groups are solved too: several targets in one range-Doppler
    cell look exactly like one, so cell count cannot identify the
    multi-target suspects; the leakage filter is the cost of that.
    """
    require_method(method)
    cfg = rows.config
    power_top = max((g.strongest.power for g in step2.groups), default=0.0)
    atoms: list[UavEstimate] = []
    fallbacks: list[UavEstimate] = []
    group_reports: list[dict] = []
    for gi, group in enumerate(step2.groups):
        rep = group.strongest
        gated = rep.power < _REL_GROUP_POWER_MIN * power_top
        fallbacks.append(UavEstimate(
            rep.refined_range_m, rep.refined_velocity_mps, step2.angle_prior_rad, rep.power,
            step="step2" if gated else "step3-fallback", group_index=gi,
        ))
        report = {"group_index": gi, "size": group.size, "range_bins": list(group.range_bins),
                  "doppler_bin": rep.doppler_bin, "velocity_mps": rep.refined_velocity_mps}
        group_reports.append(report)
        if gated:
            report.update(solved=False, skipped="below dynamic-range gate")
            continue
        try:
            mmv = group_mmv(rows, group)
            result = solve_by_name(method, mmv)
        except SuperResError as err:
            report.update(solved=False, error=str(err))
            continue
        keep = result.powers >= _REL_POWER_MIN * max(
            result.powers.max() if result.n_atoms else 0.0, 1e-300
        )
        keep &= result.in_band
        report.update(solved=True, method=result.method, band=[mmv.band.f_lo, mmv.band.f_hi],
                      eta=result.eta, n_atoms=int(keep.sum()), **result.solver_summary())
        atoms += [
            replace(fallbacks[gi], range_m=float(r), power=float(p), step="step3")
            for r, p in zip(result.ranges_m[keep], result.powers[keep])
        ]
    kept, dropped = _strip_leakage(atoms, cfg)
    for gi, n in dropped.items():
        group_reports[gi]["leakage_atoms"] = n
    answered = {atom.group_index for atom in kept}
    estimates = kept + [f for f in fallbacks if f.group_index not in answered]
    estimates.sort(key=lambda e: e.range_m)
    return LocalizationResult(estimates, group_reports, method)


@dataclass
class FullRunResult:
    """Steps 1 to 3 of one scene, as `run_full` returns them; a step that did
    not run is None.

    Its JSON form (`to_dict`, written as `pipeline.json`) holds the scene
    (`scene_to_dict`), the method, and each step that ran as its record's
    `to_json` form, plus what the record does not hold: "step1" and "step2"
    carry their step number under "step", "step2" the count of its groups
    under "n_groups" in place of the groups, and "localization" its
    `group_reports` under "groups". "estimates" repeats the localization's
    estimates, or is empty when step 3 did not run.
    """

    scene: Scene
    step1: Step1Report
    step2: Step2Report | None
    localization: LocalizationResult | None
    method: str

    def to_dict(self) -> dict:
        out = {
            "scene": scene_to_dict(self.scene),
            "method": self.method,
            "step1": {"step": 1, **to_json(self.step1)},
            "estimates": [],
        }
        if self.step2 is not None:
            step2 = to_json(replace(self.step2, groups=[]))
            del step2["groups"]
            out["step2"] = {"step": 2, **step2, "n_groups": len(self.step2.groups)}
        if self.localization is not None:
            loc = to_json(self.localization)
            loc["groups"] = loc.pop("group_reports")
            out["localization"] = loc
            out["estimates"] = loc["estimates"]
        return out


def run_full(scene: Scene, method: str = "fsram", n_ex: int = 32) -> FullRunResult:
    """Steps 1 to 3 on `scene`. The method, `n_ex`, both dwells' CFAR map
    extents and both steps' truths are checked before step 1 runs, so a bad
    one raises `ConfigError` at once: a truth past the fast-time Nyquist
    limit raises `OutOfBandError`, and a step-2 truth that the gap moves to
    a non-positive range fails as it is built."""
    require_method(method)
    decimation_rows(scene.config.n_fast, n_ex)
    for n_slow in [dwell_chirps(scene, 1), dwell_chirps(scene, 2)]:
        check_map_extent(scene.config.n_fast, n_slow)
    for truths in [scene.uavs, scene.step2_truths()]:
        check_nyquist(scene.config, truths)
    step1 = run_step1(scene)
    if not step1.detections:
        return FullRunResult(scene, step1, None, None, method)
    step2, rows = run_step2(scene, step1.angle_est_rad, n_ex=n_ex)
    if not step2.groups:
        return FullRunResult(scene, step1, step2, None, method)
    loc = run_step3(step2, rows, method=method)
    return FullRunResult(scene, step1, step2, loc, method)

