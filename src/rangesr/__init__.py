"""Radar range super-resolution toolkit for closely spaced slow targets.

Processing chain: LFMCW beat-signal synthesis -> steering-vector beamforming
-> keystone long-time integration -> CA-CFAR detection -> within-cell
gridless frequency recovery (band-constrained reweighted Toeplitz SDP) ->
range estimates, plus a Monte Carlo benchmark harness and a CLI.
"""

from .beamform import BeamGrid, beamform_cube, default_grid, steering_vector
from .bench import GridSpec, SuccessGrid, assignment_rms, compare_methods, run_success_grid
from .cfar import (
    Detection,
    DetectionGroup,
    ca_cfar,
    cluster_detections,
    merge_beam_duplicates,
)
from .config import (
    C_LIGHT,
    ConfigError,
    RadarConfig,
    UavTruth,
    make_radar_config,
)
from .cube import CubeError, DataCube, RdaCube
from .integrate import (
    integrate_cube,
    range_ft,
    scaled_slow_time_ft_fast,
)
from .pipeline import (
    LocalizationResult,
    Scene,
    make_exp1_scene,
    make_exp2_scene,
    make_exp3_scene,
    run_full,
    run_step1,
    run_step2,
    run_step3,
    table_radar_config,
)
from .sdp import AdmmError, SdpDiagnostics, solve_weighted_toeplitz_sdp
from .superres import (
    FreqBand,
    MmvMatrix,
    SuperResError,
    SuperResResult,
    extract_mmv,
    prior_band,
    solve_by_name,
)
from .synth import add_noise, noise_sigma, synth_beat_cube

__version__ = "0.1.0"

__all__ = [
    "AdmmError",
    "BeamGrid",
    "C_LIGHT",
    "ConfigError",
    "CubeError",
    "DataCube",
    "Detection",
    "DetectionGroup",
    "FreqBand",
    "GridSpec",
    "LocalizationResult",
    "MmvMatrix",
    "RadarConfig",
    "RdaCube",
    "Scene",
    "SdpDiagnostics",
    "SuccessGrid",
    "SuperResError",
    "SuperResResult",
    "UavTruth",
    "add_noise",
    "assignment_rms",
    "beamform_cube",
    "ca_cfar",
    "cluster_detections",
    "compare_methods",
    "default_grid",
    "extract_mmv",
    "integrate_cube",
    "make_exp1_scene",
    "make_exp2_scene",
    "make_exp3_scene",
    "make_radar_config",
    "merge_beam_duplicates",
    "noise_sigma",
    "prior_band",
    "range_ft",
    "run_full",
    "run_step1",
    "run_step2",
    "run_step3",
    "run_success_grid",
    "scaled_slow_time_ft_fast",
    "solve_by_name",
    "solve_weighted_toeplitz_sdp",
    "steering_vector",
    "synth_beat_cube",
    "table_radar_config",
]
