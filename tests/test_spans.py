"""Threaded front-end passes: the row-span helper and bit-identical outputs.

Every stage is run with one worker and with three. The inline gate is
lowered so that the small test cubes do go through the pool; three workers
divide neither the odd row counts nor the five beams used here.
"""

import os
import threading
import time
import tracemalloc

import numpy as np
import pytest

from rangesr import bench, integrate, spans, synth
from rangesr.beamform import beamform_cube, default_grid
from rangesr.cfar import ca_cfar
from rangesr.config import UavTruth, make_radar_config
from rangesr.cube import DataCube
from rangesr.integrate import _scaled_dft, integrate_cube, range_ft
from rangesr.pipeline import Scene, run_step2


@pytest.fixture
def threaded(monkeypatch):
    """Set the worker count; every input counts as large."""
    monkeypatch.setattr(spans, "_CHUNK_BUDGET", 1)

    def set_workers(n):
        monkeypatch.setattr(spans, "WORKERS", n)

    return set_workers


@pytest.fixture
def cfg8():
    # 64 fast-time samples, 8 elements
    return make_radar_config(10e9, 50e6, 12.8e-6, 5e6, 8)


def with_workers(set_workers, fn):
    out = []
    for n in (1, 3):
        set_workers(n)
        out.append(fn())
    return out


def random_cube(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_default_workers_follow_the_cpu_affinity():
    assert spans.WORKERS == len(os.sched_getaffinity(0))


@pytest.mark.parametrize("n", [1, 2, 5, 37])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_split_covers_the_rows_in_contiguous_spans(monkeypatch, n, workers):
    monkeypatch.setattr(spans, "WORKERS", workers)
    bounds = spans.split(n, entries=spans._CHUNK_BUDGET)
    assert bounds[0][0] == 0 and bounds[-1][1] == n
    assert all(a < b for a, b in bounds)
    assert all(b == a2 for (_, b), (a2, _) in zip(bounds, bounds[1:]))
    assert len(bounds) == min(workers, n)
    # the bounds are a function of the shape and the worker count only
    assert spans.split(n, entries=spans._CHUNK_BUDGET) == bounds


def test_small_inputs_stay_on_one_span(monkeypatch):
    monkeypatch.setattr(spans, "WORKERS", 4)
    assert spans.split(100, entries=spans._CHUNK_BUDGET - 1) == [(0, 100)]
    assert spans.workers(spans._CHUNK_BUDGET - 1) == 1
    assert spans.workers(spans._CHUNK_BUDGET) == 4


def test_run_returns_results_in_span_order(monkeypatch):
    monkeypatch.setattr(spans, "WORKERS", 3)
    names = {}

    def fn(a, b):
        names[a] = threading.current_thread().name
        return list(range(a, b))

    out = spans.run(fn, spans.split(10, entries=spans._CHUNK_BUDGET))
    assert [x for part in out for x in part] == list(range(10))
    assert names[0] == threading.current_thread().name


@pytest.mark.parametrize("bad", [0, 2])
def test_an_error_in_any_span_reaches_the_caller_after_all_spans(monkeypatch, bad):
    monkeypatch.setattr(spans, "WORKERS", 3)
    bounds = spans.split(9, entries=spans._CHUNK_BUDGET)
    done = []

    def fn(a, b):
        if a == bounds[bad][0]:
            raise ZeroDivisionError(f"span {a}")
        time.sleep(0.2)
        done.append(a)

    with pytest.raises(ZeroDivisionError, match=f"span {bounds[bad][0]}"):
        spans.run(fn, bounds)
    assert len(done) == len(bounds) - 1


def test_synthesis_is_bit_identical_for_any_worker_count(threaded, monkeypatch):
    cfg = make_radar_config(10e9, 50e6, 12.8e-6, 5e6, 3)
    # 64 fast-time rows in blocks of 3: 22 blocks, the last one short
    monkeypatch.setattr(synth, "_BLOCK_ENTRIES", 3 * 9 * 3)
    targets = [UavTruth(30.0, 10.0, 0.1), UavTruth(41.3, -4.0, -0.3, amplitude=0.5j)]
    one, three = with_workers(threaded, lambda: synth.synth_beat_cube(cfg, targets, 9).data)
    assert np.array_equal(one, three)


def test_beamforming_is_bit_identical_for_any_worker_count(threaded, tiny_cfg):
    cube = DataCube(random_cube((37, 9, 4), 1), "element", tiny_cfg)
    grid = default_grid(tiny_cfg, 5)
    one, three = with_workers(threaded, lambda: beamform_cube(cube, grid).data)
    assert np.array_equal(one, three)
    assert np.array_equal(one, cube.data @ np.stack(
        [np.exp(-1j * synth.array_phase(tiny_cfg, a)) for a in grid.angles_rad], axis=1))


@pytest.mark.parametrize("n_slow", [1, 8, 9])
def test_chirp_z_is_bit_identical_for_any_worker_count(threaded, n_slow):
    rows = random_cube((37, n_slow, 5), n_slow)
    scales = 1.0 + 1e-3 * np.random.default_rng(0).random(37)
    one, three = with_workers(threaded, lambda: _scaled_dft(rows, scales))
    assert np.array_equal(one, three)


@pytest.mark.parametrize("n_fast", [36, 37, 38])
def test_range_ft_is_bit_identical_for_any_worker_count(threaded, tiny_cfg, n_fast):
    data = random_cube((n_fast, 9, 5), n_fast)

    def run():
        return range_ft(DataCube(data.copy(), "beam", tiny_cfg)).data

    one, three = with_workers(threaded, run)
    assert np.array_equal(one, three)


def test_threaded_chirp_z_shares_one_workspace_budget(threaded, monkeypatch):
    threaded(2)
    budget = 100_000
    monkeypatch.setattr(integrate, "_CHUNK_BUDGET", budget)
    rows = random_cube((2500, 100, 5), 4)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = _scaled_dft(rows, np.ones(2500))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # as on one thread: the spans' workspaces add up to the budget
    assert peak - out.nbytes <= 2 * budget * out.itemsize


def test_range_ft_overwrites_its_even_length_input(tiny_cfg):
    inter = DataCube(random_cube((36, 9, 5), 3), "beam", tiny_cfg)
    rda = range_ft(inter)
    assert np.shares_memory(rda.data, inter.data)


def test_cfar_is_bit_identical_for_any_worker_count(threaded, tiny_cfg):
    cube = DataCube(random_cube((64, 33, 4), 2), "element", tiny_cfg)
    # a strong on-grid tone in every beam, over the random floor
    cube.data[:] += 30.0 * synth.synth_beat_cube(tiny_cfg, [UavTruth(30.0, 0.0)], 33).data
    rda = integrate_cube(beamform_cube(cube, default_grid(tiny_cfg, 5)))
    one, three = with_workers(threaded, lambda: ca_cfar(rda))
    assert one == three
    assert len({d.beam for d in one}) == 5


def test_step2_is_bit_identical_for_any_worker_count(threaded, cfg8):
    scene = Scene(
        name="tiny",
        config=cfg8,
        uavs=(
            UavTruth(range0_m=60.0, velocity_mps=2.0, angle_rad=0.15),
            UavTruth(range0_m=73.0, velocity_mps=-2.0, angle_rad=-0.2),
        ),
        dwell1_s=64 * cfg8.chirp_s,
        dwell2_s=127 * cfg8.chirp_s,
        gap_s=0.0,
        snr_db=10.0,
        seed=5,
    )
    one, three = with_workers(threaded, lambda: run_step2(scene, 0.15))
    assert one.detections == three.detections and one.detections
    assert one.groups == three.groups
    assert np.array_equal(one.element_cube.data, three.element_cube.data)


def test_a_grid_sized_trial_never_starts_a_thread(monkeypatch):
    def no_pool():
        raise AssertionError("the pool was asked for")

    monkeypatch.setattr(spans, "WORKERS", 2)
    monkeypatch.setattr(spans, "_executor", no_pool)
    spec = bench.GridSpec(k_values=(2,), delta_ratios=(0.5,), trials=1, n_slow=64)
    data = bench._prepare_trial(spec, 2, 0.5, 0)
    bench.run_trial_method(spec, data, 10.0, "music")
