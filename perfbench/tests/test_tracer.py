"""The layer wrappers hand calls through unchanged and record what they claim."""

import json
import types
from pathlib import Path

import numpy as np
import pytest

import layers
import run
import tracer
from rangesr import integrate, pipeline
from rangesr.config import UavTruth
from rangesr.synth import synth_beat_cube


def test_wrapper_returns_the_same_object_and_records_a_span():
    rec = tracer.Recorder(timed=True)
    payload = object()
    seen = []
    fn = rec.wrap(lambda x, y=0: payload, span="outer",
                  on_return=lambda a, k, r: seen.append((a, k, r)))
    assert fn(1, y=2) is payload
    assert seen == [((1,), {"y": 2}, payload)]
    (span,) = rec.spans
    assert span["name"] == "outer" and span["parent"] is None
    assert span["end"] >= span["start"] > 0.0


def test_wrapper_reraises_and_unwinds():
    rec = tracer.Recorder(timed=True)
    errors = []

    def boom():
        raise KeyError("x")

    fn = rec.wrap(boom, span="bad", on_raise=lambda a, k, e: errors.append(e))
    with pytest.raises(KeyError):
        fn()
    assert len(errors) == 1 and rec._stack == []
    inner = rec.wrap(lambda: 3, span="after")
    assert inner() == 3 and rec.spans[-1]["parent"] is None


def test_spans_nest_and_self_time_excludes_children():
    rec = tracer.Recorder(timed=True)
    child = rec.wrap(lambda: sum(range(20000)), span="child")
    parent = rec.wrap(lambda: [child(), child()], span="parent")
    with rec.span("workload"):
        parent()
    by_name = {s["name"]: s for s in rec.spans}
    assert by_name["parent"]["parent"] == by_name["workload"]["id"]
    assert by_name["child"]["parent"] == by_name["parent"]["id"]
    summary = rec.summary()
    assert summary["child"]["calls"] == 2
    p = summary["parent"]
    assert p["self_s"] == pytest.approx(p["busy_s"] - summary["child"]["busy_s"])


def test_untimed_recorder_runs_hooks_without_spans():
    rec = tracer.Recorder(timed=False)
    seen = []
    fn = rec.wrap(lambda: 5, span="x", on_return=lambda a, k, r: seen.append(r))
    assert fn() == 5 and seen == [5] and rec.spans == []


def test_patch_and_restore():
    mod = types.SimpleNamespace(f=lambda: 1)
    original = mod.f
    rec = tracer.Recorder(timed=True)
    rec.patch(mod, "f", span="f")
    assert mod.f is not original and mod.f() == 1
    rec.restore()
    assert mod.f is original


def test_every_layer_name_exists():
    for module, attr, _ in layers.LAYERS:
        assert callable(getattr(module, attr)), f"{module.__name__}.{attr}"


def test_installed_layers_leave_results_unchanged_and_are_restored(tiny_cube):
    originals = {(m, a): getattr(m, a) for m, a, _ in layers.LAYERS}
    want = integrate.integrate_cube(tiny_cube)
    rec, cap = tracer.Recorder(timed=True), layers.Captures()
    with layers.installed(rec, cap, trace=True):
        got = pipeline.integrate_cube(tiny_cube)
    np.testing.assert_array_equal(got.data, want.data)
    assert all(getattr(m, a) is f for (m, a), f in originals.items())
    names = [s["name"] for s in rec.spans]
    assert names == ["integrate", "integrate.slow_ft", "integrate.range_ft"]
    assert rec.counts["integrate.cells"] == want.data.size
    metrics = layers.per_layer(rec, rounds=1)
    assert metrics["integrate.cells"] == want.data.size
    assert metrics["integrate.busy_s"] >= metrics["integrate.slow_ft_busy_s"]


def test_benchmark_json_names_the_metrics_the_runner_prints():
    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    printed = layers.per_layer(tracer.Recorder(timed=True), rounds=1)
    assert per_layer == {name: run.layer_unit(name) for name in printed}


@pytest.fixture
def tiny_cube():
    from rangesr.beamform import beamform_cube, default_grid
    from rangesr.config import make_radar_config

    cfg = make_radar_config(carrier_hz=10e9, bandwidth_hz=50e6, chirp_s=12.8e-6,
                            sample_rate_hz=5e6, n_elements=4)
    cube = synth_beat_cube(cfg, [UavTruth(range0_m=30.0, velocity_mps=10.0)], 16)
    return beamform_cube(cube, default_grid(cfg))
