"""The program's layers as the benchmark sees them.

Each layer is a public function of a rangesr module, patched at the name its
caller looks up: `run_full` finds `run_step1` in `rangesr.pipeline`, the
Monte Carlo grid finds `integrate_cube` in `rangesr.bench`, `integrate_cube`
finds `scaled_slow_time_ft_fast` in `rangesr.integrate`, and the solvers find
`solve_weighted_toeplitz_sdp` in `rangesr.superres`. Counters are read at the
same boundaries, from the arguments and results the calls already carry.

Work done inline (step 2 and the grid trial beamform with `cube.data @ w`)
has no function boundary; it shows as the self time of its caller.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
from rangesr import bench, integrate, pipeline, superres
from rangesr.sdp import AdmmError

# (module, attribute, span name); the same span name may cover one function
# as looked up by two callers
LAYERS = (
    (pipeline, "run_step1", "pipeline.step1"),
    (pipeline, "run_step2", "pipeline.step2"),
    (pipeline, "run_step3", "pipeline.step3"),
    (bench, "run_trial_method", "bench.trial"),
    (pipeline, "synth_beat_cube", "synth"),
    (bench, "synth_beat_cube", "synth"),
    (pipeline, "add_noise", "synth.noise"),
    (bench, "_unit_noise", "synth.noise"),
    (pipeline, "beamform_cube", "beamform"),
    (pipeline, "integrate_cube", "integrate"),
    (bench, "integrate_cube", "integrate"),
    (integrate, "scaled_slow_time_ft_fast", "integrate.slow_ft"),
    (integrate, "range_ft", "integrate.range_ft"),
    (pipeline, "ca_cfar", "cfar"),
    (bench, "ca_cfar", "cfar"),
    (pipeline, "cluster_detections", "cfar.cluster"),
    (bench, "cluster_detections", "cfar.cluster"),
    (pipeline, "extract_mmv", "superres.extract"),
    (bench, "extract_mmv", "superres.extract"),
    (pipeline, "solve_by_name", "superres.solve"),
    (bench, "solve_by_name", "superres.solve"),
    (superres, "solve_weighted_toeplitz_sdp", "sdp"),
)

# patched in every run, traced or not: the correctness checks read them
CAPTURED = {
    (bench, "run_trial_method"),
    (bench, "solve_by_name"),
    (superres, "solve_weighted_toeplitz_sdp"),
}


class Captures:
    """Outputs the checks need, kept small (no data cubes)."""

    def __init__(self):
        self.sdp: list[dict] = []       # every returned SDP solve
        self.trials: list[dict] = []    # every grid trial, with its solves
        self._pending: list[dict] = []  # grid solves of the running trial


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _hooks(rec, cap: Captures, module, attr: str, trace: bool) -> dict:
    """on_return / on_raise hooks for one patched name."""
    add = rec.add if trace else (lambda key, value=1: None)

    if attr == "solve_weighted_toeplitz_sdp":
        def done(args, kwargs, out):
            u, y, diag = out
            cap.sdp.append({
                "s": np.array(_arg(args, kwargs, 0, "s"), dtype=np.complex128),
                "eta": float(_arg(args, kwargs, 1, "eta")),
                "band": _arg(args, kwargs, 2, "band"),
                "u": u, "y": y, "diag": diag,
            })
            add("sdp.outer_iters", diag.outer_iters)
            add("sdp.inner_iters", sum(diag.inner_iters))

        def failed(args, kwargs, exc):
            if isinstance(exc, AdmmError):
                add("sdp.infeasible")
                add("sdp.outer_iters", exc.diagnostics.outer_iters)
                add("sdp.inner_iters", sum(exc.diagnostics.inner_iters))
        return {"on_return": done, "on_raise": failed}

    if attr == "solve_by_name":
        def done(args, kwargs, result):
            add("superres.solve_yield_ok", int(bool(np.any(result.in_band))))
            if module is bench:
                mmv = _arg(args, kwargs, 1, "mmv")
                cap._pending.append({
                    "band": (mmv.band.f_lo, mmv.band.f_hi),
                    "n_samples": mmv.n_samples,
                    "step": mmv.step,
                    "freqs_global": np.array(result.freqs_global),
                    "ranges_m": np.array(result.ranges_m),
                    "powers": np.array(result.powers),
                })

        def failed(args, kwargs, exc):
            add("superres.solve_errors")
        return {"on_return": done, "on_raise": failed}

    if attr == "run_trial_method":
        def done(args, kwargs, rms):
            data = _arg(args, kwargs, 1, "data")
            cap.trials.append({
                "truth": np.array(data.truth_ranges),
                "snr_db": float(_arg(args, kwargs, 2, "snr_db")),
                "rms": float(rms),
                "solves": cap._pending,
            })
            cap._pending = []
        return {"on_return": done}

    counters = {
        "synth_beat_cube": lambda a, k, r: add("synth.samples", r.data.size),
        "integrate_cube": lambda a, k, r: add("integrate.cells", r.data.size),
        "scaled_slow_time_ft_fast": lambda a, k, r: add(
            "integrate.bytes_computed", a[0].data.nbytes + r.data.nbytes),
        "range_ft": lambda a, k, r: add(
            "integrate.bytes_computed", a[0].data.nbytes + r.data.nbytes),
        "ca_cfar": lambda a, k, r: add("cfar.detections", len(r)),
        "cluster_detections": lambda a, k, r: add("cfar.groups", len(r)),
        "run_step3": lambda a, k, r: (
            add("pipeline.estimates", len(r.estimates)),
            add("pipeline.solved_groups",
                sum(1 for g in r.group_reports if g.get("solved"))),
        ),
    }
    return {"on_return": counters[attr]} if attr in counters else {}


@contextmanager
def installed(rec, cap: Captures, trace: bool):
    """Patch the capture points, and every layer when tracing; always restore."""
    try:
        for module, attr, name in LAYERS:
            if trace or (module, attr) in CAPTURED:
                rec.patch(module, attr, span=name if trace else None,
                          **_hooks(rec, cap, module, attr, trace))
        yield
    finally:
        rec.restore()


def per_layer(rec, rounds: int) -> dict[str, float]:
    """Per-layer metrics of a traced run, per round of the workload."""
    summary = rec.summary()
    busy = {name: row["busy_s"] for name, row in summary.items()}
    self_s = {name: row["self_s"] for name, row in summary.items()}
    calls = {name: row["calls"] for name, row in summary.items()}
    count = rec.counts.get
    solves = calls.get("superres.solve", 0)
    values = {
        "synth.busy_s": busy.get("synth", 0.0),
        "synth.noise_busy_s": busy.get("synth.noise", 0.0),
        "synth.samples": count("synth.samples", 0),
        "beamform.busy_s": busy.get("beamform", 0.0),
        "integrate.busy_s": busy.get("integrate", 0.0),
        "integrate.slow_ft_busy_s": busy.get("integrate.slow_ft", 0.0),
        "integrate.range_ft_busy_s": busy.get("integrate.range_ft", 0.0),
        "integrate.cells": count("integrate.cells", 0),
        "integrate.bytes_computed": count("integrate.bytes_computed", 0),
        "cfar.busy_s": busy.get("cfar", 0.0),
        "cfar.cluster_busy_s": busy.get("cfar.cluster", 0.0),
        "cfar.detections": count("cfar.detections", 0),
        "cfar.groups": count("cfar.groups", 0),
        "superres.extract_busy_s": busy.get("superres.extract", 0.0),
        "superres.solves": solves,
        "superres.solve_errors": count("superres.solve_errors", 0),
        "superres.solve_busy_s": busy.get("superres.solve", 0.0),
        "superres.solve_self_s": self_s.get("superres.solve", 0.0),
        "sdp.calls": calls.get("sdp", 0),
        "sdp.busy_s": busy.get("sdp", 0.0),
        "sdp.outer_iters": count("sdp.outer_iters", 0),
        "sdp.inner_iters": count("sdp.inner_iters", 0),
        "sdp.infeasible": count("sdp.infeasible", 0),
        "pipeline.step1_s": busy.get("pipeline.step1", 0.0),
        "pipeline.step2_s": busy.get("pipeline.step2", 0.0),
        "pipeline.step3_s": busy.get("pipeline.step3", 0.0),
        "pipeline.step1_self_s": self_s.get("pipeline.step1", 0.0),
        "pipeline.step2_self_s": self_s.get("pipeline.step2", 0.0),
        "pipeline.step3_self_s": self_s.get("pipeline.step3", 0.0),
        "pipeline.estimates": count("pipeline.estimates", 0),
        "pipeline.solved_groups": count("pipeline.solved_groups", 0),
        "bench.trials": calls.get("bench.trial", 0),
        "bench.trial_busy_s": busy.get("bench.trial", 0.0),
        "bench.trial_self_s": self_s.get("bench.trial", 0.0),
        "trace.wall_s": busy.get("workload", 0.0),
        "trace.overhead_s": rec.overhead_s,
        "trace.spans": len(rec.spans),
    }
    out = {name: v / rounds for name, v in values.items()}
    out["superres.solve_yield"] = (
        count("superres.solve_yield_ok", 0) / solves if solves else 0.0
    )
    return out
