"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 perfbench/run.py --workload grid_fsram --seed 0 --seconds 20 --trace 0

The program is imported from `src/` of the checkout this file sits in. A run
sets up (imports, inputs), then repeats whole rounds of the workload's timed
calls: it always runs one, and starts another only while the next is
expected to finish within --seconds. After timing, every round's outputs go
through the checks in checks.py; the run exits 1 if any fails.

--trace 0 prints the end-to-end metrics; --trace 1 wraps every layer (see
layers.py), prints the per-layer metrics per round and writes the spans to
perfbench/out/. BLAS runs single-threaded (BLAS_THREADS), which is at most
the core count of any machine and keeps iteration counts reproducible.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2  # fresh processes that only set up; with this one, 3 samples

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "range_rmse_m": "m",
    "resolved_count": "count",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_computed"):
        return "bytes"
    if name.endswith("_yield"):
        return "ratio"
    return "count"


def process_age_s() -> float:
    """Seconds since this process started (kernel start time, 10 ms ticks);
    falls back to the time since this file began to run."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        age = -1.0
    return age if 0.0 <= age < 600.0 else time.perf_counter() - _T0


def probe_setup(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit (a set-up probe)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "rangesr" / "__init__.py").is_file():
        print(f"error: no rangesr package under {src}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:  # read when numpy loads BLAS, so set before the import
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    import layers
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    setups = [process_age_s()]
    if args.setup_only:
        print(json.dumps({"setup_s": setups[0]}))
        return 0
    setups += [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    trace = bool(args.trace)
    rec, cap = tracer.Recorder(timed=trace), layers.Captures()
    walls, rounds = [], []
    with layers.installed(rec, cap, trace):
        start = time.perf_counter()
        while True:
            wall, out = wl.run_round(rec)
            walls.append(wall)
            rounds.append(out)
            if time.perf_counter() - start + wall > args.seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    score = wl.score(rounds, cap)
    if not score.errors_m:
        score.problems.append("no operation returned ranges")
    for problem in score.problems:
        print(f"check failed: {problem}", file=sys.stderr)

    info = {"workload": args.workload, "seed": args.seed, "rounds": len(rounds),
            "blas_threads": BLAS_THREADS, "setup_samples_s": setups,
            "round_walls_s": walls, "problems": len(score.problems)}
    if trace:
        values = layers.per_layer(rec, len(rounds))
        units = {name: layer_unit(name) for name in values}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        rec.write(path, extra={"info": info})
        info["trace_file"] = str(path.relative_to(ROOT))
    else:
        errors = score.errors_m
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": peak_rss_mb,
            "range_rmse_m": (sum(e * e for e in errors) / len(errors)) ** 0.5 if errors else 0.0,
            "resolved_count": score.resolved / len(rounds),
        }
        units = END_TO_END_UNITS
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not score.problems,
        "attempted": score.attempted,
        "failed": score.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0 if not score.problems else 1


if __name__ == "__main__":
    sys.exit(main())
