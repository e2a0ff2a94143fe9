"""Run benchmark workloads over several seeds and summarise each metric.

    python3 perfbench/suite.py                          # every workload, seed 0
    python3 perfbench/suite.py --seeds 0-9 --json perfbench/out/spread.json
    python3 perfbench/suite.py --workloads grid_fsram --seeds 0-4 --trace 1

Each run is one `run.py` process, run one after another. For every metric
the summary gives the median and, with two or more seeds, the quartiles and
their distance as a share of the median (the run-to-run spread), next to the
bound in BENCHMARK.json. Exits 1 if any run fails, reports a failed check, or
fails a different share of its operations than the first run of its workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_one(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict | None, float]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, cwd=ROOT,
    )
    elapsed = time.perf_counter() - t0
    if proc.stderr.strip():
        print(proc.stderr.strip(), file=sys.stderr)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None:
        print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
    return (result if proc.returncode == 0 else None), elapsed


def spread(values: list[float]) -> tuple[float, float, float, float | None]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, ((q3 - q1) / med if med else None)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default="all")
    p.add_argument("--seeds", default="0")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", help="write every run's result here")
    args = p.parse_args(argv)
    names = ([w["name"] for w in bench["workloads"]] if args.workloads == "all"
             else args.workloads.split(","))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    ok, report = True, {}
    for name in names:
        runs, shares, elapsed = [], set(), []
        for seed in seeds:
            result, secs = run_one(name, seed, args.seconds, args.trace)
            elapsed.append(secs)
            if result is None or not result["correct"]:
                ok = False
                continue
            runs.append(result)
            shares.add((result["failed"], result["attempted"]))
            print(f"   seed {seed}: " + ", ".join(
                f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        report[name] = {"seeds": seeds, "runs": runs, "process_s": elapsed}
        print(f"== {name}: {len(runs)}/{len(seeds)} correct runs, "
              f"mean process time {statistics.mean(elapsed):.1f} s")
        if len({f / a for f, a in shares}) > 1:
            ok = False
            print(f"   failed share differs between runs: {sorted(shares)}")
        if not runs:
            continue
        print(f"   attempted {runs[0]['attempted']}, failed {runs[0]['failed']}")
        for metric, first in runs[0]["metrics"].items():
            med, q1, q3, rel = spread([r["metrics"][metric]["value"] for r in runs])
            bound = bounds.get(metric)
            rel_s = "" if rel is None else f"  spread {rel:.4f}"
            bound_s = "" if bound is None else f"  bound {bound}"
            print(f"   {metric:28s} {med:14.6g} {first['unit']:6s} "
                  f"q1 {q1:.6g} q3 {q3:.6g}{rel_s}{bound_s}")
    if args.json:
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json).write_text(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
