"""Repeat the benchmark over seeds and summarise the spread of each metric.

    python3 bench/trajectory.py --seeds 1-10
    python3 bench/trajectory.py --seeds 1-10 --label 772f1bb --append

Runs ``run.py --trace 0`` once per (seed, workload) for every workload in
``BENCHMARK.json`` at its ``run_seconds``, one process at a time, seeds in
the outer loop. For every end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median next to the bound in ``BENCHMARK.json``, for the
calibrated metrics the benchmark reports and for the raw wall-clock ones
kept in each run's record (``uncalibrated``). ``--append`` adds both
summaries, with each seed's log sha256, as one point to ``trajectory.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_one(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    record = json.loads((ROOT / ".bench_out" / f"{workload}-seed{seed}-trace0.json").read_text())
    return record


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "n": len(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1-10", help="range a-b or list a,b,c")
    p.add_argument("--label", default=None, help="name of this trajectory point")
    p.add_argument("--append", action="store_true", help="add the point to trajectory.json")
    args = p.parse_args(argv)

    seeds = seed_list(args.seeds)
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    records = {w: {} for w in names}
    for seed in seeds:
        for workload in names:
            records[workload][seed] = run_one(workload, seed, seconds)
            print(f"ran {workload} seed {seed}", flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    point = {"label": args.label, "seeds": seeds, "seconds": seconds,
             "facts": records[names[0]][seeds[0]]["facts"], "workloads": {}}
    worst = {"metrics": 0.0, "uncalibrated": 0.0}
    for workload, by_seed in records.items():
        summary = {kind: {name: summarise([r["metrics"][name]["value"] if kind == "metrics"
                                           else r[kind][name] for r in by_seed.values()])
                          for name in bounds}
                   for kind in worst}
        point["workloads"][workload] = {
            **summary, "log_sha256": {str(s): r["log_sha256"] for s, r in by_seed.items()}}
        for kind, metrics in summary.items():
            for name, s in metrics.items():
                ratio = s["spread"] / bounds[name]
                worst[kind] = max(worst[kind], ratio)
                label = "calibrated" if kind == "metrics" else "raw"
                print(f"{workload:<12} {label:<10} {name:<12} median {s['median']:.6g}  "
                      f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}  "
                      f"bound {bounds[name]}  spread/bound {ratio:.2f}")
    for kind, ratio in worst.items():
        print(f"largest spread/bound, {kind}: {ratio:.2f}")
    if args.append:
        path = BENCH_DIR / "trajectory.json"
        points = json.loads(path.read_text()) if path.exists() else []
        points.append(point)
        path.write_text(json.dumps(points, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
