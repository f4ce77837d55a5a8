"""muown benchmark: one workload, one seed, one measuring window.

    python3 bench/run.py --workload train-mid --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload sweep-desk --seed 1 --seconds 1 --trace 1 --smoke
    python3 bench/run.py --check-presets

Run from the repository root; muown is imported from ``src/`` beside this
directory, never from an installed copy. BLAS runs on one thread and the
workload on one caller, in a closed loop of whole workload runs ("units",
see ``workloads.py``) until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics declared in ``BENCHMARK.json``.
``--trace 1`` alternates untraced units with units run under the span
tracer (``spans.py``) and reports the per-layer metrics, including the
tracing overhead. Every run also checks correctness: the preset
gate passes, every unit's log is byte-identical, and shard-large steps match
replicated ``step_all`` bit for bit. The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the full
record, with machine facts and log hashes, goes to ``.bench_out/``. The exit
code is 1 when any check failed.

``--smoke`` shrinks every workload to toy size; ``--check-presets`` compares
each preset's default ``log.csv`` with the hashes in ``expected.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
EXPECTED = BENCH_DIR / "expected.json"

BLAS_THREADS = "1"
SETUP_REPEATS = 15


def import_muown():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import muown
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import muown from {src}: {exc}")
    if Path(muown.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"bench: muown imported from {muown.__file__}, not {src}")


def declared_metrics() -> dict:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"bench: cannot read BENCHMARK.json: {exc}")
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


# --------------------------------------------------------------------------
# machine and run facts


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_facts() -> dict:
    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        info = {}
    threads = None
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        cdll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(cdll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": info.get("name", "unknown"), "version": info.get("version", "unknown"),
            "threads": threads if threads is not None
            else f"{os.environ['OPENBLAS_NUM_THREADS']} (requested)"}


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_facts(args) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_facts(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "seconds": args.seconds,
        "clients": 1,
    }


# --------------------------------------------------------------------------
# measuring


def run_units(unit_fn, seconds: float, record: dict, blas_share=None) -> list:
    """Closed loop: start units until ``seconds`` have passed (at least one).

    With ``blas_share`` given, each unit takes machine-speed samples
    (calibrate.py) and stores their median factor on the unit.
    """
    import calibrate

    units = []
    start = time.perf_counter()
    while not units or time.perf_counter() - start < seconds:
        record["attempted"] += 1
        cal = None if blas_share is None else calibrate.InUnit(blas_share)
        try:
            unit = unit_fn(cal)
            unit.speed_factor = cal.factor() if cal else 1.0
        except Exception as exc:  # noqa: BLE001 - a failed run is counted, not fatal
            record["failed"] += 1
            record["problems"].append(f"unit raised {type(exc).__name__}: {exc}")
            units.append(None)
            continue
        if unit.problems:
            record["failed"] += 1
            record["problems"].extend(unit.problems)
        units.append(unit)
    return [u for u in units if u is not None]


def quantile(xs, q: float) -> float:
    xs = sorted(xs)
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[round(100 * q) - 1]


def end_to_end(units, setup, calibrated: bool = True) -> dict:
    """End-to-end metrics from units and (seconds, speed factor) set-up repeats.

    Calibrated, each unit's and set-up repeat's time is scaled by its speed
    factor, and each step latency by the latest factor sampled before that
    step (see calibrate.py).
    """
    scale = [u.speed_factor if calibrated else 1.0 for u in units]
    walls = [u.wall_s * f for u, f in zip(units, scale)]
    steps = [s * (sf if calibrated else 1.0) for u in units
             for s, sf in zip(u.step_s, u.step_factors or [u.speed_factor] * len(u.step_s))]
    return {
        "wall_s": statistics.median(walls),
        "steps_per_s": sum(u.steps for u in units) / sum(walls),
        "step_ms.p50": 1e3 * statistics.median(steps),
        "step_ms.p90": 1e3 * quantile(steps, 0.9),
        "setup_s": statistics.median(t * f if calibrated else t for t, f in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(wl, seconds: float, record: dict, trace_path: Path):
    """Untraced and traced units, alternating, over the whole window.

    Both kinds of unit see the same machine speed, so the difference of their
    median wall times is the tracing overhead, not the machine's drift.
    Returns the per-layer metrics and every unit run, traced or not.
    """
    import spans

    tracer = spans.Tracer()
    root = tracer.wrap(spans.ROOT_LAYER, "unit", wl.unit)
    untraced_walls, per_unit, first_spans, ortho_err = [], [], [], 0.0

    def alternating_unit(cal):
        if len(untraced_walls) <= len(per_unit):
            start = time.perf_counter()
            unit = wl.unit(cal)
            untraced_walls.append(time.perf_counter() - start)
            return unit
        tracer.install()
        try:
            tracer.start_unit(keep_directions=not per_unit)
            unit = root(cal)
        finally:
            tracer.uninstall()
        per_unit.append(spans.unit_metrics(tracer))
        if len(per_unit) == 1:
            first_spans.extend(tracer.spans)
            nonlocal ortho_err
            ortho_err = spans.ortho_error(tracer.directions)
        return unit

    # At least one unit of each kind, however short the window.
    units = run_units(alternating_unit, seconds, record)
    if not per_unit:
        units += run_units(alternating_unit, 0, record)
    if tracer.missing:
        print(f"bench: trace targets not found: {', '.join(sorted(set(tracer.missing)))}")
    with open(trace_path, "w") as fh:
        json.dump({"fields": ["layer", "function", "start_s", "end_s", "parent",
                              "top", "ok"], "run_id": 0, "spans": first_spans}, fh)
    if not (untraced_walls and per_unit):
        return {}, units
    metrics = {k: statistics.median(m[k] for m in per_unit) for k in per_unit[0]}
    baseline = statistics.median(untraced_walls)
    metrics.update({
        "trace.untraced_wall_s": baseline,
        "trace.overhead_s": metrics["trace.wall_s"] - baseline,
        "orthogonalize.ortho_err_max": ortho_err,
        "harness.sweep.useful_step_frac": units[0].useful_step_frac,
        "quality.final_loss": units[0].final_loss,
    })
    return metrics, units


def print_layer_table(metrics: dict) -> None:
    import spans

    wall = metrics["trace.wall_s"]
    print(f"traced wall {wall:.3f} s (untraced {metrics['trace.untraced_wall_s']:.3f} s)")
    for layer in sorted(spans.LAYERS, key=lambda l: -metrics[f"{l}.self_s"]):
        own = metrics[f"{layer}.self_s"]
        print(f"  {layer:<14} self {own:8.4f} s  {100 * own / wall:5.1f}% of traced wall")


def check_digests(units, gate_digest, record: dict) -> str | None:
    digests = {u.digest for u in units} | ({gate_digest} if gate_digest else set())
    if len(digests) > 1:
        record["problems"].append(f"log differs between runs of one seed: {sorted(digests)}")
        record["failed"] += 1
    return units[0].digest if units else None


def measure(args, declared) -> dict:
    import calibrate
    import workloads

    record = {"attempted": 0, "failed": 0, "problems": []}
    work_dir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work_dir, smoke=args.smoke)
        setup = []  # (seconds, speed factor) per repeat
        if not args.trace:
            # Warm-up, not timed: the first calls of both calibration kernels
            # and of the set-up run cold in a new process.
            calibrate.speed_factor(0.5)
            wl.setup()
            for _ in range(2 if args.smoke else SETUP_REPEATS):
                factor = calibrate.speed_factor(wl.setup_blas_share, samples=3)
                start = time.perf_counter()
                wl.setup()
                setup.append((time.perf_counter() - start, factor))
        record["attempted"] += 1
        gate_problems, gate_digest = wl.gate()
        if gate_problems:
            record["failed"] += 1
            record["problems"].extend(gate_problems)
        if args.trace:
            metrics, units = traced(wl, args.seconds, record, OUT_DIR / f"{stem}-spans.json")
            if metrics:
                print_layer_table(metrics)
        else:
            units = run_units(wl.unit, args.seconds, record, wl.blas_share)
            metrics = end_to_end(units, setup) if units else {}
            record["uncalibrated"] = end_to_end(units, setup, False) if units else {}
            record["setup_repeats"] = [{"seconds": t, "speed_factor": f} for t, f in setup]
            record["units"] = [{"wall_s": u.wall_s, "steps": u.steps,
                                "speed_factor": u.speed_factor} for u in units]
        digest = check_digests(units, gate_digest, record)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    record["correct"] = record["failed"] == 0
    mismatched = sorted(set(declared[kind]) ^ set(metrics))
    if mismatched and record["correct"]:
        raise SystemExit(f"bench: metrics not matching BENCHMARK.json: {mismatched}")
    record["metrics"] = {k: {"value": metrics[k], "unit": u}
                         for k, u in declared[kind].items() if k in metrics}
    record["log_sha256"] = digest
    expected = json.loads(EXPECTED.read_text())
    record["seed_commit_log_sha256"] = (
        None if args.smoke
        else expected["workload_log_sha256"].get(args.workload, {}).get(str(args.seed)))
    record["held_out_seed"] = expected["held_out_seed"]
    record["failed_frac"] = record["failed"] / max(record["attempted"], 1)
    record["facts"] = run_facts(args)
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    return record


def check_presets() -> int:
    """Each preset's default log.csv against the hashes recorded in expected.json."""
    import workloads

    want = json.loads(EXPECTED.read_text())["preset_log_sha256"]
    work_dir = tempfile.mkdtemp(prefix="presets-", dir=OUT_DIR)
    bad = 0
    try:
        for preset in sorted({k.split("/")[0] for k in want}):
            out = os.path.join(work_dir, preset)
            problems = workloads.run_cli(["run", preset, "--out", out])
            for key in sorted(k for k in want if k.split("/")[0] == preset):
                got = workloads.sha256_file(os.path.join(work_dir, key, "log.csv"))
                ok = got == want[key] and not problems
                bad += not ok
                print(f"{'ok  ' if ok else 'DIFF'} {key}: {got} (seed commit {want[key]})"
                      + (f" {problems}" if problems else ""))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 1 if bad else 0


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=workload_names)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="toy sizes, for the self-test")
    p.add_argument("--check-presets", action="store_true",
                   help="compare default preset log.csv hashes with expected.json")
    args = p.parse_args(argv)
    if not args.check_presets and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    # Before numpy loads: one BLAS thread, so one caller owns the machine's work.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    import_muown()
    declared = declared_metrics()
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    OUT_DIR.mkdir(exist_ok=True)
    if args.check_presets:
        return check_presets()
    record = measure(args, declared)
    for problem in record["problems"]:
        print(f"FAIL {problem}")
    print(f"log sha256 {record['log_sha256']} (seed commit "
          f"{record['seed_commit_log_sha256'] or 'unrecorded for this seed'})")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
