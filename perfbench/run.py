#!/usr/bin/env python3
"""pesvlab benchmark: closed-loop workloads through the public API and CLI.

Run from the repository root:

    python3 perfbench/run.py --workload small_runs --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One client issues each call after the previous one returns.  A run sets the
workload up several times (``setup_s`` is the median), then repeats workload
passes until ``--seconds`` have elapsed (at least two) and reports means
over passes.  Every pass's outputs are checked.  With ``--trace 1`` passes
alternate untraced and traced, and the run reports per-layer metrics from the
traced ones instead of end-to-end metrics.  The last line of standard output
is one JSON object: ``correct``, ``attempted`` and ``failed`` (output checks)
and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("small_runs", "cli_wide", "oracle_suite")
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("iters_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)
SETUP_SAMPLES = 5  # one in the measuring process, the rest in fresh ones
TRACED_PASSES = 4  # enough for per-layer means; bounds the spans kept


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_workloads():
    """Import the workloads module against this checkout's ``src``."""
    sys.path.insert(0, str(SRC))
    import workloads
    import pesvlab

    if Path(pesvlab.__file__).resolve().parent != SRC / "pesvlab":
        raise ImportError(f"pesvlab imported from {pesvlab.__file__}, not {SRC}")
    return workloads


def set_up(args, scratch: Path):
    """Imports, data generation and warm-up; returns the module, the workload
    and the seconds it took."""
    t0 = time.perf_counter()
    mod = import_workloads()
    wl = mod.WORKLOADS[args.workload](args.seed, args.smoke, scratch)
    return mod, wl, time.perf_counter() - t0


def setup_samples(args, count: int) -> list[float]:
    """Set-up times of ``count`` fresh processes, one after another."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--setup-only",
    ] + (["--smoke"] if args.smoke else [])
    samples = []
    for _ in range(count):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def cpu_model() -> str:
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    return platform.processor() or "unknown"


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else ref


def machine_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads_env": {
            k: os.environ.get(k, "unset")
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "commit": commit(),
    }


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its waited-for children."""
    return sum(
        r.ru_utime + r.ru_stime
        for r in map(resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    )


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure(args, mod, wl, scratch: Path):
    """Closed loop of passes until the time is up.  With tracing on, passes
    alternate untraced (even) and traced (odd) until ``TRACED_PASSES`` were
    traced."""
    from spans import NullRecorder, Recorder

    rec = Recorder(scratch) if args.trace else None
    null = NullRecorder()
    min_passes = 4 if args.trace else 2
    passes, attempted, failed, failures = [], 0, 0, set()
    deadline = time.perf_counter() + args.seconds
    while len(passes) < min_passes or time.perf_counter() < deadline:
        traced = (
            bool(args.trace)
            and len(passes) % 2 == 1
            and sum(p["traced"] for p in passes) < TRACED_PASSES
        )
        if traced:
            rec.set_run(f"{args.workload}:{args.seed}:{len(passes)}")
        try:
            c0, t0 = cpu_seconds(), time.perf_counter()
            with rec.installed(mod.MODULES) if traced else contextlib.nullcontext():
                p = wl.run(rec if traced else null)
            wall, c1 = time.perf_counter() - t0, cpu_seconds()
            verdict = wl.check(p)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            attempted, failed = attempted + 1, failed + 1
            failures.add("exception")
            break
        if traced:
            rec.collect_workers()
        attempted += len(verdict.checks)
        for name, ok in verdict.checks:
            if not ok:
                failed += 1
                failures.add(name)
        passes.append(
            {
                "traced": traced,
                "wall": wall,
                "cpu": c1 - c0,
                "iters": verdict.iters,
                "iter_wall": p.iter_wall,
                "layer": verdict.layer,
            }
        )
    return rec, passes, attempted, failed, sorted(failures)


def end_to_end_metrics(passes, setups) -> tuple[dict, dict]:
    """Set-up is a median over set-ups.  Pass metrics average over the run:
    the host's speed shifts between phases lasting seconds, and a median
    snaps to whichever phase held most passes, while a mean weighs them by
    the time they took."""
    samples = {
        "wall_s": [p["wall"] for p in passes],
        "setup_s": setups,
        "cpu_s": [p["cpu"] for p in passes],
        "iters_per_s": [p["iters"] / p["iter_wall"] for p in passes],
    }
    values = {
        "wall_s": statistics.fmean(samples["wall_s"]),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.fmean(samples["cpu_s"]),
        "iters_per_s": sum(p["iters"] for p in passes) / sum(p["iter_wall"] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, samples


def per_layer_metrics(rec, passes) -> tuple[dict, dict]:
    from spans import BENCH_MEASURED, layer_metrics

    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    overhead = (
        statistics.median(p["wall"] for p in traced)
        / statistics.median(p["wall"] for p in plain)
        - 1.0
    )
    bench = {
        key: statistics.fmean(p["layer"].get(key, 0.0) for p in traced)
        for key in BENCH_MEASURED
    }
    metrics = layer_metrics(rec.all_tables(), len(traced), bench, overhead)
    samples = {"wall_s_untraced": [p["wall"] for p in plain],
               "wall_s_traced": [p["wall"] for p in traced]}
    return metrics, samples


def print_report(args, machine, metrics, samples, attempted, failed, failures, passes):
    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"passes {len(passes)}  checks {attempted}  failed {failed}"
    )
    for name, m in metrics.items():
        line = f"  {name:38s} {m['value']:14.6g} {m['unit']}"
        vals = samples.get(name, [])
        if len(vals) > 1:
            q1, q2, q3 = quartiles(vals)
            line += f"   ({len(vals)} samples: median {q2:.6g}, q1 {q1:.6g}, q3 {q3:.6g})"
        print(line)
    for name, vals in samples.items():
        if name not in metrics and vals:
            q1, q2, q3 = quartiles(vals)
            print(f"  {name:38s} {q2:14.6g} s   ({len(vals)} samples: median; q1 {q1:.6g}, q3 {q3:.6g})")
    print(f"  {'failed_frac':38s} {failed / max(attempted, 1):14.6g} frac   ({failed} of {attempted} checks)")
    if failures:
        print(f"  failed checks: {', '.join(failures)}")


def run_one(args) -> int:
    scratch = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            _, _, seconds = set_up(args, scratch)
            print(json.dumps({"setup_s": seconds}))
            return 0
        setups = [] if args.trace else setup_samples(args, 1 if args.smoke else SETUP_SAMPLES - 1)
        mod, wl, seconds = set_up(args, scratch)
        setups.append(seconds)
        rec, passes, attempted, failed, failures = measure(args, mod, wl, scratch)
        if len(passes) < (4 if args.trace else 2):
            print("error: the workload did not complete its passes", file=sys.stderr)
            return 1
        if args.trace:
            metrics, samples = per_layer_metrics(rec, passes)
            rec.write_csv(OUT / f"spans-{args.workload}.csv")
        else:
            metrics, samples = end_to_end_metrics(passes, setups)
        machine = machine_info()
        print_report(args, machine, metrics, samples, attempted, failed, failures, passes)
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine, "metrics": metrics,
            "samples": samples, "attempted": attempted, "failed": failed,
            "failed_checks": failures,
        }
        with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} failed", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pesvlab" / "__init__.py").is_file():
        print(f"error: no pesvlab sources under {SRC}; run from a pesvlab checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
