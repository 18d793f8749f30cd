"""Span recording for the traced benchmark run.

The traced run wraps the public functions each pesvlab layer calls, as bound
in the calling module (``erm.forward``, ``oracles.backprop``,
``norms.pesv_norm`` reached as ``erm.norms.pesv_norm``, ``erm.train`` reached
as ``cli.erm.train``, ...).  Every wrapped call records one span: name, start,
end, parent span and workload-run id.  Spans stay in memory, in flat arrays,
and are written out when the run ends.

The sweep's process pool forks its workers, so they inherit the wrappers.
Each forked worker starts an empty span table and writes it to a file when it
exits; the parent merges those files after every traced pass.  Workers that
are not forked (a ``spawn`` pool) record nothing, and their layers then count
only the parent's calls.
"""

from __future__ import annotations

import array
import contextlib
import functools
import json
import math
import multiprocessing.util
import os
import time
from collections import Counter
from pathlib import Path

# Per-layer metrics of the traced run, in report order, with their units.
# Counts and times are per traced workload pass.
PER_LAYER = (
    ("netcore.forward.calls", "count"),
    ("netcore.forward.self_s", "s"),
    ("netcore.backprop.calls", "count"),
    ("netcore.backprop.self_s", "s"),
    ("netcore.backprop_over_forward", "ratio"),
    ("netcore.gflops_computed", "GFLOP/s"),
    ("norms.pesv_norm.calls", "count"),
    ("norms.pesv_norm.self_s", "s"),
    ("norms.pesv_subgradient.self_s", "s"),
    ("norms.weight_decay.self_s", "s"),
    ("norms.mixed_max.self_s", "s"),
    ("norms.balance_relu.self_s", "s"),
    ("erm.train.calls", "count"),
    ("erm.train.iters", "count"),
    ("erm.train.self_s", "s"),
    ("erm.train.us_per_iter", "us"),
    ("erm.train.useful_iter_frac", "frac"),
    ("erm.sample_dataset.self_s", "s"),
    ("erm.generalization_error_mc.self_s", "s"),
    ("oracles.ascent.steps", "count"),
    ("oracles.ascent.us_per_step", "us"),
    ("oracles.rademacher_mc.self_s", "s"),
    ("oracles.lemma_scans.self_s", "s"),
    ("oracles.packing.self_s", "s"),
    ("oracles.packing.kept_frac", "frac"),
    ("oracles.pointwise_audit.self_s", "s"),
    ("oracles.equivalence.self_s", "s"),
    ("theory.double_descent_sweep.self_s", "s"),
    ("theory.gen_bound_encompassing.calls", "count"),
    ("config.parse_config.self_s", "s"),
    ("cli.bound.self_s", "s"),
    ("cli.train.self_s", "s"),
    ("cli.sweep.self_s", "s"),
    ("cli.sweep.tasks", "count"),
    ("cli.sweep.child_cpu_s", "s"),
    ("cli.out_bytes", "bytes"),
    ("trace_overhead_frac", "frac"),
)

# Per-layer values the workloads measure themselves, from inputs and results.
BENCH_MEASURED = (
    "oracles.ascent.steps",
    "oracles.packing.kept_frac",
    "cli.sweep.tasks",
    "cli.sweep.child_cpu_s",
    "cli.out_bytes",
)


def _layers(params):
    return params.layers if hasattr(params, "layers") else params


def _matmul_flops(args, kwargs) -> list[float]:
    params = args[0] if args else kwargs["params"]
    inputs = args[2] if len(args) > 2 else kwargs["inputs"]
    n = inputs.shape[0] if inputs.ndim == 2 else 1
    return [2.0 * n * w.shape[0] * w.shape[1] for w in _layers(params)]


def forward_work(args, kwargs, result):
    """FLOPs of a forward pass: 2 per multiply-add of every layer matmul."""
    return sum(_matmul_flops(args, kwargs)), None


def backprop_work(args, kwargs, result):
    """FLOPs a gradient needs given only weights and inputs: the forward
    pass, every weight gradient, and the error propagated below each layer
    except the first."""
    per = _matmul_flops(args, kwargs)
    return 3.0 * sum(per) - per[0], None


def train_work(args, kwargs, result):
    """Iterations run and the useful share: best-iterate index plus one."""
    best = int(result.trace[:, 1].argmin()) + 1
    return 0.0, {"iters": result.iterations, "useful_iters": best}


def count_only(args, kwargs, result):
    """Marks a patch that counts calls without recording spans."""


# (module, attribute, span name, work function).
PATCHES = (
    ("erm", "forward", "netcore.forward", forward_work),
    ("erm", "backprop", "netcore.backprop", backprop_work),
    ("oracles", "forward", "netcore.forward", forward_work),
    ("oracles", "backprop", "netcore.backprop", backprop_work),
    ("norms", "pesv_norm", "norms.pesv_norm", None),
    ("norms", "pesv_subgradient", "norms.pesv_subgradient", None),
    ("norms", "weight_decay_norm", "norms.weight_decay", None),
    ("norms", "weight_decay_subgradient", "norms.weight_decay", None),
    ("norms", "mixed_max_norm", "norms.mixed_max", None),
    ("norms", "mixed_max_subgradient", "norms.mixed_max", None),
    ("norms", "balance_relu", "norms.balance_relu", None),
    ("erm", "train", "erm.train", train_work),
    ("erm", "sample_dataset", "erm.sample_dataset", None),
    ("erm", "generalization_error_mc", "erm.generalization_error_mc", None),
    ("oracles", "rademacher_mc", "oracles.rademacher_mc", None),
    ("oracles", "lemma1_scan", "oracles.lemma_scans", None),
    ("oracles", "lemma2_scan", "oracles.lemma_scans", None),
    ("oracles", "covering_packing_lower_bound", "oracles.packing", None),
    ("oracles", "pointwise_audit", "oracles.pointwise_audit", None),
    ("oracles", "equivalence_check_relu", "oracles.equivalence", None),
    ("theory", "double_descent_sweep", "theory.double_descent_sweep", None),
    ("theory", "gen_bound_encompassing", "theory.gen_bound_encompassing", count_only),
    ("cli", "parse_config", "config.parse_config", None),
)


class NullRecorder:
    """Stand-in for untraced passes: spans cost nothing."""

    def span(self, name):
        return contextlib.nullcontext()


class Recorder:
    """Spans of one process, kept in flat arrays until the run ends."""

    def __init__(self, dump_dir: Path):
        self.dump_dir = Path(dump_dir)
        self.names: list[str] = []
        self.runs: list[str] = []
        self.run = -1
        self.tables: list[dict] = []  # merged tables of forked workers
        self._clear()
        multiprocessing.util.register_after_fork(self, Recorder._start_worker)

    def _clear(self) -> None:
        self.pid = os.getpid()
        self.name = array.array("i")
        self.run_of = array.array("i")
        self.parent = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.work = array.array("d")
        self.extra: dict[int, dict] = {}
        self.counts: Counter = Counter()
        self.stack: list[int] = []

    def _start_worker(self) -> None:
        self._clear()
        self.tables = []
        multiprocessing.util.Finalize(self, self._dump, exitpriority=100)

    def _dump(self) -> None:
        table = {
            k: v.tolist() if isinstance(v, array.array) else v
            for k, v in self.table().items()
        }
        with open(self.dump_dir / f"worker-{self.pid}.json", "w") as fh:
            json.dump(table, fh)

    def _id(self, table: list[str], key: str) -> int:
        try:
            return table.index(key)
        except ValueError:
            table.append(key)
            return len(table) - 1

    def set_run(self, run_id: str) -> None:
        self.run = self._id(self.runs, run_id)

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.run_of.append(self.run)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.work.append(0.0)
        self.end.append(math.nan)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(self._id(self.names, name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, work=None):
        if work is count_only:
            counts = self.counts

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        name_id = self._id(self.names, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if work is not None:
                flops, extra = work(args, kwargs, result)
                self.work[idx] = flops
                if extra:
                    self.extra[idx] = extra
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, modules: dict):
        """Wrap every patch target that exists; restore them on exit."""
        saved = []
        try:
            for mod_name, attr, name, work in PATCHES:
                module = modules[mod_name]
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn, work))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def table(self) -> dict:
        return {
            "pid": self.pid,
            "names": self.names,
            "runs": self.runs,
            "name": self.name,
            "run": self.run_of,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "work": self.work,
            "extra": {str(k): v for k, v in self.extra.items()},
            "counts": dict(self.counts),
        }

    def collect_workers(self) -> int:
        """Merge and remove the span files forked workers left; returns how
        many were found."""
        found = 0
        for path in sorted(self.dump_dir.glob("worker-*.json")):
            with open(path) as fh:
                self.tables.append(json.load(fh))
            path.unlink()
            found += 1
        return found

    def all_tables(self) -> list[dict]:
        return [self.table()] + self.tables

    def write_csv(self, path: Path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write("pid,span,parent,run,name,start_s,end_s\n")
            for t in self.all_tables():
                for i, (n, r, p, s, e) in enumerate(
                    zip(t["name"], t["run"], t["parent"], t["start"], t["end"])
                ):
                    fh.write(
                        f"{t['pid']},{i},{p},{t['runs'][r]},{t['names'][n]},{s!r},{e!r}\n"
                    )


def aggregate(tables: list[dict]) -> tuple[dict, Counter]:
    """Per span name: calls, summed self and total time, work and extras."""
    stats: dict[str, dict] = {}
    counts: Counter = Counter()
    for t in tables:
        counts.update(t["counts"])
        dur = [e - s for s, e in zip(t["start"], t["end"])]
        covered = [0.0] * len(dur)
        for i, p in enumerate(t["parent"]):
            if p >= 0:
                covered[p] += dur[i]
        for i, n in enumerate(t["name"]):
            st = stats.setdefault(
                t["names"][n],
                {"calls": 0, "self_s": 0.0, "total_s": 0.0, "work": 0.0, "extra": Counter()},
            )
            st["calls"] += 1
            st["self_s"] += dur[i] - covered[i]
            st["total_s"] += dur[i]
            st["work"] += t["work"][i]
            extra = t["extra"].get(str(i))
            if extra:
                st["extra"].update(extra)
    return stats, counts


def layer_metrics(tables: list[dict], passes: int, bench: dict, overhead: float) -> dict:
    """Per-layer metrics per traced pass.  ``bench`` holds per-pass values
    the workload measured itself, such as ascent steps or CLI output bytes."""
    stats, counts = aggregate(tables)
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "work": 0.0, "extra": Counter()}

    def st(name):
        return stats.get(name, empty)

    def ratio(a, b):
        return a / b if b else 0.0

    fwd, bwd = st("netcore.forward"), st("netcore.backprop")
    train, rad = st("erm.train"), st("oracles.rademacher_mc")
    values = {
        "netcore.forward.calls": fwd["calls"],
        "netcore.forward.self_s": fwd["self_s"],
        "netcore.backprop.calls": bwd["calls"],
        "netcore.backprop.self_s": bwd["self_s"],
        "norms.pesv_norm.calls": st("norms.pesv_norm")["calls"],
        "erm.train.calls": train["calls"],
        "erm.train.iters": train["extra"]["iters"],
        "theory.gen_bound_encompassing.calls": counts["theory.gen_bound_encompassing"],
    }
    for metric, span in (
        ("norms.pesv_norm.self_s", "norms.pesv_norm"),
        ("norms.pesv_subgradient.self_s", "norms.pesv_subgradient"),
        ("norms.weight_decay.self_s", "norms.weight_decay"),
        ("norms.mixed_max.self_s", "norms.mixed_max"),
        ("norms.balance_relu.self_s", "norms.balance_relu"),
        ("erm.train.self_s", "erm.train"),
        ("erm.sample_dataset.self_s", "erm.sample_dataset"),
        ("erm.generalization_error_mc.self_s", "erm.generalization_error_mc"),
        ("oracles.rademacher_mc.self_s", "oracles.rademacher_mc"),
        ("oracles.lemma_scans.self_s", "oracles.lemma_scans"),
        ("oracles.packing.self_s", "oracles.packing"),
        ("oracles.pointwise_audit.self_s", "oracles.pointwise_audit"),
        ("oracles.equivalence.self_s", "oracles.equivalence"),
        ("theory.double_descent_sweep.self_s", "theory.double_descent_sweep"),
        ("config.parse_config.self_s", "config.parse_config"),
        ("cli.bound.self_s", "cli.bound"),
        ("cli.train.self_s", "cli.train"),
        ("cli.sweep.self_s", "cli.sweep"),
    ):
        values[metric] = st(span)["self_s"]
    values = {k: v / passes for k, v in values.items()}
    for key in BENCH_MEASURED:
        values[key] = bench.get(key, 0.0)

    values["netcore.backprop_over_forward"] = ratio(
        ratio(bwd["self_s"], bwd["calls"]), ratio(fwd["self_s"], fwd["calls"])
    )
    values["netcore.gflops_computed"] = ratio(
        fwd["work"] + bwd["work"], fwd["self_s"] + bwd["self_s"]
    ) / 1e9
    values["erm.train.us_per_iter"] = 1e6 * ratio(train["total_s"], train["extra"]["iters"])
    values["erm.train.useful_iter_frac"] = ratio(
        train["extra"]["useful_iters"], train["extra"]["iters"]
    )
    values["oracles.ascent.us_per_step"] = 1e6 * ratio(
        rad["total_s"] / passes, values["oracles.ascent.steps"]
    )
    values["trace_overhead_frac"] = overhead
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in PER_LAYER}
