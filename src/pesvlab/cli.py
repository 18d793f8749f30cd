"""Command-line front end: ``pesvlab {bound|train|verify|sweep}``.

Exit codes: 0 success, 2 usage or configuration error, 3 I/O error,
4 numerical divergence, 5 a ``sweep`` task failed: it raised, or its worker
process was lost on its first run and on its rerun, alone in a fresh pool.
``sweep`` still writes every row, with ``nan`` values for a diverged or
failed task, and names each such task on stderr.

Every output's bytes are deterministic for a given configuration, seed and
BLAS build: ``sweep`` trains each row in a worker process that runs BLAS on
one thread, so its CSV does not depend on ``--jobs`` or the cores.
``train`` runs BLAS in the calling process, so its bytes can also change
with the OpenBLAS thread count from about ``n = 1000`` samples on.  A
timestamp comment line can be suppressed with ``--no-timestamp``.
"""

from __future__ import annotations

import argparse
import ctypes
import datetime
import difflib
import io
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from . import erm, oracles, theory
from .config import ConfigError, RunConfig, parse_config, parse_widths_spec
from .erm import DivergenceError
from .netcore import save_network

__all__ = ["main"]


# ---------------------------------------------------------------------------
# Configuration helpers
# ---------------------------------------------------------------------------


def _problem_from_config(cfg: RunConfig) -> tuple[erm.TeacherSpec, int, float, int]:
    """The teacher, sample count, noise level and data seed of ``[problem]``."""
    teacher, n = cfg.teacher(), cfg.need(("problem", "n"))
    return teacher, n, cfg["problem", "sigma_eps"], cfg["problem", "seed"]


def _width_grid(args, cfg: RunConfig) -> list[int]:
    """The width grid of ``--widths``, or else of ``[bounds] widths``."""
    if args.widths is None:
        widths = cfg["bounds", "widths"]
        if widths is None:
            raise ConfigError(f"{cfg.path}: no width grid given (use --widths or [bounds] widths)")
        return widths
    try:
        return parse_widths_spec(args.widths)
    except ValueError as exc:
        raise ConfigError(f"--widths={args.widths!r}: {exc}") from None


def _pool_size(jobs: int, tasks: int) -> int:
    """Worker processes for a sweep: at most one per task and per CPU this
    process may run on, as its affinity mask says where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(jobs, tasks, cpus))


def _openblas(verb: str):
    """``openblas_{verb}_num_threads`` of the OpenBLAS numpy links, or None
    when numpy links another BLAS.  The OpenBLAS that numpy wheels bundle
    names it with a ``scipy_`` prefix and, for 64-bit integers, a ``64_``
    suffix; the lookup goes through a numpy extension, whose dependencies
    include the BLAS library."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            fn = getattr(lib, f"{prefix}_{verb}_num_threads{suffix}", None)
            if fn is not None:
                return fn
    return None


def _one_blas_thread() -> None:
    """Pool initializer: run this worker's BLAS calls on one thread, so that a
    sweep's bytes depend neither on ``--jobs`` nor on the cores.  A no-op
    when numpy's BLAS has no thread count to set."""
    set_threads = _openblas("set")
    if set_threads is not None:
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _emit(args, path: str | None, body: str) -> None:
    """Write ``body`` to ``path``, or to stdout without one, after a
    timestamp comment unless ``--no-timestamp`` is given."""
    if not args.no_timestamp:
        body = f"# generated {datetime.datetime.now().isoformat()}\n" + body
    if path:
        with open(path, "w", newline="\n") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


def _write_svg(path: str, xs, ys, label: str) -> None:
    """Minimal deterministic polyline chart."""
    w, h, pad = 640, 400, 45
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    xs_span = (xmax - xmin) or 1.0
    ys_span = (ymax - ymin) or 1.0
    pts = " ".join(
        f"{pad + (x - xmin) / xs_span * (w - 2 * pad):.2f},"
        f"{h - pad - (y - ymin) / ys_span * (h - 2 * pad):.2f}"
        for x, y in zip(xs, ys)
    )
    with open(path, "w", newline="\n") as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">\n'
            f'<rect width="{w}" height="{h}" fill="white"/>\n'
            f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="1"/>\n'
            f'<text x="{pad}" y="20" font-size="12">{label}</text>\n'
            "</svg>\n"
        )


def cmd_bound(args) -> int:
    cfg = parse_config(args.config)
    widths = _width_grid(args, cfg)
    bcfg, pattern = cfg.bound_config()
    result = theory.double_descent_sweep(bcfg, widths, pattern)
    body = io.StringIO()
    theory.sweep_to_csv(result, body)
    _emit(args, args.out, body.getvalue())
    if args.svg:
        _write_svg(args.svg, result.widths, result.totals(), "bound total vs width")

    print(f"rows: {len(result.widths)}")
    print(f"regime switch width: {result.switch_width}")
    print(f"local minima at widths: {list(result.minima)}")
    print(f"local maxima at widths: {list(result.maxima)}")
    return 0


def cmd_train(args) -> int:
    cfg = parse_config(args.config)
    teacher, n, sigma, seed = _problem_from_config(cfg)
    act = cfg["network", "activation"]
    try:
        res, nu, emp, gen, gen_se = erm.fit_and_measure(
            teacher, n, sigma, seed, cfg.need(("network", "widths")), cfg["optimizer", "seed"],
            cfg["optimizer", "lambda"], cfg.loss(teacher), cfg["optimizer", "regularizer"],
            cfg.optimizer(), act, 4096,
        )
        params, trace = res.params, res.trace
    except DivergenceError as exc:
        res, params, trace = None, exc.last_finite, np.empty((0, 4))
        print(f"error: {exc}", file=sys.stderr)

    if args.out:
        save_network(args.out, params, act)
    trace_path = args.trace or (args.out + ".trace.csv" if args.out else None)
    if trace_path:
        lines = (
            f"{int(row[0])},{float(row[1])!r},{float(row[2])!r},{float(row[3])!r}\n"
            for row in trace
        )
        _emit(args, trace_path, "iteration,objective,empirical_mse,nu\n" + "".join(lines))
    if res is None:
        return 4

    print(f"final_objective={res.best_objective!r}")
    print(f"nu={nu!r}")
    print(f"empirical_error={emp!r}")
    print(f"generalization_mc={gen!r} stderr={gen_se!r}")
    return 0


def cmd_verify(args) -> int:
    names = [name for name, _, _ in oracles.SUITES] + ["all"]
    if args.suite not in names:
        hint = difflib.get_close_matches(args.suite, names, n=1)
        msg = f"error: unknown suite {args.suite!r}"
        if hint:
            msg += f" (did you mean {hint[0]!r}?)"
        print(msg, file=sys.stderr)
        return 2
    checks: list[dict] = []
    for name, run, soft in oracles.SUITES:
        if args.suite in (name, "all"):
            for check in run():
                check["soft"] = soft
                checks.append(check)
                status = "PASS" if check["pass"] else "FAIL"
                print(f"{status} [{'soft' if soft else 'hard'}] {check['name']}")
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            json.dump({"suite": args.suite, "checks": checks}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if all(c["pass"] or c["soft"] for c in checks) else 1


def _sweep_task(fit_args):
    """One sweep row: ``erm.fit_and_measure(*fit_args)``'s objective and four
    measurements, then ``None``; for a diverged run, five ``nan`` and the
    divergence message."""
    try:
        res, *measured = erm.fit_and_measure(*fit_args)
    except DivergenceError as exc:
        return (math.nan,) * 5 + (str(exc),)
    return (res.best_objective, *measured, None)


def cmd_sweep(args) -> int:
    for flag, value in (("--trials", args.trials), ("--jobs", args.jobs)):
        if value < 1:
            print(f"error: {flag} must be at least 1", file=sys.stderr)
            return 2
    cfg = parse_config(args.config)
    teacher, n, sigma, base_seed = _problem_from_config(cfg)
    widths = _width_grid(args, cfg)
    bcfg, pattern = cfg.bound_config()
    loss, opt = cfg.loss(teacher), cfg.optimizer()
    lam, reg = cfg["optimizer", "lambda"], cfg["optimizer", "regularizer"]
    act = cfg["network", "activation"]
    bounds = dict(zip(widths, theory.double_descent_sweep(bcfg, widths, pattern).totals()))

    # The grid is strictly ascending, so the rows come out sorted.
    tasks = [(w, base_seed + i) for w in widths for i in range(args.trials)]
    fits = [
        (teacher, n, sigma, seed, tuple(w * p for p in pattern), seed, lam, loss, reg, opt, act,
         2048)
        for w, seed in tasks
    ]
    workers = _pool_size(args.jobs, len(tasks))
    with ProcessPoolExecutor(workers, initializer=_one_blas_thread) as pool:
        futures = [pool.submit(_sweep_task, fit) for fit in fits]
    rows, failed = [], False
    for fit, future in zip(fits, futures):
        if isinstance(future.exception(), BrokenProcessPool):
            # A dead worker breaks the pool and loses every unfinished task,
            # most through no fault of their own: run each once more, alone.
            with ProcessPoolExecutor(1, initializer=_one_blas_thread) as pool:
                future = pool.submit(_sweep_task, fit)
        exc = future.exception()
        if exc is None:
            rows.append(future.result())
        else:  # the task raised, or its worker was lost again
            rows.append((math.nan,) * 5 + (f"task failed: {type(exc).__name__}: {exc}",))
            failed = True

    out_lines = [
        "m,seed,objective,nu,empirical_error,generalization_mc,generalization_se,bound_total\n"
    ]
    for (w, seed), row in zip(tasks, rows):
        vals = [str(w), str(seed)] + [repr(float(v)) for v in (*row[:5], bounds[w])]
        out_lines.append(",".join(vals) + "\n")
    _emit(args, args.out, "".join(out_lines))
    missing = [(w, seed, row[5]) for (w, seed), row in zip(tasks, rows) if row[5] is not None]
    for w, seed, message in missing:
        print(f"error: m={w} seed={seed}: {message}", file=sys.stderr)
    return 5 if failed else 4 if missing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pesvlab",
        description="Path-regularized network training, bound curves, and verification oracles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="evaluate the bound curve over a width grid")
    p_bound.add_argument("--config", required=True)
    p_bound.add_argument("--out")
    p_bound.add_argument("--widths")
    p_bound.add_argument("--svg")
    p_bound.add_argument("--no-timestamp", action="store_true")

    p_train = sub.add_parser("train", help="train a penalized network")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out")
    p_train.add_argument("--trace")
    p_train.add_argument("--no-timestamp", action="store_true")

    p_verify = sub.add_parser("verify", help="run verification oracles")
    p_verify.add_argument("suite", nargs="?", default="all")
    p_verify.add_argument("--out")

    p_sweep = sub.add_parser("sweep", help="train across a width grid and seeds")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out")
    p_sweep.add_argument("--widths")
    p_sweep.add_argument("--trials", type=int, default=1)
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--no-timestamp", action="store_true")

    args = parser.parse_args(argv)
    handlers = {
        "bound": cmd_bound,
        "train": cmd_train,
        "verify": cmd_verify,
        "sweep": cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
