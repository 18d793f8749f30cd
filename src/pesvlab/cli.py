"""Command-line front end: ``pesvlab {bound|train|verify|sweep}``.

Exit codes: 0 success, 2 usage or configuration error, 3 I/O error,
4 numerical divergence (``sweep`` still writes every row, with ``nan``
values for a diverged task).  All emitted CSV bodies are deterministic given
the configuration and seed; a timestamp comment line can be suppressed with
``--no-timestamp``.
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

import numpy as np

from . import erm, norms, oracles, theory
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


def _optimizer_from_config(cfg: RunConfig) -> tuple[erm.OptimizerConfig, float, erm.Penalty]:
    keys = ("step_size", "max_iters", "tolerance", "schedule")
    opt = erm.OptimizerConfig(**{key: cfg["optimizer", key] for key in keys})
    return opt, cfg["optimizer", "lambda"], cfg["optimizer", "regularizer"]


def _pool_size(jobs: int, tasks: int) -> int:
    """Worker processes for a sweep: at most one per task and per core."""
    return max(1, min(jobs, tasks, os.cpu_count() or 1))


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


def _worker_blas_threads(workers: int) -> int | None:
    """BLAS threads for each of ``workers`` sweep processes: this process's
    count, capped so that all workers' threads fit on the cores.  Workers
    forked with OpenBLAS's default of one thread per core would otherwise
    put ``workers`` times the cores' threads on them.  None when numpy's BLAS
    has no thread count to read and set."""
    get = _openblas("get")
    if get is None:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    return max(1, min(get(), (os.cpu_count() or 1) // workers))


def _set_blas_threads(threads: int | None) -> None:
    """Pool initializer: run this worker's BLAS calls on ``threads`` threads."""
    if threads is not None:
        set_threads = _openblas("set")
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(threads)


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
    ds = erm.sample_dataset(teacher, n, sigma, seed=seed)

    act = cfg["network", "activation"]
    widths = cfg.need(("network", "widths"))
    base = cfg["loss", "range_bound"]
    if base is None:
        base = erm.LossSpec.mse_for(teacher, sigma).range_bound
    loss = erm.LossSpec.parse(cfg["loss", "kind"], base)
    opt, lam, reg = _optimizer_from_config(cfg)
    init = erm.init_params(widths, ds.input_dim, seed=cfg["optimizer", "seed"])

    diverged = False
    try:
        res = erm.train(init, ds, lam, loss, reg, opt, act)
        params = res.params
        trace = res.trace
        final_obj = res.best_objective
    except DivergenceError as exc:
        diverged = True
        params = exc.last_finite
        trace = np.empty((0, 4))
        final_obj = math.nan
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
    if diverged:
        return 4

    emp = erm.empirical_error(params, act, teacher, ds)
    gen, gen_se = erm.generalization_error_mc(params, act, teacher, 4096, seed=seed + 1)
    print(f"final_objective={final_obj!r}")
    print(f"nu={norms.pesv_norm(params)!r}")
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


def _sweep_task(payload):
    """One sweep row: ``(m, seed, five measured values, divergence message)``;
    a diverged run has ``nan`` values and its message, the others ``None``."""
    (width, seed, teacher, n, sigma, pattern, opt, lam, reg, act) = payload
    ds = erm.sample_dataset(teacher, n, sigma, seed=seed)
    loss = erm.LossSpec.mse_for(teacher, sigma)
    student_widths = tuple(width * p for p in pattern)
    init = erm.init_params(student_widths, ds.input_dim, seed=seed)
    try:
        res = erm.train(init, ds, lam, loss, reg, opt, act)
    except DivergenceError as exc:
        return (width, seed) + (math.nan,) * 5 + (str(exc),)
    emp = erm.empirical_error(res.params, act, teacher, ds)
    gen, gen_se = erm.generalization_error_mc(res.params, act, teacher, 2048, seed=seed + 1)
    nu = norms.pesv_norm(res.params)
    return (width, seed, res.best_objective, nu, emp, gen, gen_se, None)


def cmd_sweep(args) -> int:
    for flag, value in (("--trials", args.trials), ("--jobs", args.jobs)):
        if value < 1:
            print(f"error: {flag} must be at least 1", file=sys.stderr)
            return 2
    cfg = parse_config(args.config)
    teacher, n, sigma, base_seed = _problem_from_config(cfg)
    widths = _width_grid(args, cfg)
    bcfg, pattern = cfg.bound_config()
    opt, lam, reg = _optimizer_from_config(cfg)
    act = cfg["network", "activation"]

    tasks = [
        (w, base_seed + i, teacher, n, sigma, pattern, opt, lam, reg, act)
        for w in widths
        for i in range(args.trials)
    ]
    workers = _pool_size(args.jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_set_blas_threads,
            initargs=(_worker_blas_threads(workers),),
        ) as pool:
            rows = list(pool.map(_sweep_task, tasks))
    else:
        rows = [_sweep_task(t) for t in tasks]
    rows.sort(key=lambda r: (r[0], r[1]))

    out_lines = [
        "m,seed,objective,nu,empirical_error,generalization_mc,generalization_se,bound_total\n"
    ]
    for row in rows:
        w = row[0]
        bound = theory.gen_bound_encompassing(bcfg, tuple(w * p for p in pattern)).total
        vals = [str(w), str(row[1])] + [repr(float(v)) for v in row[2:7]] + [repr(float(bound))]
        out_lines.append(",".join(vals) + "\n")
    _emit(args, args.out, "".join(out_lines))
    diverged = [row for row in rows if row[7] is not None]
    for row in diverged:
        print(f"error: m={row[0]} seed={row[1]}: {row[7]}", file=sys.stderr)
    return 4 if diverged else 0


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
