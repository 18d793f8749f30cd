"""The three benchmark workloads.

Each workload builds its inputs from the workload seed in its constructor,
which is the set-up the benchmark times as ``setup_s``: imports (of this
module), teacher and data generation, and warm-up.  ``run`` performs one
pass of work; ``check`` verifies that pass's outputs.  Only names listed in a
pesvlab module's ``__all__`` are called, plus ``pesvlab.cli.main``.
"""

from __future__ import annotations

import configparser
import contextlib
import io
import math
import resource
import string
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pesvlab import cli, erm, netcore, norms, oracles, theory

# Modules whose attributes the traced run wraps (see spans.PATCHES).
MODULES = {"cli": cli, "erm": erm, "norms": norms, "oracles": oracles, "theory": theory}
HERE = Path(__file__).resolve().parent


@dataclass
class Pass:
    """One pass's results, and the wall time of the calls in it that ran
    training iterations or ascent steps."""

    iter_wall: float
    results: dict


@dataclass
class Verdict:
    """Checked outcome of one pass: iterations done (counted from inputs and
    results), named checks, and per-layer values the workload measures itself."""

    iters: int
    checks: list[tuple[str, bool]]
    layer: dict = field(default_factory=dict)


def derive_seeds(seed: int, count: int) -> list[int]:
    return [int(v) for v in np.random.SeedSequence(seed).generate_state(count)]


def unit_teacher(d: int, widths, seed: int) -> erm.TeacherSpec:
    """Relu teacher rescaled on its output row to path norm 1."""
    params = erm.init_params(widths, d, seed=seed)
    layers = [np.array(w) for w in params.layers]
    layers[-1] /= norms.pesv_norm(params)
    return erm.TeacherSpec.create(
        netcore.NetParams(tuple(layers)), netcore.ActivationSpec.relu()
    )


def ball_points(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """``n`` points uniform in the unit ball of ``R^d``."""
    g = rng.standard_normal((n, d))
    g /= np.linalg.norm(g, axis=1)[:, None]
    return g * rng.random(n)[:, None] ** (1.0 / d)


def blas_warm_up() -> None:
    """The first large matmul starts the BLAS thread pool."""
    a = np.ones((256, 256))
    a @ a


def local_extrema(xs, ys) -> tuple[list, list]:
    minima, maxima = [], []
    for i in range(1, len(ys) - 1):
        if ys[i] < ys[i - 1] and ys[i] < ys[i + 1]:
            minima.append(xs[i])
        if ys[i] > ys[i - 1] and ys[i] > ys[i + 1]:
            maxima.append(xs[i])
    return minima, maxima


def curve_checks(prefix: str, xs, ys) -> list[tuple[str, bool]]:
    """The README bound curve has one minimum at 33 and one maximum at 396."""
    minima, maxima = local_extrema(xs, ys)
    return [
        (f"{prefix}.finite", all(math.isfinite(y) for y in ys)),
        (f"{prefix}.minimum_at_33", len(minima) == 1 and abs(minima[0] - 33) <= 2),
        (f"{prefix}.maximum_at_396", len(maxima) == 1 and abs(maxima[0] - 396) <= 5),
    ]


def close(a: float, b: float, rel: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rel * abs(b)


class SmallRuns:
    """Shortened regularizer-equivalence experiment: five init seeds times
    three penalties of tiny relu training runs, then balancing."""

    WIDTHS = (16,)
    LAM = 0.01

    def __init__(self, seed: int, smoke: bool, scratch: Path):
        s = derive_seeds(seed, 7)
        self.act = netcore.ActivationSpec.relu()
        self.teacher = unit_teacher(2, (2,), s[0])
        self.data = erm.sample_dataset(self.teacher, 32, 0.05, seed=s[1])
        self.loss = erm.LossSpec.mse_for(self.teacher, 0.05)
        self.opt = erm.OptimizerConfig(step_size=0.5, max_iters=20 if smoke else 1000)
        self.seeds = tuple(s[2:4] if smoke else s[2:7])
        self.first_rows = None
        blas_warm_up()
        warm = erm.OptimizerConfig(step_size=0.5, max_iters=2)
        for kind in ("pesv", "weight_decay", "mixed_max"):
            init = erm.init_params(self.WIDTHS, 2, seed=0)
            erm.train(init, self.data, self.LAM, self.loss, erm.Penalty(kind), warm, self.act)

    def run(self, rec) -> Pass:
        t0 = time.perf_counter()
        eq = oracles.equivalence_check_relu(
            self.data, self.LAM, self.WIDTHS, self.seeds, self.act, self.loss, self.opt
        )
        iter_wall = time.perf_counter() - t0
        pesv = erm.Penalty("pesv")
        balanced = []
        for seed in self.seeds:
            init = erm.init_params(self.WIDTHS, 2, seed=seed)
            bal = norms.balance_relu(init, self.act)
            objs = [
                erm.objective(p, self.data, self.LAM, self.loss, pesv, self.act)
                for p in (init, bal)
            ]
            balanced.append((init, bal, *objs))
        return Pass(iter_wall, {"equivalence": eq, "balanced": balanced})

    def check(self, p: Pass) -> Verdict:
        rows = p.results["equivalence"].rows
        checks = [
            ("equivalence.rows", len(rows) == len(self.seeds)),
            (
                "equivalence.finite",
                all(math.isfinite(v) for r in rows for k, v in r.items() if k != "seed"),
            ),
        ]
        if self.first_rows is None:
            self.first_rows = rows
        else:
            checks.append(("equivalence.repeatable", rows == self.first_rows))
        x = self.data.inputs
        for init, bal, obj_init, obj_bal in p.results["balanced"]:
            f0 = netcore.forward(init, self.act, x)
            f1 = netcore.forward(bal, self.act, x)
            scale = max(1.0, float(np.max(np.abs(f0))))
            checks += [
                ("balance.outputs_kept", float(np.max(np.abs(f1 - f0))) <= 1e-9 * scale),
                ("balance.pesv_objective_kept", close(obj_bal, obj_init, 1e-9)),
                (
                    "balance.weight_decay_not_increased",
                    norms.weight_decay_norm(bal)
                    <= norms.weight_decay_norm(init) * (1.0 + 1e-12),
                ),
            ]
        return Verdict(3 * len(rows) * self.opt.max_iters, checks)


def read_csv(data: bytes) -> tuple[str, list[list[str]]]:
    lines = [ln for ln in data.decode().splitlines() if ln and not ln.startswith("#")]
    return lines[0], [ln.split(",") for ln in lines[1:]]


class CliWide:
    """A command-line session: ``bound`` over widths 1..1000, ``train --trace``
    of a depth-3 width-256 network at n=512, and ``sweep --trials 2 --jobs 2``
    over widths 32..256 with pattern 1,1."""

    TRIALS = 2
    JOBS = 2
    OUTPUTS = ("bound.csv", "model.json", "trace.csv", "sweep.csv")

    def __init__(self, seed: int, smoke: bool, scratch: Path):
        s = derive_seeds(seed, 3)
        self.teacher = unit_teacher(2, (2,), s[0])
        teacher_file = scratch / "teacher.json"
        netcore.save_network(teacher_file, self.teacher.teacher, self.teacher.act)
        self.bound_cfg = scratch / "bound.cfg"
        self.bound_cfg.write_text((HERE / "bound.cfg").read_text())
        # One template, two configs: ``train`` runs long enough to dominate
        # the pass; the sweep's oversubscribed process pool makes its time
        # vary several-fold from pass to pass, so it runs few iterations.
        template = string.Template((HERE / "wide.cfg").read_text())
        self.cfg, self.ini = {}, {}
        for cmd, iters in (("warm", 2), ("train", 3 if smoke else 400), ("sweep", 2 if smoke else 10)):
            path = scratch / f"{cmd}.cfg"
            path.write_text(
                template.substitute(
                    data_seed=s[1], init_seed=s[2], teacher_file=teacher_file,
                    max_iters=iters,
                )
            )
            self.cfg[cmd] = path
            self.ini[cmd] = configparser.ConfigParser(interpolation=None)
            self.ini[cmd].read(path)
        problem = self.ini["train"]["problem"]
        self.data = erm.sample_dataset(
            self.teacher,
            problem.getint("n"),
            problem.getfloat("sigma_eps"),
            seed=problem.getint("seed"),
        )
        self.paths = {name: scratch / name for name in self.OUTPUTS}
        self.first_bytes = None
        blas_warm_up()
        # A first short training run touches the memory a full-size one uses.
        self._cli("train", "--config", self.cfg["warm"], "--no-timestamp")

    def _cli(self, *argv) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main([str(a) for a in argv])
        return rc, out.getvalue(), err.getvalue()

    def run(self, rec) -> Pass:
        paths = self.paths
        res = {}
        with rec.span("cli.bound"):
            res["bound"] = self._cli(
                "bound", "--config", self.bound_cfg, "--out", paths["bound.csv"],
                "--no-timestamp",
            )
        t0 = time.perf_counter()
        with rec.span("cli.train"):
            res["train"] = self._cli(
                "train", "--config", self.cfg["train"], "--out", paths["model.json"],
                "--trace", paths["trace.csv"], "--no-timestamp",
            )
        cpu0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        with rec.span("cli.sweep"):
            res["sweep"] = self._cli(
                "sweep", "--config", self.cfg["sweep"], "--trials", self.TRIALS,
                "--jobs", self.JOBS, "--out", paths["sweep.csv"], "--no-timestamp",
            )
        cpu1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        iter_wall = time.perf_counter() - t0
        res["child_cpu_s"] = (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime)
        return Pass(iter_wall, res)

    def check(self, p: Pass) -> Verdict:
        res = p.results
        files = {name: path.read_bytes() for name, path in self.paths.items()}
        checks = [(f"{cmd}.exit_0", res[cmd][0] == 0) for cmd in ("bound", "train", "sweep")]
        for cmd in ("bound", "train", "sweep"):
            if res[cmd][0] != 0:
                sys.stderr.write(f"pesvlab {cmd} exited {res[cmd][0]}:\n{res[cmd][2]}")
        opt = self.ini["train"]["optimizer"]
        bounds = self.ini["sweep"]["bounds"]

        header, rows = read_csv(files["bound.csv"])
        checks.append(("bound.rows", header.startswith("m,") and len(rows) == 1000))
        checks += curve_checks("bound", [int(r[0]) for r in rows], [float(r[3]) for r in rows])

        header, trace = read_csv(files["trace.csv"])
        objs = [float(r[1]) for r in trace]
        finals = [
            float(line.partition("=")[2])
            for line in res["train"][1].splitlines()
            if line.startswith("final_objective=")
        ]
        params, act = netcore.network_from_json(files["model.json"].decode())
        model_obj = erm.objective(
            params,
            self.data,
            opt.getfloat("lambda"),
            erm.LossSpec.mse_for(self.teacher, self.ini["train"]["problem"].getfloat("sigma_eps")),
            erm.Penalty(opt["regularizer"]),
            act,
        )
        checks += [
            ("train.trace_rows", len(trace) == opt.getint("max_iters")),
            ("train.objectives_finite", all(math.isfinite(v) for v in objs)),
            ("train.final_is_best", len(finals) == 1 and finals[0] == min(objs)),
            ("train.model_objective", len(finals) == 1 and close(model_obj, finals[0], 1e-9)),
        ]

        header, rows = read_csv(files["sweep.csv"])
        widths = [int(w) for w in bounds["widths"].split(",")]
        pattern = [int(v) for v in bounds["pattern"].split(",")]
        base = self.ini["sweep"]["problem"].getint("seed")
        bcfg = theory.BoundConfig(
            n=bounds.getfloat("n"),
            d=bounds.getint("d"),
            L=len(pattern) + 1,
            L_sigma=bounds.getfloat("L_sigma"),
            sigma_eps=bounds.getfloat("sigma_eps"),
            M=bounds.getfloat("M"),
        )
        expected = {(w, base + i) for w in widths for i in range(self.TRIALS)}
        checks += [
            ("sweep.rows", {(int(r[0]), int(r[1])) for r in rows} == expected
             and len(rows) == len(expected)),
            ("sweep.finite", all(math.isfinite(float(v)) for r in rows for v in r[2:])),
            (
                "sweep.bound_column",
                all(
                    close(
                        float(r[-1]),
                        theory.gen_bound_encompassing(
                            bcfg, tuple(int(r[0]) * q for q in pattern)
                        ).total,
                        1e-12,
                    )
                    for r in rows
                ),
            ),
        ]

        if self.first_bytes is None:
            self.first_bytes = files
        else:
            checks += [
                (f"{name}.byte_identical", files[name] == self.first_bytes[name])
                for name in self.OUTPUTS
            ]
        out_bytes = sum(len(b) for b in files.values()) + sum(
            len(res[cmd][1].encode()) for cmd in ("bound", "train", "sweep")
        )
        layer = {
            "cli.out_bytes": out_bytes,
            "cli.sweep.tasks": len(rows),
            "cli.sweep.child_cpu_s": res["child_cpu_s"],
        }
        sweep_iters = self.ini["sweep"]["optimizer"].getint("max_iters")
        return Verdict(len(trace) + len(rows) * sweep_iters, checks, layer)


class OracleSuite:
    """The verification oracles without training: Monte Carlo Rademacher
    ascent, exact lemma scans, the entropy packing grid, the pointwise audit,
    Maurey sampling and the double-descent bound sweep."""

    # Worst lhs/bound ratios of lemma1_scan(40) and lemma2_scan(12).
    LEMMA1_WORST = 0.47497395833333333
    LEMMA2_WORST = 0.9064068310601371

    def __init__(self, seed: int, smoke: bool, scratch: Path):
        s = derive_seeds(seed, 3)
        rng = np.random.default_rng(s[0])
        self.points = ball_points(rng, 64, 2)
        self.atoms = rng.standard_normal((10, 6))
        w = rng.random(10)
        self.weights = w / w.sum()
        self.seed = s[1]
        self.pack_seeds = range(s[2], s[2] + (2 if smoke else 20))
        self.trials, self.starts, self.steps = (2, 2, 5) if smoke else (8, 16, 120)
        self.audit = (50, 10) if smoke else (1000, 100)
        self.bound_cfg = theory.BoundConfig(n=1e4, d=1, L=2, sigma_eps=0.1, M=1.0)
        self.first_estimate = None
        blas_warm_up()

    def run(self, rec) -> Pass:
        t0 = time.perf_counter()
        rad = oracles.rademacher_mc(
            (8,), 1.0, self.points, trials=self.trials, n_starts=self.starts,
            inner_steps=self.steps, seed=self.seed,
        )
        iter_wall = time.perf_counter() - t0
        res = {
            "rademacher": rad,
            "lemma1": oracles.lemma1_scan(40),
            "lemma2": oracles.lemma2_scan(12),
            "packing": [
                oracles.covering_packing_lower_bound(
                    widths, delta, d=1, param_samples=200, seed=ps
                )
                for widths in ((1,), (2,))
                for delta in (0.5, 0.25)
                for ps in self.pack_seeds
            ],
            "pointwise": oracles.pointwise_audit(*self.audit, seed=self.seed),
            "maurey_orthonormal": oracles.maurey_sampling_check(
                np.eye(2), [0.5, 0.5], m=1, trials=10_000, seed=self.seed
            ),
            "maurey": [
                oracles.maurey_sampling_check(
                    self.atoms, self.weights, m=m, trials=4000, seed=self.seed + m
                )
                for m in (1, 4, 16)
            ],
            "sweep": theory.double_descent_sweep(self.bound_cfg, range(1, 1001)),
        }
        return Pass(iter_wall, res)

    def check(self, p: Pass) -> Verdict:
        res = p.results
        rad = res["rademacher"]
        ok1, worst1 = res["lemma1"]
        ok2, agree2, worst2 = res["lemma2"]
        orth = res["maurey_orthonormal"]
        sweep = res["sweep"]
        checks = [
            ("rademacher.below_bound", 0.0 <= rad.estimate <= rad.bound),
            ("lemma1.exact_pass", ok1 is True and close(worst1, self.LEMMA1_WORST, 1e-12)),
            (
                "lemma2.exact_pass",
                ok2 is True and agree2 is True and close(worst2, self.LEMMA2_WORST, 1e-12),
            ),
            ("packing.within_entropy", all(r.passed for r in res["packing"])),
            ("pointwise.bound_holds", res["pointwise"].passed),
            ("maurey.orthonormal", orth.passed and abs(orth.mean_sq_error - 0.5) <= 0.02),
            ("maurey.mixture", all(r.passed for r in res["maurey"])),
        ]
        checks += curve_checks("sweep", list(sweep.widths), sweep.totals())
        if self.first_estimate is None:
            self.first_estimate = rad.estimate
        else:
            checks.append(("rademacher.repeatable", rad.estimate == self.first_estimate))
        steps = rad.trials * self.starts * self.steps
        packs = res["packing"]
        layer = {
            "oracles.ascent.steps": steps,
            "oracles.packing.kept_frac": sum(r.packing_count for r in packs)
            / sum(r.samples for r in packs),
        }
        return Verdict(steps, checks, layer)


WORKLOADS = {"small_runs": SmallRuns, "cli_wide": CliWide, "oracle_suite": OracleSuite}
