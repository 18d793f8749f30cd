"""Command-line interface: exit codes, determinism, cross-module consistency."""

import ctypes
import hashlib
import json
import math
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from pesvlab import cli, config, erm, theory
from pesvlab.config import nonnegative, positive, sample_count
from pesvlab.erm import documented_teacher
from pesvlab.netcore import ActivationSpec, NetParams, network_to_json, save_network

ROOT = Path(__file__).resolve().parent.parent

BOUND_CFG = """\
[bounds]
n = 10000
d = 1
L = 2
L_sigma = 1
sigma_eps = 0.1
M = 1
widths = 1..60
pattern = 1
"""

TRAIN_CFG = """\
[problem]
d = 2
n = 24
sigma_eps = 0.05
seed = 3
teacher_widths = 2
teacher_seed = 11

[network]
widths = 6
activation = relu

[loss]
kind = mse

[optimizer]
step_size = 0.3
max_iters = 1500
regularizer = pesv
lambda = 0.01
seed = 5

[bounds]
n = 10000
d = 1
M = 1
sigma_eps = 0.1
widths = 2,4
pattern = 1
"""


# A sweep config of the shape of perfbench/wide.cfg, with the sample count
# left open and a few iterations.
WIDE_CFG = """\
[problem]
d = 2
n = {n}
sigma_eps = 0.05
seed = 1
teacher_widths = 2
teacher_seed = 11

[network]
widths = 256,256
activation = relu

[loss]
kind = mse

[optimizer]
step_size = 0.2
max_iters = 3
regularizer = pesv
lambda = 0.01
seed = 2

[bounds]
n = {n}
d = 2
L_sigma = 1
sigma_eps = 0.05
M = 1
widths = 64,256,300
pattern = 1,1
"""


@pytest.fixture
def bound_cfg(tmp_path):
    p = tmp_path / "bound.cfg"
    p.write_text(BOUND_CFG)
    return p


@pytest.fixture
def train_cfg(tmp_path):
    p = tmp_path / "train.cfg"
    p.write_text(TRAIN_CFG)
    return p


def line_of(text, line):
    """The 1-based number of ``line`` in the config ``text``."""
    return text.splitlines().index(line) + 1


def read_csv_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestBoundCommand:
    def test_row_matches_direct_evaluation(self, bound_cfg, tmp_path):
        out = tmp_path / "curve.csv"
        widths_arg = "1..1000"
        rc = cli.main(
            ["bound", "--config", str(bound_cfg), "--out", str(out),
             "--widths", widths_arg, "--no-timestamp"]
        )
        assert rc == 0
        rows = read_csv_rows(out)
        row33 = next(r for r in rows if r["m"] == "33")
        cfg = theory.BoundConfig(n=1e4, d=1, L=2, sigma_eps=0.1, M=1.0)
        direct = theory.gen_bound_encompassing(cfg, (33,))
        assert abs(float(row33["total"]) - direct.total) <= 1e-6
        assert float(row33["total"]) == direct.total  # repr round-trips
        assert row33["regime"] == "under"

    def test_empty_widths_usage_error(self, tmp_path, capsys):
        p = tmp_path / "nowidths.cfg"
        p.write_text("[bounds]\nn = 100\nd = 1\n")
        assert cli.main(["bound", "--config", str(p)]) == 2
        assert f"error: {p}: no width grid given" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, missing",
        [
            ("", "[bounds] n (or [problem] n) and [bounds] d (or [problem] d)"),
            ("n = 100\n", "[bounds] d (or [problem] d)"),
            ("d = 1\n", "[bounds] n (or [problem] n)"),
        ],
    )
    def test_missing_bound_keys_are_named(self, tmp_path, capsys, text, missing):
        p = tmp_path / "nokeys.cfg"
        p.write_text(f"[bounds]\nwidths = 1..3\n{text}")
        assert cli.main(["bound", "--config", str(p)]) == 2
        assert capsys.readouterr().err == f"error: {p}: bound evaluation needs {missing}\n"

    @pytest.mark.parametrize("command", ["bound", "sweep"])
    @pytest.mark.parametrize("grid", ["5..2", "3,3,4", "4,3", ",", "4,,5", "4,5,"])
    def test_bad_width_grid_names_its_key(self, tmp_path, capsys, command, grid):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(TRAIN_CFG.replace("widths = 2,4\n", f"widths = {grid}\n"))
        assert cli.main([command, "--config", str(cfg), "--no-timestamp"]) == 2
        err = capsys.readouterr().err
        line = line_of(cfg.read_text(), f"widths = {grid}")
        assert f"{cfg}:{line}: [bounds] widths={grid!r}: " in err and "Traceback" not in err

    def test_bad_config_grid_fails_under_the_widths_flag(self, tmp_path, capsys):
        """``--widths`` replaces ``[bounds] widths``, but the file's grid is
        still checked when the file is read."""
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(TRAIN_CFG.replace("widths = 2,4\n", "widths = 4,3\n"))
        argv = ["bound", "--config", str(cfg), "--widths", "1..3", "--no-timestamp"]
        assert cli.main(argv) == 2
        line = line_of(cfg.read_text(), "widths = 4,3")
        assert f"{cfg}:{line}: [bounds] widths='4,3': " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bound", "sweep"])
    @pytest.mark.parametrize("grid", ["5..2", "3,3,4", "4,3", ",", "4,,5", "4,5,"])
    def test_bad_widths_flag_names_the_flag(self, train_cfg, capsys, command, grid):
        argv = [command, "--config", str(train_cfg), "--widths", grid, "--no-timestamp"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: --widths={grid!r}: " in err and "[bounds]" not in err

    def test_unwritable_out_io_error(self, bound_cfg):
        rc = cli.main(
            ["bound", "--config", str(bound_cfg), "--out", "/nonexistent-dir/x.csv"]
        )
        assert rc == 3

    def test_deterministic_reruns(self, bound_cfg, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            cli.main(["bound", "--config", str(bound_cfg), "--out", str(out),
                      "--no-timestamp"])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_timestamp_line_only_difference(self, bound_cfg, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["bound", "--config", str(bound_cfg), "--out", str(a)])
        cli.main(["bound", "--config", str(bound_cfg), "--out", str(b)])
        body_a = [l for l in a.read_text().splitlines() if not l.startswith("#")]
        body_b = [l for l in b.read_text().splitlines() if not l.startswith("#")]
        assert body_a == body_b
        assert a.read_text().startswith("# generated ")

    # sha256 of the CSVs as the curve wrote them when each width built its
    # width vector four times and took h_of_m twice: any change to a bias,
    # variance, total, regime or lambda of any row fails.  The second is a
    # depth-3 curve with both regimes and both branches of the narrow
    # regime's lambda; its d = 3 makes a regrouped product round differently.
    @pytest.mark.parametrize(
        "text, digest",
        [
            (None, "ba81fe544d68df9434e471d64d4ebf4bd43d9c49dca74685fc5e9e88557a3e3f"),
            ("[bounds]\nn = 5000\nd = 3\nL = 3\nL_sigma = 1.3\nsigma_eps = 0.2\nM = 1.5\n"
             "c = 0.7\nC = 1.2\nC1 = 0.5\nwidths = 1..400\npattern = 1,2\n",
             "40903996a513639ddcb059485dc96d9d3362dc4e1f0f5f901eedcf87c684d9f9"),
        ],
        ids=["perfbench-bound-cfg", "depth-3"],
    )
    def test_curve_bytes_pinned(self, tmp_path, text, digest):
        cfg = ROOT / "perfbench" / "bound.cfg"
        if text is not None:
            cfg = tmp_path / "deep.cfg"
            cfg.write_text(text)
        out = tmp_path / "curve.csv"
        assert cli.main(["bound", "--config", str(cfg), "--out", str(out), "--no-timestamp"]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_svg_emission(self, bound_cfg, tmp_path):
        svg = tmp_path / "curve.svg"
        cli.main(["bound", "--config", str(bound_cfg), "--svg", str(svg),
                  "--out", str(tmp_path / "c.csv"), "--no-timestamp"])
        text = svg.read_text()
        assert text.startswith("<svg") and "polyline" in text


class TestTrainCommand:
    def test_zero_teacher_reaches_zero_objective(self, tmp_path):
        teacher = documented_teacher(d=2)
        layers = [np.zeros_like(w) for w in teacher.teacher.layers]
        from pesvlab.netcore import ActivationSpec, NetParams

        zero = NetParams.from_arrays(layers)
        tpath = tmp_path / "teacher.json"
        save_network(tpath, zero, ActivationSpec.relu())
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(
            "[problem]\nd = 2\nn = 16\nsigma_eps = 0\nseed = 1\n"
            f"teacher_file = {tpath}\n"
            "[network]\nwidths = 4\nactivation = relu\n"
            "[optimizer]\nstep_size = 0.3\nmax_iters = 4000\nlambda = 0\n"
            "schedule = constant\nregularizer = pesv\nseed = 2\n"
        )
        out = tmp_path / "model.json"
        rc = cli.main(["train", "--config", str(cfg), "--out", str(out),
                       "--no-timestamp"])
        assert rc == 0
        trace = read_csv_rows(tmp_path / "model.json.trace.csv")
        assert float(trace[-1]["objective"]) < 1e-6

    def test_byte_identical_reruns(self, train_cfg, tmp_path):
        blobs = []
        for tag in ("1", "2"):
            model = tmp_path / f"m{tag}.json"
            trace = tmp_path / f"t{tag}.csv"
            rc = cli.main(["train", "--config", str(train_cfg), "--out", str(model),
                           "--trace", str(trace), "--no-timestamp"])
            assert rc == 0
            blobs.append((model.read_bytes(), trace.read_bytes()))
        assert blobs[0] == blobs[1]

    def test_missing_teacher_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            "[problem]\nd = 2\nn = 8\nteacher_file = /no/such/file.json\n"
            "[network]\nwidths = 4\n"
        )
        assert cli.main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:4: [problem] teacher_file='/no/such/file.json': No such file" in err

    @pytest.mark.parametrize(
        "content, reason",
        [
            ("{not json", "not a saved network (JSONDecodeError: "),
            ('{"depth": 2}', "not a saved network (KeyError: 'layers')"),
            ("[]", "not a saved network (TypeError: "),
        ],
    )
    def test_malformed_teacher_file_is_usage_error(self, tmp_path, capsys, content, reason):
        teacher = tmp_path / "teacher.json"
        teacher.write_text(content)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[problem]\nd = 2\nn = 8\nteacher_file = {teacher}\n")
        assert cli.main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"error: {cfg}:4: [problem] teacher_file={str(teacher)!r}: {reason}" in err
        assert "Traceback" not in err

    def test_teacher_file_with_nan_grid_is_usage_error(self, tmp_path, capsys):
        act = ActivationSpec.tabulated([-1.0, 0.0, 1.0], [0.0, 0.0, 1.0])
        net = NetParams.from_arrays([np.ones((2, 3)), np.ones((1, 2))])
        doc = json.loads(network_to_json(net, act))
        doc["activation"]["grid_y"][1] = math.nan
        teacher = tmp_path / "teacher.json"
        teacher.write_text(json.dumps(doc))
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[problem]\nn = 8\nteacher_file = {teacher}\n")
        assert cli.main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "not a saved network (ValueError: grid knots must be finite)" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize(
        "extra, reason",
        [
            ("teacher_widths = 3", "teacher_file gives the teacher"),
            ("teacher_seed = 4", "teacher_file gives the teacher"),
            ("d = 5", "teacher_file's network has d = 2"),
        ],
    )
    def test_key_the_teacher_file_overrides(self, tmp_path, capsys, command, extra, reason):
        """A key that a ``teacher_file`` would leave unused is an error at its line."""
        teacher = documented_teacher(d=2)
        tpath = tmp_path / "teacher.json"
        save_network(tpath, teacher.teacher, teacher.act)
        cfg = tmp_path / "teacher.cfg"
        cfg.write_text(
            f"[problem]\nn = 8\nteacher_file = {tpath}\n{extra}\n"
            "[network]\nwidths = 4\n[bounds]\nn = 8\nd = 2\nwidths = 2\n"
        )
        assert cli.main([command, "--config", str(cfg), "--no-timestamp"]) == 2
        name, _, raw = extra.partition(" = ")
        assert capsys.readouterr().err == f"error: {cfg}:4: [problem] {name}={raw!r}: {reason}\n"

    def test_unknown_key_reports_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[problem]\nd = 2\nfrobnicate = 1\n")
        assert cli.main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "bad.cfg:3" in err and "frobnicate" in err

    def test_missing_config_file_is_usage_error(self):
        assert cli.main(["train", "--config", "/no/such/config.cfg"]) == 2


class TestVerifyCommand:
    def test_unknown_suite_suggestion(self, capsys):
        assert cli.main(["verify", "lemma"]) == 2
        assert "lemmas" in capsys.readouterr().err

    def test_lemmas_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = cli.main(["verify", "lemmas", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert all(c["pass"] for c in report["checks"])
        stdout = capsys.readouterr().out
        assert "PASS" in stdout

    def test_lemmas_records_have_one_form(self, tmp_path):
        out = tmp_path / "report.json"
        assert cli.main(["verify", "lemmas", "--out", str(out)]) == 0
        checks = json.loads(out.read_text())["checks"]
        assert checks
        for check in checks:
            assert set(check) == {"name", "inputs", "outputs", "pass", "tolerances", "soft"}

    def test_maurey_suite_passes(self):
        assert cli.main(["verify", "maurey"]) == 0

    def test_entropy_suite_passes(self):
        assert cli.main(["verify", "entropy"]) == 0

    # sha256 of the reports as the per-term Fraction lemma sums, the per-net
    # packing loop and the rng.choice audit draws wrote them: any change to
    # these numbers fails.
    @pytest.mark.parametrize(
        "suite, digest",
        [
            ("lemmas", "8fffd1d13cd88de5f5993e804936137d2f5359f8f5f0cfb07e0164b8dbe89b11"),
            ("entropy", "47f5a265d94559db3a752b701362603169d58847c6d3d27ffade14ca3bae0bcc"),
            ("pointwise", "01cfcd33f08a09c7b87acb2f83d1a2d2a1eee10d4b61a2822e130b7397572dbc"),
        ],
    )
    def test_report_bytes_pinned(self, tmp_path, suite, digest):
        out = tmp_path / "report.json"
        assert cli.main(["verify", suite, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestSweepCommand:
    def test_bound_column_matches_theory(self, train_cfg, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = cli.main(["sweep", "--config", str(train_cfg), "--out", str(out),
                       "--trials", "2", "--no-timestamp"])
        assert rc == 0
        rows = read_csv_rows(out)
        assert len(rows) == 4  # 2 widths x 2 seeds, sorted
        assert [(r["m"], r["seed"]) for r in rows] == [
            ("2", "3"), ("2", "4"), ("4", "3"), ("4", "4")
        ]
        cfg = theory.BoundConfig(n=1e4, d=1, L=2, sigma_eps=0.1, M=1.0)
        for r in rows:
            direct = theory.gen_bound_encompassing(cfg, (int(r["m"]),)).total
            assert float(r["bound_total"]) == direct

    def test_loss_kind_is_read(self, train_cfg, tmp_path):
        """A ``[loss] kind`` of ``huber:0.01`` changes every row's objective to
        the one ``train`` reaches with that loss, over the working range
        derived from the teacher."""
        rows = {}
        for kind in ("mse", "huber:0.01"):
            cfg = tmp_path / "loss.cfg"
            cfg.write_text(TRAIN_CFG.replace("kind = mse", f"kind = {kind}"))
            out = tmp_path / "sweep.csv"
            argv = ["sweep", "--config", str(cfg), "--out", str(out), "--no-timestamp"]
            assert cli.main(argv) == 0
            rows[kind] = read_csv_rows(out)
        teacher = documented_teacher(d=2)  # teacher_widths = 2, teacher_seed = 11
        loss = erm.LossSpec.parse("huber:0.01", erm.LossSpec.mse_for(teacher, 0.05).range_bound)
        for mse_row, huber_row in zip(rows["mse"], rows["huber:0.01"], strict=True):
            assert mse_row["objective"] != huber_row["objective"]
            m, seed = int(huber_row["m"]), int(huber_row["seed"])
            ds = erm.sample_dataset(teacher, 24, 0.05, seed=seed)
            res = erm.train(
                erm.init_params((m,), 2, seed=seed), ds, 0.01, loss, erm.Penalty("pesv"),
                erm.OptimizerConfig(step_size=0.3, max_iters=1500), ActivationSpec.relu(),
            )
            assert huber_row["objective"] == repr(res.best_objective)

    def test_zero_trials_usage_error(self, train_cfg):
        assert cli.main(["sweep", "--config", str(train_cfg), "--trials", "0"]) == 2

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_usage_error(self, train_cfg, tmp_path, capsys, jobs):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--config", str(train_cfg), "--jobs", jobs, "--out", str(out)]
        assert cli.main(argv) == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_diverged_task_keeps_the_sweep(self, tmp_path, capsys):
        """One of two tasks diverges: both rows are written, the diverged one
        with nan values and its bound, and the task is named on stderr."""
        cfg = tmp_path / "div.cfg"
        cfg.write_text(
            TRAIN_CFG.replace("step_size = 0.3", "step_size = 3")
            .replace("activation = relu", "activation = identity")
            .replace("widths = 2,4", "widths = 2,40")
        )
        out = tmp_path / "sweep.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["sweep", "--config", str(cfg), "--out", str(out), "--no-timestamp"])
        assert rc == 4
        rows = read_csv_rows(out)
        assert [(r["m"], r["seed"]) for r in rows] == [("2", "3"), ("40", "3")]
        numeric = ("objective", "nu", "empirical_error", "generalization_mc", "generalization_se")
        assert all(np.isfinite(float(rows[0][k])) for k in numeric)
        assert all(rows[1][k] == "nan" for k in numeric)
        cfg_b = theory.BoundConfig(n=1e4, d=1, L=2, sigma_eps=0.1, M=1.0)
        for r in rows:
            assert float(r["bound_total"]) == theory.gen_bound_encompassing(
                cfg_b, (int(r["m"]),)
            ).total
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: m=40 seed=3: objective became non-finite at iteration 6"]

    NUMERIC = ("objective", "nu", "empirical_error", "generalization_mc", "generalization_se")

    def sweep_with_failing_width(self, train_cfg, tmp_path, monkeypatch, fail):
        """Run ``sweep --widths 2,4,6`` serially with ``erm.fit_and_measure``
        patched, before the pool forks, to call ``fail`` on width 4."""
        real = erm.fit_and_measure

        def failing_on_width_4(*fit_args):
            hidden_widths = fit_args[4]
            if hidden_widths == (4,):
                fail()
            return real(*fit_args)

        monkeypatch.setattr(erm, "fit_and_measure", failing_on_width_4)
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--config", str(train_cfg), "--widths", "2,4,6", "--out", str(out),
                "--no-timestamp"]
        return cli.main(argv), read_csv_rows(out)

    def test_dead_worker_keeps_the_finished_rows(self, train_cfg, tmp_path, monkeypatch, capsys):
        """A worker that dies on width 4 breaks the pool and loses widths 4
        and 6.  Each lost task runs once more, alone in a fresh pool: width
        6's row is written as if nothing had failed, width 4 dies again and
        reads nan, only it is named on stderr, and the command exits 5."""
        rc, rows = self.sweep_with_failing_width(
            train_cfg, tmp_path, monkeypatch, lambda: os._exit(1)
        )
        assert rc == 5
        assert [(r["m"], r["seed"]) for r in rows] == [("2", "3"), ("4", "3"), ("6", "3")]
        for r in (rows[0], rows[2]):
            assert all(np.isfinite(float(r[k])) for k in self.NUMERIC)
        assert all(rows[1][k] == "nan" for k in self.NUMERIC)
        assert all(np.isfinite(float(r["bound_total"])) for r in rows)
        err = capsys.readouterr().err.splitlines()
        assert [line.partition(": task failed: ")[0] for line in err] == ["error: m=4 seed=3"]
        assert "BrokenProcessPool" in err[0]
        clean = tmp_path / "clean.csv"
        monkeypatch.undo()
        cli.main(["sweep", "--config", str(train_cfg), "--widths", "2,4,6", "--out", str(clean),
                  "--no-timestamp"])
        assert rows[2] == read_csv_rows(clean)[2]

    def test_raising_task_keeps_the_other_rows(self, train_cfg, tmp_path, monkeypatch, capsys):
        """A task that raises gets a nan row; the tasks after it still run."""

        def fail():
            raise MemoryError("no room for width 4")

        rc, rows = self.sweep_with_failing_width(train_cfg, tmp_path, monkeypatch, fail)
        assert rc == 5
        assert [r["m"] for r in rows] == ["2", "4", "6"]
        assert all(rows[1][k] == "nan" for k in self.NUMERIC)
        for r in (rows[0], rows[2]):
            assert all(np.isfinite(float(r[k])) for k in self.NUMERIC)
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: m=4 seed=3: task failed: MemoryError: no room for width 4"]

    def test_jobs_parallel_matches_serial(self, train_cfg, tmp_path, monkeypatch):
        """``--jobs 1`` and ``--jobs 2`` on 2 cores both run a process pool,
        of 1 and 2 workers, each worker told to run BLAS on one thread, and
        write the same bytes."""
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        pools = []

        class CountingPool(cli.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                pools.append((max_workers, kwargs["initializer"]))
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", CountingPool)
        a, b = tmp_path / "s1.csv", tmp_path / "s2.csv"
        cli.main(["sweep", "--config", str(train_cfg), "--out", str(a),
                  "--trials", "2", "--no-timestamp"])
        cli.main(["sweep", "--config", str(train_cfg), "--out", str(b),
                  "--trials", "2", "--jobs", "2", "--no-timestamp"])
        assert pools == [(1, cli._one_blas_thread), (2, cli._one_blas_thread)]
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("n", [100, 512, 1000])
    def test_wide_sweep_bytes_ignore_jobs_and_blas_threads(self, tmp_path, n):
        """A sweep of networks wide enough for OpenBLAS to split their
        products over threads writes one CSV for ``--jobs`` 1, 2 and 3,
        with the calling process's OpenBLAS on 1 or 2 threads."""
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(WIDE_CFG.format(n=n))
        counts = [None] if cli._openblas("get") is None else [1, 2]
        before = blas_threads_here() if counts != [None] else None
        outputs = set()
        try:
            for threads in counts:
                if threads is not None:
                    set_blas_threads_here(threads)
                for jobs in ("1", "2", "3"):
                    out = tmp_path / f"sweep-{threads}-{jobs}.csv"
                    argv = ["sweep", "--config", str(cfg), "--out", str(out), "--trials", "2",
                            "--jobs", jobs, "--no-timestamp"]
                    assert cli.main(argv) == 0
                    outputs.add(out.read_bytes())
        finally:
            if before is not None:
                set_blas_threads_here(before)
        assert len(outputs) == 1

    def test_train_and_sweep_row_share_one_fit(self, tmp_path, capsys):
        """``train`` and the sweep row of the same width, data seed and
        initialization seed report the same objective, path norm and
        empirical error; only the test-point count differs (4096 and 2048)."""
        cfg = tmp_path / "same.cfg"
        cfg.write_text(
            TRAIN_CFG.replace("seed = 5", "seed = 3").replace("widths = 2,4", "widths = 6")
        )
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out), "--no-timestamp"]) == 0
        [row] = read_csv_rows(out)
        assert (row["m"], row["seed"]) == ("6", "3")
        capsys.readouterr()
        assert cli.main(["train", "--config", str(cfg), "--no-timestamp"]) == 0
        printed = dict(
            item.split("=", 1) for line in capsys.readouterr().out.splitlines()
            for item in line.split()
        )
        assert printed["final_objective"] == row["objective"]
        assert printed["nu"] == row["nu"]
        assert printed["empirical_error"] == row["empirical_error"]
        assert printed["generalization_mc"] != row["generalization_mc"]

    def test_one_blas_thread_without_openblas(self, train_cfg, tmp_path, monkeypatch):
        """When numpy's BLAS has no thread count to set, the pool initializer
        does nothing and a sweep, whose workers fork from this process,
        writes its rows as before."""
        out = tmp_path / "with.csv"
        assert cli.main(["sweep", "--config", str(train_cfg), "--out", str(out),
                         "--no-timestamp"]) == 0
        monkeypatch.setattr(cli, "_openblas", lambda verb: None)
        assert cli._one_blas_thread() is None
        alone = tmp_path / "without.csv"
        assert cli.main(["sweep", "--config", str(train_cfg), "--out", str(alone),
                         "--no-timestamp"]) == 0
        assert alone.read_bytes() == out.read_bytes()

    def test_pool_workers_run_blas_on_one_thread(self):
        """The pool initializer sets each worker's OpenBLAS to one thread and
        leaves the calling process's count alone."""
        if cli._openblas("get") is None:
            pytest.skip("numpy's BLAS is not OpenBLAS")
        before = blas_threads_here()
        set_blas_threads_here(2)
        try:
            with cli.ProcessPoolExecutor(
                max_workers=2, initializer=cli._one_blas_thread
            ) as pool:
                assert list(pool.map(blas_threads_here, range(4), timeout=60)) == [1] * 4
            assert blas_threads_here() == 2
        finally:
            set_blas_threads_here(before)


def blas_threads_here(_=None):
    """This process's OpenBLAS thread count; module-level so a pool can run it."""
    get = cli._openblas("get")
    get.argtypes, get.restype = [], ctypes.c_int
    return get()


def set_blas_threads_here(threads):
    """Run this process's OpenBLAS calls on ``threads`` threads."""
    set_threads = cli._openblas("set")
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    set_threads(threads)


class TestConfigValues:
    @pytest.mark.parametrize(
        "section, old, new",
        [
            ("optimizer", "regularizer = pesv", "regularizer = pesv\nschedule = foo"),
            ("optimizer", "regularizer = pesv", "regularizer = mixed_max:1"),
            ("optimizer", "regularizer = pesv", "regularizer = bogus"),
            ("network", "activation = relu", "activation = leaky_relu:-1"),
        ],
    )
    def test_bad_value_is_usage_error(self, tmp_path, capsys, section, old, new):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TRAIN_CFG.replace(old, new))
        assert cli.main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        key = new.rpartition("\n")[2].partition(" =")[0]
        line = line_of(cfg.read_text(), new.rpartition("\n")[2])
        assert f"{cfg}:{line}: [{section}] {key}=" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, section, old, new",
        [
            ("train", "optimizer", "step_size = 0.3", "step_size = -1"),
            ("train", "optimizer", "max_iters = 1500", "max_iters = 0"),
            ("train", "problem", "n = 24", "n = 0"),
            ("train", "network", "widths = 6", "widths = 0"),
            ("bound", "bounds", "pattern = 1", "pattern = 0"),
            ("train", "optimizer", "lambda = 0.01", "lambda = -0.5"),
            ("train", "problem", "sigma_eps = 0.05", "sigma_eps = -1"),
            ("bound", "bounds", "sigma_eps = 0.1", "sigma_eps = -0.1"),
            ("train", "optimizer", "seed = 5", "seed = -5"),
            ("train", "problem", "seed = 3", "seed = -5"),
            ("sweep", "problem", "seed = 3", "seed = -1"),
            ("train", "problem", "teacher_seed = 11", "teacher_seed = -11"),
            ("bound", "bounds", "M = 1", "M = -1"),
            ("bound", "bounds", "d = 1", "d = 0"),
            ("bound", "bounds", "M = 1", "M = 1\nL_sigma = 0"),
            ("bound", "bounds", "M = 1", "M = 1\nc = -1"),
            ("bound", "bounds", "M = 1", "M = 1\nC = 0"),
            ("bound", "bounds", "M = 1", "M = 1\nC1 = -0.5"),
            ("bound", "bounds", "n = 10000", "n = 1"),
            ("train", "optimizer", "step_size = 0.3", "step_size = 0.3\ntolerance = -0.5"),
            ("train", "loss", "kind = mse", "kind = mse\nrange_bound = -1"),
            ("train", "loss", "kind = mse", "kind = mse\nrange_bound = 0"),
            # Values that are not finite.
            ("bound", "bounds", "n = 10000", "n = inf"),
            ("bound", "bounds", "n = 10000", "n = nan"),
            ("bound", "bounds", "M = 1", "M = inf"),
            ("bound", "bounds", "sigma_eps = 0.1", "sigma_eps = inf"),
            ("bound", "bounds", "M = 1", "M = 1\nL_sigma = inf"),
            ("bound", "bounds", "M = 1", "M = 1\nC = nan"),
            ("train", "optimizer", "step_size = 0.3", "step_size = 0.3\ntolerance = inf"),
            ("train", "optimizer", "step_size = 0.3", "step_size = inf"),
            ("train", "optimizer", "lambda = 0.01", "lambda = inf"),
            ("train", "optimizer", "lambda = 0.01", "lambda = nan"),
            ("train", "problem", "sigma_eps = 0.05", "sigma_eps = inf"),
            ("train", "loss", "kind = mse", "kind = mse\nrange_bound = inf"),
            # Spec arguments that are not finite.
            ("train", "loss", "kind = mse", "kind = huber:nan"),
            ("train", "loss", "kind = mse", "kind = huber:inf"),
            ("train", "network", "activation = relu", "activation = leaky_relu:nan"),
            ("train", "optimizer", "regularizer = pesv", "regularizer = mixed_max:nan:2"),
            ("train", "optimizer", "regularizer = pesv", "regularizer = mixed_max:1:inf"),
            # Empty integer lists.
            ("train", "problem", "teacher_widths = 2", "teacher_widths = ,"),
            ("bound", "bounds", "pattern = 1", "pattern = ,"),
            ("train", "network", "widths = 6", "widths = ,"),
            # Integer lists with an empty item.
            ("train", "network", "widths = 6", "widths = 4,,5"),
            ("bound", "bounds", "pattern = 1", "pattern = 1,"),
            ("train", "problem", "teacher_widths = 2", "teacher_widths = ,2"),
        ],
    )
    def test_out_of_range_value_is_usage_error(
        self, tmp_path, capsys, command, section, old, new
    ):
        cfg = tmp_path / "range.cfg"
        cfg.write_text(TRAIN_CFG.replace(old + "\n", new + "\n"))
        assert cli.main([command, "--config", str(cfg), "--no-timestamp"]) == 2
        err = capsys.readouterr().err
        key = new.rpartition("\n")[2].partition(" =")[0]
        line = line_of(cfg.read_text(), new.rpartition("\n")[2])
        assert f"{cfg}:{line}: [{section}] {key}=" in err and "Traceback" not in err

    @pytest.mark.parametrize("raw", ["inf", "-inf", "nan", "1e999"])
    def test_non_finite_number_is_named(self, raw):
        for parse in (positive(float), nonnegative(float), sample_count):
            with pytest.raises(ValueError, match="must be finite"):
                parse(raw)

    @pytest.mark.parametrize("key", list(config.KEYS), ids="{0[0]}.{0[1]}".format)
    def test_every_key_rejects_a_bad_value(self, tmp_path, capsys, monkeypatch, key):
        """Each key's parser rejects ``nan``, and the file fails to load
        whether or not the command reads that section."""
        monkeypatch.chdir(tmp_path)  # no teacher file named nan is found
        section, name = key
        cfg = tmp_path / "key.cfg"
        cfg.write_text(f"# one bad value\n[{section}]\n{name} = nan\n")
        assert cli.main(["bound", "--config", str(cfg), "--no-timestamp"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}:3: [{section}] {name}='nan': ")
        assert "Traceback" not in err

    def test_bound_n_from_problem_is_named(self, tmp_path, capsys):
        """Without ``[bounds] n`` the bound reads ``[problem] n`` and names it."""
        cfg = tmp_path / "n.cfg"
        cfg.write_text("[problem]\nn = 1\n\n" + BOUND_CFG.replace("n = 10000\n", ""))
        assert cli.main(["bound", "--config", str(cfg), "--no-timestamp"]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:2: [problem] n='1': must be at least 2" in err and "Traceback" not in err

    def test_bounds_depth_disagreeing_with_pattern(self, tmp_path, capsys):
        cfg = tmp_path / "depth.cfg"
        cfg.write_text(BOUND_CFG.replace("L = 2\n", "L = 3\n").replace("pattern = 1\n", ""))
        assert cli.main(["bound", "--config", str(cfg), "--no-timestamp"]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:4: [bounds] L='3': disagrees with pattern=1, which gives depth 2" in err

    @pytest.mark.parametrize(
        "jobs, tasks, cores, expected",
        [(2, 8, 2, 2), (64, 8, 2, 2), (64, 3, 16, 3), (4, 8, 16, 4), (0, 8, 2, 1), (5, 8, None, 1)],
    )
    def test_pool_size_clamp(self, monkeypatch, jobs, tasks, cores, expected):
        """Clamped by the CPUs in the affinity mask, or, where the platform
        has none, by ``os.cpu_count()``, which may be None."""
        if cores is not None:
            monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(cores)),
                                raising=False)
            monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
            assert cli._pool_size(jobs, tasks) == expected
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
        assert cli._pool_size(jobs, tasks) == expected

    def test_pool_size_counts_only_cpus_in_the_affinity_mask(self, monkeypatch):
        """Of 16 CPUs this process may run on 3, so ``--jobs 8`` gets 3
        workers."""
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 16)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 5, 9}, raising=False)
        assert cli._pool_size(8, 20) == 3
