"""Loss models, synthetic data, and penalized subgradient training."""

import hashlib
import itertools
import math
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pesvlab import erm, norms, theory
from pesvlab import netcore as nc
from pesvlab.erm import documented_teacher
from pesvlab.netcore import ActivationSpec, NetParams

RELU = ActivationSpec.relu()


def pair_norm(df, dy):
    return np.sqrt(df * df + dy * dy)


class TestLossSpec:
    @pytest.mark.parametrize(
        "loss",
        [
            erm.LossSpec.mse(2.0),
            erm.LossSpec.huber(0.7, 2.0),
            erm.LossSpec.logistic(2.0),
        ],
    )
    def test_vanishes_on_diagonal(self, loss):
        t = np.linspace(-2, 2, 41)
        np.testing.assert_allclose(loss.value(t, t), 0.0, atol=1e-14)

    @pytest.mark.parametrize(
        "loss",
        [
            erm.LossSpec.mse(2.0),
            erm.LossSpec.huber(0.7, 2.0),
        ],
    )
    def test_sampled_pair_lipschitz(self, loss):
        """|L(p1) - L(p2)| <= L0 * ||p1 - p2|| on the working range."""
        rng = np.random.default_rng(0)
        r = loss.range_bound
        f1, f2 = rng.uniform(-r, r, (2, 4000))
        y1, y2 = rng.uniform(-r, r, (2, 4000))
        gap = np.abs(loss.value(f1, y1) - loss.value(f2, y2))
        assert np.all(gap <= loss.L0 * pair_norm(f1 - f2, y1 - y2) + 1e-9)

    def test_logistic_sampled_pair_lipschitz(self):
        """Logistic working set: predictors in [-R, R], hard labels."""
        loss = erm.LossSpec.logistic(2.0)
        rng = np.random.default_rng(3)
        f1, f2 = rng.uniform(-2, 2, (2, 4000))
        y1, y2 = rng.choice([-1.0, 1.0], size=(2, 4000))
        gap = np.abs(loss.value(f1, y1) - loss.value(f2, y2))
        assert np.all(gap <= loss.L0 * pair_norm(f1 - f2, y1 - y2) + 1e-9)

    def test_mse_pair_constant_is_tight(self):
        """The diagonal displacement shows 2R is too small; 2*sqrt(2)*R holds."""
        loss = erm.LossSpec.mse(1.0)
        f1, y1 = 1.0, -1.0
        f2, y2 = 1.0 - 1e-6, -1.0 + 1e-6
        gap = abs(float(loss.value(f1, y1) - loss.value(f2, y2)))
        disp = pair_norm(f1 - f2, y1 - y2)
        assert gap > 2.0 * 1.0 * disp  # the naive constant fails
        assert gap <= loss.L0 * disp

    def test_mse_y_derivative_lipschitz(self):
        loss = erm.LossSpec.mse(3.0)
        rng = np.random.default_rng(1)
        f1, f2, y1, y2 = rng.uniform(-3, 3, (4, 2000))
        d1 = y1 - f1  # derivative of the loss in y
        d2 = y2 - f2
        assert np.all(np.abs(d1 - d2) <= loss.L1y * pair_norm(f1 - f2, y1 - y2) + 1e-12)

    def test_mse_strong_convexity_modulus(self):
        """L(f,y) - L(f*,y) - L'(f*,y)(f-f*) = (f-f*)^2 / 2 exactly."""
        loss = erm.LossSpec.mse(2.0)
        rng = np.random.default_rng(2)
        f, fs, y = rng.uniform(-2, 2, (3, 500))
        lhs = loss.value(f, y) - loss.value(fs, y) - loss.dpred(fs, y) * (f - fs)
        np.testing.assert_allclose(lhs, 0.5 * (f - fs) ** 2, atol=1e-12)
        assert loss.gamma == 1.0 and loss.B == 1.0

    @pytest.mark.parametrize(
        "make",
        [lambda: erm.LossSpec.mse(math.nan), lambda: erm.LossSpec.mse(math.inf),
         lambda: erm.LossSpec.huber(math.nan, 2.0), lambda: erm.LossSpec.huber(math.inf, 2.0),
         lambda: erm.LossSpec.huber(1.0, math.nan), lambda: erm.LossSpec.huber(1.0, math.inf),
         lambda: erm.LossSpec.logistic(math.nan), lambda: erm.LossSpec.logistic(math.inf)],
        ids=["mse-nan", "mse-inf", "huber-delta-nan", "huber-delta-inf", "huber-range-nan",
             "huber-range-inf", "logistic-nan", "logistic-inf"],
    )
    def test_rejects_non_finite_constants(self, make):
        with pytest.raises(ValueError, match="positive and finite"):
            make()

    @pytest.mark.parametrize("spec", ["huber:nan", "huber:inf"])
    def test_parse_rejects_non_finite_arguments(self, spec):
        with pytest.raises(ValueError, match="non-finite argument"):
            erm.LossSpec.parse(spec, 2.0)

    def test_huber_derivative_clips(self):
        loss = erm.LossSpec.huber(0.5, 2.0)
        assert loss.dpred(3.0, 0.0) == 0.5
        assert loss.dpred(-3.0, 0.0) == -0.5
        assert loss.dpred(0.2, 0.0) == pytest.approx(0.2)

    def test_logistic_gamma_positive_on_range(self):
        loss = erm.LossSpec.logistic(1.5)
        assert loss.gamma > 0
        assert loss.L0 > 0 and loss.L1y > 0 and loss.B > 0

    def test_mse_for_uses_teacher_scale(self):
        teacher = documented_teacher(d=2)
        loss = erm.LossSpec.mse_for(teacher, sigma_eps=0.5)
        assert loss.range_bound == pytest.approx(
            math.sqrt(2) * teacher.nu_teacher + 3.0, rel=1e-12
        )

    def test_constants_pinned(self):
        """The 6-sigma noise cap of mse_for and the 401-point grid of the
        logistic constants give these values exactly."""
        loss = erm.LossSpec.mse_for(documented_teacher(d=2), sigma_eps=0.5)
        assert loss.range_bound.hex() == "0x1.1a827999fcef3p+2"
        lg = erm.LossSpec.logistic(2.0)
        assert [v.hex() for v in (lg.L0, lg.L1y, lg.B, lg.gamma)] == [
            "0x1.3e56b23da8e35p+1", "0x1.6c9c6d99ef3dfp-2", "0x1.0113647c07580p-2",
            "0x1.ae0dc0f990c43p-4",
        ]


class TestTeacherAndDataset:
    def test_teacher_norm_invariant(self):
        p = NetParams.from_arrays([np.array([[3.0, 4.0]]), np.array([[2.0]])])
        t = erm.TeacherSpec.create(p, RELU)
        assert t.nu_teacher == norms.pesv_norm(p)
        with pytest.raises(ValueError):
            erm.TeacherSpec(p, RELU, t.nu_teacher + 1.0)

    def test_zero_teacher_zero_targets(self):
        zero = erm.TeacherSpec.create(
            NetParams.from_arrays([np.zeros((2, 3)), np.zeros((1, 2))]), RELU
        )
        ds = erm.sample_dataset(zero, 20, 0.0, seed=0)
        assert np.all(ds.targets == 0.0)

    def test_noiseless_targets_equal_teacher(self):
        teacher = documented_teacher(d=3, widths=(3,))
        ds = erm.sample_dataset(teacher, 50, 0.0, seed=1)
        np.testing.assert_array_equal(
            ds.targets, nc.forward(teacher.teacher, RELU, ds.inputs)
        )

    def test_inputs_in_unit_ball_with_bias(self):
        teacher = documented_teacher(d=4, widths=(2,))
        ds = erm.sample_dataset(teacher, 200, 0.3, seed=2)
        raw = ds.inputs[:, :-1]
        assert np.all(np.linalg.norm(raw, axis=1) <= 1.0)
        assert np.all(ds.inputs[:, -1] == 1.0)

    def test_seed_determinism_byte_equal(self):
        teacher = documented_teacher(d=2)
        a, b = (erm.sample_dataset(teacher, 32, 0.2, seed=7) for _ in range(2))
        assert a.inputs.tobytes() == b.inputs.tobytes()
        assert a.targets.tobytes() == b.targets.tobytes()

    @pytest.mark.parametrize("sigma_eps", [math.nan, math.inf, -1.0])
    def test_rejects_bad_noise_level(self, sigma_eps):
        with pytest.raises(ValueError, match="finite sigma_eps"):
            erm.sample_dataset(documented_teacher(d=2), 4, sigma_eps)


class TestObjective:
    def test_perfect_fit_no_penalty(self):
        teacher = documented_teacher(d=2)
        ds = erm.sample_dataset(teacher, 10, 0.0, seed=4)
        val = erm.objective(
            teacher.teacher, ds, 0.0, erm.LossSpec.mse(2.0), erm.Penalty("pesv"), RELU
        )
        assert val == pytest.approx(0.0, abs=1e-28)

    def test_single_point_half_square(self):
        p = NetParams.from_arrays([np.zeros((1, 2)), np.zeros((1, 1))])
        ds = erm.Dataset(
            inputs=np.array([[0.0, 1.0]]), targets=np.array([1.0]), noise_std=0.0, seed=0
        )
        val = erm.objective(p, ds, 0.0, erm.LossSpec.mse(2.0), erm.Penalty("pesv"), RELU)
        assert val == 0.5

    def test_penalty_only(self):
        """Zero net, one target y = 2: objective is (1/2)*4 + lambda*0 = 2."""
        p = NetParams.from_arrays([np.zeros((1, 2)), np.zeros((1, 1))])
        ds = erm.Dataset(
            inputs=np.array([[0.0, 1.0]]), targets=np.array([2.0]), noise_std=0.0, seed=0
        )
        val = erm.objective(p, ds, 1.0, erm.LossSpec.mse(3.0), erm.Penalty("pesv"), RELU)
        assert val == 2.0

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -0.5])
    def test_rejects_bad_lambda(self, lam):
        p = NetParams.from_arrays([np.zeros((1, 2)), np.zeros((1, 1))])
        ds = erm.Dataset(
            inputs=np.array([[0.0, 1.0]]), targets=np.array([2.0]), noise_std=0.0, seed=0
        )
        with pytest.raises(ValueError, match="lambda must be nonnegative and finite"):
            erm.objective(p, ds, lam, erm.LossSpec.mse(3.0), erm.Penalty("pesv"), RELU)

    def test_rescaling_invariance_relu(self):
        """Both the fit and the path penalty ignore per-neuron rescaling."""
        teacher = documented_teacher(d=2)
        ds = erm.sample_dataset(teacher, 12, 0.1, seed=5)
        p = erm.init_params((5,), 2, seed=6)
        loss = erm.LossSpec.mse(2.0)
        base = erm.objective(p, ds, 0.3, loss, erm.Penalty("pesv"), RELU)
        for j, c in ((0, 2.0), (3, 0.3)):
            q = norms.rescale_neuron(p, 1, j, c)
            got = erm.objective(q, ds, 0.3, loss, erm.Penalty("pesv"), RELU)
            assert got == pytest.approx(base, rel=1e-10)


class TestTrain:
    def test_zero_targets_shrinks_norm(self):
        teacher = documented_teacher(d=2)
        base = erm.sample_dataset(teacher, 16, 0.0, seed=8)
        ds = erm.Dataset(
            inputs=base.inputs, targets=np.zeros(base.n), noise_std=0.0, seed=0
        )
        init = erm.init_params((4,), 2, seed=4)
        res = erm.train(
            init, ds, 0.01, erm.LossSpec.mse(2.0), erm.Penalty("pesv"),
            erm.OptimizerConfig(step_size=0.2, max_iters=5000), RELU,
        )
        assert norms.pesv_norm(res.params) < norms.pesv_norm(init)
        best_so_far = np.minimum.accumulate(res.trace[:, 1])
        assert res.best_objective == best_so_far[-1]
        assert np.all(np.diff(best_so_far) <= 0)

    def test_single_point_interpolation(self):
        teacher = documented_teacher(d=2)
        ds = erm.sample_dataset(teacher, 1, 0.0, seed=0)
        res = erm.train(
            erm.init_params((4,), 2, seed=1), ds, 0.0, erm.LossSpec.mse(2.0),
            erm.Penalty("pesv"), erm.OptimizerConfig(step_size=0.1, max_iters=10_000),
            RELU,
        )
        pred = nc.forward(res.params, RELU, ds.inputs)
        assert float(np.mean((pred - ds.targets) ** 2)) < 1e-4

    def test_huge_lambda_kills_network(self):
        teacher = documented_teacher(d=2)
        ds = erm.sample_dataset(teacher, 16, 0.1, seed=2)
        lam = 1000.0 * float(np.max(np.abs(ds.targets)))
        res = erm.train(
            erm.init_params((4,), 2, seed=3), ds, lam, erm.LossSpec.mse(2.0),
            erm.Penalty("pesv"), erm.OptimizerConfig(step_size=1e-3, max_iters=30_000),
            RELU,
        )
        assert norms.pesv_norm(res.params) < 1e-3

    def test_divergence_carries_last_finite(self):
        teacher = documented_teacher(d=2)
        ds = erm.sample_dataset(teacher, 8, 0.0, seed=1)
        with pytest.raises(erm.DivergenceError) as exc, np.errstate(
            over="ignore", invalid="ignore"
        ):
            erm.train(
                erm.init_params((4,), 2, seed=0), ds, 0.0, erm.LossSpec.mse(2.0),
                erm.Penalty("pesv"),
                erm.OptimizerConfig(step_size=1e9, schedule="constant", max_iters=200),
                ActivationSpec.identity(),
            )
        for w in exc.value.last_finite.layers:
            assert np.all(np.isfinite(w))

    def test_trace_columns(self):
        teacher = documented_teacher(d=2)
        ds = erm.sample_dataset(teacher, 8, 0.0, seed=1)
        res = erm.train(
            erm.init_params((3,), 2, seed=0), ds, 0.01, erm.LossSpec.mse(2.0),
            erm.Penalty("pesv"), erm.OptimizerConfig(step_size=0.1, max_iters=50), RELU,
        )
        assert res.trace.shape == (50, 4)
        np.testing.assert_array_equal(res.trace[:, 0], np.arange(50))

    def test_norm_stays_near_teacher_scale(self):
        """Soft check: with the wide-regime penalty the trained path norm
        stays below 6x the teacher norm (10% slack)."""
        teacher = documented_teacher(d=2)
        n = 256
        ds = erm.sample_dataset(teacher, n, 0.1, seed=5)
        cfg = theory.BoundConfig(n=n, d=2, L=2, sigma_eps=0.1, M=teacher.nu_teacher)
        res = erm.train(
            erm.init_params((8,), 2, seed=6), ds, theory.lambda_overparam(cfg),
            erm.LossSpec.mse_for(teacher, 0.1), erm.Penalty("pesv"),
            erm.OptimizerConfig(step_size=0.3, max_iters=30_000), RELU,
        )
        assert norms.pesv_norm(res.params) <= 6 * teacher.nu_teacher * 1.1

    def test_empirical_error_trend_in_n(self):
        """Median deviation from the teacher shrinks from n=16 to n=128
        over 10 seeds (documented trend configuration)."""
        teacher = documented_teacher(d=2)
        loss = erm.LossSpec.mse(2.0)
        medians = []
        for n in (16, 128):
            errs = []
            for seed in range(10):
                ds = erm.sample_dataset(teacher, n, 0.1, seed=100 + seed)
                cfg = theory.BoundConfig(n=n, d=2, L=2, sigma_eps=0.1, M=teacher.nu_teacher)
                res = erm.train(
                    erm.init_params((6,), 2, seed=seed), ds,
                    theory.lambda_overparam(cfg), loss, erm.Penalty("pesv"),
                    erm.OptimizerConfig(step_size=0.3, max_iters=4000), RELU,
                )
                errs.append(erm.empirical_error(res.params, RELU, teacher, ds))
            medians.append(float(np.median(errs)))
        assert medians[1] <= medians[0]


def backprop_2d(layers, act, x, upstream):
    """Gradient of ``sum_i upstream_i f(x_i)`` for one network, by plain
    backpropagation over 2-D arrays."""
    hs, zs = [x], []
    for w in layers[:-1]:
        zs.append(hs[-1] @ w.T)
        hs.append(act(zs[-1]))
    grads = [None] * len(layers)
    delta = upstream[:, None]
    for k in range(len(layers) - 1, -1, -1):
        grads[k] = delta.T @ hs[k]
        if k:
            delta = (delta @ layers[k]) * act.derivative(zs[k - 1])
    return grads


def penalty_subgradient(reg, layers):
    """The penalty subgradient of one network, from a fresh one-run
    ``norms.PenaltyPass``."""
    stacked = [w[None] for w in layers]
    out = [np.empty_like(w) for w in stacked]
    group = norms.PenaltyGroup(slice(0, 1), reg)
    norms.PenaltyPass(stacked, [group], out)()
    return [g[0] for g in out]


def single_loop_train(init, dataset, lam, loss, reg, opt, act):
    """Reference: one network at a time, through 2-D arrays (forward, a
    test-local backprop, the penalty value and subgradient)."""
    x, y = dataset.inputs, dataset.targets
    arrs = [np.array(w) for w in init.layers]
    best = [w.copy() for w in arrs]
    best_obj = math.inf
    rows = []
    converged = False
    for t in range(opt.max_iters):
        preds = nc.forward(arrs, act, x)
        obj = float(np.mean(loss.value(preds, y))) + lam * reg.value(arrs)
        if not math.isfinite(obj):
            raise erm.DivergenceError(
                f"objective became non-finite at iteration {t}", NetParams(tuple(best))
            )
        rows.append((t, obj, float(np.mean((preds - y) ** 2)), norms.pesv_norm(arrs)))
        if obj < best_obj:
            best_obj = obj
            best = [w.copy() for w in arrs]
        grads = backprop_2d(arrs, act, x, loss.dpred(preds, y) / dataset.n)
        if lam > 0.0:
            for g, r in zip(grads, penalty_subgradient(reg, arrs)):
                g += lam * r
        if opt.tolerance > 0.0:
            gnorm = math.sqrt(sum(float(np.sum(g * g)) for g in grads))
            tnorm = math.sqrt(sum(float(np.sum(w * w)) for w in arrs))
            if gnorm <= opt.tolerance * (1.0 + tnorm):
                converged = True
                break
        step = opt.step_size
        if opt.schedule == "inv_sqrt":
            step /= math.sqrt(t + 1.0)
        for w, g in zip(arrs, grads):
            w -= step * g
    return erm.TrainResult(
        NetParams(tuple(best)), np.array(rows), best_obj, len(rows), converged
    )


def assert_same_result(got, want):
    """Equal to the bit, signs of zeros included."""
    assert got.best_objective == want.best_objective
    assert (got.iterations, got.converged) == (want.iterations, want.converged)
    assert got.trace.shape == want.trace.shape
    assert got.trace.tobytes() == want.trace.tobytes()
    for a, b in zip(got.params.layers, want.params.layers, strict=True):
        assert a.tobytes() == b.tobytes()


def three_runs(d=2, n=12):
    """Per-run inputs for three runs: datasets, lambdas (one of them zero)."""
    teacher = documented_teacher(d=d)
    datasets = [erm.sample_dataset(teacher, n, 0.05, seed=s) for s in (1, 2, 3)]
    return datasets, [0.02, 0.0, 0.005]


class TestTrainMany:
    """A batch of runs equals the same runs trained one at a time, exactly."""

    @pytest.mark.parametrize("widths", [(5,), (4, 3)])
    @pytest.mark.parametrize(
        "act", [RELU, ActivationSpec.leaky_relu(0.1), ActivationSpec.identity()]
    )
    @pytest.mark.parametrize("reg", ["pesv", "weight_decay", "mixed_max:1:2", "mixed_max:3:1.5"])
    def test_batch_equals_single_runs(self, widths, act, reg):
        datasets, lams = three_runs()
        inits = [erm.init_params(widths, 2, seed=s) for s in (4, 5, 6)]
        loss = erm.LossSpec.mse(2.0)
        penalty = erm.Penalty.parse(reg)
        opt = erm.OptimizerConfig(step_size=0.3, max_iters=60)
        batch = erm.train_many(inits, datasets, lams, loss, [penalty] * 3, opt, act)
        for res, init, ds, lam in zip(batch, inits, datasets, lams, strict=True):
            assert_same_result(res, single_loop_train(init, ds, lam, loss, penalty, opt, act))
            assert_same_result(erm.train(init, ds, lam, loss, penalty, opt, act), res)

    def test_huber_loss_and_constant_schedule(self):
        datasets, lams = three_runs(d=3, n=9)
        inits = [erm.init_params((6,), 3, seed=s) for s in (1, 2, 3)]
        loss = erm.LossSpec.huber(0.3, 2.0)
        opt = erm.OptimizerConfig(step_size=0.2, max_iters=40, schedule="constant")
        pen = erm.Penalty("pesv")
        batch = erm.train_many(inits, datasets, lams, loss, [pen] * 3, opt, RELU)
        for res, init, ds, lam in zip(batch, inits, datasets, lams):
            assert_same_result(res, single_loop_train(init, ds, lam, loss, pen, opt, RELU))

    def test_one_run_stops_early(self):
        """Under a tolerance each run stops on its own; the last one runs on
        to the iteration limit."""
        teacher = documented_teacher(d=2)
        seeds = (3, 0, 1)
        datasets = [erm.sample_dataset(teacher, 12, 0.0, seed=s) for s in seeds]
        inits = [erm.init_params((3,), 2, seed=s) for s in seeds]
        lams = [0.0, 0.001, 0.0]
        loss = erm.LossSpec.mse(2.0)
        opt = erm.OptimizerConfig(
            step_size=0.5, max_iters=60, tolerance=0.004, schedule="constant"
        )
        pen = erm.Penalty("pesv")
        batch = erm.train_many(inits, datasets, lams, loss, [pen] * 3, opt, RELU)
        assert [(r.iterations, r.converged) for r in batch] == [
            (20, True), (32, True), (60, False)
        ]
        for res, init, ds, lam in zip(batch, inits, datasets, lams):
            assert_same_result(res, single_loop_train(init, ds, lam, loss, pen, opt, RELU))

    def test_diverging_run_raises_for_its_index(self):
        datasets, lams = three_runs()
        big = datasets[1]
        datasets[1] = erm.Dataset(big.inputs, big.targets * 1e150, big.noise_std, big.seed)
        inits = [erm.init_params((5,), 2, seed=s) for s in (4, 5, 6)]
        loss = erm.LossSpec.mse(2.0)
        pen = erm.Penalty("pesv")
        opt = erm.OptimizerConfig(step_size=0.3, max_iters=60)
        act = ActivationSpec.identity()
        with pytest.raises(erm.DivergenceError) as single, np.errstate(over="ignore"):
            single_loop_train(inits[1], datasets[1], lams[1], loss, pen, opt, act)
        with pytest.raises(erm.DivergenceError) as one, warnings.catch_warnings():
            warnings.simplefilter("error")  # the kernel checks finiteness itself
            erm.train(inits[1], datasets[1], lams[1], loss, pen, opt, act)
        with pytest.raises(erm.DivergenceError) as batch:
            erm.train_many(inits, datasets, lams, loss, [pen] * 3, opt, act)
        assert str(one.value) == str(single.value)
        assert str(batch.value) == f"run 1: {single.value}"
        assert (one.value.run, batch.value.run) == (0, 1)
        for exc in (one.value, batch.value):
            for a, b in zip(exc.last_finite.layers, single.value.last_finite.layers):
                assert np.all(a == b)

    def test_mixed_penalties_equal_single_runs(self):
        """One penalty per run: each stretch of equal penalties is one group,
        and every run, including a zero-lambda one inside a group and runs
        stopped by the tolerance, equals its own single-run loop."""
        teacher = documented_teacher(d=2)
        seeds = (3, 0, 1, 2, 4)
        datasets = [erm.sample_dataset(teacher, 12, 0.0, seed=s) for s in seeds]
        inits = [erm.init_params((3,), 2, seed=s) for s in seeds]
        lams = [0.001, 0.0, 0.0005, 0.001, 0.002]
        regs = [
            erm.Penalty.parse(r)
            for r in ("pesv", "pesv", "weight_decay", "mixed_max:1:2", "pesv")
        ]
        loss = erm.LossSpec.mse(2.0)
        opt = erm.OptimizerConfig(
            step_size=0.5, max_iters=60, tolerance=0.004, schedule="constant"
        )
        batch = erm.train_many(inits, datasets, lams, loss, regs, opt, RELU)
        assert [(r.iterations, r.converged) for r in batch] == [
            (20, True), (32, True), (60, False), (41, True), (33, True)
        ]
        for res, init, ds, lam, reg in zip(batch, inits, datasets, lams, regs, strict=True):
            assert_same_result(res, single_loop_train(init, ds, lam, loss, reg, opt, RELU))
            assert_same_result(erm.train(init, ds, lam, loss, reg, opt, RELU), res)

    def test_three_penalty_groups_each_with_an_unpenalized_run(self):
        """Three groups of three runs, each with a zero-lambda run at another
        place, under a tolerance that stops two runs of every group: each run
        equals its own single-run loop."""
        teacher = documented_teacher(d=2)
        seeds = (3, 0, 1) * 3
        datasets = [erm.sample_dataset(teacher, 12, 0.0, seed=s) for s in seeds]
        inits = [erm.init_params((3,), 2, seed=s) for s in seeds]
        lams = [0.001, 0.0, 0.002, 0.0, 0.0005, 0.001, 0.001, 0.002, 0.0]
        regs = [
            erm.Penalty.parse(r)
            for r in ["pesv"] * 3 + ["weight_decay"] * 3 + ["mixed_max:1:2"] * 3
        ]
        loss = erm.LossSpec.mse(2.0)
        opt = erm.OptimizerConfig(
            step_size=0.5, max_iters=60, tolerance=0.004, schedule="constant"
        )
        batch = erm.train_many(inits, datasets, lams, loss, regs, opt, RELU)
        assert [(r.iterations, r.converged) for r in batch] == [
            (20, True), (32, True), (60, False)
        ] * 2 + [(20, True), (33, True), (60, False)]
        for res, init, ds, lam, reg in zip(batch, inits, datasets, lams, regs, strict=True):
            assert_same_result(res, single_loop_train(init, ds, lam, loss, reg, opt, RELU))

    @pytest.mark.parametrize("reg, best_at", [("pesv", [57, 59, 59]), ("mixed_max:1:2", [15, 59, 59])])
    def test_best_iterate_kept_per_run(self, reg, best_at):
        """A long constant step makes the objectives oscillate: a run keeps
        its own best iterate while the others still improve."""
        datasets, lams = three_runs()
        inits = [erm.init_params((5,), 2, seed=s) for s in (4, 5, 6)]
        loss = erm.LossSpec.mse(2.0)
        pen = erm.Penalty.parse(reg)
        opt = erm.OptimizerConfig(step_size=1.5, max_iters=60, schedule="constant")
        batch = erm.train_many(inits, datasets, lams, loss, [pen] * 3, opt, RELU)
        assert [int(np.argmin(r.trace[:, 1])) for r in batch] == best_at
        for res, init, ds, lam in zip(batch, inits, datasets, lams, strict=True):
            assert_same_result(res, single_loop_train(init, ds, lam, loss, pen, opt, RELU))

    @pytest.mark.parametrize("reg", ["pesv", "weight_decay", "mixed_max:1:2"])
    def test_logistic_loss(self, reg):
        """Labels of +-1 under the logistic loss, whose value and derivative
        need the predictions and labels, not only the residual."""
        datasets, lams = three_runs()
        datasets = [
            erm.Dataset(ds.inputs, np.where(ds.targets > np.median(ds.targets), 1.0, -1.0),
                        ds.noise_std, ds.seed)
            for ds in datasets
        ]
        inits = [erm.init_params((5,), 2, seed=s) for s in (4, 5, 6)]
        loss = erm.LossSpec.logistic(2.0)
        pen = erm.Penalty.parse(reg)
        opt = erm.OptimizerConfig(step_size=0.3, max_iters=60)
        batch = erm.train_many(inits, datasets, lams, loss, [pen] * 3, opt, RELU)
        for res, init, ds, lam in zip(batch, inits, datasets, lams, strict=True):
            assert_same_result(res, single_loop_train(init, ds, lam, loss, pen, opt, RELU))

    @pytest.mark.parametrize("other", ["mixed_max:3:1.5", "mixed_max:1.5:3", "mixed_max:1:3"])
    def test_groups_split_on_penalty_parameters(self, other):
        """Equal kinds with other exponents are other penalties.  The
        ``(1, 2)`` group takes its row norms from the path norm's pieces; the
        other group computes its own (both for ``1.5:3``, the ``l_3`` rows
        for ``1:3``)."""
        datasets, lams = three_runs()
        inits = [erm.init_params((4, 3), 2, seed=s) for s in (4, 5, 6)]
        regs = [erm.Penalty.parse(r) for r in ("mixed_max:1:2",) * 2 + (other,)]
        loss = erm.LossSpec.mse(2.0)
        opt = erm.OptimizerConfig(step_size=0.3, max_iters=60)
        batch = erm.train_many(inits, datasets, lams, loss, regs, opt, RELU)
        for res, init, ds, lam, reg in zip(batch, inits, datasets, lams, regs, strict=True):
            assert_same_result(res, single_loop_train(init, ds, lam, loss, reg, opt, RELU))

    def test_mixed_batch_diverging_run_raises_for_its_index(self):
        """The index is the run's place in the whole batch, not in its group."""
        teacher = documented_teacher(d=2)
        datasets = [erm.sample_dataset(teacher, 12, 0.05, seed=s) for s in range(5)]
        big = datasets[3]
        datasets[3] = erm.Dataset(big.inputs, big.targets * 1e150, big.noise_std, big.seed)
        inits = [erm.init_params((5,), 2, seed=s) for s in range(5)]
        lams = [0.02, 0.0, 0.005, 0.01, 0.003]
        regs = [
            erm.Penalty.parse(r)
            for r in ("pesv", "pesv", "weight_decay", "mixed_max:1:2", "pesv")
        ]
        loss = erm.LossSpec.mse(2.0)
        opt = erm.OptimizerConfig(step_size=0.3, max_iters=60)
        act = ActivationSpec.identity()
        with pytest.raises(erm.DivergenceError) as single, np.errstate(over="ignore"):
            single_loop_train(inits[3], datasets[3], lams[3], loss, regs[3], opt, act)
        with pytest.raises(erm.DivergenceError) as batch:
            erm.train_many(inits, datasets, lams, loss, regs, opt, act)
        assert str(batch.value) == f"run 3: {single.value}"
        assert batch.value.run == 3
        for a, b in zip(batch.value.last_finite.layers, single.value.last_finite.layers):
            assert np.all(a == b)

    def test_rejects_mismatched_runs(self):
        datasets, lams = three_runs()
        inits = [erm.init_params((5,), 2, seed=s) for s in (4, 5, 6)]
        loss, pen, opt = erm.LossSpec.mse(2.0), erm.Penalty("pesv"), erm.OptimizerConfig()
        args = (loss, [pen] * 3, opt, RELU)
        with pytest.raises(ValueError):
            erm.train_many(inits, datasets, lams[:2], *args)
        short = erm.sample_dataset(documented_teacher(d=2), 5, 0.0, seed=0)
        with pytest.raises(ValueError):
            erm.train_many(inits, datasets[:2] + [short], lams, *args)
        for regs in ([pen] * 2, [pen] * 4):
            with pytest.raises(ValueError, match="one penalty per run"):
                erm.train_many(inits, datasets, lams, loss, regs, opt, RELU)
        assert erm.train_many([], [], [], loss, [], opt, RELU) == []

    def test_rejects_negative_lambda(self):
        """As erm.objective does: the loop takes no subgradient for lam <= 0,
        so a negative lambda would report an objective it never minimized."""
        datasets, lams = three_runs()
        inits = [erm.init_params((5,), 2, seed=s) for s in (4, 5, 6)]
        args = (erm.LossSpec.mse(2.0), [erm.Penalty("pesv")] * 3, erm.OptimizerConfig(), RELU)
        with pytest.raises(ValueError, match="lambda must be nonnegative"):
            erm.train_many(inits, datasets, [lams[0], -0.5, lams[2]], *args)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_rejects_non_finite_lambda(self, lam):
        """Rejected up front, not reported as a divergence at iteration 0."""
        datasets, lams = three_runs()
        inits = [erm.init_params((5,), 2, seed=s) for s in (4, 5, 6)]
        loss, pen, opt = erm.LossSpec.mse(2.0), erm.Penalty("pesv"), erm.OptimizerConfig()
        with pytest.raises(ValueError, match="lambda must be nonnegative and finite"):
            erm.train_many(inits, datasets, [lams[0], lam, lams[2]], loss, [pen] * 3, opt, RELU)
        with pytest.raises(ValueError, match="lambda must be nonnegative and finite"):
            erm.train(inits[0], datasets[0], lam, loss, pen, opt, RELU)


TABULATED = ActivationSpec.tabulated([-2.0, -0.5, 0.0, 1.0, 2.0], [-1.0, -0.2, 0.1, 0.9, 1.2])


class TestBufferedTrainMany:
    """Every batch writes its hidden layers into working arrays allocated
    once per call.  The bits of the wide batches, a tolerance stop and a
    divergence are pinned in :class:`TestPinnedBits`."""

    def test_diverging_run_carries_its_last_finite_iterate(self):
        with pytest.raises(erm.DivergenceError) as exc:
            erm.train_many(*PINNED_CONFIGS["wide diverging run"]())
        assert exc.value.run == 1
        assert str(exc.value) == "run 1: objective became non-finite at iteration 1"
        assert "diverged " + divergence_digest(exc.value) == PINNED["wide diverging run"]

    @pytest.mark.parametrize(
        "S, n, widths",
        [(10, 32, (16,)), (1, 64, (256,)), (1, 64, (255,)), (1, 63, (256,)),
         (2, 32, (3, 256)), (2, 32, (255, 3))],
    )
    def test_hidden_arrays_keep_one_address(self, monkeypatch, S, n, widths):
        """Each hidden layer's products go into one array for the whole call,
        at ``small_runs``' shape (S = 10, n = 32, width 16) as well as at
        wide ones.  Every array ``np.matmul`` returns in a hidden layer's
        shape is kept alive here, so an array allocated anew at some step
        would show a second address."""
        hidden = {(S, n, m) for m in widths}
        seen = {}
        real = np.matmul

        def recording(*args, **kwargs):
            res = real(*args, **kwargs)
            if res.shape in hidden:
                seen.setdefault(res.shape, []).append(res)
            return res

        teacher = documented_teacher(d=2)
        datasets = [erm.sample_dataset(teacher, n, 0.05, seed=s) for s in range(S)]
        inits = [erm.init_params(widths, 2, seed=s) for s in range(S)]
        args = (inits, datasets, [0.01] * S, erm.LossSpec.mse(2.0),
                [erm.Penalty("pesv")] * S, erm.OptimizerConfig(max_iters=3), RELU)
        monkeypatch.setattr(np, "matmul", recording)
        erm.train_many(*args)
        monkeypatch.undo()
        assert set(seen) == hidden
        for arrays in seen.values():
            assert len(arrays) >= 3
            assert len({a.__array_interface__["data"][0] for a in arrays}) == 1

    def test_warm_wide_train_takes_few_page_faults(self, warm_call_faults):
        """A second ``train`` at widths (256, 256), n = 512 and 100
        iterations in a fresh process takes about 2,400 minor faults, mostly
        first touches of the call's buffers.  Allocating the hidden layers
        and the path norm's temporaries anew every step took about 125,000:
        arrays of this size are mapped from the kernel and handed back."""
        faults = warm_call_faults(
            "from pesvlab import erm, netcore\n"
            "teacher = erm.documented_teacher(d=2)\n"
            "ds = erm.sample_dataset(teacher, 512, 0.05, seed=1)\n"
            "init = erm.init_params((256, 256), 2, seed=2)\n"
            "opt = erm.OptimizerConfig(step_size=0.2, max_iters=100)\n"
            "args = (init, ds, 0.01, erm.LossSpec.mse(2.0), erm.Penalty('pesv'), opt,\n"
            "        netcore.ActivationSpec.relu())",
            "erm.train(*args)",
        )
        assert faults < 10_000

    def test_warm_wide_train_holds_one_array_per_hidden_layer(self):
        """A second ``train`` at widths (256, 256), n = 512 traces a peak of
        about 6.7 MiB: the six parameter blocks and one 1 MiB buffer per
        hidden layer, which holds its preactivation, relu's activation and
        the backward delta in turn.  A buffer each for the three peaked at
        about 10.7 MiB, and relu's activations in new arrays at 8.4 MiB."""
        teacher = documented_teacher(d=2)
        ds = erm.sample_dataset(teacher, 512, 0.05, seed=1)
        init = erm.init_params((256, 256), 2, seed=2)
        opt = erm.OptimizerConfig(step_size=0.2, max_iters=5)
        args = (init, ds, 0.01, erm.LossSpec.mse(2.0), erm.Penalty("pesv"), opt, RELU)
        erm.train(*args)
        tracemalloc.start()
        try:
            erm.train(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7.5 * 2**20


# ---------------------------------------------------------------------------
# Pinned bits
# ---------------------------------------------------------------------------


def result_digest(results) -> str:
    """A digest of ``train_many`` results: each run's trace shape and bytes,
    its best iterate's bytes, ``best_objective.hex()``, iterations and
    convergence flag."""
    h = hashlib.sha256()
    for r in results:
        h.update(repr(r.trace.shape).encode() + r.trace.tobytes())
        for w in r.params.layers:
            h.update(w.tobytes())
        h.update(f"{r.best_objective.hex()} {r.iterations} {r.converged}".encode())
    return h.hexdigest()[:24]


def divergence_digest(exc: erm.DivergenceError) -> str:
    """A digest of a divergence: its message, run index and last finite
    iterate's bytes."""
    h = hashlib.sha256(f"{exc} {exc.run}".encode())
    for w in exc.last_finite.layers:
        h.update(w.tobytes())
    return h.hexdigest()[:24]


def batch_digest(args) -> str:
    """The digest of ``erm.train_many(*args)``, or of the divergence it raises."""
    try:
        return result_digest(erm.train_many(*args))
    except erm.DivergenceError as exc:
        return "diverged " + divergence_digest(exc)


LEAKY = ActivationSpec.leaky_relu(0.1)
IDENTITY = ActivationSpec.identity()
ACTS = {"relu": RELU, "leaky_relu": LEAKY, "identity": IDENTITY, "tabulated": TABULATED}


def blown_up(datasets, run):
    """``datasets`` with the targets of ``run`` scaled by 1e150."""
    big = datasets[run]
    big = erm.Dataset(big.inputs, big.targets * 1e150, big.noise_std, big.seed)
    return [*datasets[:run], big, *datasets[run + 1 :]]


def teacher_batch(seeds, n, sigma, widths, lams, regs, loss, opt, act, d=2, blow_up=None):
    """Runs on ``documented_teacher(d)`` data, run ``s`` initialized and
    sampled with ``seeds[s]``; ``blow_up`` scales one run's targets by 1e150."""
    teacher = documented_teacher(d=d)
    datasets = [erm.sample_dataset(teacher, n, sigma, seed=s) for s in seeds]
    if blow_up is not None:
        datasets = blown_up(datasets, blow_up)
    inits = [erm.init_params(widths, d, seed=s) for s in seeds]
    regs = [erm.Penalty.parse(r) for r in regs]
    return inits, datasets, lams, loss, regs, opt, act


def three_run_batch(widths, regs, loss, opt, act, labels=False, blow_up=None):
    """``three_runs()`` data from inits 4, 5, 6: ``labels`` turns the
    targets into +-1, ``blow_up`` scales one run's targets by 1e150."""
    datasets, lams = three_runs()
    if labels:
        datasets = [
            erm.Dataset(ds.inputs, np.where(ds.targets > np.median(ds.targets), 1.0, -1.0),
                        ds.noise_std, ds.seed)
            for ds in datasets
        ]
    if blow_up is not None:
        datasets = blown_up(datasets, blow_up)
    inits = [erm.init_params(widths, 2, seed=s) for s in (4, 5, 6)]
    return inits, datasets, lams, loss, [erm.Penalty.parse(r) for r in regs], opt, act


def pinned_configs() -> dict:
    """Every pinned batch by name, as a function that builds its
    ``train_many`` arguments."""
    mse, opt60 = erm.LossSpec.mse(2.0), erm.OptimizerConfig(step_size=0.3, max_iters=60)
    stop = erm.OptimizerConfig(step_size=0.5, max_iters=60, tolerance=0.004, schedule="constant")
    configs = {}
    # TestTrainMany
    for widths, act, reg in itertools.product(
        [(5,), (4, 3)], ["relu", "leaky_relu", "identity"],
        ["pesv", "weight_decay", "mixed_max:1:2", "mixed_max:3:1.5"],
    ):
        configs[f"many {widths} {act} {reg}"] = partial(
            three_run_batch, widths, [reg] * 3, mse, opt60, ACTS[act]
        )
    configs["huber constant"] = lambda: (
        [erm.init_params((6,), 3, seed=s) for s in (1, 2, 3)], *three_runs(d=3, n=9),
        erm.LossSpec.huber(0.3, 2.0), [erm.Penalty("pesv")] * 3,
        erm.OptimizerConfig(step_size=0.2, max_iters=40, schedule="constant"), RELU,
    )
    configs["one run stops early"] = partial(
        teacher_batch, (3, 0, 1), 12, 0.0, (3,), [0.0, 0.001, 0.0], ["pesv"] * 3, mse, stop, RELU
    )
    configs["diverging run"] = partial(
        three_run_batch, (5,), ["pesv"] * 3, mse, opt60, IDENTITY, blow_up=1
    )
    configs["mixed penalties"] = partial(
        teacher_batch, (3, 0, 1, 2, 4), 12, 0.0, (3,), [0.001, 0.0, 0.0005, 0.001, 0.002],
        ["pesv", "pesv", "weight_decay", "mixed_max:1:2", "pesv"], mse, stop, RELU,
    )
    configs["three groups"] = partial(
        teacher_batch, (3, 0, 1) * 3, 12, 0.0, (3,),
        [0.001, 0.0, 0.002, 0.0, 0.0005, 0.001, 0.001, 0.002, 0.0],
        ["pesv"] * 3 + ["weight_decay"] * 3 + ["mixed_max:1:2"] * 3, mse, stop, RELU,
    )
    oscillating = erm.OptimizerConfig(step_size=1.5, max_iters=60, schedule="constant")
    for reg in ("pesv", "mixed_max:1:2"):
        configs[f"best iterate {reg}"] = partial(
            three_run_batch, (5,), [reg] * 3, mse, oscillating, RELU
        )
    for reg in ("pesv", "weight_decay", "mixed_max:1:2"):
        configs[f"logistic {reg}"] = partial(
            three_run_batch, (5,), [reg] * 3, erm.LossSpec.logistic(2.0), opt60, RELU, labels=True
        )
    for other in ("mixed_max:3:1.5", "mixed_max:1.5:3", "mixed_max:1:3"):
        configs[f"groups split {other}"] = partial(
            three_run_batch, (4, 3), ["mixed_max:1:2"] * 2 + [other], mse, opt60, RELU
        )
    configs["mixed diverging run"] = partial(
        teacher_batch, range(5), 12, 0.05, (5,), [0.02, 0.0, 0.005, 0.01, 0.003],
        ["pesv", "pesv", "weight_decay", "mixed_max:1:2", "pesv"], mse, opt60, IDENTITY,
        blow_up=3,
    )
    # TestBufferedTrainMany
    opt20 = erm.OptimizerConfig(step_size=0.3, max_iters=20)
    for S, widths, act in itertools.product(
        [1, 3], [(64,), (256, 256), (3, 300)], ["relu", "leaky_relu", "tabulated"]
    ):
        configs[f"wide {S} {widths} {act}"] = partial(
            teacher_batch, range(S), 16, 0.05, widths, [0.01, 0.0, 0.02][:S],
            ["pesv", "weight_decay", "mixed_max:1:2"][:S], mse, opt20, ACTS[act],
        )
    configs["wide diverging run"] = partial(
        three_run_batch, (64,), ["pesv"] * 3, mse, opt60, IDENTITY, blow_up=1
    )
    for S, n, widths in [(1, 64, (256,)), (1, 64, (255,)), (1, 63, (256,)),
                         (2, 32, (3, 256)), (2, 32, (255, 3))]:
        configs[f"two steps {S} {n} {widths}"] = partial(
            teacher_batch, range(S), n, 0.05, widths, [0.01] * S, ["pesv"] * S, mse,
            erm.OptimizerConfig(max_iters=2), RELU,
        )
    # Depths 2 to 4, every activation, loss and penalty, mixed_max:2:3 and
    # groups with unpenalized runs; small_runs' shape.
    losses = {"mse": mse, "huber": erm.LossSpec.huber(0.3, 2.0),
              "logistic": erm.LossSpec.logistic(2.0)}
    regs = ["pesv", "weight_decay", "mixed_max:2:3", "mixed_max:1:2"]
    nets = [((6,), "tabulated"), ((4, 5), "identity"), ((5, 3, 4), "relu"),
            ((3, 6, 2), "leaky_relu")]
    for (widths, act), loss in itertools.product(nets, losses):
        configs[f"deep {widths} {act} {loss}"] = partial(
            teacher_batch, (7, 8, 9, 10, 11, 12, 13, 14), 10, 0.1, widths,
            [0.01, 0.0, 0.003, 0.02, 0.0, 0.0, 0.01, 0.005],
            [regs[s // 2] for s in range(8)], losses[loss],
            erm.OptimizerConfig(step_size=0.2, max_iters=30), ACTS[act], d=3,
        )
    configs["deep stop"] = partial(
        teacher_batch, (3, 0, 1, 2), 12, 0.0, (4, 3, 3), [0.0, 0.001, 0.0, 0.002],
        ["pesv", "mixed_max:2:3", "mixed_max:2:3", "weight_decay"], mse,
        erm.OptimizerConfig(step_size=0.3, max_iters=80, tolerance=0.01, schedule="constant"),
        RELU,
    )
    small = erm.OptimizerConfig(step_size=0.5, max_iters=200)
    configs["small_runs pesv weight_decay"] = partial(
        teacher_batch, (*range(5, 10),) * 2, 32, 0.05, (16,), [0.01] * 5 + [0.005] * 5,
        ["pesv"] * 5 + ["weight_decay"] * 5, mse, small, RELU,
    )
    configs["small_runs mixed_max"] = partial(
        teacher_batch, range(5, 10), 32, 0.05, (16,), [0.011, 0.012, 0.009, 0.01, 0.013],
        ["mixed_max:1:2"] * 5, mse, small, RELU,
    )
    configs["wide one run"] = partial(
        teacher_batch, (2,), 16, 0.05, (256, 256), [0.01], ["pesv"], mse, opt60, RELU,
    )
    return configs


PINNED_CONFIGS = pinned_configs()

# Digests of every pinned batch, taken before the training step was
# prepared once per call, with numpy 2.4.6 and its OpenBLAS.  Like every
# same-bits rule of the kernels, they hold per numpy and BLAS build.
PINNED = {
    'best iterate mixed_max:1:2': 'de8320cff25bfcd46a08907c',
    'best iterate pesv': 'ba8a24a6943c8806115b482f',
    'deep (3, 6, 2) leaky_relu huber': 'f8e7f72a139fa8a720807d2b',
    'deep (3, 6, 2) leaky_relu logistic': '6d05aa9b9395e437a32a660d',
    'deep (3, 6, 2) leaky_relu mse': 'f8e7f72a139fa8a720807d2b',
    'deep (4, 5) identity huber': '8a211ce334c31de9f90528ec',
    'deep (4, 5) identity logistic': '1db32a92ea40c22777761fd8',
    'deep (4, 5) identity mse': '87ea9c97294281038c16a959',
    'deep (5, 3, 4) relu huber': 'cb9d8f043786b20b87bb33a8',
    'deep (5, 3, 4) relu logistic': '035284b3d0733b3a3eaca40a',
    'deep (5, 3, 4) relu mse': 'cb9d8f043786b20b87bb33a8',
    'deep (6,) tabulated huber': 'c41d5170be2169778bbc9e32',
    'deep (6,) tabulated logistic': '8e69ff7f80f2d2983433f54d',
    'deep (6,) tabulated mse': '9af8ea56707cc532f92408c9',
    'deep stop': '8f3f92f445f4eccd7f71bc75',
    'diverging run': 'diverged 5a4e7fbe57da206d41a5ea76',
    'groups split mixed_max:1.5:3': '2ec897b89480b2bf6cf8d8f3',
    'groups split mixed_max:1:3': '6eb035b8ddb6320a39f57bb2',
    'groups split mixed_max:3:1.5': '3c293c97d27d3f26b2d24857',
    'huber constant': '6d931e8df9c9f8ddbc95bb25',
    'logistic mixed_max:1:2': '718dd119e72c40292350c61a',
    'logistic pesv': 'e8bd6353187276e603cfffa6',
    'logistic weight_decay': '91f6fd0b7088c77d36f7fdc8',
    'many (4, 3) identity mixed_max:1:2': '1fe48cc24252da3989d17df0',
    'many (4, 3) identity mixed_max:3:1.5': '33b14cea34a1056f5b1748f2',
    'many (4, 3) identity pesv': 'f2606cb77f70bf3069da9921',
    'many (4, 3) identity weight_decay': '93c381e044e1229809117e40',
    'many (4, 3) leaky_relu mixed_max:1:2': 'd1404e9adfd3cd03c81791f6',
    'many (4, 3) leaky_relu mixed_max:3:1.5': '680c45eb11e959cde6c03963',
    'many (4, 3) leaky_relu pesv': '3fff4786b69a9f35399934db',
    'many (4, 3) leaky_relu weight_decay': 'acc40abed16850e0dbcd8c10',
    'many (4, 3) relu mixed_max:1:2': '6eb035b8ddb6320a39f57bb2',
    'many (4, 3) relu mixed_max:3:1.5': 'f57b75a3bf5468a3e854f6f1',
    'many (4, 3) relu pesv': '35d9431d2d98e17c7d650c00',
    'many (4, 3) relu weight_decay': '44332be309bd76d7aba27d90',
    'many (5,) identity mixed_max:1:2': 'a907ae0e1576f3f0d0edf1fe',
    'many (5,) identity mixed_max:3:1.5': 'fff54ee013bdf49a5906c64f',
    'many (5,) identity pesv': 'a631f38de530ae2cb66f4744',
    'many (5,) identity weight_decay': '871099213ed586f75e47f3ec',
    'many (5,) leaky_relu mixed_max:1:2': '38d26727592934b3daca2941',
    'many (5,) leaky_relu mixed_max:3:1.5': '0254f11bda7081bba4595ab2',
    'many (5,) leaky_relu pesv': '870e16d2be4a9e2064006286',
    'many (5,) leaky_relu weight_decay': 'f18c0556242c51bd4d4b130f',
    'many (5,) relu mixed_max:1:2': '4affa148db6df513ec6e4bd0',
    'many (5,) relu mixed_max:3:1.5': '71aa48af775f54756d80ca41',
    'many (5,) relu pesv': 'ce19e78df6899d6946da2d15',
    'many (5,) relu weight_decay': '3c098dbd20c66e530c93ab54',
    'mixed diverging run': 'diverged 6ede20e43b063a9a6149c104',
    'mixed penalties': '6cdd81da8ff644c7699601f6',
    'one run stops early': 'fd1d9109ad5421e3bd98adb6',
    'small_runs mixed_max': 'fc6bd99e68c77159ebb94d09',
    'small_runs pesv weight_decay': 'cfc23ab9eb508ccf692bbe19',
    'three groups': '51408270ec5b0c2961e28828',
    'two steps 1 63 (256,)': '61c309d93deb50c16aa9634a',
    'two steps 1 64 (255,)': 'bbbb783e598a030302cb9fad',
    'two steps 1 64 (256,)': '479cdbd52258c2cbc03ff1f7',
    'two steps 2 32 (255, 3)': 'cac4db834e822ddb665daed0',
    'two steps 2 32 (3, 256)': 'edf4ffd276b9df066616b77a',
    'wide 1 (256, 256) leaky_relu': 'dca7cbda134e6d046a4c8fa5',
    'wide 1 (256, 256) relu': '3b97f0e6d0c7e7c13fe12ed3',
    'wide 1 (256, 256) tabulated': '1202387035e4e346dd7fcfd3',
    'wide 1 (3, 300) leaky_relu': 'e63acdf94f6d97f69095cc5e',
    'wide 1 (3, 300) relu': 'eb5f7d27129bd2c9022135bc',
    'wide 1 (3, 300) tabulated': 'd36454c4800e33cbdcf7eec1',
    'wide 1 (64,) leaky_relu': '40f76e9d63fbe3f6468cfb9a',
    'wide 1 (64,) relu': '40c18424071de4c918c57259',
    'wide 1 (64,) tabulated': '98e04f230c1e198c6f9cc6af',
    'wide 3 (256, 256) leaky_relu': '6ac9207a280ea4023f29a059',
    'wide 3 (256, 256) relu': 'f0b99e419adf5ddbe601cba4',
    'wide 3 (256, 256) tabulated': '10b9272af621f6dd1deda94e',
    'wide 3 (3, 300) leaky_relu': '18b6940fe890d579cf6df560',
    'wide 3 (3, 300) relu': 'ee03297d267df6b5551cb330',
    'wide 3 (3, 300) tabulated': '2a67fe3346d27266d813889f',
    'wide 3 (64,) leaky_relu': 'd876ff46a2ba219fa258823e',
    'wide 3 (64,) relu': 'd1bbb816ab0e26b7e85f3a58',
    'wide 3 (64,) tabulated': 'd0458351a8b6b61f1cf3bcf9',
    'wide diverging run': 'diverged 2a76629f0665ea5cf5f52727',
    'wide one run': '768289f0cefdd45d3357f29b',
}


class TestPinnedBits:
    """``train_many`` keeps the bits its batches had when they were pinned."""

    @pytest.mark.parametrize("name", sorted(PINNED_CONFIGS))
    def test_batch_keeps_its_bits(self, name):
        assert batch_digest(PINNED_CONFIGS[name]()) == PINNED[name]


@st.composite
def training_batches(draw):
    """A small batch: depth 2 to 4, one activation and loss, a penalty and a
    lambda (zero at times) per run, and a schedule with or without a
    tolerance."""
    S = draw(st.integers(1, 4))
    widths = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)))
    d = draw(st.integers(1, 3))
    act = ACTS[draw(st.sampled_from(sorted(ACTS)))]
    loss = draw(st.sampled_from(["mse", "huber", "logistic"]))
    regs = [erm.Penalty.parse(r) for r in draw(st.lists(
        st.sampled_from(["pesv", "weight_decay", "mixed_max:1:2", "mixed_max:2:3"]),
        min_size=S, max_size=S,
    ))]
    lams = draw(st.lists(st.sampled_from([0.0, 0.001, 0.01, 0.05]), min_size=S, max_size=S))
    seed = draw(st.integers(0, 2**16))
    opt = erm.OptimizerConfig(
        step_size=draw(st.sampled_from([0.05, 0.3, 1.0])),
        max_iters=draw(st.integers(1, 20)),
        tolerance=draw(st.sampled_from([0.0, 0.02])),
        schedule=draw(st.sampled_from(["inv_sqrt", "constant"])),
    )
    teacher = documented_teacher(d=d)
    n = draw(st.integers(1, 12))
    datasets = [erm.sample_dataset(teacher, n, 0.1, seed=seed + s) for s in range(S)]
    if loss == "logistic":
        datasets = [erm.Dataset(ds.inputs, np.where(ds.targets > 0.0, 1.0, -1.0),
                                ds.noise_std, ds.seed) for ds in datasets]
        loss_spec = erm.LossSpec.logistic(2.0)
    else:
        loss_spec = erm.LossSpec.mse(2.0) if loss == "mse" else erm.LossSpec.huber(0.3, 2.0)
    inits = [erm.init_params(widths, d, seed=seed + 7 * s) for s in range(S)]
    return inits, datasets, lams, loss_spec, regs, opt, act


class TestTrainManyProperty:
    @settings(derandomize=True, max_examples=25, deadline=None, database=None)
    @given(training_batches())
    def test_batch_equals_each_run_trained_alone(self, batch):
        """Each run of a batch has the bits of its own ``train`` call, and a
        batch that diverges names a run whose own call diverges with the
        same last finite iterate."""
        inits, datasets, lams, loss, regs, opt, act = batch
        runs = list(zip(inits, datasets, lams, regs, strict=True))
        try:
            results = erm.train_many(*batch)
        except erm.DivergenceError as exc:
            init, ds, lam, reg = runs[exc.run]
            with pytest.raises(erm.DivergenceError) as alone:
                erm.train(init, ds, lam, loss, reg, opt, act)
            pairs = zip(alone.value.last_finite.layers, exc.value.last_finite.layers, strict=True)
            assert all(a.tobytes() == b.tobytes() for a, b in pairs)
            return
        for res, (init, ds, lam, reg) in zip(results, runs, strict=True):
            assert_same_result(erm.train(init, ds, lam, loss, reg, opt, act), res)


class TestErrorMeasures:
    @pytest.mark.parametrize("widths", [(256, 256), (1000,)])
    def test_evaluation_memory_does_not_grow_with_the_test_points(self, widths):
        """A warm 4096-point estimate traces about 1.2 MiB at widths (256,
        256) and 0.7 MiB at (1000,): the test points and one block of rows
        of each hidden layer.  Evaluated in one pass, it traced 16.2 and
        31.4 MiB."""
        teacher = documented_teacher(d=2)
        p = erm.init_params(widths, 2, seed=2)
        erm.generalization_error_mc(p, RELU, teacher, 4096, seed=3)
        tracemalloc.start()
        try:
            erm.generalization_error_mc(p, RELU, teacher, 4096, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_teacher_against_itself(self):
        teacher = documented_teacher(d=2)
        ds = erm.sample_dataset(teacher, 20, 0.3, seed=9)
        assert erm.empirical_error(teacher.teacher, RELU, teacher, ds) == 0.0
        g, se = erm.generalization_error_mc(teacher.teacher, RELU, teacher, 100, seed=0)
        assert g == 0.0 and se == 0.0

    def test_single_point(self):
        teacher = erm.TeacherSpec.create(
            NetParams.from_arrays([np.zeros((1, 2)), np.zeros((1, 1))]), RELU
        )
        one = NetParams.from_arrays([np.array([[0.0, 1.0]]), np.array([[1.0]])])
        ds = erm.Dataset(
            inputs=np.array([[0.0, 1.0]]), targets=np.array([0.0]), noise_std=0.0, seed=0
        )
        assert erm.empirical_error(one, RELU, teacher, ds) == 1.0

    def test_zero_net_bounded_by_pointwise_norm(self):
        """Against a unit-norm teacher the zero net errs at most
        L^2(L-1) * (sup ||x||)^2 <= 2 by the pointwise output bound."""
        teacher = documented_teacher(d=2)
        assert teacher.nu_teacher == pytest.approx(1.0, rel=1e-12)
        ds = erm.sample_dataset(teacher, 500, 0.0, seed=10)
        zero = NetParams.from_arrays([np.zeros((2, 3)), np.zeros((1, 2))])
        err = erm.empirical_error(zero, RELU, teacher, ds)
        assert err <= 2.0

    def test_mc_reproducible(self):
        teacher = documented_teacher(d=2)
        p = erm.init_params((4,), 2, seed=9)
        a = erm.generalization_error_mc(p, RELU, teacher, 500, seed=3)
        b = erm.generalization_error_mc(p, RELU, teacher, 500, seed=3)
        assert a == b

    def test_mc_self_consistency(self):
        """Small-sample estimate within 3 standard errors of a 10x one."""
        teacher = documented_teacher(d=2)
        p = erm.init_params((4,), 2, seed=9)
        g1, se1 = erm.generalization_error_mc(p, RELU, teacher, 2000, seed=3)
        g2, _ = erm.generalization_error_mc(p, RELU, teacher, 20_000, seed=4)
        assert abs(g1 - g2) <= 3 * se1


class TestFitAndMeasure:
    def test_equals_the_steps_spelled_out(self):
        """Sample, initialize, train, then measure on ``n_test`` points drawn
        with the data seed plus one: the same values, bit for bit."""
        teacher = documented_teacher(d=2)
        loss, reg = erm.LossSpec.mse(2.0), erm.Penalty("pesv")
        opt = erm.OptimizerConfig(step_size=0.3, max_iters=60)
        res, nu, emp, gen, gen_se = erm.fit_and_measure(
            teacher, 24, 0.05, 3, (5, 4), 7, 0.01, loss, reg, opt, RELU, 300
        )
        ds = erm.sample_dataset(teacher, 24, 0.05, seed=3)
        ref = erm.train(erm.init_params((5, 4), 2, seed=7), ds, 0.01, loss, reg, opt, RELU)
        for w, w_ref in zip(res.params.layers, ref.params.layers, strict=True):
            np.testing.assert_array_equal(w, w_ref)
        np.testing.assert_array_equal(res.trace, ref.trace)
        assert res.best_objective == ref.best_objective
        assert nu == norms.pesv_norm(ref.params)
        assert emp == erm.empirical_error(ref.params, RELU, teacher, ds)
        assert (gen, gen_se) == erm.generalization_error_mc(ref.params, RELU, teacher, 300, seed=4)

    def test_divergence_is_raised(self):
        teacher = documented_teacher(d=2)
        opt = erm.OptimizerConfig(step_size=1e9, schedule="constant", max_iters=200)
        with pytest.raises(erm.DivergenceError) as exc, np.errstate(
            over="ignore", invalid="ignore"
        ):
            erm.fit_and_measure(
                teacher, 8, 0.0, 1, (4,), 0, 0.0, erm.LossSpec.mse(2.0), erm.Penalty("pesv"),
                opt, ActivationSpec.identity(), 100,
            )
        for w in exc.value.last_finite.layers:
            assert np.all(np.isfinite(w))


class TestOptimizerConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"step_size": 0.0},
            {"step_size": -0.1},
            {"step_size": math.nan},
            {"step_size": math.inf},
            {"max_iters": 0},
            {"tolerance": -1.0},
            {"tolerance": math.nan},
            {"tolerance": math.inf},
            {"schedule": "cosine"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            erm.OptimizerConfig(**kwargs)

    def test_accepts_edges(self):
        opt = erm.OptimizerConfig(step_size=1e-300, max_iters=1, tolerance=0.0)
        assert (opt.step_size, opt.max_iters, opt.tolerance) == (1e-300, 1, 0.0)


class TestPenaltyParse:
    def test_parse_forms(self):
        assert erm.Penalty.parse("pesv").kind == "pesv"
        assert erm.Penalty.parse("weight_decay").kind == "weight_decay"
        mm = erm.Penalty.parse("mixed_max(1,2)")
        assert (mm.kind, mm.p, mm.q) == ("mixed_max", 1.0, 2.0)
        mm2 = erm.Penalty.parse("mixed_max:1:2")
        assert (mm2.p, mm2.q) == (1.0, 2.0)

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            erm.Penalty.parse("lasso")

    @pytest.mark.parametrize("p, q", [(float("nan"), 2.0), (1.0, float("nan")), (0.5, 2.0)])
    def test_rejects_exponents_below_one_or_nan(self, p, q):
        with pytest.raises(ValueError, match="at least 1"):
            erm.Penalty("mixed_max", p, q)

    @pytest.mark.parametrize("p, q", [(math.inf, 2.0), (1.0, math.inf)])
    def test_rejects_infinite_exponents(self, p, q):
        with pytest.raises(ValueError, match="finite and at least 1"):
            erm.Penalty("mixed_max", p, q)

    @pytest.mark.parametrize("spec", ["mixed_max:nan:2", "mixed_max:1:inf", "mixed_max(-inf,2)"])
    def test_rejects_non_finite_spec_arguments(self, spec):
        with pytest.raises(ValueError, match="non-finite argument"):
            erm.Penalty.parse(spec)
