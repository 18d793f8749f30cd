"""Loss models, synthetic data, and penalized subgradient training."""

import hashlib
import math
import warnings

import numpy as np
import pytest

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

    def test_seed_determinism_byte_equal(self, tmp_path):
        teacher = documented_teacher(d=2)
        digest = hashlib.sha256(
            nc.network_to_json(teacher.teacher, teacher.act).encode()
        ).hexdigest()[:16]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            ds = erm.sample_dataset(teacher, 32, 0.2, seed=7)
            erm.save_dataset(path, ds, teacher_digest=digest)
        assert a.read_bytes() == b.read_bytes()

    def test_dataset_round_trip(self, tmp_path):
        teacher = documented_teacher(d=2)
        ds = erm.sample_dataset(teacher, 16, 0.1, seed=3)
        path = tmp_path / "d.csv"
        erm.save_dataset(path, ds)
        ds2 = erm.load_dataset(path)
        np.testing.assert_array_equal(ds.inputs, ds2.inputs)
        np.testing.assert_array_equal(ds.targets, ds2.targets)
        assert ds2.seed == 3 and ds2.noise_std == 0.1

    def test_user_inputs_validated(self):
        teacher = documented_teacher(d=2)
        bad = np.full((4, 2), 3.0)
        with pytest.raises(ValueError):
            erm.sample_dataset(teacher, 4, 0.0, inputs=bad)


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


_SUBGRADIENTS = {
    "pesv": lambda reg, w: norms.pesv_subgradient(w),
    "weight_decay": lambda reg, w: norms.weight_decay_subgradient(w),
    "mixed_max": lambda reg, w: norms.mixed_max_subgradient(w, reg.p, reg.q),
}


def single_loop_train(init, dataset, lam, loss, reg, opt, act):
    """Reference: one network at a time, through the 2-D public functions
    (forward, backprop, the penalty value and subgradient)."""
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
        grads = nc.backprop(arrs, act, x, loss.dpred(preds, y) / dataset.n)
        if lam > 0.0:
            for g, r in zip(grads, _SUBGRADIENTS[reg.kind](reg, arrs)):
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

    def test_groups_split_on_penalty_parameters(self):
        """Equal kinds with other exponents are other penalties."""
        datasets, lams = three_runs()
        inits = [erm.init_params((4, 3), 2, seed=s) for s in (4, 5, 6)]
        regs = [erm.Penalty.parse(r) for r in ("mixed_max:1:2",) * 2 + ("mixed_max:3:1.5",)]
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


class TestErrorMeasures:
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
