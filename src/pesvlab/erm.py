"""Synthetic regression data, loss models, and penalized subgradient training."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import norms
from .netcore import (
    ActivationSpec,
    NetParams,
    StackedPass,
    forward,
    layer_shapes,
    parse_spec,
)
from .norms import Penalty

__all__ = [
    "Dataset",
    "DivergenceError",
    "LossSpec",
    "OptimizerConfig",
    "Penalty",
    "TeacherSpec",
    "TrainResult",
    "ball_points",
    "documented_teacher",
    "empirical_error",
    "fit_and_measure",
    "generalization_error_mc",
    "init_params",
    "objective",
    "sample_dataset",
    "train",
    "train_many",
    "uniform_ball",
]

_SQRT2 = math.sqrt(2.0)


class DivergenceError(RuntimeError):
    """Training hit a non-finite objective; carries the best finite iterate
    and the index of the run that diverged."""

    def __init__(self, message: str, last_finite: NetParams, run: int = 0):
        super().__init__(message)
        self.last_finite = last_finite
        self.run = run


@dataclass(frozen=True)
class LossSpec:
    """Per-sample loss with the regularity constants of the error analysis.

    ``L0`` bounds the joint Lipschitz constant of the loss in ``(f, y)``,
    ``L1y`` the one of its ``y``-derivative, ``B`` the second ``y``-derivative,
    and ``gamma`` the strong-convexity modulus in the prediction; all taken
    over the working range ``|f|, |y| <= range_bound``.  The loss vanishes on
    the diagonal (perfect prediction of a clean target costs zero).
    """

    kind: str
    L0: float
    L1y: float
    B: float
    gamma: float
    range_bound: float
    delta: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _LOSSES:
            raise ValueError(f"unknown loss kind {self.kind!r}")

    @classmethod
    def mse(cls, range_bound: float) -> "LossSpec":
        """Half squared error.  On ``|f|,|y| <= R`` the joint gradient has
        norm at most ``2 sqrt(2) R``; the ``y``-derivative is ``sqrt(2)``-
        Lipschitz in the pair, its second derivative is 1, and the modulus of
        convexity in ``f`` is exactly 1."""
        if not 0 < range_bound < math.inf:
            raise ValueError("range bound must be positive and finite")
        return cls("mse", 2.0 * _SQRT2 * range_bound, _SQRT2, 1.0, 1.0, range_bound)

    @classmethod
    def mse_for(cls, teacher: "TeacherSpec", sigma_eps: float) -> "LossSpec":
        """Half squared error with the working range derived from the teacher:
        sup |f*| over the input ball plus a 6-sigma noise cap."""
        lip = teacher.act.lipschitz ** (teacher.teacher.depth - 1)
        r0 = lip * _SQRT2 * teacher.nu_teacher + 6.0 * sigma_eps
        return cls.mse(max(r0, 1e-12))

    @classmethod
    def huber(cls, delta: float, range_bound: float) -> "LossSpec":
        if not (0 < delta < math.inf and 0 < range_bound < math.inf):
            raise ValueError("delta and range bound must be positive and finite")
        gamma = 1.0 if 2.0 * range_bound <= delta else 0.0
        return cls("huber", _SQRT2 * delta, _SQRT2, 1.0, gamma, range_bound, delta)

    @classmethod
    def logistic(cls, range_bound: float) -> "LossSpec":
        """Margin logistic loss normalized to vanish on the diagonal.

        Constants are estimated by a grid sup over 401 predictors in
        ``[-R, R]`` and hard labels ``{-1, +1}``; no uniform convexity
        modulus exists for unconstrained labels, so the recorded ``gamma``
        is the working-set one.
        """
        if not 0 < range_bound < math.inf:
            raise ValueError("range bound must be positive and finite")
        r = range_bound
        fs = np.linspace(-r, r, 401)
        ys = np.array([-1.0, 1.0])
        F, Y = np.meshgrid(fs, ys, indexing="ij")

        def s(x):
            return 1.0 / (1.0 + np.exp(-x))

        d_f = -Y * s(-Y * F)
        d_y = -F * s(-Y * F) + 2.0 * Y * s(-Y * Y)
        L0 = float(np.max(np.hypot(d_f, d_y))) * 1.01
        h = 1e-5
        dy_f = (-(Y) * s(-(Y) * (F + h)) + Y * s(-Y * (F - h))) / (2 * h)
        dy_y = (
            (-(F) * s(-(Y + h) * F) + 2.0 * (Y + h) * s(-((Y + h) ** 2)))
            - (-(F) * s(-(Y - h) * F) + 2.0 * (Y - h) * s(-((Y - h) ** 2)))
        ) / (2 * h)
        L1y = float(np.max(np.hypot(dy_f, dy_y))) * 1.01
        B = float(np.max(np.abs(dy_y))) * 1.01
        d2_ff = Y * Y * s(-Y * F) * s(Y * F)
        gamma = float(np.min(d2_ff))
        return cls("logistic", L0, L1y, B, gamma, range_bound)

    @classmethod
    def parse(cls, text: str, range_bound: float) -> "LossSpec":
        """Build from a ``mse``, ``huber:delta`` or ``logistic`` spec over the
        working range ``|f|, |y| <= range_bound``."""
        kind, args = parse_spec(text, {k: v.spec_args for k, v in _LOSSES.items()}, "loss")
        return getattr(cls, kind)(*args, range_bound)

    def value(self, f, y):
        f = np.asarray(f, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        return _LOSSES[self.kind].value(self, f, y, f - y)

    def dpred(self, f, y):
        """Derivative of the loss in the prediction."""
        f = np.asarray(f, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        return _LOSSES[self.kind].dpred(self, f, y, f - y)


def _written(value: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """``value``, copied into ``out`` when given."""
    if out is None:
        return value
    out[...] = value
    return out


def _huber_value(
    loss: LossSpec, f: np.ndarray, y: np.ndarray, u: np.ndarray, out=None
) -> np.ndarray:
    au = np.abs(u)
    return _written(
        np.where(au <= loss.delta, 0.5 * u * u, loss.delta * (au - 0.5 * loss.delta)), out
    )


class _LossKind(NamedTuple):
    # Per-sample value and prediction derivative at predictions ``f``,
    # targets ``y`` and residuals ``f - y``; the value is written into the
    # array ``out`` when given.
    value: Callable[[LossSpec, np.ndarray, np.ndarray, np.ndarray, np.ndarray | None], np.ndarray]
    dpred: Callable[[LossSpec, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    spec_args: tuple[int, ...]  # argument counts ``parse`` accepts
    half_square: bool = False  # the value is half the squared residual


# Every loss kind; ``parse`` builds a kind through the classmethod of the
# same name, with the spec arguments first and the range bound last.
_LOSSES = {
    "mse": _LossKind(
        lambda ls, f, y, u, out=None: np.multiply(np.square(u, out), 0.5, out),
        lambda ls, f, y, u: u,
        (0,),
        True,
    ),
    "huber": _LossKind(
        _huber_value, lambda ls, f, y, u: np.clip(u, -ls.delta, ls.delta), (1,)
    ),
    "logistic": _LossKind(
        lambda ls, f, y, u, out=None: _written(
            np.logaddexp(0.0, -y * f) - np.logaddexp(0.0, -y * y), out
        ),
        lambda ls, f, y, u: -y / (1.0 + np.exp(y * f)),
        (0,),
    ),
}


@dataclass(frozen=True)
class TeacherSpec:
    """Ground-truth network together with its path norm (the target-norm proxy)."""

    teacher: NetParams
    act: ActivationSpec
    nu_teacher: float

    def __post_init__(self) -> None:
        if self.nu_teacher != norms.pesv_norm(self.teacher):
            raise ValueError("stored teacher norm disagrees with the parameters")

    @classmethod
    def create(cls, params: NetParams, act: ActivationSpec) -> "TeacherSpec":
        return cls(params, act, norms.pesv_norm(params))


@dataclass(frozen=True)
class Dataset:
    """Training sample: inputs ``(x_i, 1)`` in the unit ball and noisy targets."""

    inputs: np.ndarray
    targets: np.ndarray
    noise_std: float
    seed: int

    def __post_init__(self) -> None:
        x = np.array(self.inputs, dtype=np.float64)
        y = np.array(self.targets, dtype=np.float64).ravel()
        if x.ndim != 2 or x.shape[0] != y.shape[0]:
            raise ValueError("inputs must be (n, d+1) with one target per row")
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "targets", y)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1] - 1


def uniform_ball(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """``n`` points drawn uniformly from the unit ball of ``R^d``."""
    return ball_points(rng.standard_normal((n, d)), rng.random(n))


def ball_points(g: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The points :func:`uniform_ball` makes of its draws: each row of the
    standard normals ``g``, ``(n, d)``, scaled to norm ``u ** (1/d)`` by its
    entry of the uniforms ``u``.  The work is row by row, so a row has the
    same bits whatever rows come with it."""
    norms_g = np.sqrt(norms.row_sums(g * g))  # the bits of np.linalg.norm(g, axis=1)
    if not norms_g.all():
        norms_g[norms_g == 0.0] = 1.0
    radii = u ** (1.0 / g.shape[1])
    return g * (radii / norms_g)[:, None]


def sample_dataset(teacher: TeacherSpec, n: int, sigma_eps: float, seed: int = 0) -> Dataset:
    """Draw ``y_i = f*(x_i) + eps_i`` with ``x_i`` uniform in the unit ball
    and independent Gaussian noise; deterministic per seed."""
    if not (n >= 1 and 0 <= sigma_eps < math.inf):
        raise ValueError("need n >= 1 and a finite sigma_eps >= 0")
    rng = np.random.default_rng(seed)
    x = uniform_ball(rng, n, teacher.teacher.input_dim)
    xt = np.hstack([x, np.ones((n, 1))])
    y = forward(teacher.teacher, teacher.act, xt)
    noise = sigma_eps * rng.standard_normal(n)
    return Dataset(inputs=xt, targets=y + noise, noise_std=sigma_eps, seed=seed)


def objective(params, dataset: Dataset, lam: float, loss: LossSpec, reg: Penalty, act: ActivationSpec) -> float:
    """Penalized empirical risk: mean per-sample loss plus ``lam`` times the
    regularizer (for half squared error this is ``(1/2n) sum (y - g)^2``)."""
    if not 0 <= lam < math.inf:
        raise ValueError(f"lambda must be nonnegative and finite, got {lam}")
    preds = forward(params, act, dataset.inputs)
    return float(np.mean(loss.value(preds, dataset.targets))) + lam * reg.value(params)


_SCHEDULES = ("inv_sqrt", "constant")


@dataclass(frozen=True)
class OptimizerConfig:
    """Plain subgradient descent settings with an inverse-sqrt step schedule."""

    step_size: float = 0.1
    max_iters: int = 10_000
    tolerance: float = 0.0
    schedule: str = "inv_sqrt"

    def __post_init__(self) -> None:
        if not 0.0 < self.step_size < math.inf or self.max_iters < 1:
            raise ValueError("need a finite positive step size and at least one iteration")
        if not 0.0 <= self.tolerance < math.inf:
            raise ValueError("need a finite nonnegative tolerance")
        if self.schedule not in _SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}")

    @staticmethod
    def parse_schedule(text: str) -> str:
        """Check an ``inv_sqrt`` or ``constant`` schedule name."""
        return parse_spec(text, dict.fromkeys(_SCHEDULES, (0,)), "schedule")[0]


@dataclass(frozen=True)
class TrainResult:
    params: NetParams
    trace: np.ndarray  # columns: iteration, objective, empirical_mse, nu
    best_objective: float
    iterations: int
    converged: bool


def train(
    init: NetParams,
    dataset: Dataset,
    lam: float,
    loss: LossSpec,
    reg: Penalty,
    opt: OptimizerConfig,
    act: ActivationSpec,
) -> TrainResult:
    """Minimize the penalized empirical risk by subgradient descent.

    Records the objective every iteration and returns the best iterate seen
    (the subgradient method is not monotone).  The trace also carries the
    training mean squared residual and the path norm of the current iterate.
    A non-finite objective aborts with the best finite iterate attached.
    """
    return train_many([init], [dataset], [lam], loss, [reg], opt, act)[0]


def train_many(
    inits: Sequence[NetParams],
    datasets: Sequence[Dataset],
    lams: Sequence[float],
    loss: LossSpec,
    regs: Sequence[Penalty],
    opt: OptimizerConfig,
    act: ActivationSpec,
) -> list[TrainResult]:
    """Run :func:`train` for ``S`` independent runs at once, run ``s``
    starting from ``inits[s]`` on ``datasets[s]`` with ``lams[s]`` and the
    penalty ``regs[s]``.

    - Each result has the bits of the run's own :func:`train` call.  The
      runs advance together, one set of stacked matrix products per
      iteration.
    - The datasets share their sample count and the initial networks their
      shapes.  Each stretch of consecutive equal penalties is one stacked
      group, so runs that share a penalty should sit next to each other.
    - Under ``opt.tolerance > 0`` a run that meets it stops updating and
      recording while the others go on.  The first run to reach a
      non-finite objective raises :class:`DivergenceError`, carrying its
      best finite iterate and its index in this batch.
    - The call prepares its step once: a :class:`netcore.StackedPass` and a
      :class:`norms.PenaltyPass` over the layers, which it updates in
      place.  Whatever the batch's size, every step writes its hidden
      layers, outputs, loss terms, gradients and penalty pieces into arrays
      allocated then; huber and logistic also take temporaries for their
      terms.
    """
    S = len(inits)
    if len(datasets) != S or len(lams) != S or len(regs) != S:
        raise ValueError("need one dataset, one lambda and one penalty per run")
    if S == 0:
        return []
    n = datasets[0].n
    if any(ds.n != n for ds in datasets):
        raise ValueError("every run needs the same sample count")
    x = np.stack([ds.inputs for ds in datasets])
    y = np.stack([ds.targets for ds in datasets])
    lam = np.array(lams, dtype=np.float64)
    if not np.all((lam >= 0.0) & (lam < math.inf)):
        raise ValueError("lambda must be nonnegative and finite")
    # The layers, their gradients, the best iterate, the penalty
    # subgradients and the two work arrays of the path norm each live in one
    # layer-major block: layer k of every run is a C-contiguous (S, rows,
    # cols) view, the layout np.stack gives.  The layers are updated in
    # place, so the views stay current.
    shapes = [(S, *w.shape) for w in inits[0].layers]
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    block, grad_block, best_block, pen_block, abs_block, outer_block = np.zeros((6, ends[-1]))
    arrs, grads, best, pens, abss, outers = (
        [part.reshape(shape) for part, shape in zip(np.split(flat, ends[:-1]), shapes)]
        for flat in (block, grad_block, best_block, pen_block, abs_block, outer_block)
    )
    for w, ws in zip(arrs, zip(*(p.layers for p in inits))):
        np.stack(ws, out=w)
    best_block[:] = block
    # The run of every value of a block, for masks over whole blocks.
    run_of = np.concatenate([np.repeat(np.arange(S), math.prod(shape[1:])) for shape in shapes])
    # A run with lam = 0 takes no penalty subgradient, and a stopped run no
    # step; the masks stay True (no masking) while every run takes them.
    penalized = lam > 0.0
    # Runs lo..hi-1 of each group share one penalty; a uniform batch is one
    # group.  One pass gives every run's trace path norm and penalty value,
    # and writes the subgradients of the groups with a penalized run.
    cuts = [0] + [s for s in range(1, S) if regs[s] != regs[s - 1]] + [S]
    groups = [
        norms.PenaltyGroup(slice(lo, hi), regs[lo], bool(penalized[lo:hi].any()))
        for lo, hi in zip(cuts, cuts[1:])
    ]
    # Every working array and view of a step, taken once: the calls from the
    # layers to the objectives, and from the objectives' derivatives to the
    # penalized gradients.
    net = StackedPass.prepare(arrs, act, x, grads)
    penalty = norms.PenaltyPass(arrs, groups, pens, (abss, outers))
    preds, upstream, nu, value = net.out, net.upstream, penalty.nu, penalty.value
    loss_kind = _LOSSES[loss.kind]
    resid, terms = np.empty((2, S, n))
    total, mean, lam_value, sq = np.empty((4, S))
    # This step's objective, empirical_mse and nu: row t of the history.
    step_values = np.empty((3, S))
    obj, mse = step_values[:2]
    evaluate = [
        *net.forward_calls,
        partial(np.subtract, preds, y, resid),
        lambda: np.add.reduce(loss_kind.value(loss, preds, y, resid, terms), -1, None, total),
        *penalty.calls,
        partial(np.divide, total, n, mean),
        partial(np.multiply, lam, value, lam_value),
        partial(np.add, mean, lam_value, obj),
    ]
    # Half squared errors sum to half the squared error's sum: halving is
    # exact, short of subnormal halves.
    record = [
        partial(np.multiply, total, 2.0, sq) if loss_kind.half_square
        else lambda: np.add.reduce(np.multiply(resid, resid, terms), -1, None, sq),
        partial(np.divide, sq, n, mse),
        partial(step_values.__setitem__, 2, nu),
    ]
    differentiate = [
        lambda: np.divide(loss_kind.dpred(loss, preds, y, resid), n, upstream),
        *net.backprop_calls,
    ]
    if penalized.any():
        differentiate += [
            partial(np.multiply, pen_block, lam[run_of], pen_block),
            partial(np.add, grad_block, pen_block, grad_block,
                    where=True if penalized.all() else penalized[run_of]),
        ]
    update_where = True
    history = np.empty((opt.max_iters, 3, S))
    best_obj = np.full(S, math.inf)
    better = np.empty(S, dtype=bool)
    better_flat = np.empty(ends[-1], dtype=bool)
    iters = np.full(S, opt.max_iters)
    active = np.ones(S, dtype=bool)

    # Finiteness is checked on the objective, so overflow along the way is
    # expected, not worth a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(opt.max_iters):
            for call in evaluate:
                call()
            # A finite sum means finite objectives; an overflowing one is
            # checked run by run.
            if not math.isfinite(np.add.reduce(obj)) and not np.isfinite(obj).all():
                s = int(np.flatnonzero(~np.isfinite(obj))[0])
                where = f"run {s}: " if S > 1 else ""
                raise DivergenceError(
                    f"{where}objective became non-finite at iteration {t}",
                    NetParams(tuple(b[s] for b in best)),
                    run=s,
                )
            for call in record:
                call()
            history[t] = step_values
            np.less(obj, best_obj, better)
            improved = np.count_nonzero(better)
            if improved == S:
                best_obj[...] = obj
                best_block[...] = block
            elif improved:
                np.copyto(best_obj, obj, where=better)
                np.copyto(best_block, block, where=better.take(run_of, None, better_flat))
            for call in differentiate:
                call()
            if opt.tolerance > 0.0:
                gnorm, tnorm = (
                    np.sqrt(sum(np.add.reduce((w * w).reshape(S, -1), axis=-1) for w in ws))
                    for ws in (grads, arrs)
                )
                done = active & (gnorm <= opt.tolerance * (1.0 + tnorm))
                if done.any():
                    iters[done] = t + 1
                    active &= ~done
                    if not active.any():
                        break
                    update_where = active[run_of]
            step = opt.step_size
            if opt.schedule == "inv_sqrt":
                step /= math.sqrt(t + 1.0)
            np.multiply(grad_block, step, grad_block)
            np.subtract(block, grad_block, block, where=update_where)

    return [
        TrainResult(
            params=NetParams(tuple(b[s] for b in best)),
            trace=np.column_stack((np.arange(k, dtype=np.float64), *history[:k, :, s].T)),
            best_objective=float(best_obj[s]),
            iterations=int(k),
            converged=bool(not active[s]),
        )
        for s, k in enumerate(iters)
    ]


def empirical_error(params, act: ActivationSpec, teacher: TeacherSpec, dataset: Dataset) -> float:
    """Mean squared deviation from the noiseless teacher on the training inputs."""
    g = forward(params, act, dataset.inputs)
    f_star = forward(teacher.teacher, teacher.act, dataset.inputs)
    return float(np.mean((g - f_star) ** 2))


def generalization_error_mc(
    params,
    act: ActivationSpec,
    teacher: TeacherSpec,
    n_test: int,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo estimate of the population squared error against the
    teacher, with the standard error of the mean."""
    if n_test < 2:
        raise ValueError("need at least two test points")
    d = teacher.teacher.input_dim
    rng = np.random.default_rng(seed)
    x = uniform_ball(rng, n_test, d)
    xt = np.hstack([x, np.ones((n_test, 1))])
    errs = (forward(params, act, xt) - forward(teacher.teacher, teacher.act, xt)) ** 2
    return float(errs.mean()), float(errs.std(ddof=1) / math.sqrt(n_test))


def fit_and_measure(
    teacher: TeacherSpec,
    n: int,
    sigma_eps: float,
    seed: int,
    widths,
    init_seed: int,
    lam: float,
    loss: LossSpec,
    reg: Penalty,
    opt: OptimizerConfig,
    act: ActivationSpec,
    n_test: int,
) -> tuple[TrainResult, float, float, float, float]:
    """Train a network of hidden ``widths``, initialized with ``init_seed``, on
    ``sample_dataset(teacher, n, sigma_eps, seed)`` and measure it.

    Returns the :func:`train` result, its path norm, its empirical error and
    its generalization error with that estimate's standard error, taken on
    ``n_test`` test points drawn with seed ``seed + 1``.  A run that
    diverges raises :class:`DivergenceError` as :func:`train` does.
    """
    ds = sample_dataset(teacher, n, sigma_eps, seed=seed)
    res = train(init_params(widths, ds.input_dim, seed=init_seed), ds, lam, loss, reg, opt, act)
    emp = empirical_error(res.params, act, teacher, ds)
    gen, gen_se = generalization_error_mc(res.params, act, teacher, n_test, seed=seed + 1)
    return res, norms.pesv_norm(res.params), emp, gen, gen_se


def init_params(widths, d: int, seed: int = 0) -> NetParams:
    """Uniform ``(-s, s)`` initialization with ``s = 1/sqrt(fan_in)`` per layer."""
    rng = np.random.default_rng(seed)
    layers = []
    for rows, cols in layer_shapes(widths, d + 1):
        s = 1.0 / math.sqrt(cols)
        layers.append(rng.uniform(-s, s, size=(rows, cols)))
    return NetParams(tuple(layers))


def documented_teacher(d: int = 2, widths=(2,), seed: int = 11) -> TeacherSpec:
    """Deterministic small relu teacher with path norm exactly 1."""
    params = init_params(widths, d, seed=seed)
    nu = norms.pesv_norm(params)
    layers = [np.array(w) for w in params.layers]
    layers[-1] /= nu
    return TeacherSpec.create(NetParams(tuple(layers)), ActivationSpec.relu())
