"""Synthetic regression data, loss models, and penalized subgradient training."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import norms
from .netcore import (
    ActivationSpec,
    NetParams,
    forward,
    layer_shapes,
    parse_spec,
    stacked_backprop,
    stacked_forward,
)

__all__ = [
    "Dataset",
    "DivergenceError",
    "LossSpec",
    "OptimizerConfig",
    "Penalty",
    "TeacherSpec",
    "TrainResult",
    "documented_teacher",
    "empirical_error",
    "generalization_error_mc",
    "init_params",
    "load_dataset",
    "objective",
    "sample_dataset",
    "save_dataset",
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
        if range_bound <= 0:
            raise ValueError("range bound must be positive")
        return cls("mse", 2.0 * _SQRT2 * range_bound, _SQRT2, 1.0, 1.0, range_bound)

    @classmethod
    def mse_for(
        cls, teacher: "TeacherSpec", sigma_eps: float, slack: float = 6.0
    ) -> "LossSpec":
        """Half squared error with the working range derived from the teacher:
        sup |f*| over the input ball plus a ``slack``-sigma noise cap."""
        lip = teacher.act.lipschitz ** (teacher.teacher.depth - 1)
        r0 = lip * _SQRT2 * teacher.nu_teacher + slack * sigma_eps
        return cls.mse(max(r0, 1e-12))

    @classmethod
    def huber(cls, delta: float, range_bound: float) -> "LossSpec":
        if delta <= 0 or range_bound <= 0:
            raise ValueError("delta and range bound must be positive")
        gamma = 1.0 if 2.0 * range_bound <= delta else 0.0
        return cls("huber", _SQRT2 * delta, _SQRT2, 1.0, gamma, range_bound, delta)

    @classmethod
    def logistic(cls, range_bound: float, grid: int = 401) -> "LossSpec":
        """Margin logistic loss normalized to vanish on the diagonal.

        Constants are estimated by a dense grid sup over predictors in
        ``[-R, R]`` and hard labels ``{-1, +1}``; no uniform convexity
        modulus exists for unconstrained labels, so the recorded ``gamma``
        is the working-set one.
        """
        if range_bound <= 0:
            raise ValueError("range bound must be positive")
        r = range_bound
        fs = np.linspace(-r, r, grid)
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
        return _LOSSES[self.kind].value(self, f, y)

    def dpred(self, f, y):
        """Derivative of the loss in the prediction."""
        f = np.asarray(f, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        return _LOSSES[self.kind].dpred(self, f, y)


def _huber_value(loss: LossSpec, f: np.ndarray, y: np.ndarray) -> np.ndarray:
    u = f - y
    au = np.abs(u)
    return np.where(au <= loss.delta, 0.5 * u * u, loss.delta * (au - 0.5 * loss.delta))


class _LossKind(NamedTuple):
    value: Callable[[LossSpec, np.ndarray, np.ndarray], np.ndarray]
    dpred: Callable[[LossSpec, np.ndarray, np.ndarray], np.ndarray]
    spec_args: tuple[int, ...]  # argument counts ``parse`` accepts


# Every loss kind; ``parse`` builds a kind through the classmethod of the
# same name, with the spec arguments first and the range bound last.
_LOSSES = {
    "mse": _LossKind(lambda ls, f, y: 0.5 * (f - y) ** 2, lambda ls, f, y: f - y, (0,)),
    "huber": _LossKind(
        _huber_value, lambda ls, f, y: np.clip(f - y, -ls.delta, ls.delta), (1,)
    ),
    "logistic": _LossKind(
        lambda ls, f, y: np.logaddexp(0.0, -y * f) - np.logaddexp(0.0, -y * y),
        lambda ls, f, y: -y / (1.0 + np.exp(y * f)),
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
    g = rng.standard_normal((n, d))
    norms_g = np.linalg.norm(g, axis=1)
    norms_g[norms_g == 0.0] = 1.0
    radii = rng.random(n) ** (1.0 / d)
    return g * (radii / norms_g)[:, None]


def sample_dataset(
    teacher: TeacherSpec,
    n: int,
    sigma_eps: float,
    distribution: str = "uniform",
    seed: int = 0,
    inputs=None,
) -> Dataset:
    """Draw ``y_i = f*(x_i) + eps_i`` with ``x_i`` uniform in the unit ball
    (or user-given) and independent Gaussian noise; deterministic per seed."""
    if n < 1 or sigma_eps < 0:
        raise ValueError("need n >= 1 and sigma_eps >= 0")
    d = teacher.teacher.input_dim
    rng = np.random.default_rng(seed)
    if inputs is not None:
        x = np.asarray(inputs, dtype=np.float64)
        if x.shape != (n, d):
            raise ValueError("user inputs must be (n, d) raw coordinates")
        if np.any(np.linalg.norm(x, axis=1) > 1.0 + 1e-12):
            raise ValueError("user inputs must lie in the unit ball")
    elif distribution == "uniform":
        x = uniform_ball(rng, n, d)
    else:
        raise ValueError(f"unknown distribution {distribution!r}")
    xt = np.hstack([x, np.ones((n, 1))])
    y = forward(teacher.teacher, teacher.act, xt)
    noise = sigma_eps * rng.standard_normal(n)
    return Dataset(inputs=xt, targets=y + noise, noise_std=sigma_eps, seed=seed)


def save_dataset(path, ds: Dataset, teacher_digest: str = "") -> None:
    d = ds.input_dim
    with open(path, "w", newline="\n") as fh:
        fh.write(
            f"# seed={ds.seed} sigma_eps={float(ds.noise_std)!r} "
            f"teacher={teacher_digest}\n"
        )
        cols = [f"x_{i + 1}" for i in range(d)] + ["bias", "y"]
        fh.write(",".join(cols) + "\n")
        for row, y in zip(ds.inputs, ds.targets):
            vals = [repr(float(v)) for v in row] + [repr(float(y))]
            fh.write(",".join(vals) + "\n")


def load_dataset(path) -> Dataset:
    seed, sigma = 0, 0.0
    rows = []
    with open(path) as fh:
        header = fh.readline()
        for part in header.lstrip("# ").split():
            if part.startswith("seed="):
                seed = int(part[5:])
            if part.startswith("sigma_eps="):
                sigma = float(part[10:])
        fh.readline()  # column names
        for line in fh:
            if line.strip():
                rows.append([float(v) for v in line.split(",")])
    arr = np.array(rows)
    return Dataset(inputs=arr[:, :-1], targets=arr[:, -1], noise_std=sigma, seed=seed)


@dataclass(frozen=True)
class Penalty:
    """Regularizer choice: path norm, weight decay, or mixed per-unit max."""

    kind: str
    p: float = 1.0
    q: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in _PENALTIES:
            raise ValueError(f"unknown regularizer {self.kind!r}")
        if self.p < 1.0 or self.q < 1.0:
            raise ValueError("p and q must be at least 1")

    @classmethod
    def parse(cls, text: str) -> "Penalty":
        """Build from a ``pesv``, ``weight_decay`` or ``mixed_max[:p:q]`` spec."""
        kinds = {k: v.spec_args for k, v in _PENALTIES.items()}
        kind, args = parse_spec(text, kinds, "regularizer")
        return cls(kind, *args)

    def value(self, params) -> float:
        return _PENALTIES[self.kind].value(self, params)

    def stacked(self, layers, grad: bool = True) -> tuple[np.ndarray, list | None]:
        """Value of each of ``S`` stacked networks and, with ``grad``, a
        subgradient of each (see :func:`norms.pesv_stacked`)."""
        return _PENALTIES[self.kind].stacked(self, layers, grad)


class _PenaltyKind(NamedTuple):
    value: Callable[[Penalty, object], float]
    stacked: Callable[[Penalty, list, bool], tuple]
    spec_args: tuple[int, ...]  # argument counts ``parse`` accepts


# Every regularizer kind.  The ``norms`` functions are looked up per call,
# so a wrapper installed on the module sees every call.
_PENALTIES = {
    "pesv": _PenaltyKind(
        lambda r, w: norms.pesv_norm(w), lambda r, ws, g: norms.pesv_stacked(ws, g), (0,)
    ),
    "weight_decay": _PenaltyKind(
        lambda r, w: norms.weight_decay_norm(w),
        lambda r, ws, g: norms.weight_decay_stacked(ws, g),
        (0,),
    ),
    "mixed_max": _PenaltyKind(
        lambda r, w: norms.mixed_max_norm(w, r.p, r.q),
        lambda r, ws, g: norms.mixed_max_stacked(ws, r.p, r.q, g),
        (0, 2),
    ),
}


def objective(params, dataset: Dataset, lam: float, loss: LossSpec, reg: Penalty, act: ActivationSpec) -> float:
    """Penalized empirical risk: mean per-sample loss plus ``lam`` times the
    regularizer (for half squared error this is ``(1/2n) sum (y - g)^2``)."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
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
        if self.step_size <= 0 or self.max_iters < 1:
            raise ValueError("need positive step size and at least one iteration")
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

    The runs advance together, one set of stacked matrix products per
    iteration, and each result is bitwise equal to its own :func:`train`
    call.  Each stretch of consecutive equal penalties is evaluated as one
    stacked group, so runs that share a penalty should sit next to each
    other.  The datasets must share their sample count and the initial
    networks their shapes.  Under ``opt.tolerance > 0`` a run that meets it
    stops updating and recording while the others go on.  The first run to
    reach a non-finite objective raises :class:`DivergenceError`, carrying
    its best finite iterate and its index in this batch.
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
    if np.any(lam < 0):
        raise ValueError("lambda must be nonnegative")
    # A run with lam = 0 takes no penalty subgradient, and a stopped run no
    # step; the masks stay True (no masking) while every run takes them.
    penalized = lam > 0.0
    update_where = True
    # The stacked layers are updated in place, so views of them stay current.
    arrs = [np.stack(ws) for ws in zip(*(p.layers for p in inits))]
    # Runs lo..hi-1 of each group share one penalty; a uniform batch is one group.
    cuts = [0] + [s for s in range(1, S) if regs[s] != regs[s - 1]] + [S]
    groups = []
    for lo, hi in zip(cuts, cuts[1:]):
        runs = slice(lo, hi)
        on = penalized[runs]
        add_where = True if on.all() else on[:, None, None]
        ws = [w[runs] for w in arrs]
        groups.append((runs, ws, regs[lo], bool(on.any()), lam[runs, None, None], add_where))
    best = [w.copy() for w in arrs]
    best_obj = np.full(S, math.inf)
    # Per iteration and run: objective, empirical_mse and nu.
    history = np.empty((3, opt.max_iters, S))
    value = np.empty(S)
    iters = np.full(S, opt.max_iters)
    active = np.ones(S, dtype=bool)

    # Finiteness is checked on the objective, so overflow along the way is
    # expected, not worth a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(opt.max_iters):
            preds, hs, zs = stacked_forward(arrs, act, x)
            fit = np.add.reduce(loss.value(preds, y), axis=-1) / n
            # Each group's penalty values and path norms go into its slice;
            # its subgradients wait for the backward pass.
            subs = []
            for runs, ws, reg, subgradient, lam_w, add_where in groups:
                v, sub = reg.stacked(ws, grad=subgradient)
                value[runs] = v
                if reg.kind != "pesv":
                    v = norms.pesv_stacked(ws, grad=False)[0]
                history[2, t, runs] = v
                if sub is not None:
                    subs.append((runs, sub, lam_w, add_where))
            obj = fit + lam * value
            if not np.isfinite(obj).all():
                s = int(np.flatnonzero(~np.isfinite(obj))[0])
                where = f"run {s}: " if S > 1 else ""
                raise DivergenceError(
                    f"{where}objective became non-finite at iteration {t}",
                    NetParams(tuple(b[s] for b in best)),
                    run=s,
                )
            history[0, t] = obj
            history[1, t] = np.add.reduce((preds - y) ** 2, axis=-1) / n
            better = obj < best_obj
            if better.any():
                best_obj = np.where(better, obj, best_obj)
                for b, w in zip(best, arrs):
                    np.copyto(b, w, where=better[:, None, None])

            grads = stacked_backprop(arrs, act, hs, zs, loss.dpred(preds, y) / n)
            # Held into the next forward pass, the layer activations would
            # double the peak memory of a wide network.
            del hs, zs
            for runs, sub, lam_w, add_where in subs:
                for g, r in zip(grads, sub):
                    g = g[runs]
                    np.add(g, lam_w * r, out=g, where=add_where)
            if opt.tolerance > 0.0:
                gnorm = np.sqrt(sum(np.sum(g * g, axis=(1, 2)) for g in grads))
                tnorm = np.sqrt(sum(np.sum(w * w, axis=(1, 2)) for w in arrs))
                done = active & (gnorm <= opt.tolerance * (1.0 + tnorm))
                if done.any():
                    iters[done] = t + 1
                    active &= ~done
                    if not active.any():
                        break
                    update_where = active[:, None, None]
            step = opt.step_size
            if opt.schedule == "inv_sqrt":
                step /= math.sqrt(t + 1.0)
            for w, g in zip(arrs, grads):
                np.subtract(w, step * g, out=w, where=update_where)

    return [
        TrainResult(
            params=NetParams(tuple(b[s] for b in best)),
            trace=np.column_stack((np.arange(k, dtype=np.float64), *history[:, :k, s])),
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
