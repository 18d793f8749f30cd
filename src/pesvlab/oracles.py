"""Independent brute-force and Monte Carlo checks of the structural claims.

Every oracle is pure given its seed and returns a small result object.  The
verification suites at the end of the module run the oracles and build each
``verify`` record, ``{name, inputs, outputs, pass, tolerances}``, from the
results through one helper, ``_check``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import erm, norms, theory
from .netcore import (
    ActivationSpec,
    StackedPass,
    UnsupportedActivationError,
    WidthVector,
    as_layers,
    forward,
    layer_shapes,
    stacked_forward,
)

__all__ = [
    "COLLINEARITY_CONFIG",
    "EQUIVALENCE_CONFIG",
    "SUITES",
    "CollinearityResult",
    "EquivalenceResult",
    "InconsistencyError",
    "Lemma1Result",
    "Lemma2Result",
    "MaureyResult",
    "PackingResult",
    "PointwiseResult",
    "RademacherMCResult",
    "collinearity_report",
    "covering_packing_lower_bound",
    "equivalence_check_relu",
    "lemma1_exact",
    "lemma1_scan",
    "lemma2_exact",
    "lemma2_scan",
    "maurey_sampling_check",
    "pointwise_audit",
    "pointwise_norm_check",
    "rademacher_mc",
    "random_unit_norm_nets",
    "run_collinearity_experiment",
    "run_equivalence_experiment",
    "sign_pattern_groups",
]


class InconsistencyError(RuntimeError):
    """An internal cross-check that can only fail on an implementation bug did."""


# ---------------------------------------------------------------------------
# Exact combinatoric inequalities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lemma1Result:
    m: int
    n: int
    lhs1: float
    lhs2: float
    bound: float
    passed: bool


def _check_mn(m: int, n: int) -> tuple[int, int]:
    """``(m, n)`` as Python ints, for integers with ``2 <= m <= n``."""
    if not all(isinstance(v, (int, np.integer)) for v in (m, n)):
        raise ValueError(f"m and n must be integers, got m={m!r} and n={n!r}")
    if m < 2 or n < m:
        raise ValueError("need 2 <= m <= n")
    return int(m), int(n)


def _lemma1_over(n: int, ms: Iterable[int]) -> Iterator[Lemma1Result]:
    """:func:`lemma1_exact` of each ``m`` in ``ms`` at this ``n``.  The
    integers that depend on ``n`` alone are built once: ``lcm(1..n)`` and
    the weights ``C(n,k) lcm/k`` of the first sum and ``C(n,k) lcm/(n-k)``
    of the second, each from the highest power of ``m - 1`` down to the
    first, so each sum is a polynomial in ``m - 1`` taken by Horner's rule."""
    lcm = math.lcm(*range(1, n + 1))
    first = [math.comb(n, k) * (lcm // k) for k in range(n, 0, -1)]
    second = [math.comb(n, k) * (lcm // (n - k)) for k in range(0, n)]
    for m in ms:
        num1 = num2 = 0
        for c1, c2 in zip(first, second):
            num1 = (num1 + c1) * (m - 1)
            num2 = (num2 + c2) * (m - 1)
        denom = lcm * m**n
        yield Lemma1Result(
            m=m,
            n=n,
            lhs1=num1 / denom,
            lhs2=num2 / denom,
            bound=5 / n,
            passed=max(num1, num2) * n <= 5 * denom,
        )


def lemma1_exact(m: int, n: int) -> Lemma1Result:
    """Exactly evaluate the two binomial inverse-moment averages against 5/n.

    ``lhs1 = m^-n sum_{k=1}^n C(n,k)(m-1)^k / k`` and
    ``lhs2 = m^-n sum_{k=0}^{n-1} C(n,k)(m-1)^(n-k) / (n-k)``, both in exact
    rational arithmetic.  The two sums coincide under the k <-> n-k
    symmetry but are computed independently, each as an integer numerator
    over the common denominator ``lcm(1..n) m^n``: a polynomial in ``m - 1``
    whose integer coefficients depend on ``n`` alone.  (Putting the weight
    ``(m-1)^k`` on the ``1/(n-k)`` term instead would make the second
    average grow like m/n, and the inequality would fail from (m, n) =
    (5, 10) on; that variant is not what the integral identity behind the
    bound evaluates to.)  Integer true division rounds correctly, and each
    comparison with ``5/n`` is made by cross-multiplying.
    """
    m, n = _check_mn(m, n)
    return next(_lemma1_over(n, [m]))


def lemma1_scan(max_n: int = 40) -> tuple[bool, float]:
    """Scan all 2 <= m <= n <= max_n, building each n's tables once; returns
    (all_pass, worst lhs/bound ratio)."""
    worst = 0.0
    ok = True
    for n in range(2, max_n + 1):
        for res in _lemma1_over(n, range(2, n + 1)):
            worst = max(worst, res.lhs1 / res.bound, res.lhs2 / res.bound)
            ok = ok and res.passed
    return ok, worst


@dataclass(frozen=True)
class Lemma2Result:
    m: int
    n: int
    lhs: float
    lhs_enumeration: float | None
    lhs_reduction: float
    bound: float
    passed: bool
    paths_agree: bool | None


_ENUMERATE_LIMIT = 14


def _lemma2_over(n: int, ms: Iterable[int]) -> Iterator[Lemma2Result]:
    """:func:`lemma2_exact` of each ``m`` in ``ms`` at this ``n``, from the
    integers that depend on ``n`` alone, built once: ``lcm = lcm(1..n)``,
    ``lcm/k``, the factorials, the reduction's weights ``C(n,k) lcm/k`` and
    the surjection counts ``Surj(j, c)`` for ``j, c < n`` by
    inclusion-exclusion.  The enumeration walks the compositions of ``n``
    part by part, carrying the product of the parts' factorials and the sum
    of their ``lcm/k``, and sums the last two parts in one loop."""
    lcm = math.lcm(*range(1, n + 1))
    inv = [0] + [lcm // k for k in range(1, n + 1)]
    fact = [math.factorial(k) for k in range(n + 1)]
    weights = [math.comb(n, k) * inv[k] for k in range(1, n + 1)]
    surj = [
        [
            sum((-1) ** i * math.comb(c, i) * (c - i) ** j for i in range(c + 1)) if j >= c else 0
            for j in range(n)
        ]
        for c in range(n)
    ]

    def walk(rest, parts, prod, acc):
        if parts == 2:
            return sum([
                fact[n] // (prod * fact[k] * fact[rest - k]) * (acc + inv[k] + inv[rest - k])
                for k in range(1, rest)
            ])
        return sum([
            walk(rest - k, parts - 1, prod * fact[k], acc + inv[k])
            for k in range(1, rest - parts + 2)
        ])

    for m in ms:
        red = m * sum(w * surj[m - 1][n - k] for k, w in enumerate(weights, 1))
        enum = walk(n, m, 1, 0) if n <= _ENUMERATE_LIMIT else None
        agree = None if enum is None else (enum == red)
        denom = lcm * m**n
        yield Lemma2Result(
            m=m,
            n=n,
            lhs=red / denom,
            lhs_enumeration=None if enum is None else enum / denom,
            lhs_reduction=red / denom,
            bound=5 * m / n,
            passed=red * n <= 5 * m * denom and (agree is not False),
            paths_agree=agree,
        )


def lemma2_exact(m: int, n: int) -> Lemma2Result:
    """Average of ``sum_i 1/k_i`` over multinomial cell counts versus ``5m/n``.

    Computed two independent ways in exact rationals: direct enumeration of
    all positive compositions (for ``n <= 14``) and the
    symmetry reduction ``(m/m^n) sum_k C(n,k)(1/k) Surj(n-k, m-1)`` with the
    surjection count by inclusion-exclusion.  Both must agree exactly.  Each
    path sums integer numerators over the common denominator
    ``lcm(1..n) m^n``, so the paths agree when their numerators are equal;
    integer true division rounds correctly, and the comparison with ``5m/n``
    is made by cross-multiplying.
    """
    m, n = _check_mn(m, n)
    return next(_lemma2_over(n, [m]))


def lemma2_scan(max_n: int = 12) -> tuple[bool, bool, float]:
    """Scan 2 <= m <= n <= max_n with both paths, building each n's tables
    once; returns (all_pass, all_paths_agree, worst lhs/bound ratio)."""
    ok = True
    agree = True
    worst = 0.0
    for n in range(2, max_n + 1):
        for res in _lemma2_over(n, range(2, n + 1)):
            ok = ok and res.passed
            agree = agree and bool(res.paths_agree)
            worst = max(worst, res.lhs / res.bound)
    return ok, agree, worst


# ---------------------------------------------------------------------------
# Sampling approximation of convex combinations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MaureyResult:
    mean_sq_error: float
    radius: float
    bound: float
    trials: int
    m: int
    passed: bool


def maurey_sampling_check(
    atoms, weights, m: int, trials: int = 1000, seed: int = 0
) -> MaureyResult:
    """Empirical mean of ``||f* - (1/m) sum sampled||^2`` for iid draws from
    the mixture, compared against ``R^2/m`` with a Monte Carlo slack."""
    atoms = np.asarray(atoms, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if m < 1 or trials < 1:
        raise ValueError("need m >= 1 and trials >= 1")
    if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
        raise ValueError("weights must be a probability vector (tol 1e-12)")
    rng = np.random.default_rng(seed)
    f_star = w @ atoms
    radius = float(np.max(np.linalg.norm(atoms, axis=1)))
    idx = rng.choice(atoms.shape[0], size=(trials, m), p=w)
    means = atoms[idx].mean(axis=1)
    errs = np.sum((means - f_star) ** 2, axis=1)
    mean_err = float(errs.mean())
    bound = radius**2 / m * (1.0 + 3.0 / math.sqrt(trials))
    return MaureyResult(
        mean_sq_error=mean_err,
        radius=radius,
        bound=bound,
        trials=trials,
        m=m,
        passed=mean_err <= bound,
    )


# ---------------------------------------------------------------------------
# Monte Carlo Rademacher complexity
# ---------------------------------------------------------------------------


def random_unit_norm_nets(
    rng: np.random.Generator, widths, in_size: int, count: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """``count`` networks of Gaussian layer matrices, each rescaled on the
    output row to path norm 1, as C-contiguous ``(count, rows, cols)``
    layers, and the path norm of each rescaled net, taken from the chain
    that rescaled it (:func:`norms.pesv_unit_scaled`).

    The nets come from one block of normals, drawn net by net in layer
    order.  A net whose path norm is not positive is drawn again, so the
    nets and the state left in ``rng`` equal those of drawing and
    normalizing the nets one at a time.
    """
    shapes = layer_shapes(widths, in_size)
    layers = _normal_layers(rng, shapes, count)
    nu = norms.pesv_stacked(layers)
    while not np.minimum.reduce(nu, initial=math.inf) > 0.0:  # nan fails too
        # One net at a time, a rejected net is drawn again from the normals
        # that follow it, which are the next rows: keep the accepted rows in
        # order and draw as many more nets as were rejected.
        good = nu > 0.0
        more = _normal_layers(rng, shapes, count - np.count_nonzero(good))
        layers = [np.concatenate((w[good], new)) for w, new in zip(layers, more)]
        nu = norms.pesv_stacked(layers)
    layers, nu = norms.pesv_unit_scaled(layers)
    return [np.ascontiguousarray(w) for w in layers], nu


def _normal_layers(rng: np.random.Generator, shapes, count: int) -> list[np.ndarray]:
    """``count`` nets of layer ``shapes`` from one block of normals, drawn
    net by net in layer order, as ``(count, rows, cols)`` layers."""
    flat = rng.standard_normal((count, sum(r * c for r, c in shapes)))
    layers, start = [], 0
    for r, c in shapes:
        layers.append(flat[:, start : start + r * c].reshape(count, r, c))
        start += r * c
    return layers


@dataclass(frozen=True)
class RademacherMCResult:
    estimate: float
    stderr: float
    bound: float
    ratio: float
    c_hat: float
    trials: int
    passed: bool


# Most values one hidden layer's ``(S, n, m)`` array may hold in a block of
# ``rademacher_mc``'s trials.  Measured with one buffer per hidden layer, in
# alternating in-process pairs on 2 cores against 2^16: 2^15 ran the 8-trial
# benchmark call and the 200-trial ``verify`` call each about 1.12x as long,
# 2^17 ran both as fast, and 2^18 ran the ``verify`` call about 1.13x as
# long (from 2^16 up, the benchmark call is one block of 8 trials).
_ASCENT_BLOCK_VALUES = 2**16
_ASCENT_STEP = 0.5  # ascent step t moves this / sqrt(t + 1) along the unit gradient


def _prepare_ascent(act: ActivationSpec, X: np.ndarray, shapes, runs: int):
    """The layers and gradients of ``runs`` stacked starts, each in one
    layer-major block, with the network pass over the shared inputs ``X``
    and the path-norm pass prepared over those layers."""
    ends = np.cumsum([runs * r * c for r, c in shapes])
    layers, grads = (
        [part.reshape(runs, r, c) for part, (r, c) in zip(np.split(flat, ends[:-1]), shapes)]
        for flat in np.zeros((2, ends[-1]))
    )
    net = StackedPass.prepare(layers, act, X, grads)
    group = norms.PenaltyGroup(slice(0, runs), norms.Penalty("pesv"), grad=False)
    return layers, grads, net, norms.PenaltyPass(layers, [group], None)


def rademacher_mc(
    widths,
    F: float,
    inputs,
    trials: int,
    n_starts: int = 16,
    inner_steps: int = 120,
    seed: int = 0,
    act: ActivationSpec | None = None,
) -> RademacherMCResult:
    """Estimate the expected supremum of the signed empirical sum over the
    path-norm ball of radius ``F`` by multi-start projected ascent.

    The inner maximization runs on the unit ball and the result is scaled
    by ``F``, so the estimate is exactly linear in ``F`` under a fixed seed.
    The estimate lower-bounds the true supremum, which is the sound
    direction against the closed-form upper bound.

    Trials run in blocks, each block as one ascent over its trials' starts
    stacked on the run axis, which share the inputs.  A block keeps one
    hidden layer's ``(S, n, m)`` array within ``_ASCENT_BLOCK_VALUES``
    values.  Each block size prepares its pass once: a
    :class:`netcore.StackedPass` with the block's signs as its fixed
    upstream, and a :class:`norms.PenaltyPass` for the projection's path
    norms, over layers it updates in place.  Every net gets the numbers of
    a lone trial, so the result does not depend on the blocking.
    """
    if trials < 1 or n_starts < 1:
        raise ValueError("need trials >= 1 and n_starts >= 1")
    if inner_steps < 0:
        raise ValueError("need inner_steps >= 0")
    if not 0.0 <= F < math.inf:
        raise ValueError(f"need a finite radius F >= 0, got {F}")
    act = act or ActivationSpec.relu()
    X = np.asarray(inputs, dtype=np.float64)
    if X.ndim != 2 or X.size == 0:
        raise ValueError(f"inputs must be a non-empty 2-D array, got shape {X.shape}")
    if not np.isfinite(X).all():  # a nan coordinate passes the ball check
        raise ValueError("inputs must be finite")
    if np.any(np.linalg.norm(X, axis=1) > 1.0 + 1e-12):
        raise ValueError("inputs must lie in the unit ball")
    n, dim = X.shape
    wv = WidthVector.of(widths)
    L = len(wv) + 1
    rng = np.random.default_rng(seed)

    block = min(trials, max(1, _ASCENT_BLOCK_VALUES // (n_starts * n * wv.m)))
    shapes = layer_shapes(wv, dim)
    per_trial = np.empty(trials)
    runs = 0  # the starts the prepared pass holds
    for t0 in range(0, trials, block):
        k = min(block, trials - t0)
        signs, nets = [], []
        for _ in range(k):  # each trial's signs, then its starts
            signs.append(rng.integers(0, 2, size=n) * 2.0 - 1.0)
            nets.append(random_unit_norm_nets(rng, wv, dim, n_starts)[0])
        if k * n_starts != runs:
            runs = k * n_starts
            arrs, grads, net, path = _prepare_ascent(act, X, shapes, runs)
        for w, ws in zip(arrs, zip(*nets)):
            np.concatenate(ws, out=w)
        net.set_upstream(np.repeat(signs, n_starts, axis=0))
        rho = net.upstream[:, None, :]
        best = np.zeros(k)  # the zero network is feasible
        for it in range(inner_steps + 1):
            score = (rho @ net.forward()[..., None]).reshape(k, n_starts)
            np.fmax(best, score.max(axis=1), out=best)  # a NaN leaves best as is
            if it == inner_steps:  # the final iterates are scored, not stepped
                break
            net.backprop()
            sq = (np.add.reduce((g * g).reshape(len(g), -1), axis=-1) for g in grads)
            gnorm = np.sqrt(sum(sq))
            step = _ASCENT_STEP / math.sqrt(it + 1.0) / np.maximum(gnorm, 1e-12)
            for w, g in zip(arrs, grads):
                w += step[:, None, None] * g
            nu = path()[0][:, None, None]
            np.divide(arrs[-1], nu, out=arrs[-1], where=nu > 1.0)
        per_trial[t0 : t0 + k] = best

    unit_mean = float(per_trial.mean())
    unit_se = float(per_trial.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    scale = 2.0 ** (L - 1) * act.lipschitz ** (L - 1) * math.sqrt(dim * n)
    bound = theory.rademacher_bound(wv, F, dim, n, act.lipschitz, c=1.0)
    estimate = F * unit_mean
    return RademacherMCResult(
        estimate=estimate,
        stderr=F * unit_se,
        bound=bound,
        ratio=estimate / bound if bound > 0 else 0.0,
        c_hat=unit_mean / scale,
        trials=trials,
        passed=estimate <= bound,
    )


# ---------------------------------------------------------------------------
# Packing lower bound against the metric entropy formula
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PackingResult:
    packing_count: int
    delta: float
    entropy_bound: float
    samples: int
    passed: bool


def _ball_grid(d: int, spacing: float) -> np.ndarray:
    axis = np.arange(-1.0, 1.0 + spacing / 2, spacing)
    if d == 1:
        return axis[:, None]
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    return pts[np.linalg.norm(pts, axis=1) <= 1.0]


# The packing's screen compares two nets on every this-many-th grid point.
_SCREEN_STRIDE = 8


def _within(a: np.ndarray, b: np.ndarray, delta: float) -> np.ndarray:
    """Whether columns ``a[:, i]`` and ``b[:, j]`` are within ``delta`` in max
    norm, as a ``(i, j)`` matrix: ``np.abs(a[:, :, None] - b[:, None]).max(axis=0)
    <= delta``.

    Every pair is screened on every ``_SCREEN_STRIDE``-th row first and
    compared on all rows only if it passes there.  A max over some rows
    never exceeds the max over all, and the screen makes the same ``<=``
    test, so a tie at ``delta`` or a NaN decides as on all rows.
    """
    s = _SCREEN_STRIDE
    near = np.abs(a[::s, :, None] - b[::s, None, :]).max(axis=0) <= delta
    i, j = np.nonzero(near)
    near[i, j] = np.abs(a[:, i] - b[:, j]).max(axis=0) <= delta
    return near


def _greedy_packing(cols: np.ndarray, delta: float) -> int:
    """Size of the greedy packing of the columns of ``cols``: a column is
    kept unless it is within ``delta`` in max norm of a kept column.

    A column holds one net's values, so the screen's grid points are whole
    rows and every max runs over the leading axis: over ~10 screened
    points, a max along the last axis took about 3x as long.  A block of
    candidates is compared with the kept set in one pass, then its
    survivors are settled in order against each other.  A block holds at
    most 32 candidates, and fewer where its comparison with the kept set
    could reach 2**20 values.
    """
    kept = np.empty_like(cols)
    count, lo = 0, 0
    while lo < cols.shape[1]:
        block = max(1, min(32, 2**20 // (max(count, 16) * len(cols))))
        cand = cols[:, lo : lo + block]
        lo += block
        new = cand[:, ~_within(kept[:, :count], cand, delta).any(axis=0)]
        if new.shape[1] > 1:
            close = np.triu(_within(new, new, delta), 1)
            alive = np.ones(new.shape[1], dtype=bool)
            for i in np.flatnonzero(close.any(axis=1)):  # the ones that can drop a later one
                if alive[i]:
                    alive &= ~close[i]
            new = new[:, alive]
        kept[:, count : count + new.shape[1]] = new
        count += new.shape[1]
    return count


def covering_packing_lower_bound(
    widths,
    delta: float,
    d: int,
    param_samples: int = 400,
    seed: int = 0,
    act: ActivationSpec | None = None,
) -> PackingResult:
    """Greedy sup-norm packing of unit-norm networks versus the entropy bound.

    Networks are sampled with path norm exactly 1 and evaluated on a grid of
    the input ball dense enough that the grid sup degrades the true sup by at
    most ``delta/10`` (class Lipschitz constant ``L_sigma^(L-1)``).  A pack of
    pairwise grid-distance > ``delta`` lower-bounds the ``delta/2`` covering
    number, which must stay below ``exp(entropy(delta/2))``.  The grid
    surrogate covers input dimensions ``d`` from 1 to 3.
    """
    if not (isinstance(d, (int, np.integer)) and 1 <= d <= 3):
        raise ValueError(f"d must be an integer from 1 to 3, got {d!r}")
    if param_samples < 0:
        raise ValueError(f"need param_samples >= 0, got {param_samples}")
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    act = act or ActivationSpec.relu()
    wv = WidthVector.of(widths)
    L = len(wv) + 1
    lip = act.lipschitz ** (L - 1)
    spacing = delta / (10.0 * lip * math.sqrt(d))
    pts = _ball_grid(d, spacing)
    X = np.hstack([pts, np.ones((pts.shape[0], 1))])

    rng = np.random.default_rng(seed)
    layers, _ = random_unit_norm_nets(rng, wv, d + 1, param_samples)
    vals = np.empty((X.shape[0], param_samples))  # one column per net
    # Nets per stacked pass, so a hidden layer's values stay near 8 MB.
    chunk = max(1, 2**20 // (X.shape[0] * max(wv)))
    for lo in range(0, param_samples, chunk):
        part = [w[lo : lo + chunk] for w in layers]
        vals[:, lo : lo + chunk] = stacked_forward(part, act, X)[0].T

    count = _greedy_packing(vals, delta)
    entropy = theory.metric_entropy_bound(delta / 2.0, wv, d, act.lipschitz)
    passed = math.log(max(count, 1)) <= entropy
    return PackingResult(
        packing_count=count,
        delta=delta,
        entropy_bound=entropy,
        samples=param_samples,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# Pointwise output bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointwiseResult:
    max_ratio: float
    probes: int
    passed: bool


def pointwise_norm_check(
    params, act: ActivationSpec, probe_count: int = 100, seed: int = 0
) -> PointwiseResult:
    """Max over random probes of ``|f(x)| / (L_sigma^(L-1) ||x|| nu)``.

    The ratio never exceeds 1 for a normalized activation; probes are
    uniform in the unit ball of the full input space.
    """
    if probe_count < 1:
        raise ValueError(f"need probe_count >= 1, got {probe_count}")
    layers = as_layers(params)
    if not all(np.isfinite(w).all() for w in layers):  # a nan norm skips every probe
        raise ValueError("params must have finite weights")
    ratio = _pointwise_ratio([(layers, act, norms.pesv_norm(layers), seed)], probe_count)
    return PointwiseResult(max_ratio=ratio, probes=probe_count, passed=ratio <= 1.0 + 1e-9)


def _pointwise_ratio(nets, probe_count: int) -> float:
    """The max ratio of :func:`pointwise_norm_check` over ``nets``,
    ``(layers, act, nu, seed)`` tuples of networks over inputs of one size,
    each with its path norm ``nu`` and probed by the points that
    ``erm.uniform_ball(np.random.default_rng(seed), probe_count, size)``
    draws.  The draws and forward passes go net by net; the rest is
    elementwise or row by row, so it runs on every net's probes at once
    with the bits of each net alone.  A probe whose scale is not positive,
    at the origin or of a net with ``nu == 0``, is skipped."""
    size = nets[0][0][0].shape[1]
    g, u = np.empty((len(nets), probe_count, size)), np.empty((len(nets), probe_count))
    for i, (_, _, _, seed) in enumerate(nets):
        rng = np.random.default_rng(seed)
        g[i], u[i] = rng.standard_normal((probe_count, size)), rng.random(probe_count)
    X = erm.ball_points(g.reshape(-1, size), u.reshape(-1))
    out = np.empty_like(u)
    for i, (layers, act, nu, _) in enumerate(nets):
        out[i] = forward(layers, act, X[i * probe_count : (i + 1) * probe_count])
        if nu == 0.0 and np.abs(out[i]).max() > 0.0:
            raise InconsistencyError("zero path norm but nonzero outputs")
    np.abs(out, out=out)
    lip = np.array([[act.lipschitz ** (len(layers) - 1)] for layers, act, _, _ in nets])
    nus = np.array([[nu] for _, _, nu, _ in nets])
    # The row norms have the bits of np.linalg.norm(X, axis=1).
    scale = lip * np.sqrt(norms.row_sums(X * X)).reshape(out.shape) * nus
    ratio = np.zeros_like(out)
    return float(np.maximum.reduce(np.divide(out, scale, out=ratio, where=scale > 0.0), axis=None))


_AUDIT_DEPTHS = (2, 3, 4)
_AUDIT_DIMS = (1, 2, 3)
_AUDIT_ACTS = (ActivationSpec.relu(), ActivationSpec.leaky_relu(0.1))
_AUDIT_MAX_WIDTH = 8
_AUDIT_BLOCK = 128  # nets drawn before their probes are evaluated together


def pointwise_audit(n_nets: int = 1000, probes: int = 100, seed: int = 0) -> PointwiseResult:
    """Randomized audit of the pointwise bound over many small networks:
    depth 2 to 4, input dimension 1 to 3, hidden widths 1 to 8, and relu or
    leaky relu 0.1."""
    if n_nets < 1 or probes < 1:
        raise ValueError(f"need n_nets >= 1 and probes >= 1, got {n_nets} and {probes}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for start in range(0, n_nets, _AUDIT_BLOCK):
        by_size = {}
        for _ in range(min(_AUDIT_BLOCK, n_nets - start)):
            # seq[rng.integers(len(seq))] draws what rng.choice(seq) draws and
            # leaves the generator in the same state, without building an array.
            L = _AUDIT_DEPTHS[int(rng.integers(len(_AUDIT_DEPTHS)))]
            d = _AUDIT_DIMS[int(rng.integers(len(_AUDIT_DIMS)))]
            widths = tuple(int(rng.integers(1, _AUDIT_MAX_WIDTH + 1)) for _ in range(L - 1))
            act = _AUDIT_ACTS[int(rng.integers(len(_AUDIT_ACTS)))]
            layers, nu = random_unit_norm_nets(rng, widths, d + 1, 1)
            net = ([w[0] for w in layers], act, float(nu[0]), int(rng.integers(2**31)))
            by_size.setdefault(d, []).append(net)
        for nets in by_size.values():
            worst = max(worst, _pointwise_ratio(nets, probes))
    return PointwiseResult(
        max_ratio=worst, probes=n_nets * probes, passed=worst <= 1.0 + 1e-9
    )


# ---------------------------------------------------------------------------
# Activation sign patterns and collinearity at trained optima
# ---------------------------------------------------------------------------


def sign_pattern_groups(params, act: ActivationSpec, X) -> list[np.ndarray]:
    """Group hidden neurons by their preactivation sign vector over ``X``
    joined with the sign of their accumulated outgoing weight.

    Returns one integer label array per hidden layer; labels are assigned in
    first-occurrence order, so the output is deterministic.
    """
    if act.kind != "relu":
        raise UnsupportedActivationError("sign patterns are defined for relu")
    layers = as_layers(params)
    X = np.asarray(X, dtype=np.float64)
    preacts = []
    h = X
    for w in layers[:-1]:
        z = h @ w.T
        preacts.append(z)
        h = act(z)

    labels = []
    for z, acc in zip(preacts, norms.outgoing_weights(layers[1:])):
        sg = np.sign(acc)
        bits = z.T >= 0  # (m_l, n)
        seen: dict[tuple, int] = {}
        lab = np.empty(z.shape[1], dtype=np.int64)
        for j in range(z.shape[1]):
            key = (int(sg[j]), tuple(bool(b) for b in bits[j]))
            lab[j] = seen.setdefault(key, len(seen))
        labels.append(lab)
    return labels


@dataclass(frozen=True)
class CollinearityResult:
    per_group: tuple[tuple[int, int, float], ...]  # (label, size, min |cos|)
    global_min: float
    boundary_neurons: tuple[int, ...]


_BOUNDARY_TOL = 1e-6
_MASS_REL_TOL = 1e-3


def collinearity_report(params, act: ActivationSpec, X) -> CollinearityResult:
    """Minimum pairwise |cosine| of first-layer rows within each sign-pattern
    cone, excluding boundary-adjacent neurons; singletons count as 1.

    A neuron is boundary-adjacent when some preactivation sits within
    ``1e-6`` of zero, or when its accumulated outgoing weight mass is at
    most the larger of ``1e-6`` and ``1e-3`` times the largest one (the
    cone is a product of a preactivation region and an output sign
    half-space; the collinearity claim concerns interiors only, and a dying
    neuron oscillating around zero output weight is numerically on the sign
    boundary).
    """
    layers = as_layers(params)
    X = np.asarray(X, dtype=np.float64)
    labels = sign_pattern_groups(layers, act, X)[0]
    z1 = X @ layers[0].T
    mass = norms.outgoing_weights([np.abs(w) for w in layers[1:]])[0]
    mass_tol = max(_BOUNDARY_TOL, _MASS_REL_TOL * float(mass.max(initial=0.0)))
    boundary = [
        j
        for j in range(z1.shape[1])
        if np.min(np.abs(z1[:, j])) <= _BOUNDARY_TOL or mass[j] <= mass_tol
    ]
    boundary_set = set(boundary)

    rows = layers[0]
    per_group = []
    global_min = 1.0
    for lab in sorted(set(int(v) for v in labels)):
        members = [
            j for j in range(rows.shape[0]) if labels[j] == lab and j not in boundary_set
        ]
        if len(members) < 2:
            per_group.append((lab, len(members), 1.0))
            continue
        gmin = 1.0
        for i_pos, j1 in enumerate(members):
            for j2 in members[i_pos + 1 :]:
                r1, r2 = rows[j1], rows[j2]
                denom = np.linalg.norm(r1) * np.linalg.norm(r2)
                cos = abs(float(r1 @ r2) / denom) if denom > 0 else 1.0
                gmin = min(gmin, cos)
        per_group.append((lab, len(members), gmin))
        global_min = min(global_min, gmin)
    return CollinearityResult(
        per_group=tuple(per_group),
        global_min=global_min,
        boundary_neurons=tuple(boundary),
    )


# ---------------------------------------------------------------------------
# Regularizer equivalence experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquivalenceResult:
    rows: tuple[dict, ...]
    median_gap_weight_decay: float
    median_gap_mixed_max: float


def equivalence_check_relu(
    dataset: erm.Dataset,
    lam: float,
    widths,
    seeds: Sequence[int],
    act: ActivationSpec,
    loss: erm.LossSpec,
    opt: erm.OptimizerConfig,
) -> EquivalenceResult:
    """Train the path-norm, weight-decay, and mixed-max objectives from shared
    initializations and compare minima after output-preserving rebalancing.

    The weight-decay penalty runs at ``lam/2`` (exact correspondence for
    depth-2 relu networks after balancing); the mixed-max penalty runs at
    ``lam * sqrt(nu_hat)`` with ``nu_hat`` the path norm of the direct
    minimizer, mirroring the depth-2 construction.  The reported gap is the
    relative excess of the balanced cross-trained model's path-norm objective
    over the directly trained one.
    """
    if act.kind != "relu":
        raise UnsupportedActivationError("equivalence rescaling requires relu")
    pesv = erm.Penalty("pesv")
    wd = erm.Penalty("weight_decay")
    mm = erm.Penalty("mixed_max", 1.0, 2.0)
    d = dataset.input_dim

    inits = [erm.init_params(widths, d, seed=seed) for seed in seeds]
    S = len(inits)
    # The path-norm and weight-decay runs train as one batch; the mixed-max
    # lambdas need the path-norm minimizers.
    res_pw = erm.train_many(
        inits * 2, [dataset] * (2 * S), [lam] * S + [lam / 2.0] * S, loss,
        [pesv] * S + [wd] * S, opt, act,
    )
    res_ps, res_ws = res_pw[:S], res_pw[S:]
    nu_hats = [norms.pesv_norm(res.params) for res in res_ps]
    lam_mms = [lam * math.sqrt(nu) if nu > 0 else lam for nu in nu_hats]
    res_ms = erm.train_many(inits, [dataset] * S, lam_mms, loss, [mm] * S, opt, act)

    rows = []
    gaps_wd, gaps_mm = [], []
    for seed, res_p, res_w, res_m in zip(seeds, res_ps, res_ws, res_ms):
        bal_w = norms.balance_relu(res_w.params, act)
        bal_m = norms.balance_relu(res_m.params, act)
        pesv_of_w = erm.objective(bal_w, dataset, lam, loss, pesv, act)
        pesv_of_m = erm.objective(bal_m, dataset, lam, loss, pesv, act)
        ref = max(res_p.best_objective, 1e-12)
        gap_w = (pesv_of_w - res_p.best_objective) / ref
        gap_m = (pesv_of_m - res_p.best_objective) / ref
        gaps_wd.append(gap_w)
        gaps_mm.append(gap_m)
        rows.append(
            {
                "seed": seed,
                "pesv_objective": res_p.best_objective,
                "weight_decay_objective": res_w.best_objective,
                "mixed_max_objective": res_m.best_objective,
                "pesv_of_balanced_weight_decay": pesv_of_w,
                "pesv_of_balanced_mixed_max": pesv_of_m,
                "gap_weight_decay": gap_w,
                "gap_mixed_max": gap_m,
            }
        )
    return EquivalenceResult(
        rows=tuple(rows),
        median_gap_weight_decay=float(np.median(gaps_wd)),
        median_gap_mixed_max=float(np.median(gaps_mm)),
    )


# ---------------------------------------------------------------------------
# Documented experiments and the verification suites
# ---------------------------------------------------------------------------

# Tuned experiment settings for the training-based verification suites.
COLLINEARITY_CONFIG = {
    "d": 2,
    "n": 16,
    "widths": (8,),
    "lam": 0.05,
    "iters": 200_000,
    "seeds": (0, 1, 2, 3, 4),
    "step_size": 0.5,
    "sigma_eps": 0.0,
    "min_cosine": 0.99,
    "min_good_seeds": 4,
}
EQUIVALENCE_CONFIG = {
    "d": 2,
    "n": 32,
    "widths": (16,),
    "lam": 0.01,
    "iters": 40_000,
    "seeds": (0, 1, 2, 3, 4),
    "step_size": 0.5,
    "sigma_eps": 0.05,
    "max_gap": 0.05,
}


def run_collinearity_experiment(cfg: dict | None = None) -> list[dict]:
    """Train the documented penalized problem per seed and report whether all
    same-cone non-boundary first-layer pairs end up collinear."""
    c = {**COLLINEARITY_CONFIG, **(cfg or {})}
    teacher = erm.documented_teacher(d=c["d"])
    act = ActivationSpec.relu()
    opt = erm.OptimizerConfig(step_size=c["step_size"], max_iters=c["iters"])
    datasets = [
        erm.sample_dataset(teacher, c["n"], c["sigma_eps"], seed=1000 + seed)
        for seed in c["seeds"]
    ]
    loss = erm.LossSpec.mse_for(teacher, c["sigma_eps"])
    inits = [erm.init_params(c["widths"], c["d"], seed=seed) for seed in c["seeds"]]
    S = len(inits)
    results = erm.train_many(
        inits, datasets, [c["lam"]] * S, loss, [erm.Penalty("pesv")] * S, opt, act
    )
    rows = []
    for seed, ds, res in zip(c["seeds"], datasets, results):
        rep = collinearity_report(res.params, act, ds.inputs)
        rows.append(
            {
                "seed": seed,
                "global_min_abs_cosine": rep.global_min,
                "boundary_neurons": list(rep.boundary_neurons),
                "groups": [list(g) for g in rep.per_group],
                "objective": res.best_objective,
                "ok": bool(rep.global_min >= c["min_cosine"]),
            }
        )
    return rows


def run_equivalence_experiment(cfg: dict | None = None) -> EquivalenceResult:
    """Documented regularizer-equivalence run (path norm vs weight decay vs
    mixed max) on a fixed dataset across several initialization seeds."""
    c = {**EQUIVALENCE_CONFIG, **(cfg or {})}
    teacher = erm.documented_teacher(d=c["d"])
    ds = erm.sample_dataset(teacher, c["n"], c["sigma_eps"], seed=0)
    loss = erm.LossSpec.mse_for(teacher, c["sigma_eps"])
    opt = erm.OptimizerConfig(step_size=c["step_size"], max_iters=c["iters"])
    return equivalence_check_relu(
        ds, c["lam"], c["widths"], c["seeds"], ActivationSpec.relu(), loss, opt
    )


def _check(name: str, inputs: dict, outputs: dict, passed: bool, tolerances: dict) -> dict:
    """One ``verify`` record; ``tolerances`` states the rule that decided ``passed``."""
    return {
        "name": name,
        "inputs": inputs,
        "outputs": outputs,
        "pass": bool(passed),
        "tolerances": tolerances,
    }


def _lemma_checks() -> list[dict]:
    ok1, worst1 = lemma1_scan(40)
    ok2, agree2, worst2 = lemma2_scan(12)
    return [
        _check(
            "lemma_binomial_tail_scan",
            {"range": "2<=m<=n<=40"},
            {"worst_ratio": worst1},
            ok1,
            {"comparison": "exact"},
        ),
        _check(
            "lemma_occupancy_scan",
            {"range": "2<=m<=n<=12"},
            {"worst_ratio": worst2, "paths_agree": agree2},
            ok2 and agree2,
            {"dual_path": "exact"},
        ),
    ]


def _maurey_checks() -> list[dict]:
    def record(r: MaureyResult, passed: bool, **rules: str) -> dict:
        inputs = {"m": r.m, "trials": r.trials, "radius": r.radius}
        outputs = {"mean_sq_error": r.mean_sq_error, "bound": r.bound}
        tolerances = {"mc_slack": "R^2/m * (1 + 3/sqrt(trials))", **rules}
        return _check("maurey_sampling_error", inputs, outputs, passed, tolerances)

    # Two orthonormal atoms at weight 1/2: the expected error is exactly 1/2.
    pair = maurey_sampling_check(np.eye(2), [0.5, 0.5], m=1, trials=10_000, seed=0)
    near_half = abs(pair.mean_sq_error - 0.5) <= 0.02
    checks = [record(pair, pair.passed and near_half, mean="|mean_sq_error - 0.5| <= 0.02")]
    rng = np.random.default_rng(3)
    atoms = rng.standard_normal((10, 6))
    w = rng.random(10)
    w /= w.sum()
    for m in (1, 4, 16):
        r = maurey_sampling_check(atoms, w, m=m, trials=4000, seed=m)
        checks.append(record(r, r.passed))
    return checks


def _rademacher_checks() -> list[dict]:
    X = erm.uniform_ball(np.random.default_rng(5), 64, 2)
    r = rademacher_mc((8,), 1.0, X, trials=200, n_starts=16, seed=7)
    outputs = {
        "estimate": r.estimate,
        "stderr": r.stderr,
        "bound": r.bound,
        "ratio": r.ratio,
        "c_hat": r.c_hat,
    }
    rule = {"direction": "estimate lower-bounds the supremum"}
    return [_check("rademacher_supremum_mc", {"trials": r.trials}, outputs, r.passed, rule)]


def _entropy_checks() -> list[dict]:
    results = [
        covering_packing_lower_bound(widths, delta, d=1, param_samples=200, seed=seed)
        for widths in ((1,), (2,))
        for delta in (0.5, 0.25)
        for seed in range(20)
    ]
    worst = max(results, key=lambda r: r.packing_count)  # the first of the largest
    inputs = {
        "delta": worst.delta,
        "samples": worst.samples,
        "grid": "widths {1,2} x delta {0.5,0.25} x 20 seeds",
    }
    outputs = {"packing_count": worst.packing_count, "entropy_bound": worst.entropy_bound}
    ok = all(r.passed for r in results)
    rule = {"comparison": "log(count) <= entropy(delta/2)"}
    return [_check("sup_norm_packing_vs_entropy", inputs, outputs, ok, rule)]


def _pointwise_checks() -> list[dict]:
    r = pointwise_audit(n_nets=1000, probes=100, seed=0)
    outputs = {"max_ratio": r.max_ratio}
    rule = {"ratio": "<= 1 + 1e-9"}
    return [_check("pointwise_output_vs_path_norm", {"probes": r.probes}, outputs, r.passed, rule)]


def _collinearity_checks() -> list[dict]:
    rows = run_collinearity_experiment()
    good = sum(1 for r in rows if r["ok"])
    return [
        _check(
            "collinearity_documented_config",
            {k: v for k, v in COLLINEARITY_CONFIG.items() if k != "seeds"},
            {"good_seeds": good, "rows": rows},
            good >= COLLINEARITY_CONFIG["min_good_seeds"],
            {"cosine": ">= 0.99 in >= 4/5 seeds"},
        )
    ]


def _equivalence_checks() -> list[dict]:
    res = run_equivalence_experiment()
    outputs = {
        "median_gap_weight_decay": res.median_gap_weight_decay,
        "median_gap_mixed_max": res.median_gap_mixed_max,
        "rows": [dict(r) for r in res.rows],
    }
    ok = abs(res.median_gap_weight_decay) <= EQUIVALENCE_CONFIG["max_gap"]
    rule = {"documented_gap": "median |gap| <= 5% (soft)"}
    return [_check("regularizer_equivalence_gaps", {"seeds": len(res.rows)}, outputs, ok, rule)]


# The verification suites in run order: (name, check runner, soft).  A soft
# suite trains networks; its failures are reported but do not fail a run.
SUITES = (
    ("lemmas", _lemma_checks, False),
    ("maurey", _maurey_checks, False),
    ("rademacher", _rademacher_checks, False),
    ("entropy", _entropy_checks, False),
    ("pointwise", _pointwise_checks, False),
    ("collinearity", _collinearity_checks, True),
    ("equivalence", _equivalence_checks, True),
)
