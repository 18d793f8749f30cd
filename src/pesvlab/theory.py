"""Closed-form generalization, approximation, and complexity bounds.

Every function here is a pure formula evaluation.  Unknown universal
constants (``c``, ``C``, ``C1``, ``C_d``) default to 1 and are carried in
the configuration; curve shapes rather than absolute levels are the
reproducible content.  All logarithms are natural.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

from .netcore import WidthVector, max_nondecreasing_component

__all__ = [
    "BoundConfig",
    "BoundReport",
    "SweepResult",
    "approx_bound_inf_relu",
    "approx_bound_l2",
    "delta_n",
    "double_descent_sweep",
    "gen_bound_encompassing",
    "gen_bound_general_loss",
    "gen_bound_over",
    "gen_bound_under",
    "h_of_m",
    "lambda_overparam",
    "lambda_underparam",
    "lower_bound_shape",
    "metric_entropy_bound",
    "rademacher_bound",
    "sweep_to_csv",
]


@dataclass(frozen=True)
class BoundConfig:
    """Problem constants shared by the bound evaluations.

    ``n`` sample count, ``d`` input dimension, ``L`` depth, ``L_sigma``
    activation Lipschitz constant, ``sigma_eps`` noise level, ``M`` target
    norm.  ``c`` is the chaining constant, ``C``/``C1`` envelope constants.
    """

    n: float
    d: int
    L: int
    L_sigma: float = 1.0
    sigma_eps: float = 0.0
    M: float = 1.0
    c: float = 1.0
    C: float = 1.0
    C1: float = 1.0

    def __post_init__(self) -> None:
        # Each check is written so that nan fails it.
        if not 2 <= self.n < math.inf:
            raise ValueError("need a finite n >= 2")
        if not (1 <= self.d < math.inf and 2 <= self.L < math.inf):
            raise ValueError("need a finite d >= 1 and L >= 2")
        if not all(0 < v < math.inf for v in (self.L_sigma, self.c, self.C, self.C1)):
            raise ValueError("L_sigma, c, C, C1 must be positive and finite")
        if not (0 <= self.sigma_eps < math.inf and 0 <= self.M < math.inf):
            raise ValueError("sigma_eps and M must be nonnegative and finite")

    @property
    def D_sigma(self) -> float:
        return self.L_sigma**self.L

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class BoundReport:
    """One bound evaluation split into bias and variance terms.

    ``total == C * (bias_term + variance_term)`` exactly as computed.
    """

    bias_term: float
    variance_term: float
    regime: str
    lambda_used: float
    total: float
    constants: dict = field(default_factory=dict)
    regime_condition: bool | None = None


def h_of_m(widths, L_sigma: float) -> float:
    """Approximation-rate factor ``sum_i (sqrt5 L_sigma)^(L-1-i) / sqrt(up_i)``
    over the maximum nondecreasing component ``up`` of the width vector."""
    if not 0 < L_sigma < math.inf:
        raise ValueError(f"L_sigma must be positive and finite, got {L_sigma}")
    up = max_nondecreasing_component(widths)
    k = len(up)
    base = math.sqrt(5.0) * L_sigma
    return sum(base ** (k - 1 - i) / math.sqrt(up[i]) for i in range(k))


def approx_bound_l2(widths, L_sigma: float, R: float, M: float) -> float:
    """Mean-square approximation error bound ``H * (R + 2) * M`` on a support
    of radius ``R`` for a target of norm ``M``."""
    if not 0 < R < math.inf:
        raise ValueError(f"support radius R must be positive and finite, got {R}")
    if not 0 <= M < math.inf:
        raise ValueError(f"target norm M must be nonnegative and finite, got {M}")
    return h_of_m(widths, L_sigma) * (R + 2.0) * M


def approx_bound_inf_relu(
    L: int, M_width: int, d: int, M_norm: float, C_d: float = 1.0
) -> float:
    """Sup-norm approximation bound for deep relu networks of width ``M_width``."""
    if not (20 < L < math.inf and 162 < M_width < math.inf):
        raise ValueError(f"need a finite depth L > 20 and width M_width > 162, got {L}, {M_width}")
    if not 1 <= d < math.inf:
        raise ValueError(f"need a finite d >= 1, got {d}")
    if not (0 <= M_norm < math.inf and 0 <= C_d < math.inf):
        raise ValueError(f"M_norm and C_d must be nonnegative and finite, got {M_norm}, {C_d}")
    log3 = math.log(M_width) / math.log(3.0)
    body = (L - 20) ** 2 * (M_width - 162) ** 2 * (log3 - 4.0)
    return C_d * M_norm * body ** (-1.0 / d)


def _check_d_and_L_sigma(d, L_sigma) -> None:
    """Reject a ``d`` below 1 or an ``L_sigma`` not positive; nan fails both."""
    if not 1 <= d < math.inf:
        raise ValueError(f"need a finite d >= 1, got {d}")
    if not 0 < L_sigma < math.inf:
        raise ValueError(f"L_sigma must be positive and finite, got {L_sigma}")


def metric_entropy_bound(delta: float, widths, d: int, L_sigma: float) -> float:
    """Sup-norm metric entropy bound of the unit-norm network class."""
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    _check_d_and_L_sigma(d, L_sigma)
    wv = WidthVector.of(widths)
    prod_all = wv.product()
    prod_head = 1
    for w in wv.widths[:-1]:
        prod_head *= w
    L = len(wv) + 1
    count = d * wv[0] + prod_all
    return count * math.log1p(4.0 * prod_head * L_sigma ** (L - 1) / delta)


def rademacher_bound(
    widths, F: float, d: int, n: float, L_sigma: float, c: float = 1.0
) -> float:
    """Upper bound ``2^(L-1) c L_sigma^(L-1) F sqrt(d n)`` on the expected
    signed-sum supremum over the norm ball of radius ``F``."""
    if not 0 <= F < math.inf:
        raise ValueError(f"F must be nonnegative and finite, got {F}")
    _check_d_and_L_sigma(d, L_sigma)
    if not (1 <= n < math.inf and 0 < c < math.inf):
        raise ValueError(f"need a finite n >= 1 and a positive finite c, got {n}, {c}")
    L = len(WidthVector.of(widths)) + 1
    return 2.0 ** (L - 1) * c * L_sigma ** (L - 1) * F * math.sqrt(d * n)


def delta_n(n: float, d: int, widths, L_sigma: float) -> float:
    """Parameter-count rate ``(2 L_sigma)^(L-1) (prod m_i) d log(n) / n``."""
    if not 2 <= n < math.inf:
        raise ValueError(f"need a finite n >= 2, got {n}")
    _check_d_and_L_sigma(d, L_sigma)
    wv = WidthVector.of(widths)
    return _delta_n(n, d, len(wv) + 1, L_sigma, wv.product())


def _delta_n(n, d, L, L_sigma, prod) -> float:
    """:func:`delta_n` of a depth-``L`` width vector whose product is ``prod``."""
    return (2.0 * L_sigma) ** (L - 1) * prod * d * math.log(n) / n


def _overparam_factor(cfg: BoundConfig) -> float:
    return max(
        6.0 * cfg.D_sigma,
        2.0**cfg.L * cfg.c * cfg.L_sigma ** (cfg.L - 1) * math.sqrt(cfg.d),
    )


def lambda_overparam(cfg: BoundConfig) -> float:
    """Penalty schedule for the wide regime,
    ``max{6 D_sigma, 2^L c L_sigma^(L-1) sqrt(d)} sigma_eps sqrt(log n / n)``."""
    return _overparam_factor(cfg) * cfg.sigma_eps * math.sqrt(math.log(cfg.n) / cfg.n)


def lambda_underparam(cfg: BoundConfig, widths) -> float:
    """Penalty schedule ``C1 sigma_eps max{delta_n, H^2}`` for the narrow regime."""
    wv = WidthVector.of(widths)
    return _lambda_under(cfg, len(wv) + 1, h_of_m(wv, cfg.L_sigma), wv.product())


def _lambda_under(cfg: BoundConfig, L, h, prod) -> float:
    """:func:`lambda_underparam` of a depth-``L`` width vector whose
    :func:`h_of_m` is ``h`` and whose product is ``prod``."""
    dn = _delta_n(cfg.n, cfg.d, L, cfg.L_sigma, prod)
    return cfg.C1 * cfg.sigma_eps * max(dn, h**2)


def _check_widths(cfg: BoundConfig, widths) -> WidthVector:
    wv = WidthVector.of(widths)
    if len(wv) != cfg.L - 1:
        raise ValueError(
            f"width vector of length {len(wv)} does not match depth {cfg.L}"
        )
    return wv


def _width_terms(cfg: BoundConfig, widths) -> tuple[float, int]:
    """:func:`h_of_m` and the product of a width vector checked against
    ``cfg``'s depth: the only two numbers the bounds take from it."""
    wv = _check_widths(cfg, widths)
    return h_of_m(wv, cfg.L_sigma), wv.product()


def _bias_term(cfg: BoundConfig, h) -> float:
    return h**2 * cfg.M**2


def _var_over(cfg: BoundConfig) -> float:
    # Doubling is exact, so this is max(12 D_sigma, 2^(L+1) c ...) bit for bit.
    variance = 2.0 * _overparam_factor(cfg) * (cfg.sigma_eps**2 + cfg.M**2)
    return variance * math.sqrt(math.log(cfg.n) / cfg.n)


def _var_under(cfg: BoundConfig, prod) -> float:
    return (cfg.sigma_eps**2 + cfg.M**2) * prod * cfg.d * math.log(cfg.n) / cfg.n


def _report(cfg: BoundConfig, bias, var, regime, lam, consts, cond=None) -> BoundReport:
    """The report of bias ``bias`` and variance ``var``, with its total."""
    return BoundReport(
        bias_term=bias,
        variance_term=var,
        regime=regime,
        lambda_used=lam,
        total=cfg.C * (bias + var),
        constants=consts,
        regime_condition=cond,
    )


def _smaller_variance(var_u: float, var_o: float) -> tuple[float, str]:
    """The smaller of the under- and over-regime variances, with its regime;
    a tie goes to ``under``."""
    return (var_u, "under") if var_u <= var_o else (var_o, "over")


def gen_bound_over(cfg: BoundConfig, widths) -> BoundReport:
    """Generalization bound with the ``sqrt(log n / n)`` variance cap."""
    h, _ = _width_terms(cfg, widths)
    bias, var = _bias_term(cfg, h), _var_over(cfg)
    cond = h <= math.sqrt(_overparam_factor(cfg) / cfg.C1)
    return _report(cfg, bias, var, "over", lambda_overparam(cfg), cfg.as_dict(), cond)


def gen_bound_under(cfg: BoundConfig, widths) -> BoundReport:
    """Generalization bound with the parameter-count variance term."""
    h, prod = _width_terms(cfg, widths)
    bias, var = _bias_term(cfg, h), _var_under(cfg, prod)
    return _report(cfg, bias, var, "under", _lambda_under(cfg, cfg.L, h, prod), cfg.as_dict())


def gen_bound_encompassing(cfg: BoundConfig, widths) -> BoundReport:
    """Bound whose variance takes the better of the two regimes.

    The total equals ``min(over.total, under.total)`` exactly because the
    three evaluations share bias and variance computations; the regime label
    reports the active branch.
    """
    return _encompassing(cfg)(widths)[0]


def _encompassing(cfg: BoundConfig):
    """The encompassing bound as a function of the width vector.

    It returns the report and whether the variance cap is active there
    (``var_over <= var_under``).  The terms that depend on ``cfg`` alone are
    computed once, for every width vector it is called on, and those of a
    width vector once per call."""
    var_o = _var_over(cfg)
    lam_o = lambda_overparam(cfg)
    consts = cfg.as_dict()

    def at(widths) -> tuple[BoundReport, bool]:
        h, prod = _width_terms(cfg, widths)
        var_u = _var_under(cfg, prod)
        var, regime = _smaller_variance(var_u, var_o)
        lam = max(lam_o, _lambda_under(cfg, cfg.L, h, prod))
        return _report(cfg, _bias_term(cfg, h), var, regime, lam, dict(consts)), var_o <= var_u

    return at


def gen_bound_general_loss(cfg: BoundConfig, loss, widths, T: float) -> BoundReport:
    """Encompassing bound for a general Lipschitz loss with a noise-tail cut
    at ``T``; the bias enters at first power of the approximation factor.

    The over-regime variance factor is
    ``L1y max{12 D_sigma, 2^(L+2) c L_sigma^(L-1) sqrt(d)}``; its second
    branch is twice that of ``2 L1y`` times :func:`lambda_overparam`'s factor."""
    if not 0 < T < math.inf:
        raise ValueError(f"T must be positive and finite, got {T}")
    h, prod = _width_terms(cfg, widths)
    bias = loss.L0 * h * cfg.M
    factor = max(
        12.0 * loss.L1y * cfg.D_sigma,
        2.0 ** (cfg.L + 2)
        * cfg.c
        * loss.L1y
        * cfg.L_sigma ** (cfg.L - 1)
        * math.sqrt(cfg.d),
    )
    var_o = factor * (cfg.sigma_eps**2 + cfg.M**2) * math.sqrt(math.log(cfg.n) / cfg.n)
    var, regime = _smaller_variance(_var_under(cfg, prod), var_o)
    lam = max(loss.L1y * lambda_overparam(cfg), _lambda_under(cfg, cfg.L, h, prod))
    consts = cfg.as_dict()
    consts.update({"L0": loss.L0, "L1y": loss.L1y, "B": loss.B, "T": T})
    return _report(cfg, bias, 2.0 * loss.B * T + var, regime, lam, consts)


def lower_bound_shape(n: float, C: float = 1.0) -> float:
    """Information-theoretic floor shape ``C / sqrt(n log n)``."""
    if not 2 <= n < math.inf:
        raise ValueError(f"need a finite n >= 2, got {n}")
    if not 0 <= C < math.inf:
        raise ValueError(f"C must be nonnegative and finite, got {C}")
    return C / math.sqrt(n * math.log(n))


@dataclass(frozen=True)
class SweepResult:
    """Bound curve over a width grid plus detected structure."""

    widths: tuple[int, ...]
    reports: tuple[BoundReport, ...]
    switch_width: int | None
    minima: tuple[int, ...]
    maxima: tuple[int, ...]

    def totals(self) -> list[float]:
        return [r.total for r in self.reports]


def double_descent_sweep(cfg: BoundConfig, widths, pattern=None) -> SweepResult:
    """Evaluate the encompassing bound along ``m * pattern`` for each width.

    Returns the curve, the smallest width at which the variance cap becomes
    active, and the strict interior local extrema of the total.
    """
    widths = [int(w) for w in widths]
    if not widths:
        raise ValueError("width grid must be nonempty")
    if sorted(widths) != widths:
        raise ValueError("width grid must be sorted ascending")
    if pattern is None:
        pattern = (1,) * (cfg.L - 1)
    pattern = tuple(int(p) for p in pattern)
    if len(pattern) != cfg.L - 1 or any(p < 1 for p in pattern):
        raise ValueError("pattern must have one positive entry per hidden layer")

    bound_at = _encompassing(cfg)
    reports = []
    switch = None
    for w in widths:
        rep, capped = bound_at(tuple(w * p for p in pattern))
        reports.append(rep)
        if switch is None and capped:
            switch = w

    totals = [r.total for r in reports]
    minima, maxima = [], []
    for i in range(1, len(totals) - 1):
        if totals[i] < totals[i - 1] and totals[i] < totals[i + 1]:
            minima.append(widths[i])
        if totals[i] > totals[i - 1] and totals[i] > totals[i + 1]:
            maxima.append(widths[i])
    return SweepResult(
        widths=tuple(widths),
        reports=tuple(reports),
        switch_width=switch,
        minima=tuple(minima),
        maxima=tuple(maxima),
    )


def sweep_to_csv(result: SweepResult, fh) -> None:
    """Write the curve as ``m,bias,variance,total,regime,lambda`` rows."""
    fh.write("m,bias,variance,total,regime,lambda\n")
    for w, rep in zip(result.widths, result.reports):
        fh.write(
            f"{w},{float(rep.bias_term)!r},{float(rep.variance_term)!r},"
            f"{float(rep.total)!r},{rep.regime},{float(rep.lambda_used)!r}\n"
        )
