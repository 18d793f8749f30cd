"""Network regularizers, their subgradients, and output-preserving rescalings."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .netcore import ActivationSpec, NetParams, UnsupportedActivationError, as_layers, parse_spec

__all__ = [
    "balance_relu",
    "mixed_max_norm",
    "outgoing_weights",
    "Penalty",
    "PenaltyGroup",
    "PenaltyPass",
    "penalty_stacked",
    "pesv_matrixproduct_variant",
    "pesv_norm",
    "pesv_stacked",
    "pesv_unit_scaled",
    "rescale_neuron",
    "row_sums",
    "weight_decay_norm",
]

_HOMOGENEOUS_KINDS = {"relu", "leaky_relu", "identity"}


def _stack_one(params) -> list[np.ndarray]:
    """The layers of one network with a run axis of length 1."""
    return [np.asarray(w, dtype=np.float64)[None] for w in as_layers(params)]


def pesv_norm(params) -> float:
    """Path-enhanced scaled variation norm.

    Sum over all hidden paths of the absolute product of weights along the
    path, with the first-layer factor replaced by the Euclidean norm of the
    first-layer row.  Computed as the nonnegative matrix chain
    ``|a| |w^{L-1}| ... |w^2| v`` with ``v_k = ||w^1_k||_2``; for depth 2
    this is the scaled variation norm ``sum_k |a_k| ||w^1_k||_2``.
    """
    return float(pesv_stacked(_stack_one(params))[0])


def pesv_matrixproduct_variant(params) -> float:
    """Signed-product form: ``sum_k |W_k| ||w^1_k||_2`` with ``W = a w^{L-1}...w^2``.

    Equals :func:`pesv_norm` when no sign cancellation occurs in the hidden
    product, and never exceeds it.
    """
    layers = as_layers(params)
    w = layers[-1]
    for mat in layers[-2:0:-1]:
        w = w @ mat
    return float(np.abs(w.ravel()) @ np.linalg.norm(layers[0], axis=1))


def outgoing_weights(upper, out=None) -> list[np.ndarray]:
    """Accumulated outgoing weight of every hidden unit, from the matrices
    above the first layer (``upper = layers[1:]``).

    Entry ``k`` is the vector ``upper[-1] upper[-2] ... upper[k]``, one value
    per unit of hidden layer ``k``.  Pass ``|W|`` matrices for the path mass
    a unit carries to the output, signed ones for its net output sign.
    Matrices stacked on a leading run axis give one row of values per run.
    With ``out``, one array per product shaped ``(..., 1, cols)`` and listed
    from the top down, the products are written there.
    """
    acc = upper[-1][..., 0, :]
    res = [acc]
    for w, o in zip(upper[-2::-1], out or [None] * len(upper)):
        acc = np.matmul(acc[..., None, :], w, out=o)[..., 0, :]
        res.append(acc)
    res.reverse()
    return res


def _run(calls) -> None:
    for call in calls:
        call()


def pesv_stacked(layers) -> np.ndarray:
    """:func:`pesv_norm` of each of ``S`` networks stacked on a leading run
    axis (``(S, rows, cols)`` layers), shape ``(S,)``."""
    return _PathChain(layers)()


def pesv_unit_scaled(layers) -> tuple[list[np.ndarray], np.ndarray] | None:
    """Each of ``S`` stacked networks with its output row divided by its
    path norm ``nu``, and the path norm of each rescaled network, or None
    when some ``nu`` is not positive.

    The rescaled norms come from the chain that gave ``nu``: only the output
    row's ``|a / nu| @ down[-1]`` is taken again, so they have the bits of
    :func:`pesv_stacked` of the returned layers."""
    chain = _PathChain(layers)
    nu = chain()
    if not np.minimum.reduce(nu, initial=math.inf) > 0.0:  # nan fails too
        return None
    top = layers[-1] / nu[:, None, None]
    return [*layers[:-1], top], (np.abs(top) @ chain.down[-1])[:, 0, 0]


def _pow(x: np.ndarray, e: float, out: np.ndarray | None) -> np.ndarray:
    """``x ** e`` with its bits, into ``out`` when given: numpy's ``**``
    takes ``np.square`` for 2 and ``np.sqrt`` for 0.5."""
    if e == 2.0:
        return np.square(x, out)
    if e == 0.5:
        return np.sqrt(x, out)
    return np.power(x, e, out)


# numpy adds each row of fewer than 8 values in one inner-loop call (about
# 16 ns a row).  From this many rows per column, ``row_sums`` adds whole
# columns instead: on the 2-core VM, for 2 to 7 columns, that took about as
# long as numpy's rows at 32 rows per column, 0.8x at 48 and 0.1x at 4096
# rows of 2.
_ROWS_PER_COLUMN = 32


def row_sums(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.add.reduce(a, axis=-1)`` with its bits, written into ``out``
    when given.

    numpy adds a row of fewer than 8 values left to right, starting from
    +0.0 (so a row of -0.0 sums to +0.0), in one inner-loop call per row.
    Many rows of 2 to 7 values are added here column by column in the same
    order, in one call per column over all rows.  Other rows (from 8 values
    numpy adds pairwise) and few rows take ``np.add.reduce``."""
    k = a.shape[-1]
    if not 1 < k < 8 or a.size < _ROWS_PER_COLUMN * k * k:
        return np.add.reduce(a, -1, None, out)
    out = np.add(a[..., 0], 0.0, out)
    for j in range(1, k):
        np.add(out, a[..., j], out)
    return out


def _row_pnorms(w: np.ndarray, p: float, out=None, powers=None) -> np.ndarray:
    """The ``l_p`` norms of the rows of ``w``, ``row_sums(np.abs(w) ** p) **
    (1 / p)`` and ``np.sqrt(row_sums(w * w))`` for ``p = 2``, written into
    ``out`` through the work array ``powers`` when given."""
    if p == 2.0:
        return np.sqrt(row_sums(np.multiply(w, w, powers), out), out)
    powers = np.abs(w, powers)
    if p == 1.0:
        return row_sums(powers, out)
    return _pow(row_sums(_pow(powers, p, powers), out), 1.0 / p, out)


class _PathChain:
    """The path norm of ``S`` stacked networks, with its pieces:
    ``|layers[1:]|`` (written into ``abs_out[1:]`` when given), the squares
    of the first layer and their row 2-norms ``l2``, the chain ``down[k] =
    |layers[k]| ... |layers[1]| l2`` as columns, and the path norms.  Each
    call computes them from the current layers, into the arrays of the
    first call, and returns the path norms."""

    def __init__(self, layers, abs_out=None):
        self.layers = layers
        self.abs_upper = [None] * (len(layers) - 1) if abs_out is None else list(abs_out[1:])
        self.squares = np.empty(layers[0].shape)
        self.l2 = self.nu3 = None
        self.down = [None] * (len(layers) - 1)

    def __call__(self) -> np.ndarray:
        layers, abs_upper, down = self.layers, self.abs_upper, self.down
        for k, w in enumerate(layers[1:]):
            abs_upper[k] = np.abs(w, abs_upper[k])
        self.l2 = _row_pnorms(layers[0], 2.0, self.l2, self.squares)
        down[0] = self.l2[..., None]
        for k, a in enumerate(abs_upper[:-1]):
            down[k + 1] = np.matmul(a, down[k], down[k + 1])
        self.nu3 = np.matmul(abs_upper[-1], down[-1], self.nu3)
        return self.nu3[:, 0, 0]


def _path_grad_calls(chain: _PathChain, out, outer_out=None) -> list:
    """The calls that write the path-norm subgradient of each network of
    ``chain`` into ``out``, after a call of the chain: zero at sign kinks
    and on zero first-layer rows.  The middle layers' outer products go
    into ``outer_out[k]`` when given, else into arrays of their own."""
    layers, upper, down = chain.layers, chain.abs_upper, chain.down
    runs = len(layers[0])
    products = [np.empty((runs, 1, w.shape[-1])) for w in upper[-2::-1]]
    # The views ``outgoing_weights(upper, products)`` returns.
    ups = [p[..., 0, :] for p in products[::-1]] + [upper[-1][..., 0, :]]
    norms_col = chain.l2[..., None]

    def first_layer() -> None:
        if np.minimum.reduce(chain.l2, None) > 0.0:  # nan fails too
            np.divide(layers[0], norms_col, out[0])
        else:
            out[0].fill(0.0)
            np.divide(layers[0], norms_col, out[0], where=norms_col > 0.0)

    calls = [partial(outgoing_weights, upper, products)] if products else []
    calls += [first_layer, partial(np.multiply, ups[0][..., None], out[0], out[0])]
    for k in range(1, len(layers) - 1):
        outer = np.empty(layers[k].shape) if outer_out is None else outer_out[k]
        calls += [
            partial(np.multiply, ups[k][..., None], down[k - 1].transpose(0, 2, 1), outer),
            partial(np.sign, layers[k], out[k]),
            partial(np.multiply, out[k], outer, out[k]),
        ]
    return [
        *calls,
        partial(np.sign, layers[-1], out[-1]),
        partial(np.multiply, out[-1], down[-1].transpose(0, 2, 1), out[-1]),
    ]


def weight_decay_norm(params) -> float:
    """Sum of squares of every weight."""
    value = np.empty(1)
    _run(_weight_decay_calls(_stack_one(params), slice(0, 1), value))
    return float(value[0])


def _weight_decay_calls(layers, runs: slice, value: np.ndarray, out=None, first=None) -> list:
    """The calls that write the weight decay of runs ``runs`` of the stacked
    networks ``layers`` into ``value[runs]``, and with ``out`` their
    subgradients into ``out[k][runs]``.  ``first`` holds the first layer's
    squares when a :class:`_PathChain` computed them (its ``squares``)."""
    ws = [w[runs] for w in layers]
    squares = [np.empty(w.shape) for w in ws]
    calls = [partial(np.multiply, w, w, sq) for w, sq in zip(ws, squares)]
    if first is not None:
        squares[0], calls = first[runs], calls[1:]
    sums = [np.empty(len(ws[0])) for _ in ws]
    value = value[runs]
    calls += [
        *(partial(np.add.reduce, sq, (1, 2), None, total) for sq, total in zip(squares, sums)),
        partial(np.add, sums[0], sums[1], value),
        *(partial(np.add, value, total, value) for total in sums[2:]),
    ]
    if out is not None:
        calls += [partial(np.multiply, w, 2.0, g[runs]) for w, g in zip(ws, out)]
    return calls


def mixed_max_norm(params, p: float = 1.0, q: float = 2.0) -> float:
    """Max over per-unit incoming norms: ``l_p`` rows for layers >= 2 joined
    with ``l_q`` rows of the first layer."""
    return Penalty("mixed_max", p, q).value(params)


def _mixed_max_calls(chain: _PathChain, runs: slice, pen, value: np.ndarray, out=None) -> list:
    """The calls that write the mixed max of runs ``runs`` of ``chain``'s
    networks into ``value[runs]``, after a call of the chain: ``l_p``
    rows above the first layer, then ``l_q`` rows of the first, in that scan
    order.  The ``l_1`` rows above take the chain's ``|layers[1:]|`` and the
    ``l_2`` rows of the first layer are the chain's: the same calls, so the
    same bits.  With ``out``, the subgradient goes into ``out[k][runs]``:
    the gradient of the first row attaining the max, zero elsewhere."""
    p, q = pen.p, pen.q
    ws = [w[runs] for w in chain.layers]
    calls, rows = [], []
    for a, w in zip(chain.abs_upper, ws[1:]):
        rows.append(np.empty(w.shape[:-1]))
        if p == 1.0:
            calls.append(partial(row_sums, a[runs], rows[-1]))
        else:
            calls.append(partial(_row_pnorms, w, p, rows[-1], np.empty(w.shape)))
    if q == 2.0:
        rows.append(chain.l2[runs])
    else:
        rows.append(np.empty(ws[0].shape[:-1]))
        calls.append(partial(_row_pnorms, ws[0], q, rows[-1], np.empty(ws[0].shape)))
    count = len(ws[0])
    flat = np.empty((count, sum(r.shape[-1] for r in rows)))
    pick, at = np.empty((2, count), dtype=np.intp)
    value = value[runs]
    calls += [
        partial(np.concatenate, rows, -1, flat),
        partial(flat.argmax, -1, pick),  # the first row attaining the max
        partial(np.add, pick, np.arange(count) * flat.shape[1], at),
        partial(flat.reshape(-1).take, at, None, value),
    ]
    if out is None:
        return calls
    # The row each run picks, where its max is positive.  Elementwise ops
    # masked by it give the picked rows the bits of a gathered computation.
    hit = np.empty(flat.shape, dtype=bool)
    positive = np.empty(count, dtype=bool)
    calls += [
        partial(np.equal, np.arange(flat.shape[1]), pick[:, None], hit),
        partial(np.greater, value, 0.0, positive),
        partial(np.logical_and, hit, positive[:, None], hit),
    ]
    start = 0
    for idx, row in zip([*range(1, len(ws)), 0], rows):
        stop = start + row.shape[-1]
        w, g, picked = ws[idx], out[idx][runs], hit[:, start:stop, None]
        calls += [partial(g.fill, 0.0), partial(np.sign, w, g, where=picked)]
        r = q if idx == 0 else p
        if r != 1.0:
            work = np.empty((2, *w.shape))
            calls.append(partial(_scale_picked, w, g, picked, value[:, None, None], r, work))
        start = stop
    return calls


def _scale_picked(w, g, picked, value, r, work) -> None:
    """Multiply the picked rows of the signs ``g`` by ``(|w| / value) **
    (r - 1)``, through the two work arrays ``work``."""
    if not np.logical_or.reduce(picked, None):
        return
    abs_w, ratio = work
    ratio.fill(0.0)  # zero off the picked rows: no overflow
    np.divide(np.abs(w, abs_w), value, ratio, where=picked)
    if r != 2.0:  # ratio ** 1.0 is ratio, bit for bit
        _pow(ratio, r - 1.0, ratio)
    np.multiply(g, ratio, g, where=picked)


# Every penalty kind and the argument counts ``Penalty.parse`` accepts.
_PENALTY_ARGS = {"pesv": (0,), "weight_decay": (0,), "mixed_max": (0, 2)}


@dataclass(frozen=True)
class Penalty:
    """Regularizer choice: path norm, weight decay, or mixed per-unit max."""

    kind: str
    p: float = 1.0
    q: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in _PENALTY_ARGS:
            raise ValueError(f"unknown regularizer {self.kind!r}")
        if not (1.0 <= self.p < math.inf and 1.0 <= self.q < math.inf):
            raise ValueError("p and q must be finite and at least 1")

    @classmethod
    def parse(cls, text: str) -> "Penalty":
        """Build from a ``pesv``, ``weight_decay`` or ``mixed_max[:p:q]`` spec."""
        kind, args = parse_spec(text, _PENALTY_ARGS, "regularizer")
        return cls(kind, *args)

    def value(self, params) -> float:
        """The penalty of one network."""
        group = PenaltyGroup(slice(0, 1), self, grad=False)
        return float(penalty_stacked(_stack_one(params), [group], None)[1][0])


class PenaltyGroup(NamedTuple):
    """Runs ``runs`` of a stacked batch and the :class:`Penalty` they share;
    with ``grad`` their subgradients are written."""

    runs: slice
    penalty: Penalty
    grad: bool = True


class PenaltyPass:
    """The path norm and the penalty of each of ``S`` stacked networks, as
    calls whose arrays and views are taken once, for a caller that updates
    ``layers`` (``(S, rows, cols)`` arrays, read at every call) in place.

    ``calls`` write the path norms into ``nu`` and the penalties into
    ``value``, shapes ``(S,)``; calling the pass runs them and returns
    ``(nu, value)``.  A run takes the penalty of the :class:`PenaltyGroup`
    that holds it.  The subgradient of every run of a group with ``grad``
    is written into its slices of ``out``, ``(S, rows, cols)`` arrays; the
    slices of the other groups may be written too.  With ``work``, two
    lists of C-contiguous arrays shaped like ``layers``, the path norm's
    ``|layers[1:]|`` and the outer products of its subgradient go there.
    Building the pass computes the path norms once, which allocates the
    chain's arrays; ``calls[0]`` computes them again.

    Every number has the bits of the group computed alone: the path norm's
    pieces are computed once for the whole batch and sliced for each group,
    with the same calls as the group's own.
    """

    def __init__(self, layers, groups, out, work=None):
        abs_out, outer_out = work or (None, None)
        chain = _PathChain(layers, abs_out)
        # The first call allocates the chain's arrays, which the calls below
        # read and the later calls write again.
        self.nu, self.value = chain(), np.empty(len(layers[0]))
        calls = [chain]
        if any(grad for _, pen, grad in groups if pen.kind == "pesv"):
            # For the whole batch, in fewer calls than group by group; the
            # other groups then write over their slices.
            calls += _path_grad_calls(chain, out, outer_out)
        calls.append(partial(self.value.__setitem__, Ellipsis, self.nu))
        for runs, pen, grad in groups:
            if pen.kind == "weight_decay":
                calls += _weight_decay_calls(
                    layers, runs, self.value, out if grad else None, chain.squares
                )
            elif pen.kind == "mixed_max":
                calls += _mixed_max_calls(chain, runs, pen, self.value, out if grad else None)
        self.calls = calls

    def __call__(self) -> tuple[np.ndarray, np.ndarray]:
        _run(self.calls)
        return self.nu, self.value


def penalty_stacked(layers, groups, out, work=None) -> tuple[np.ndarray, np.ndarray]:
    """The path norm and the penalty of each of ``S`` stacked networks, with
    the subgradients of the groups with ``grad`` written into ``out``: one
    pass of a new :class:`PenaltyPass`, whose building computed the path
    norms, so only the calls after the chain run."""
    penalty = PenaltyPass(layers, groups, out, work)
    _run(penalty.calls[1:])
    return penalty.nu, penalty.value


def rescale_neuron(params: NetParams, layer: int, index: int, c: float) -> NetParams:
    """Multiply the incoming weights of hidden neuron ``(layer, index)`` by
    ``c`` and divide its outgoing weights by ``c`` (``layer`` is 1-based)."""
    if c <= 0:
        raise ValueError("rescaling factor must be positive")
    layers = [np.array(w) for w in params.layers]
    if not 1 <= layer <= len(layers) - 1:
        raise ValueError("layer must name a hidden layer")
    if not 0 <= index < layers[layer - 1].shape[0]:
        raise ValueError("neuron index out of range")
    layers[layer - 1][index, :] *= c
    layers[layer][:, index] /= c
    return NetParams(tuple(layers))


_BALANCE_TOL = 1e-10
_BALANCE_MAX_SWEEPS = 10_000


def balance_relu(params: NetParams, act: ActivationSpec) -> NetParams:
    """Equalize per-neuron incoming/outgoing magnitudes by cyclic sweeps.

    Each sweep applies the weight-decay-optimal factor
    ``c = sqrt(||outgoing|| / ||incoming||)`` to every hidden neuron; dead
    neurons (zero incoming or outgoing) have their other side zeroed, which
    is the limit of valid rescalings.  Outputs are preserved (positive
    homogeneity) and the weight-decay norm never increases.  Stops when the
    relative decrease per sweep drops to ``1e-10``, or after 10,000 sweeps.
    """
    if act.kind not in _HOMOGENEOUS_KINDS:
        raise UnsupportedActivationError(
            f"balance requires a positively homogeneous activation, got {act.kind!r}"
        )
    layers = [np.array(w) for w in params.layers]
    prev = sum(float(np.sum(w * w)) for w in layers)
    for _ in range(_BALANCE_MAX_SWEEPS):
        for l in range(len(layers) - 1):
            w_in, w_out = layers[l], layers[l + 1]
            in_norms = np.linalg.norm(w_in, axis=1)
            out_norms = np.linalg.norm(w_out, axis=0)
            # Each neuron's factor reads norms taken before any rescaling,
            # and touches only its own row and column.
            c = np.ones_like(in_norms)
            np.divide(out_norms, in_norms, out=c, where=(in_norms > 0.0) & (out_norms > 0.0))
            np.sqrt(c, out=c)
            w_in *= c[:, None]
            w_out /= c
            w_out[:, (in_norms == 0.0) & (out_norms > 0.0)] = 0.0
            w_in[(out_norms == 0.0) & (in_norms > 0.0)] = 0.0
        cur = sum(float(np.sum(w * w)) for w in layers)
        if prev - cur <= _BALANCE_TOL * max(prev, 1e-300):
            break
        prev = cur
    return NetParams(tuple(layers))
