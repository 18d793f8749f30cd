"""Network regularizers, their subgradients, and output-preserving rescalings."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from .netcore import ActivationSpec, NetParams, UnsupportedActivationError, as_layers, parse_spec

__all__ = [
    "balance_relu",
    "mixed_max_norm",
    "outgoing_weights",
    "Penalty",
    "PenaltyGroup",
    "penalty_stacked",
    "pesv_matrixproduct_variant",
    "pesv_norm",
    "pesv_stacked",
    "pesv_unit_scaled",
    "rescale_neuron",
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


def outgoing_weights(upper) -> list[np.ndarray]:
    """Accumulated outgoing weight of every hidden unit, from the matrices
    above the first layer (``upper = layers[1:]``).

    Entry ``k`` is the vector ``upper[-1] upper[-2] ... upper[k]``, one value
    per unit of hidden layer ``k``.  Pass ``|W|`` matrices for the path mass
    a unit carries to the output, signed ones for its net output sign.
    Matrices stacked on a leading run axis give one row of values per run.
    """
    acc = upper[-1][..., 0, :]
    out = [acc]
    for w in upper[-2::-1]:
        acc = (acc[..., None, :] @ w)[..., 0, :]
        out.append(acc)
    out.reverse()
    return out


def pesv_stacked(layers) -> np.ndarray:
    """:func:`pesv_norm` of each of ``S`` networks stacked on a leading run
    axis (``(S, rows, cols)`` layers), shape ``(S,)``."""
    return _pesv_pieces(layers)[3]


def pesv_unit_scaled(layers) -> tuple[list[np.ndarray], np.ndarray] | None:
    """Each of ``S`` stacked networks with its output row divided by its
    path norm ``nu``, and the path norm of each rescaled network, or None
    when some ``nu`` is not positive.

    The rescaled norms come from the chain that gave ``nu``: only the output
    row's ``|a / nu| @ down[-1]`` is taken again, so they have the bits of
    :func:`pesv_stacked` of the returned layers."""
    _, _, down, nu = _pesv_pieces(layers)
    if not np.minimum.reduce(nu) > 0.0:  # nan fails too
        return None
    top = layers[-1] / nu[:, None, None]
    return [*layers[:-1], top], (np.abs(top) @ down[-1])[:, 0, 0]


def _pesv_pieces(layers, abs_out=None):
    """``|layers[1:]|``, written into ``abs_out[1:]`` when given, the
    first-layer row 2-norms ``v``, the chain ``down[k] = |layers[k]| ...
    |layers[1]| v`` as columns, and the path norm."""
    if abs_out is None:
        abs_upper = [np.abs(w) for w in layers[1:]]
    else:
        abs_upper = [np.abs(w, out=a) for w, a in zip(layers[1:], abs_out[1:])]
    row_norms = _row_pnorms(layers[0], 2.0)
    down = [row_norms[..., None]]
    for w in abs_upper[:-1]:
        down.append(w @ down[-1])
    return abs_upper, row_norms, down, (abs_upper[-1] @ down[-1])[:, 0, 0]


def _pesv_grad(layers, abs_upper, row_norms, down, out, outer_out=None) -> None:
    """Write the path-norm subgradient of each stacked network into ``out``:
    zero at sign kinks and on zero first-layer rows.  Each middle layer's
    outer product is written into ``outer_out`` when given."""
    upvecs = outgoing_weights(abs_upper)
    norms_col = row_norms[..., None]
    if (row_norms > 0.0).all():
        np.divide(layers[0], norms_col, out=out[0])
    else:
        out[0].fill(0.0)
        np.divide(layers[0], norms_col, out=out[0], where=norms_col > 0.0)
    np.multiply(upvecs[0][..., None], out[0], out=out[0])
    for k in range(1, len(layers) - 1):
        outer = np.multiply(
            upvecs[k][..., None], down[k - 1].transpose(0, 2, 1),
            out=None if outer_out is None else outer_out[k],
        )
        np.multiply(np.sign(layers[k], out=out[k]), outer, out=out[k])
    np.sign(layers[-1], out=out[-1])
    np.multiply(out[-1], down[-1].transpose(0, 2, 1), out=out[-1])


def weight_decay_norm(params) -> float:
    """Sum of squares of every weight."""
    return float(_weight_decay(_stack_one(params))[0])


def _weight_decay(layers) -> np.ndarray:
    """:func:`weight_decay_norm` of each stacked network."""
    return reduce(np.add, (np.add.reduce(w * w, axis=(1, 2)) for w in layers))


def _row_pnorms(w: np.ndarray, p: float) -> np.ndarray:
    if p == 1.0:
        return np.add.reduce(np.abs(w), axis=-1)
    if p == 2.0:
        return np.sqrt(np.add.reduce(w * w, axis=-1))
    return np.add.reduce(np.abs(w) ** p, axis=-1) ** (1.0 / p)


def mixed_max_norm(params, p: float = 1.0, q: float = 2.0) -> float:
    """Max over per-unit incoming norms: ``l_p`` rows for layers >= 2 joined
    with ``l_q`` rows of the first layer."""
    return Penalty("mixed_max", p, q).value(params)


def _mixed_max(layers, p, q, row_norms, out) -> np.ndarray:
    """The mixed max of each stacked network from its scan-order row norms;
    with ``out``, its subgradient is written there: the gradient of the
    first row attaining the max, zero elsewhere."""
    flat = np.concatenate(row_norms, axis=-1)
    pick = flat.argmax(axis=-1)  # the first row attaining the max
    runs = np.arange(flat.shape[0])
    value = flat[runs, pick]
    if out is None:
        return value
    # The row each run picks, where its max is positive.  Elementwise ops
    # masked by it give the picked rows the bits of a gathered computation.
    hit = np.zeros(flat.shape, dtype=bool)
    hit[runs, pick] = value > 0.0
    start = 0
    for idx, nr in zip([*range(1, len(layers)), 0], row_norms):
        stop = start + nr.shape[-1]
        w, g, rows = layers[idx], out[idx], hit[:, start:stop, None]
        g.fill(0.0)
        np.sign(w, out=g, where=rows)
        r = q if idx == 0 else p
        if r != 1.0 and rows.any():
            ratio = np.zeros_like(w)  # zero off the picked rows: no overflow
            np.divide(np.abs(w), value[:, None, None], out=ratio, where=rows)
            np.multiply(g, ratio ** (r - 1.0), out=g, where=rows)
        start = stop
    return value


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


def penalty_stacked(layers, groups, out, work=None) -> tuple[np.ndarray, np.ndarray]:
    """The path norm of each of ``S`` stacked networks and the penalty of
    each, shapes ``(S,)``: a run takes the penalty of the
    :class:`PenaltyGroup` that holds it.  The subgradient of every run of a
    group with ``grad`` is written into its slices of ``out``, ``(S, rows,
    cols)`` arrays; the slices of the other groups may be written too.
    With ``work``, two lists of C-contiguous arrays shaped like ``layers``,
    the path norm's ``|layers[1:]|`` and the outer products of its
    subgradient are written there instead of into new arrays, with the same
    bits.

    Every number has the bits of the group computed alone, by a call on its
    own slices: the path norm's ``|layers[1:]|``, first-layer row 2-norms
    and down chain are computed once for the whole batch and sliced for
    each group, and the mixed max takes its ``l_1`` and ``l_2`` rows from
    them: the same calls as ``_row_pnorms``, so the same bits."""
    abs_out, outer_out = work or (None, None)
    abs_upper, l2_rows, down, nu = _pesv_pieces(layers, abs_out)
    if any(grad for _, pen, grad in groups if pen.kind == "pesv"):
        # For the whole batch, in fewer calls than group by group; the other
        # groups then write over their slices.
        _pesv_grad(layers, abs_upper, l2_rows, down, out, outer_out)
    value = nu.copy()  # the path-norm groups' values
    for runs, pen, grad in groups:
        if pen.kind == "pesv":
            continue
        ws = [w[runs] for w in layers]
        gs = [g[runs] for g in out] if grad else None
        if pen.kind == "weight_decay":
            value[runs] = _weight_decay(ws)
            if grad:
                for w, g in zip(ws, gs):
                    np.multiply(w, 2.0, out=g)
        else:  # mixed_max: l_p rows above the first layer, then l_q rows of the first
            p, q = pen.p, pen.q
            if p == 1.0:
                rows = [np.add.reduce(a[runs], axis=-1) for a in abs_upper]
            else:
                rows = [_row_pnorms(w, p) for w in ws[1:]]
            rows.append(l2_rows[runs] if q == 2.0 else _row_pnorms(ws[0], q))
            value[runs] = _mixed_max(ws, p, q, rows, gs)
    return nu, value


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
