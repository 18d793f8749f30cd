"""Network regularizers, their subgradients, and output-preserving rescalings."""

from __future__ import annotations

import numpy as np

from .netcore import ActivationSpec, NetParams, UnsupportedActivationError, as_layers

__all__ = [
    "balance_relu",
    "mixed_max_norm",
    "mixed_max_stacked",
    "mixed_max_subgradient",
    "outgoing_weights",
    "pesv_matrixproduct_variant",
    "pesv_norm",
    "pesv_stacked",
    "pesv_subgradient",
    "rescale_neuron",
    "weight_decay_norm",
    "weight_decay_stacked",
    "weight_decay_subgradient",
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
    return float(pesv_stacked(_stack_one(params), grad=False)[0][0])


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


def pesv_subgradient(params) -> list[np.ndarray]:
    """A subgradient of :func:`pesv_norm`; zero at sign kinks and zero rows."""
    return [g[0] for g in pesv_stacked(_stack_one(params))[1]]


def pesv_stacked(layers, grad: bool = True) -> tuple[np.ndarray, list[np.ndarray] | None]:
    """:func:`pesv_norm` of each of ``S`` networks stacked on a leading run
    axis (``(S, rows, cols)`` layers), shape ``(S,)``, and with ``grad`` the
    :func:`pesv_subgradient` of each, layer by layer; ``None`` without."""
    abs_upper = [np.abs(w) for w in layers[1:]]
    row_norms = _row_pnorms(layers[0], 2.0)
    # down[k] = |layers[k]| ... |layers[1]| v as columns, v the first-layer row norms.
    down = [row_norms[..., None]]
    for w in abs_upper[:-1]:
        down.append(w @ down[-1])
    value = (abs_upper[-1] @ down[-1])[:, 0, 0]
    if not grad:
        return value, None
    upvecs = outgoing_weights(abs_upper)
    norms_col = row_norms[..., None]
    if (row_norms > 0.0).all():
        unit_rows = layers[0] / norms_col
    else:
        unit_rows = np.divide(
            layers[0], norms_col, out=np.zeros_like(layers[0]), where=norms_col > 0.0
        )
    grads = [upvecs[0][..., None] * unit_rows]
    for k in range(1, len(layers) - 1):
        outer = upvecs[k][..., None] * down[k - 1].transpose(0, 2, 1)
        grads.append(np.sign(layers[k]) * outer)
    grads.append(np.sign(layers[-1]) * down[-1].transpose(0, 2, 1))
    return value, grads


def weight_decay_norm(params) -> float:
    """Sum of squares of every weight."""
    return float(weight_decay_stacked(_stack_one(params), grad=False)[0][0])


def weight_decay_subgradient(params) -> list[np.ndarray]:
    return [g[0] for g in weight_decay_stacked(_stack_one(params))[1]]


def weight_decay_stacked(
    layers, grad: bool = True
) -> tuple[np.ndarray, list[np.ndarray] | None]:
    """:func:`weight_decay_norm` of each stacked network, and with ``grad``
    its gradient, as :func:`pesv_stacked` does for the path norm."""
    value = sum(np.add.reduce(w * w, axis=(1, 2)) for w in layers)
    return value, [2.0 * w for w in layers] if grad else None


def _row_pnorms(w: np.ndarray, p: float) -> np.ndarray:
    if p == 1.0:
        return np.add.reduce(np.abs(w), axis=-1)
    if p == 2.0:
        return np.sqrt(np.add.reduce(w * w, axis=-1))
    return np.add.reduce(np.abs(w) ** p, axis=-1) ** (1.0 / p)


def mixed_max_norm(params, p: float = 1.0, q: float = 2.0) -> float:
    """Max over per-unit incoming norms: ``l_p`` rows for layers >= 2 joined
    with ``l_q`` rows of the first layer."""
    return float(mixed_max_stacked(_stack_one(params), p, q, grad=False)[0][0])


def mixed_max_subgradient(params, p: float = 1.0, q: float = 2.0) -> list[np.ndarray]:
    """Subgradient of :func:`mixed_max_norm`: gradient of the first row
    attaining the max, scanned upper layers first; zero elsewhere."""
    return [g[0] for g in mixed_max_stacked(_stack_one(params), p, q)[1]]


def mixed_max_stacked(
    layers, p: float = 1.0, q: float = 2.0, grad: bool = True
) -> tuple[np.ndarray, list[np.ndarray] | None]:
    """:func:`mixed_max_norm` of each stacked network, and with ``grad`` the
    :func:`mixed_max_subgradient` of each, as :func:`pesv_stacked` does for
    the path norm."""
    if p < 1.0 or q < 1.0:
        raise ValueError("p and q must be at least 1")
    # Rows in scan order, upper layers first: argmax picks the first row
    # attaining the max.
    scan = [(idx, p) for idx in range(1, len(layers))] + [(0, q)]
    row_norms = [_row_pnorms(layers[idx], r) for idx, r in scan]
    flat = np.concatenate(row_norms, axis=-1)
    pick = flat.argmax(axis=-1)
    value = flat[np.arange(flat.shape[0]), pick]
    if not grad:
        return value, None
    grads = [np.zeros_like(w) for w in layers]
    # Runs with a positive max, by the row they pick, in run order.
    picked = [(s, j) for s, (j, v) in enumerate(zip(pick.tolist(), value.tolist())) if v > 0.0]
    start = 0
    for (idx, r), nr in zip(scan, row_norms):
        stop = start + nr.shape[-1]
        hits = [(s, j - start) for s, j in picked if start <= j < stop]
        if hits:
            sel, j = zip(*hits)
            rows = layers[idx][sel, j]
            g = np.sign(rows)
            if r != 1.0:
                g = g * (np.abs(rows) / nr[sel, j][:, None]) ** (r - 1.0)
            grads[idx][sel, j] = g
        start = stop
    return value, grads


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


def balance_relu(
    params: NetParams,
    act: ActivationSpec,
    tol: float = 1e-10,
    max_sweeps: int = 10_000,
) -> NetParams:
    """Equalize per-neuron incoming/outgoing magnitudes by cyclic sweeps.

    Each sweep applies the weight-decay-optimal factor
    ``c = sqrt(||outgoing|| / ||incoming||)`` to every hidden neuron; dead
    neurons (zero incoming or outgoing) have their other side zeroed, which
    is the limit of valid rescalings.  Outputs are preserved (positive
    homogeneity) and the weight-decay norm never increases.  Stops when the
    relative decrease per sweep drops below ``tol``.
    """
    if act.kind not in _HOMOGENEOUS_KINDS:
        raise UnsupportedActivationError(
            f"balance requires a positively homogeneous activation, got {act.kind!r}"
        )
    layers = [np.array(w) for w in params.layers]
    prev = sum(float(np.sum(w * w)) for w in layers)
    for _ in range(max_sweeps):
        for l in range(len(layers) - 1):
            w_in, w_out = layers[l], layers[l + 1]
            in_norms = np.linalg.norm(w_in, axis=1)
            out_norms = np.linalg.norm(w_out, axis=0)
            for j in range(w_in.shape[0]):
                ni, no = in_norms[j], out_norms[j]
                if ni > 0.0 and no > 0.0:
                    c = np.sqrt(no / ni)
                    if c != 1.0:
                        w_in[j, :] *= c
                        w_out[:, j] /= c
                elif ni == 0.0 and no > 0.0:
                    w_out[:, j] = 0.0
                elif no == 0.0 and ni > 0.0:
                    w_in[j, :] = 0.0
        cur = sum(float(np.sum(w * w)) for w in layers)
        if prev - cur <= tol * max(prev, 1e-300):
            break
        prev = cur
    return NetParams(tuple(layers))
