"""Network regularizers, their subgradients, and output-preserving rescalings."""

from __future__ import annotations

import numpy as np

from .netcore import ActivationSpec, NetParams, UnsupportedActivationError, as_layers

__all__ = [
    "balance_relu",
    "mixed_max_norm",
    "mixed_max_subgradient",
    "outgoing_weights",
    "pesv_matrixproduct_variant",
    "pesv_norm",
    "pesv_subgradient",
    "rescale_neuron",
    "weight_decay_norm",
    "weight_decay_subgradient",
]

_HOMOGENEOUS_KINDS = {"relu", "leaky_relu", "identity"}


def _first_layer_row_norms(layers) -> np.ndarray:
    return np.linalg.norm(layers[0], axis=1)


def pesv_norm(params) -> float:
    """Path-enhanced scaled variation norm.

    Sum over all hidden paths of the absolute product of weights along the
    path, with the first-layer factor replaced by the Euclidean norm of the
    first-layer row.  Computed as the nonnegative matrix chain
    ``|a| |w^{L-1}| ... |w^2| v`` with ``v_k = ||w^1_k||_2``; for depth 2
    this is the scaled variation norm ``sum_k |a_k| ||w^1_k||_2``.
    """
    layers = as_layers(params)
    v = _first_layer_row_norms(layers)
    for w in layers[1:-1]:
        v = np.abs(w) @ v
    return float(np.abs(layers[-1].ravel()) @ v)


def pesv_matrixproduct_variant(params) -> float:
    """Signed-product form: ``sum_k |W_k| ||w^1_k||_2`` with ``W = a w^{L-1}...w^2``.

    Equals :func:`pesv_norm` when no sign cancellation occurs in the hidden
    product, and never exceeds it.
    """
    layers = as_layers(params)
    w = layers[-1]
    for mat in layers[-2:0:-1]:
        w = w @ mat
    return float(np.abs(w.ravel()) @ _first_layer_row_norms(layers))


def outgoing_weights(upper) -> list[np.ndarray]:
    """Accumulated outgoing weight of every hidden unit, from the matrices
    above the first layer (``upper = layers[1:]``).

    Entry ``k`` is the vector ``upper[-1] upper[-2] ... upper[k]``, one value
    per unit of hidden layer ``k``.  Pass ``|W|`` matrices for the path mass
    a unit carries to the output, signed ones for its net output sign.
    """
    acc = upper[-1].ravel()
    out = [acc]
    for w in upper[-2::-1]:
        acc = acc @ w
        out.append(acc)
    out.reverse()
    return out


def pesv_subgradient(params) -> list[np.ndarray]:
    """A subgradient of :func:`pesv_norm`; zero at sign kinks and zero rows."""
    layers = as_layers(params)
    depth = len(layers)
    abs_upper = [np.abs(w) for w in layers[1:]]
    row_norms = _first_layer_row_norms(layers)

    # down[k] = |layers[k]| ... |layers[1]| v with v the first-layer row norms.
    down = [row_norms]
    for w in abs_upper[:-1]:
        down.append(w @ down[-1])
    upvecs = outgoing_weights(abs_upper)

    with np.errstate(invalid="ignore", divide="ignore"):
        unit_rows = np.where(
            row_norms[:, None] > 0.0, layers[0] / row_norms[:, None], 0.0
        )
    grads: list[np.ndarray] = [upvecs[0][:, None] * unit_rows]
    for k in range(1, depth - 1):
        grads.append(np.sign(layers[k]) * np.outer(upvecs[k], down[k - 1]))
    grads.append(np.sign(layers[-1]) * down[depth - 2][None, :])
    return grads


def weight_decay_norm(params) -> float:
    """Sum of squares of every weight."""
    return float(sum(np.sum(w * w) for w in as_layers(params)))


def weight_decay_subgradient(params) -> list[np.ndarray]:
    return [2.0 * w for w in as_layers(params)]


def _row_pnorms(w: np.ndarray, p: float) -> np.ndarray:
    if p == 1.0:
        return np.sum(np.abs(w), axis=1)
    if p == 2.0:
        return np.linalg.norm(w, axis=1)
    return np.sum(np.abs(w) ** p, axis=1) ** (1.0 / p)


def mixed_max_norm(params, p: float = 1.0, q: float = 2.0) -> float:
    """Max over per-unit incoming norms: ``l_p`` rows for layers >= 2 joined
    with ``l_q`` rows of the first layer."""
    if p < 1.0 or q < 1.0:
        raise ValueError("p and q must be at least 1")
    layers = as_layers(params)
    best = max(float(np.max(_row_pnorms(w, p))) for w in layers[1:])
    return max(best, float(np.max(_row_pnorms(layers[0], q))))


def mixed_max_subgradient(params, p: float = 1.0, q: float = 2.0) -> list[np.ndarray]:
    """Subgradient of :func:`mixed_max_norm`: gradient of the first row
    attaining the max, scanned upper layers first; zero elsewhere."""
    layers = as_layers(params)
    grads = [np.zeros_like(w) for w in layers]
    best_val = -1.0
    best = (0, 0, q)
    for idx, w in enumerate(layers[1:], start=1):
        norms = _row_pnorms(w, p)
        j = int(np.argmax(norms))
        if norms[j] > best_val:
            best_val = float(norms[j])
            best = (idx, j, p)
    first_norms = _row_pnorms(layers[0], q)
    j = int(np.argmax(first_norms))
    if first_norms[j] > best_val:
        best_val = float(first_norms[j])
        best = (0, j, q)
    if best_val <= 0.0:
        return grads
    idx, j, r = best
    row = layers[idx][j]
    if r == 1.0:
        g = np.sign(row)
    else:
        nr = _row_pnorms(row[None, :], r)[0]
        g = np.sign(row) * (np.abs(row) / nr) ** (r - 1.0)
    grads[idx][j] = g
    return grads


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
