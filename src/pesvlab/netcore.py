"""Finite fully-connected networks: evaluation, gradients, and structural transforms.

Networks are stored bias-free: the input carries an explicit trailing ``1``
coordinate, so a depth-``L`` network is just a chain of ``L`` weight matrices
with the activation applied after every matrix except the last.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Callable, Collection, Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "ActivationSpec",
    "BiasedNet",
    "ExpandedUpstream",
    "NetParams",
    "StackedPass",
    "UnsupportedActivationError",
    "WidthVector",
    "absorb_bias",
    "as_layers",
    "expand_upstream",
    "forward",
    "forward_biased",
    "layer_shapes",
    "load_network",
    "max_nondecreasing_component",
    "network_from_json",
    "network_to_json",
    "normalize_activation",
    "parse_spec",
    "save_network",
    "stacked_backprop",
    "stacked_buffers",
    "stacked_forward",
]

# Candidate probe points for constant-carrier units; the first one with a
# nonzero activation value is used.
_CARRIER_PROBES = (1.0, -1.0, 0.5, 2.0, -0.5, -2.0)


class UnsupportedActivationError(RuntimeError):
    """The requested operation needs a capability this activation lacks."""


def parse_spec(
    text: str, kinds: Mapping[str, Collection[int]], what: str
) -> tuple[str, tuple[float, ...]]:
    """Split a ``kind``, ``kind:a[:b]`` or ``kind(a[,b])`` spec into its kind
    and numeric arguments.

    ``kinds`` maps each accepted kind to the argument counts it takes; an
    unknown kind, a wrong count or a non-numeric or non-finite argument
    raises ``ValueError`` with a message naming ``what`` the spec describes.
    """
    text = text.strip()
    if text.endswith(")") and "(" in text:
        kind, _, inner = text[:-1].partition("(")
        raw = inner.split(",") if inner.strip() else []
    else:
        kind, *raw = text.split(":")
    kind = kind.strip()
    if kind not in kinds:
        raise ValueError(f"unknown {what} {kind!r} (expected one of: {', '.join(kinds)})")
    if len(raw) not in kinds[kind]:
        counts = " or ".join(str(n) for n in sorted(kinds[kind]))
        raise ValueError(f"{what} {kind!r} takes {counts} arguments, got {len(raw)}")
    try:
        args = tuple(float(v) for v in raw)
    except ValueError:
        raise ValueError(f"{what} spec {text!r} has a non-numeric argument") from None
    if not all(map(math.isfinite, args)):
        raise ValueError(f"{what} spec {text!r} has a non-finite argument")
    return kind, args


@dataclass(frozen=True)
class ActivationSpec:
    """Scalar activation with a known Lipschitz constant.

    ``kind`` is one of ``relu``, ``identity``, ``leaky_relu`` or
    ``tabulated``.  Tabulated activations are piecewise-linear interpolants
    over a user grid (constant beyond the endpoints), with the Lipschitz
    constant taken as the maximum absolute segment slope.
    """

    kind: str
    lipschitz: float
    value_at_zero: float
    alpha: float = 0.0
    grid: tuple[tuple[float, ...], tuple[float, ...]] | None = None
    differentiable: bool = True

    def __post_init__(self) -> None:
        if self.kind not in _ACTIVATIONS:
            raise ValueError(f"unknown activation kind {self.kind!r}")
        if not 0 < self.lipschitz < math.inf:
            raise ValueError("Lipschitz constant must be positive and finite")

    @classmethod
    def parse(cls, text: str) -> "ActivationSpec":
        """Build from a ``relu``, ``identity`` or ``leaky_relu:alpha`` spec."""
        kinds = {k: v.spec_args for k, v in _ACTIVATIONS.items() if v.spec_args}
        kind, args = parse_spec(text, kinds, "activation")
        return getattr(cls, kind)(*args)

    @classmethod
    def relu(cls) -> "ActivationSpec":
        return cls("relu", 1.0, 0.0)

    @classmethod
    def identity(cls) -> "ActivationSpec":
        return cls("identity", 1.0, 0.0)

    @classmethod
    def leaky_relu(cls, alpha: float) -> "ActivationSpec":
        if not 0 < alpha < math.inf:
            raise ValueError("leaky slope must be positive and finite")
        return cls("leaky_relu", max(1.0, alpha), 0.0, alpha=alpha)

    @classmethod
    def tabulated(
        cls,
        xs: Sequence[float],
        ys: Sequence[float],
        differentiable: bool = True,
    ) -> "ActivationSpec":
        xs = tuple(float(v) for v in xs)
        ys = tuple(float(v) for v in ys)
        if len(xs) < 2 or len(xs) != len(ys):
            raise ValueError("need matching grids with at least two knots")
        if not all(math.isfinite(v) for v in xs + ys):
            raise ValueError("grid knots must be finite")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("grid must be strictly increasing")
        slopes = np.diff(ys) / np.diff(xs)
        lip = float(np.max(np.abs(slopes)))
        if lip == 0.0:
            raise ValueError("constant table has zero Lipschitz constant")
        sigma0 = float(np.interp(0.0, xs, ys))
        return cls("tabulated", lip, sigma0, grid=(xs, ys), differentiable=differentiable)

    @property
    def normalized(self) -> bool:
        return self.value_at_zero == 0.0

    def __call__(self, x, out: np.ndarray | None = None):
        """The activation of every entry, written into ``out`` when given.
        relu and identity work in place (``out`` may be ``x``); leaky relu
        and tabulated return a new array when ``out`` is ``x``."""
        return _ACTIVATIONS[self.kind].value(self, np.asarray(x, dtype=np.float64), out)

    def derivative(self, x):
        """Almost-everywhere derivative; at the relu kink the value is 0."""
        if not self.differentiable:
            raise UnsupportedActivationError(
                "tabulated activation was built without derivative support"
            )
        return _ACTIVATIONS[self.kind].derivative(self, np.asarray(x, dtype=np.float64))

    def shifted_to_zero(self) -> "ActivationSpec":
        """Return the same activation minus its value at zero."""
        if self.normalized:
            return self
        xs, ys = self.grid
        shifted = tuple(y - self.value_at_zero for y in ys)
        return ActivationSpec(
            "tabulated",
            self.lipschitz,
            0.0,
            grid=(xs, shifted),
            differentiable=self.differentiable,
        )

    def as_dict(self) -> dict:
        d = {"kind": self.kind, "L_sigma": self.lipschitz, "sigma0": self.value_at_zero}
        if self.kind == "leaky_relu":
            d["alpha"] = self.alpha
        if self.grid is not None:
            d["grid_x"] = list(self.grid[0])
            d["grid_y"] = list(self.grid[1])
            d["differentiable"] = self.differentiable
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ActivationSpec":
        kind = d["kind"]
        if kind == "tabulated":
            return cls.tabulated(d["grid_x"], d["grid_y"], d.get("differentiable", True))
        return cls.parse(f"{kind}:{d['alpha']!r}" if "alpha" in d else kind)


def _tabulated_derivative(act: ActivationSpec, x: np.ndarray) -> np.ndarray:
    xs, ys = act.grid
    xs_a = np.asarray(xs)
    slopes = np.diff(ys) / np.diff(xs_a)
    seg = np.clip(np.searchsorted(xs_a, x, side="right") - 1, 0, len(xs) - 2)
    out = slopes[seg]
    return np.where((x < xs[0]) | (x > xs[-1]), 0.0, out)


def _leaky_relu(act: ActivationSpec, x: np.ndarray, out=None) -> np.ndarray:
    """``np.where(x > 0, x, alpha * x)`` with its bits, in two calls: the
    larger of ``alpha * x`` and ``x`` for ``alpha <= 1``, else the smaller.
    Ties are equal bits, and a nan ``x`` gives the nan of ``alpha * x``."""
    if out is x:
        out = None
    scaled = np.multiply(act.alpha, x, out=out)
    return (np.maximum if act.alpha <= 1.0 else np.minimum)(scaled, x, out=out)


def _into(out: np.ndarray | None, x: np.ndarray, value: np.ndarray) -> np.ndarray:
    """``value``, copied into ``out`` when that is an array other than ``x``."""
    if out is None or out is x:
        return value
    np.copyto(out, value)
    return out


class _ActivationKind(NamedTuple):
    value: Callable[[ActivationSpec, np.ndarray, np.ndarray | None], np.ndarray]
    derivative: Callable[[ActivationSpec, np.ndarray], np.ndarray]
    spec_args: tuple[int, ...]  # argument counts ``parse`` accepts; () if not parseable


# Every activation kind; ``parse`` builds a kind through the classmethod of
# the same name.
_ACTIVATIONS = {
    "relu": _ActivationKind(
        lambda a, x, out: np.maximum(x, 0.0, out=out),
        lambda a, x: (x > 0).astype(np.float64),
        (0,),
    ),
    "identity": _ActivationKind(
        lambda a, x, out: _into(out, x, x), lambda a, x: np.ones_like(x), (0,)
    ),
    "leaky_relu": _ActivationKind(
        _leaky_relu,
        lambda a, x: np.where(x > 0, 1.0, a.alpha),
        (1,),
    ),
    "tabulated": _ActivationKind(
        lambda a, x, out: _into(out, x, np.interp(x, *a.grid)), _tabulated_derivative, ()
    ),
}


@dataclass(frozen=True)
class WidthVector:
    """Hidden-layer sizes of a network, with their max and min."""

    widths: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.widths) < 1:
            raise ValueError("need at least one hidden layer")
        if any(int(w) != w or w < 1 for w in self.widths):
            raise ValueError("widths must be integers >= 1")
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))

    @classmethod
    def of(cls, ws) -> "WidthVector":
        if isinstance(ws, WidthVector):
            return ws
        if isinstance(ws, int):
            return cls((ws,))
        return cls(tuple(ws))

    @property
    def m(self) -> int:
        return max(self.widths)

    @property
    def b(self) -> int:
        return min(self.widths)

    def product(self) -> int:
        p = 1
        for w in self.widths:
            p *= w
        return p

    def __len__(self) -> int:
        return len(self.widths)

    def __iter__(self):
        return iter(self.widths)

    def __getitem__(self, i):
        return self.widths[i]


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64, order="C", copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class NetParams:
    """All weight matrices of a bias-absorbed network.

    ``layers[0]`` has shape ``(m1, d+1)``, middle matrices chain
    ``(m_l, m_{l-1})``, and the last entry is the output row ``(1, m_{L-1})``.
    Arrays are stored read-only; instances are safe to share.
    """

    layers: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.layers) < 2:
            raise ValueError("depth must be at least 2")
        frozen = tuple(_freeze(w) for w in self.layers)
        for w in frozen:
            if w.ndim != 2:
                raise ValueError("every layer must be a matrix")
            if not np.all(np.isfinite(w)):
                raise ValueError("weights must be finite")
        for lo, hi in zip(frozen, frozen[1:]):
            if hi.shape[1] != lo.shape[0]:
                raise ValueError(
                    f"shape chain broken: {hi.shape} cannot follow {lo.shape}"
                )
        if frozen[-1].shape[0] != 1:
            raise ValueError("output layer must be a single row")
        if frozen[0].shape[1] < 2:
            raise ValueError("first layer needs the bias column (d+1 >= 2)")
        object.__setattr__(self, "layers", frozen)

    @classmethod
    def from_arrays(cls, arrays: Sequence[np.ndarray]) -> "NetParams":
        return cls(tuple(np.asarray(a, dtype=np.float64) for a in arrays))

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].shape[1] - 1

    @property
    def width_vector(self) -> WidthVector:
        return WidthVector(tuple(w.shape[0] for w in self.layers[:-1]))


def as_layers(params) -> tuple[np.ndarray, ...]:
    """The layer matrices of a :class:`NetParams` or of a raw sequence."""
    if isinstance(params, NetParams):
        return params.layers
    return tuple(params)


def layer_shapes(widths, in_size: int) -> list[tuple[int, int]]:
    """Matrix shapes of a network with hidden ``widths`` over ``in_size``-vectors."""
    ws = WidthVector.of(widths).widths
    return list(zip(ws + (1,), (in_size,) + ws))


# Most values the widest hidden array of one ``forward`` block holds.  An
# input with more rows is evaluated in blocks of the largest power of two of
# rows that fits.  Measured on the 2-core VM, ``generalization_error_mc`` on
# 4096 points, medians of 40 rotated in-process rounds, at widths (256, 256)
# and (1000,): 2^15 took 9.2 and 5.0 ms, 2^16 8.1 and 4.6 ms, 2^17 7.5 and
# 4.4 ms, 2^18 6.9 and 5.9 ms, and one pass 7.9 and 5.1 ms.  The traced
# peak doubles with each step (1.2 and 0.7 MiB at 2^16), and the
# ``cli_wide`` benchmark's peak RSS read about 55.4 MiB from 2^15 to 2^17,
# 57.1-57.8 at 2^18 and 75.0-75.8 in one pass.
_FORWARD_BLOCK_VALUES = 2**16


def forward(params, act: ActivationSpec, inputs) -> np.ndarray:
    """Evaluate the network on a batch of ``(d+1)``-vectors.

    ``params`` may be a :class:`NetParams` or a raw sequence of layer
    matrices.  The rows are evaluated in blocks, so that the widest hidden
    array of a block holds at most ``_FORWARD_BLOCK_VALUES`` values; inputs
    that fit are one block.  A longer input takes blocks of the largest
    power of two of rows that fits, and a short last block.  Each hidden
    layer has one work array, allocated once per call, and relu is applied
    in place on it, so the memory an evaluation holds does not grow with
    the number of rows; ``inputs`` is never written.

    Each block's products are those of its rows alone.  OpenBLAS rounds
    some products differently at different row counts, so an input of more
    than one block can differ in the last bit from its evaluation in one
    pass: at some widths from about 190 up.
    """
    layers = as_layers(params)
    x = np.asarray(inputs, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != layers[0].shape[1]:
        raise ValueError(
            f"inputs have {x.shape[1]} coordinates, first layer expects "
            f"{layers[0].shape[1]}"
        )
    n, hidden = len(x), layers[:-1]
    widest = max(w.shape[0] for w in hidden)
    rows = max(n, 1)
    if n * widest > _FORWARD_BLOCK_VALUES:
        rows = 1 << (max(_FORWARD_BLOCK_VALUES // widest, 1).bit_length() - 1)
    work = [np.empty((rows, w.shape[0])) for w in hidden]
    out = np.empty((n, 1))
    for start in range(0, n, rows):
        h = x[start : start + rows]
        for w, z in zip(hidden, work):
            z = np.matmul(h, w.T, out=z[: len(h)])
            h = act(z, out=z)
        np.matmul(h, layers[-1].T, out=out[start : start + rows])
    return out[0, 0] if single else out.ravel()


def stacked_buffers(runs: int, n: int, widths) -> list[np.ndarray]:
    """Buffers for :func:`stacked_forward` on up to ``runs`` stacked networks
    of hidden ``widths`` over ``n`` inputs: one flat array of ``runs * n *
    width`` values per hidden layer, which holds the layer's preactivation,
    its activation where the activation works in place (relu, identity), and
    then its backward delta.  The kernels lay out the leading values as the
    inputs' layout needs, so one set serves any ``S <= runs`` networks."""
    return [np.empty(runs * n * m) for m in WidthVector.of(widths)]


# Narrowest hidden layer that shared inputs lay side by side.  OpenBLAS's
# vector-matrix products round a side-by-side view of a layer of width 1 to
# 3 differently from a contiguous per-run one; from width 4 up, on every
# width, run count and sample count tried, they give the same bits.
_SIDE_BY_SIDE_WIDTH = 4


def _lead(buffer: np.ndarray | None, shape: tuple[int, ...]) -> np.ndarray:
    """The leading values of a flat buffer as a C-contiguous ``shape`` array,
    or a new array without a buffer."""
    if buffer is None:
        return np.empty(shape)
    return buffer[: math.prod(shape)].reshape(shape)


def _per_run(a: np.ndarray, runs: int) -> np.ndarray:
    """A hidden layer's array as its ``(runs, n, m)`` view."""
    if a.ndim == 3:
        return a
    return a.reshape(a.shape[0], runs, -1).transpose(1, 0, 2)


def _one_gemm(x: np.ndarray, z: np.ndarray) -> bool:
    """Whether the first layer of all runs, with preactivation ``z``, and its
    gradient are one GEMM over the inputs ``x``.  Only where the layer lies
    side by side, each run's product is a GEMM too (OpenBLAS rounds a
    matrix-vector product differently) and the GEMM has a multiple of 8
    columns: with 4 to 7 left over, OpenBLAS rounds those last columns of a
    GEMM of 196 or more differently from the runs' own products."""
    return z.ndim == 2 and min(x.shape) > 1 and z.shape[1] % 8 == 0


def _derivative(act: ActivationSpec, z: np.ndarray, out=None) -> np.ndarray:
    """``act.derivative(z)``, written into ``out`` when given, relu's as the
    mask ``z > 0``: the same bits in a multiply, without a float temporary.
    relu's ``z`` may be its activation, which is positive exactly where ``z``
    is (nan and both zeros are not)."""
    if act.kind == "relu":
        return np.greater(z, 0.0, out)
    return _into(out, z, act.derivative(z))


# Activations that :class:`StackedPass` applies in place on the preactivation.
_IN_PLACE = frozenset({"relu", "identity"})


class StackedPass:
    """The forward and backward passes of ``S`` stacked networks over per-run
    inputs, as lists of calls whose arrays and views are taken once.

    ``layers`` are ``(S, rows, cols)`` arrays, read at every pass, so a
    caller that updates them in place steps through one pass.  ``hs[0]``
    are the ``(S, n, d+1)`` inputs, never written; ``hs[k + 1]`` and
    ``zs[k]`` are hidden layer ``k``'s ``(S, n, m)`` activation and
    preactivation, one array for relu and identity, which apply in place.
    ``forward_calls`` write them and the ``(S, n)`` outputs ``out``.  With
    ``grads``, arrays shaped like ``layers``, ``backprop_calls`` write there
    the gradient of ``sum_i upstream[s, i] * f_s(x_i)`` for each run ``s``,
    from the ``(S, n)`` array ``upstream``; each hidden layer's delta goes
    over its activation once the gradient of the layer above has read it,
    so they consume ``hs[1:]``: run the forward calls again before the
    backward ones.  The calls are the same ufuncs and ``matmul`` products
    in the same order on arrays of the same layout, whether a pass is used
    once or once per step, so every result has the same bits.
    """

    def __init__(self, layers, act: ActivationSpec, hs, zs, grads=None):
        runs, n = hs[0].shape[:2]
        self.hs, self.zs, self.grads = hs, zs, grads
        self.out3 = np.empty((runs, n, 1))
        self.out = self.out3[..., 0]
        self.upstream = np.empty((runs, n))
        apply = _ACTIVATIONS[act.kind].value
        calls = []
        h = hs[0]
        for w, z, a in zip(layers[:-1], zs, hs[1:]):
            calls += [partial(np.matmul, h, w.transpose(0, 2, 1), z), partial(apply, act, z, a)]
            h = a
        calls.append(partial(np.matmul, h, layers[-1].transpose(0, 2, 1), self.out3))
        self.forward_calls = calls
        if grads is None:
            return
        # One derivative is live at a time, so they share one array.
        shared = np.empty(max(z.size for z in zs), dtype=bool if act.kind == "relu" else None)
        dzs = [shared[: z.size].reshape(z.shape) for z in zs]
        calls = [
            partial(np.matmul, self.upstream[..., None, :], hs[-1], grads[-1]),
            partial(_derivative, act, zs[-1], dzs[-1]),
            partial(np.multiply, self.upstream[..., :, None], layers[-1], hs[-1]),
        ]
        for k in range(len(layers) - 2, -1, -1):
            delta = hs[k + 1]
            calls += [
                partial(np.multiply, delta, dzs[k], delta),
                partial(np.matmul, delta.transpose(0, 2, 1), hs[k], grads[k]),
            ]
            if k:
                calls += [
                    partial(_derivative, act, zs[k - 1], dzs[k - 1]),
                    partial(np.matmul, delta, layers[k], hs[k]),
                ]
        self.backprop_calls = calls

    @classmethod
    def prepare(
        cls, layers, act: ActivationSpec, inputs, grads=None, buffers=None
    ) -> "StackedPass":
        """A pass over ``inputs`` whose preactivations lie in the leading
        values of ``buffers`` from :func:`stacked_buffers`, or in arrays of
        the pass; leaky relu and tabulated activations take arrays of their
        own."""
        runs, n = inputs.shape[:2]
        bufs = buffers or repeat(None)
        zs = [_lead(buf, (runs, n, w.shape[1])) for w, buf in zip(layers[:-1], bufs)]
        hs = [inputs, *(z if act.kind in _IN_PLACE else np.empty(z.shape) for z in zs)]
        return cls(layers, act, hs, zs, grads)

    def forward(self) -> np.ndarray:
        """Run the forward calls; returns ``out``."""
        for call in self.forward_calls:
            call()
        return self.out

    def backprop(self) -> list[np.ndarray]:
        """Run the backward calls; returns ``grads``."""
        for call in self.backprop_calls:
            call()
        return self.grads


def stacked_forward(
    layers, act: ActivationSpec, inputs, buffers=None
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Evaluate ``S`` networks stacked on a leading run axis.

    ``layers`` are ``(S, rows, cols)`` arrays; ``inputs`` are ``(n, d+1)``,
    shared by every run, or ``(S, n, d+1)``, one set per run.  Returns the
    ``(S, n)`` outputs together with the input of every layer and the
    preactivation of every hidden layer, which :func:`stacked_backprop`
    takes.  Each run's numbers equal those of the same network evaluated
    alone.

    Each hidden layer has one working array: the activation is applied in
    place on the preactivation, so for relu and identity ``zs[k]`` is
    ``hs[k + 1]`` and holds the activation; leaky relu and tabulated
    activations take new arrays and keep their preactivations.

    Per-run inputs are one forward pass of a new :class:`StackedPass`: one
    ``matmul`` slice per run, and every hidden layer's arrays are ``(S, n,
    m)``.  Shared inputs lay the runs side by side: a hidden layer's arrays
    are ``(n, S*m)`` arrays whose ``(S, n, m)`` view holds run ``s`` at
    ``[s]``, and the first layer of all runs is one GEMM, ``X @
    W1.reshape(S*m1, d+1).T``.  Where OpenBLAS would round
    the new layout differently, the old one stays: a layer narrower than 4
    keeps ``(S, n, m)`` arrays, since the output and gradients take
    vector-matrix products of each run's activations, and the first layer
    keeps one product per run over one input or one coordinate, or when
    ``S*m1`` is not a multiple of 8.

    With ``buffers`` from :func:`stacked_buffers` the preactivations are
    written there instead of into new arrays, with the same bits; the
    returned lists then hold views of those buffers.
    """
    if inputs.ndim == 3:
        run = StackedPass.prepare(layers, act, inputs, buffers=buffers)
        return run.forward(), run.hs, run.zs
    hs = [inputs]
    zs = []
    bufs = buffers or repeat(None)
    runs, n = len(layers[0]), inputs.shape[0]
    below = inputs
    for w, buf in zip(layers[:-1], bufs):
        m = w.shape[1]
        z = _lead(buf, (n, runs * m) if m >= _SIDE_BY_SIDE_WIDTH else (runs, n, m))
        if not zs and _one_gemm(inputs, z):
            np.matmul(inputs, w.reshape(z.shape[1], -1).T, out=z)
        else:
            np.matmul(below, w.transpose(0, 2, 1), out=_per_run(z, runs))
        zs.append(z)
        hs.append(act(z, out=z))
        below = _per_run(hs[-1], runs)
    out = (below @ layers[-1].transpose(0, 2, 1))[..., 0]
    return out, hs, zs


class ExpandedUpstream(NamedTuple):
    """An ``(S, n)`` or ``(n,)`` upstream with its ``(n, S*m)`` expansion for
    the top-layer delta of ``S`` shared-input stacked networks whose last
    hidden width is ``m``: ``wide[i, s*m + j] == values[s, i]``."""

    values: np.ndarray
    wide: np.ndarray


def expand_upstream(upstream, runs: int, m: int, out=None) -> ExpandedUpstream:
    """Expand ``upstream`` for :func:`stacked_backprop` on ``runs`` networks
    with shared inputs and last hidden width ``m``, into the leading values
    of the flat array ``out`` when given.  A caller whose upstream stays
    fixed over many steps builds this once: the top delta is then one
    contiguous multiply, where from ``upstream`` it is ``n * S`` short ones."""
    upstream = np.asarray(upstream, dtype=np.float64)
    n = upstream.shape[-1]
    wide = _lead(out, (n, runs * m))
    np.copyto(wide.reshape(n, runs, m), upstream.T.reshape(n, -1, 1))
    return ExpandedUpstream(upstream, wide)


def stacked_backprop(
    layers, act: ActivationSpec, hs, zs, upstream, out=None
) -> list[np.ndarray]:
    """Gradient of ``sum_i upstream_i * f_s(x_i)`` for each stacked network
    ``s``, from the layer inputs ``hs`` and preactivations ``zs`` of
    :func:`stacked_forward`.

    ``upstream`` is ``(n,)``, shared by every run, ``(S, n)``, or either one
    from :func:`expand_upstream`.  Returns ``(S, rows, cols)`` arrays shaped
    like ``layers``.  Requires an activation with an almost-everywhere
    derivative.  Each hidden layer's delta is written over its activation
    ``hs[k + 1]`` once the gradient of the layer above has read it, and the
    layer's derivative is taken before that, so this consumes ``hs[1:]``
    (and relu's and identity's ``zs``): run :func:`stacked_forward` again
    before another backprop.  The inputs ``hs[0]`` are never written.
    Per-run inputs are one backward pass of a new :class:`StackedPass` over
    ``hs`` and ``zs``.  With shared inputs the top delta is one multiply of
    the upstream by the output rows (contiguous when expanded), and the
    first-layer gradient of all runs is one GEMM, ``delta.T @ X``, where
    :func:`stacked_forward` made the first layer one.  With ``out``,
    C-contiguous arrays shaped like ``layers``, the gradients are written
    into those, with the same bits.
    """
    wide = None
    if isinstance(upstream, ExpandedUpstream):
        upstream, wide = upstream
    depth = len(layers)
    x = hs[0]
    if x.ndim == 3:
        grads = [np.empty(w.shape) for w in layers] if out is None else list(out)
        run = StackedPass(layers, act, hs, zs, grads)
        np.copyto(run.upstream, upstream)
        return run.backprop()
    grads = [None] * depth if out is None else list(out)
    runs, n = len(layers[0]), x.shape[0]
    grads[-1] = np.matmul(upstream[..., None, :], _per_run(hs[-1], runs), out=grads[-1])
    dz = _derivative(act, zs[-1])
    delta = hs[-1]
    if delta.ndim == 2:
        m = layers[-1].shape[-1]
        top = upstream.T.reshape(n, -1, 1) if wide is None else wide.reshape(n, runs, m)
        np.multiply(top, layers[-1].reshape(runs, m), out=delta.reshape(n, runs, m))
    else:
        np.multiply(upstream[..., :, None], layers[-1], out=delta)
    np.multiply(delta, dz, out=delta)
    for k in range(depth - 2, 0, -1):
        d = _per_run(delta, runs)
        grads[k] = np.matmul(d.transpose(0, 2, 1), _per_run(hs[k], runs), out=grads[k])
        dz = _derivative(act, zs[k - 1])
        delta = hs[k]
        np.matmul(d, layers[k], out=_per_run(delta, runs))
        np.multiply(delta, dz, out=delta)
    if _one_gemm(x, delta):
        g0 = None if out is None else out[0].reshape(-1, x.shape[1])
        grads[0] = np.matmul(delta.T, x, out=g0).reshape(layers[0].shape)
    else:
        grads[0] = np.matmul(_per_run(delta, runs).transpose(0, 2, 1), x, out=grads[0])
    return grads


# ---------------------------------------------------------------------------
# Structural transforms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BiasedNet:
    """Conventional network with per-layer bias vectors over raw ``d`` inputs."""

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    output_bias: float = 0.0

    def __post_init__(self) -> None:
        ws = tuple(_freeze(w) for w in self.weights)
        bs = tuple(_freeze(np.atleast_1d(b)).ravel() for b in self.biases)
        if len(ws) < 2:
            raise ValueError("depth must be at least 2")
        if len(bs) != len(ws) - 1:
            raise ValueError("one bias vector per hidden layer is required")
        for w, b in zip(ws[:-1], bs):
            if b.shape[0] != w.shape[0]:
                raise ValueError("bias length must match layer width")
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "biases", bs)

    @property
    def depth(self) -> int:
        return len(self.weights)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]


def forward_biased(net: BiasedNet, act: ActivationSpec, x_raw) -> np.ndarray:
    """Evaluate a conventional biased network on raw ``d``-vectors."""
    x = np.asarray(x_raw, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    h = x
    for w, b in zip(net.weights[:-1], net.biases):
        h = act(h @ w.T + b)
    out = (h @ net.weights[-1].T).ravel() + net.output_bias
    return out[0] if single else out


def _carrier_input(act: ActivationSpec, prev_value: float) -> tuple[float, float]:
    """Incoming weight and resulting value for a constant-carrier unit."""
    for probe in _CARRIER_PROBES:
        val = float(act(probe))
        if val != 0.0:
            return probe / prev_value, val
    raise UnsupportedActivationError(
        "activation vanishes on all carrier probe points"
    )


def absorb_bias(net: BiasedNet, act: ActivationSpec) -> NetParams:
    """Rewrite a biased network over inputs ``(x, 1)`` with no bias vectors.

    First-layer biases move into the appended input coordinate.  Deeper
    biases ride on a pass-through unit appended to each layer that feeds
    one (value 1 for the relu family), so hidden layers ``1..L-2`` gain a
    unit, and the last hidden layer gains one only when there is an output
    bias.  Outputs agree with the original network on every ``x``.
    """
    depth = net.depth
    need_carrier = [l <= depth - 2 for l in range(1, depth)]
    if net.output_bias != 0.0:
        need_carrier[depth - 2] = True

    layers: list[np.ndarray] = []
    first = np.hstack([net.weights[0], net.biases[0][:, None]])
    carrier_val = None
    if need_carrier[0]:
        u, carrier_val = _carrier_input(act, 1.0)
        row = np.zeros((1, first.shape[1]))
        row[0, -1] = u
        first = np.vstack([first, row])
    layers.append(first)

    for l in range(1, depth - 1):
        w, b = net.weights[l], net.biases[l]
        prev_cols = layers[-1].shape[0]
        block = np.zeros((w.shape[0], prev_cols))
        block[:, : w.shape[1]] = w
        block[:, -1] = b / carrier_val
        if need_carrier[l]:
            u, carrier_val = _carrier_input(act, carrier_val)
            row = np.zeros((1, prev_cols))
            row[0, -1] = u
            block = np.vstack([block, row])
        layers.append(block)

    a = net.weights[-1]
    prev_cols = layers[-1].shape[0]
    out = np.zeros((1, prev_cols))
    out[0, : a.shape[1]] = a
    if net.output_bias != 0.0:
        out[0, -1] = net.output_bias / carrier_val
    layers.append(out)
    return NetParams(tuple(layers))


def normalize_activation(
    params: NetParams, act: ActivationSpec
) -> tuple[NetParams, ActivationSpec]:
    """Rewrite a network so its activation vanishes at zero.

    Uses the shifted activation plus one constant-carrier unit per hidden
    layer that re-injects the lost offset into the following layer.  A
    network whose activation already vanishes at zero is returned as is.
    """
    if act.normalized:
        return params, act
    s0 = act.value_at_zero
    act2 = act.shifted_to_zero()

    layers = params.layers
    new_layers: list[np.ndarray] = []

    u, carrier_val = _carrier_input(act2, 1.0)
    first = np.vstack([layers[0], np.zeros((1, layers[0].shape[1]))])
    first[-1, -1] = u
    new_layers.append(first)

    for w in layers[1:-1]:
        rows, cols = w.shape
        block = np.zeros((rows + 1, cols + 1))
        block[:rows, :cols] = w
        block[:rows, -1] = s0 * w.sum(axis=1) / carrier_val
        u, nxt = _carrier_input(act2, carrier_val)
        block[-1, -1] = u
        carrier_val = nxt
        new_layers.append(block)

    a = layers[-1]
    out = np.zeros((1, a.shape[1] + 1))
    out[0, : a.shape[1]] = a
    out[0, -1] = s0 * a.sum() / carrier_val
    new_layers.append(out)
    return NetParams(tuple(new_layers)), act2


def max_nondecreasing_component(widths) -> WidthVector:
    """Largest elementwise nondecreasing minorant of a width vector: entry
    ``i`` is the minimum of the entries from ``i`` on, found in one pass
    from the right."""
    out = list(WidthVector.of(widths).widths)
    for i in range(len(out) - 2, -1, -1):
        out[i] = min(out[i], out[i + 1])
    return WidthVector(tuple(out))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _network_header(params: NetParams, act: ActivationSpec) -> dict:
    """Every entry of a serialized network but its ``layers``."""
    return {
        "depth": params.depth,
        "input_dim": params.input_dim,
        "widths": list(params.width_vector.widths),
        "activation": act.as_dict(),
    }


def network_to_json(params: NetParams, act: ActivationSpec) -> str:
    doc = _network_header(params, act)
    doc["layers"] = [w.tolist() for w in params.layers]
    return json.dumps(doc, sort_keys=True)


def network_from_json(text: str) -> tuple[NetParams, ActivationSpec]:
    doc = json.loads(text)
    params = NetParams.from_arrays([np.array(w, dtype=np.float64) for w in doc["layers"]])
    act = ActivationSpec.from_dict(doc["activation"])
    if params.depth != doc["depth"] or params.input_dim != doc["input_dim"]:
        raise ValueError("serialized header disagrees with layer shapes")
    return params, act


def save_network(path, params: NetParams, act: ActivationSpec) -> None:
    """Write ``network_to_json(params, act)`` and a newline to ``path``, with
    one ``json.dumps`` per matrix row, so that the text of the whole model
    is never held at once."""
    doc = _network_header(params, act)
    with open(path, "w", newline="\n") as fh:
        for i, key in enumerate(sorted([*doc, "layers"])):
            fh.write(f"{', ' if i else '{'}{json.dumps(key)}: ")
            if key != "layers":
                fh.write(json.dumps(doc[key], sort_keys=True))
                continue
            for k, w in enumerate(params.layers):
                fh.write(", [" if k else "[[")
                for j, row in enumerate(w):
                    fh.write(f"{', ' if j else ''}{json.dumps(row.tolist())}")
                fh.write("]")
            fh.write("]")
        fh.write("}\n")


def load_network(path) -> tuple[NetParams, ActivationSpec]:
    with open(path) as fh:
        return network_from_json(fh.read())
