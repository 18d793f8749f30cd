"""Network evaluation, gradients, and structural transforms."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings, strategies as st
from hypothesis.extra import numpy as hnp

from pesvlab import erm, netcore as nc, theory
from pesvlab.netcore import (
    ActivationSpec,
    BiasedNet,
    NetParams,
    UnsupportedActivationError,
)


def random_net(rng, widths, d):
    shapes = [(widths[0], d + 1)]
    for lo, hi in zip(widths, widths[1:]):
        shapes.append((hi, lo))
    shapes.append((1, widths[-1]))
    return NetParams.from_arrays([rng.normal(size=s) for s in shapes])


class TestActivationSpec:
    def test_relu_identity_constants(self):
        for act in (ActivationSpec.relu(), ActivationSpec.identity()):
            assert act.lipschitz == 1.0
            assert act.value_at_zero == 0.0
            assert act(0.0) == 0.0

    def test_value_at_zero_is_exact(self):
        act = ActivationSpec.tabulated([-2.0, -0.5, 1.0, 3.0], [0.3, 0.1, 0.7, 0.7])
        assert float(act(0.0)) == act.value_at_zero

    def test_sampled_lipschitz(self):
        """|sigma(x)-sigma(y)| <= L |x-y| on random pairs, for every kind."""
        rng = np.random.default_rng(0)
        acts = [
            ActivationSpec.relu(),
            ActivationSpec.identity(),
            ActivationSpec.leaky_relu(0.1),
            ActivationSpec.leaky_relu(2.5),
            ActivationSpec.tabulated([-3, -1, 0, 2], [1.0, -0.5, 0.0, 3.0]),
        ]
        x = rng.uniform(-5, 5, size=2000)
        y = rng.uniform(-5, 5, size=2000)
        for act in acts:
            gap = np.abs(act(x) - act(y))
            assert np.all(gap <= act.lipschitz * np.abs(x - y) + 1e-12)

    def test_tabulated_lipschitz_is_max_slope(self):
        act = ActivationSpec.tabulated([0.0, 1.0, 3.0], [0.0, 2.0, 2.5])
        assert act.lipschitz == 2.0

    @pytest.mark.parametrize("alpha", [5e-324, 1e-3, 0.1, 0.5, 0.999999, 1.0,
                                       1.0000001, 2.5, 1e10, 1e300])
    def test_leaky_has_the_bits_of_where(self, alpha):
        """The leaky relu's value has the bits of ``np.where(x > 0, x,
        alpha * x)`` on signed zeros, infinities, quiet and signaling nans
        of both signs, subnormals, huge values and random bit patterns, for
        slopes below, at and above 1."""
        bits = [0x7FF8000000000000, 0xFFF8000000000123, 0x7FF0000000000001,
                0xFFF4000000000abc, 0x0000000000000001, 0x800FFFFFFFFFFFFF]
        special = np.array([0.0, -0.0, math.inf, -math.inf, 2.2250738585072014e-308,
                            -1e-310, 1.7976931348623157e308, -1.7976931348623157e308])
        rng = np.random.default_rng(11)
        x = np.concatenate([
            special,
            np.array(bits, dtype=np.uint64).view(np.float64),
            rng.integers(0, 2**64, 40_000, dtype=np.uint64).view(np.float64),
            rng.standard_normal(30_000),
            rng.standard_normal(30_000) * 1e-310,
        ])
        with np.errstate(all="ignore"):
            ref = np.where(x > 0, x, alpha * x)
            got = ActivationSpec.leaky_relu(alpha)(x)
        assert got.tobytes() == ref.tobytes()

    def test_leaky_requires_positive_slope(self):
        with pytest.raises(ValueError):
            ActivationSpec.leaky_relu(-0.2)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_leaky_rejects_non_finite_slope(self, alpha):
        with pytest.raises(ValueError, match="positive and finite"):
            ActivationSpec.leaky_relu(alpha)

    @pytest.mark.parametrize("spec", ["leaky_relu:nan", "leaky_relu:inf", "leaky_relu(-inf)"])
    def test_spec_rejects_non_finite_arguments(self, spec):
        with pytest.raises(ValueError, match=r"activation spec .* has a non-finite argument"):
            ActivationSpec.parse(spec)

    @pytest.mark.parametrize(
        "xs, ys",
        [([0.0, 1.0], [0.0, math.nan]), ([0.0, math.nan], [0.0, 1.0]), ([0.0, math.inf], [0.0, 1.0])],
    )
    def test_tabulated_rejects_non_finite_knots(self, xs, ys):
        with pytest.raises(ValueError, match="grid knots must be finite"):
            ActivationSpec.tabulated(xs, ys)

    @pytest.mark.parametrize("lipschitz", [math.nan, math.inf])
    def test_rejects_non_finite_lipschitz(self, lipschitz):
        with pytest.raises(ValueError, match="positive and finite"):
            ActivationSpec("relu", lipschitz, 0.0)

    def test_derivative_convention_at_kink(self):
        assert ActivationSpec.relu().derivative(0.0) == 0.0
        assert ActivationSpec.leaky_relu(0.3).derivative(0.0) == 0.3


class TestAsWidths:
    def test_int_or_sequence_as_a_tuple_of_ints(self):
        for widths, expect in [((3, 1, 5), (3, 1, 5)), ([2.0, 4], (2, 4)), (7, (7,))]:
            got = nc.as_widths(widths)
            assert got == expect and all(type(w) is int for w in got)

    @pytest.mark.parametrize("bad", [(0, 2), (), 0, 2.5, (3, 2.5)])
    def test_rejects_bad_entries(self, bad):
        with pytest.raises(ValueError):
            nc.as_widths(bad)

    def test_numpy_integer_is_one_hidden_layer(self):
        """A numpy integer scalar is one hidden layer, as an int is, through
        every entry that takes widths."""
        w = np.int64(3)
        assert nc.as_widths(w) == (3,)
        assert nc.layer_shapes(w, 2) == nc.layer_shapes(3, 2)
        assert all(
            a.tobytes() == b.tobytes()
            for a, b in zip(erm.init_params(w, 2).layers, erm.init_params(3, 2).layers, strict=True)
        )
        assert theory.h_of_m(w, 1.0) == theory.h_of_m(3, 1.0)


class TestLayerBlocks:
    def test_views_lay_out_each_block_as_np_stack_does(self):
        """Each block is zeroed, its views are C-contiguous ``(runs, rows,
        cols)`` layers, and writing the layers of stacked nets through the
        views writes the block as the layers stacked by ``np.stack`` and
        joined layer after layer."""
        shapes, runs = nc.layer_shapes((3, 5), 4), 2
        blocks = nc.layer_blocks(shapes, runs, 3)
        assert len(blocks) == 3
        rng = np.random.default_rng(0)
        for flat, views in blocks:
            assert flat.shape == (runs * sum(r * c for r, c in shapes),) and not flat.any()
            assert [v.shape for v in views] == [(runs, *shape) for shape in shapes]
            assert all(v.flags.c_contiguous and np.shares_memory(v, flat) for v in views)
            nets = [[rng.normal(size=shape) for shape in shapes] for _ in range(runs)]
            for v, ws in zip(views, zip(*nets)):
                v[...] = np.stack(ws)
            expect = np.concatenate([np.stack(ws).ravel() for ws in zip(*nets)])
            assert flat.tobytes() == expect.tobytes()
        assert not any(np.shares_memory(a[0], b[0]) for a, b in itertools.combinations(blocks, 2))


class TestNetParams:
    def test_shape_chain_enforced(self):
        with pytest.raises(ValueError):
            NetParams.from_arrays([np.zeros((2, 3)), np.zeros((1, 3))])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            NetParams.from_arrays([np.array([[1.0, np.inf]]), np.array([[1.0]])])

    def test_arrays_read_only(self):
        p = NetParams.from_arrays([np.ones((2, 3)), np.ones((1, 2))])
        with pytest.raises(ValueError):
            p.layers[0][0, 0] = 7.0


class TestForward:
    def test_identity_path(self):
        p = NetParams.from_arrays([np.array([[1.0, 0.0]]), np.array([[1.0]])])
        assert nc.forward(p, ActivationSpec.relu(), np.array([3.0, 1.0])) == 3.0

    def test_relu_kills_negative(self):
        p = NetParams.from_arrays([np.array([[1.0, 0.0]]), np.array([[1.0]])])
        assert nc.forward(p, ActivationSpec.relu(), np.array([-3.0, 1.0])) == 0.0

    def test_three_layer_hand_eval(self):
        """2*(-1*(0.5+1)) = -3 with the identity activation; relu gives 0."""
        p = NetParams.from_arrays(
            [np.array([[1.0, 1.0]]), np.array([[-1.0]]), np.array([[2.0]])]
        )
        x = np.array([0.5, 1.0])
        assert nc.forward(p, ActivationSpec.identity(), x) == -3.0
        assert nc.forward(p, ActivationSpec.relu(), x) == 0.0

    def test_shape_error(self):
        p = NetParams.from_arrays([np.ones((2, 3)), np.ones((1, 2))])
        with pytest.raises(ValueError):
            nc.forward(p, ActivationSpec.relu(), np.ones((4, 5)))

    def test_output_layer_homogeneity(self):
        """Scaling the output row by c > 0 scales all outputs by c."""
        rng = np.random.default_rng(1)
        p = random_net(rng, (4, 3), 2)
        x = rng.normal(size=(20, 3))
        for act in (ActivationSpec.relu(), ActivationSpec.leaky_relu(0.2)):
            base = nc.forward(p, act, x)
            scaled = [np.array(w) for w in p.layers]
            scaled[-1] = 2.5 * scaled[-1]
            np.testing.assert_allclose(
                nc.forward(scaled, act, x), 2.5 * base, rtol=1e-12
            )


STACKED_ACTS = {
    "relu": ActivationSpec.relu(),
    "leaky": ActivationSpec.leaky_relu(0.1),
    "identity": ActivationSpec.identity(),
    "tabulated": ActivationSpec.tabulated([-2.0, -0.5, 0.5, 2.0], [-1.0, 0.0, 0.3, 2.5]),
}


def stacked_grads(layers, act, x, u):
    """Gradients of ``sum_i u_i f(x_i)`` for stacked networks evaluated on
    ``x`` by a fresh :class:`nc.StackedPass`."""
    return one_shot(layers, act, x, u)[2]


class TestBackprop:
    def test_zero_weights_zero_gradient(self):
        layers = [np.zeros((1, 2, 3)), np.zeros((1, 1, 2))]
        grads = stacked_grads(layers, ActivationSpec.relu(), np.ones((4, 3)), np.ones(4))
        for g in grads:
            assert np.all(g == 0.0)

    def test_linear_model_gradient(self):
        layers = [np.array([[[1.0, 0.0]]]), np.array([[[1.0]]])]
        g = stacked_grads(layers, ActivationSpec.identity(), np.array([[3.0, 1.0]]), np.ones(1))
        np.testing.assert_allclose(g[1], [[[3.0]]])
        np.testing.assert_allclose(g[0], [[[3.0, 1.0]]])

    # Kinks of each activation, away from which central differences hold.
    KINKS = dict(relu=[0.0], leaky=[0.0], identity=[], tabulated=STACKED_ACTS["tabulated"].grid[0])

    @pytest.mark.parametrize("kind", sorted(STACKED_ACTS))
    @pytest.mark.parametrize("per_run", [False, True], ids=["shared-inputs", "per-run-inputs"])
    def test_matches_central_differences(self, kind, per_run):
        """Every run of an S = 3 stack against central differences of
        :func:`nc.forward` on that run alone, away from activation kinks.
        Shared inputs take the side-by-side layout with a one-GEMM first
        layer (3 runs of 8 units); per-run inputs take one product per run,
        as training does."""
        act = STACKED_ACTS[kind]
        runs, widths, n, d = 3, (8, 4), 5, 3
        rng = np.random.default_rng(8)
        layers = [rng.normal(size=(runs, *shape)) for shape in nc.layer_shapes(widths, d + 1)]
        X = rng.normal(size=(runs, n, d + 1) if per_run else (n, d + 1)) * 0.7
        u = rng.normal(size=(runs, n))
        # keep every preactivation clear of kinks at step 1e-4; relu's ``zs``
        # hold its activations, so the preactivations are taken here
        for s in range(runs):
            h = X[s] if per_run else X
            for w in layers[:-1]:
                z = h @ w[s].T
                for kink in self.KINKS[kind]:
                    assert np.min(np.abs(z - kink)) > 1e-2
                h = act(z)
        grads = stacked_grads(layers, act, X, u)
        eps = 1e-4
        for s in range(runs):
            net = [w[s] for w in layers]
            x = X[s] if per_run else X
            for li, w in enumerate(net):
                for idx in np.ndindex(w.shape):
                    hi = [v.copy() for v in net]
                    lo = [v.copy() for v in net]
                    hi[li][idx] += eps
                    lo[li][idx] -= eps
                    up, down = (u[s] @ nc.forward(v, act, x) for v in (hi, lo))
                    fd = (up - down) / (2 * eps)
                    assert abs(fd - grads[li][s][idx]) <= 1e-5 * max(abs(fd), 1.0)

    def test_tabulated_without_derivative_unsupported(self):
        act = ActivationSpec.tabulated([-1.0, 1.0], [0.0, 1.0], differentiable=False)
        layers = [np.ones((1, 1, 2)), np.ones((1, 1, 1))]
        with pytest.raises(UnsupportedActivationError):
            stacked_grads(layers, act, np.ones((1, 2)), np.ones(1))


def same_bits(a, b) -> bool:
    """Equal shapes and equal bytes, so signs of zeros and NaN payloads too."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def forward_out_of_place(layers, act, x):
    """Reference evaluation with every activation in a new array."""
    h = x
    for w in layers[:-1]:
        h = act(h @ w.T)
    return (h @ layers[-1].T).ravel()


class TestForwardInPlace:
    """``forward`` applies relu in place on each new preactivation."""

    ROWS, WIDTHS = 4096, (256, 256)

    def case(self):
        rng = np.random.default_rng(0)
        return random_net(rng, self.WIDTHS, 2), rng.normal(size=(self.ROWS, 3))

    def test_relu_holds_two_hidden_arrays(self):
        """Out of place, the previous activation, the preactivation and the
        new activation are alive together: three hidden arrays."""
        net, x = self.case()
        hidden = self.ROWS * max(self.WIDTHS) * 8
        tracemalloc.start()
        try:
            nc.forward(net, ActivationSpec.relu(), x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * hidden + hidden // 8

    def test_relu_holds_one_block_of_hidden_arrays(self):
        """In blocks of ``_FORWARD_BLOCK_VALUES // 256`` rows, the evaluation
        holds one block's two hidden arrays and the ``(n,)`` outputs; in one
        pass it held two arrays of all 4096 rows, 16 MiB."""
        net, x = self.case()
        block = nc._FORWARD_BLOCK_VALUES * 8
        nc.forward(net, ActivationSpec.relu(), x)
        tracemalloc.start()
        try:
            nc.forward(net, ActivationSpec.relu(), x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * block + self.ROWS * 8 + block // 8

    @pytest.mark.parametrize("act", STACKED_ACTS.values(), ids=STACKED_ACTS)
    def test_same_bits_as_out_of_place(self, act):
        net, x = self.case()
        x0 = x.copy()
        assert same_bits(nc.forward(net, act, x), forward_out_of_place(net.layers, act, x))
        one = forward_out_of_place(net.layers, act, x[:1])[0]
        assert same_bits(nc.forward(net.layers, act, x[0]), one)
        assert same_bits(x, x0)


def block_rows(n, widest):
    """The rows of each block of ``forward``: all ``n`` when they fit in
    ``_FORWARD_BLOCK_VALUES`` values, else the largest power of two that
    fits (at least 1)."""
    limit = nc._FORWARD_BLOCK_VALUES
    if n * widest <= limit:
        return max(n, 1)
    rows = 1
    while 2 * rows * widest <= limit:
        rows *= 2
    return rows


@st.composite
def blocked_problems(draw):
    """Depth 2 to 4 with hidden widths from 197 up with ``width % 8 >= 4``,
    where OpenBLAS rounds some products differently at different row
    counts; 1 to 3 input coordinates; every activation; and a row count at,
    one below or one above a multiple of the block rows."""
    widths = draw(st.lists(
        st.integers(197, 420).filter(lambda w: w % 8 >= 4), min_size=1, max_size=3
    ))
    d = draw(st.integers(1, 3))
    rows = block_rows(2**62, max(widths))  # the rows of a block of a long input
    n = draw(st.integers(1, 3)) * rows + draw(st.sampled_from([-1, 0, 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    net = random_net(rng, widths, d)
    x = rng.normal(size=(n, d + 1))
    x[:, -1] = 1.0
    return net, STACKED_ACTS[draw(st.sampled_from(sorted(STACKED_ACTS)))], x


class TestForwardBlocks:
    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(blocked_problems())
    def test_each_block_has_the_bits_of_its_rows_alone(self, problem):
        """Byte for byte against a block-by-block reference that evaluates
        each block's rows out of place, a 1-row last block included; a 1-D
        input is one row."""
        net, act, x = problem
        x0 = x.copy()
        rows = block_rows(len(x), max(net.widths))
        ref = np.concatenate([
            forward_out_of_place(net.layers, act, x[i : i + rows]) for i in range(0, len(x), rows)
        ])
        assert same_bits(nc.forward(net, act, x), ref)
        assert same_bits(nc.forward(net.layers, act, x[-1]), forward_out_of_place(
            net.layers, act, x[-1:])[0])
        assert same_bits(x, x0)

    @pytest.mark.parametrize(
        "n, widest, rows",
        [(0, 5, 1), (1, 2**17, 1), (2, 2**17, 1), (256, 256, 256), (257, 256, 256),
         (4096, 1000, 64), (2**16, 1, 2**16), (2**16 + 1, 1, 2**16), (2**14, 5, 2**13)],
    )
    def test_block_rows(self, monkeypatch, n, widest, rows):
        """The rows of each matmul: all of them when they fit in 2^16
        values, else the largest power of two that fits."""
        monkeypatch.setattr(nc, "_FORWARD_BLOCK_VALUES", 2**16)
        seen = []
        real = np.matmul

        def recording(a, b, out=None):
            seen.append(len(a))
            return real(a, b, out=out)

        net = NetParams.from_arrays([np.ones((widest, 2)), np.ones((1, widest))])
        monkeypatch.setattr(nc.np, "matmul", recording)
        out = nc.forward(net, ActivationSpec.relu(), np.ones((n, 2)))
        assert out.shape == (n,)
        assert seen[:1] == ([rows] if n else [])
        assert sum(seen) == 2 * n


def stacked_case(rng, runs, widths, n, d, per_run):
    """Stacked layers with about a fifth of the weights set to signed zeros,
    inputs shared or one set per run, and a matching upstream."""
    layers = []
    for rows, cols in nc.layer_shapes(widths, d + 1):
        w = rng.normal(size=(runs, rows, cols))
        zero = rng.random(w.shape) < 0.2
        w[zero] = np.copysign(0.0, w[zero])
        layers.append(w)
    shape = (runs, n, d + 1) if per_run else (n, d + 1)
    X = rng.normal(size=shape)
    X[..., -1] = 1.0
    u = rng.choice([-1.0, 1.0], size=shape[:-1])
    return layers, X, u


def layer_major(layers):
    """Copies of ``layers`` as views of one flat block, layer after layer:
    the layout that a caller updating its layers in place keeps them in."""
    block = np.concatenate([w.ravel() for w in layers])
    ends = np.cumsum([0] + [w.size for w in layers])
    return [block[lo:hi].reshape(w.shape) for lo, hi, w in zip(ends, ends[1:], layers)]


def new_grads(layers):
    return [np.empty(w.shape) for w in layers]


def one_shot(layers, act, X, u):
    """The outputs, the hidden arrays as the forward pass leaves them and
    the gradients of a fresh pass used once, copied."""
    return run_prepared(nc.StackedPass(layers, act, X, new_grads(layers)), u)


def run_prepared(run, u=None):
    """The same from the prepared pass ``run``, copied; a new upstream ``u``
    is set before its backward calls."""
    out = run.forward().copy()
    arrays = [a.copy() for a in run.hs[1:] + run.zs]
    if u is not None:
        run.set_upstream(u)
    return out, arrays, [g.copy() for g in run.backprop()]


def assert_same(got, ref):
    for mine, theirs in zip(got, ref, strict=True):
        if isinstance(mine, list):
            assert all(same_bits(a, b) for a, b in zip(mine, theirs, strict=True))
        else:
            assert same_bits(mine, theirs)


def assert_shared_equals_repeated(act, runs, widths, n, d, seed, prepared):
    """Shared inputs give the bytes of the same inputs repeated per run, in
    the outputs, the gradients, and the activations and preactivations
    compared through their per-run view: from fresh passes, or from one
    prepared pass run twice."""
    rng = np.random.default_rng(seed)
    layers, X, _ = stacked_case(rng, runs, widths, n, d, per_run=False)
    u = rng.choice([-1.0, 1.0], size=(runs, n))
    ref_out, ref_arrays, ref_grads = one_shot(layers, act, np.broadcast_to(X, (runs, n, d + 1)), u)
    if prepared:
        run = nc.StackedPass(layers, act, X, new_grads(layers))
        results = [run_prepared(run, u), run_prepared(run)]
    else:
        results = [one_shot(layers, act, X, u)]
    for out, arrays, grads in results:
        assert same_bits(out, ref_out)
        for mine, ref in zip(arrays, ref_arrays, strict=True):
            assert same_bits(nc._per_run(mine, runs), ref)
        assert all(same_bits(a, b) for a, b in zip(grads, ref_grads, strict=True))


class TestStackedPass:
    """One prepared pass serves per-run and shared inputs, with the bits of
    fresh passes used once."""

    @pytest.mark.parametrize("kind", sorted(STACKED_ACTS))
    @pytest.mark.parametrize(
        "widths", [(5,), (4, 6), (3, 5, 2)], ids=["depth-2", "depth-3", "depth-4"]
    )
    @pytest.mark.parametrize("per_run", [False, True], ids=["shared-inputs", "per-run-inputs"])
    def test_prepared_equals_one_shot(self, kind, widths, per_run):
        """Compared byte for byte, so the signs of zeros count as well; the
        hidden arrays as the forward pass leaves them, before a backprop
        writes its deltas over the activations.  Each hidden layer has one
        working array, which relu's and identity's activations overwrite in
        place."""
        act = STACKED_ACTS[kind]
        rng = np.random.default_rng(len(widths) + 10 * per_run)
        layers, X, u = stacked_case(rng, 4, widths, 7, 2, per_run)
        run = nc.StackedPass(layers, act, X, new_grads(layers))
        in_place = kind in ("relu", "identity")
        assert all((h is z) == in_place for h, z in zip(run.hs[1:], run.zs))
        assert_same(run_prepared(run, u), one_shot(layers, act, X, u))

    @pytest.mark.parametrize("kind", sorted(STACKED_ACTS))
    def test_reused_pass_keeps_no_stale_values(self, kind):
        """One shared-input pass, its hidden arrays first filled with NaN,
        serves calls on weights and upstreams changed in place."""
        act = STACKED_ACTS[kind]
        rng = np.random.default_rng(3)
        layers, X, _ = stacked_case(rng, 5, (4, 6), 7, 2, per_run=False)
        layers = layer_major(layers)
        run = nc.StackedPass(layers, act, X, new_grads(layers))
        for a in run.hs[1:] + run.zs:
            a.fill(np.nan)
        for _ in range(3):
            new, _, u = stacked_case(rng, 5, (4, 6), 7, 2, per_run=False)
            for w, v in zip(layers, new):
                np.copyto(w, v)
            assert_same(run_prepared(run, u), one_shot(layers, act, X, u))

    def test_layout(self):
        """Shared inputs put a layer of width 4 or more side by side as ``(n,
        S*m)`` and a narrower one as ``(S, n, m)``; per-run inputs take
        ``(S, n, m)``.  relu's preactivation, activation and delta share one
        C-contiguous array, and only a side-by-side last hidden layer takes
        an expanded upstream."""
        rng = np.random.default_rng(2)
        relu = STACKED_ACTS["relu"]
        for per_run in (False, True):
            layers, X, u = stacked_case(rng, 2, (3, 4), 5, 2, per_run)
            run = nc.StackedPass(layers, relu, X, new_grads(layers))
            wide = (2, 5, 4) if per_run else (5, 8)
            assert [z.shape for z in run.zs] == [h.shape for h in run.hs[1:]] == [(2, 5, 3), wide]
            assert all(h is z and z.flags.c_contiguous for h, z in zip(run.hs[1:], run.zs))
            assert (run.wide is None) == per_run
            run.forward()
            activations = [h.copy() for h in run.hs[1:]]
            run.set_upstream(u)
            run.backprop()
            # each delta went over its activation
            for h, before in zip(run.hs[1:], activations):
                assert np.isfinite(h).all() and not same_bits(h, before)

    def test_set_upstream_expands_it(self):
        """A side-by-side last hidden layer reads ``wide[i, s, j] ==
        upstream[s, i]``; an ``(n,)`` upstream is every run's."""
        u = np.array([[1.0, -2.0], [3.0, -4.0], [5.0, -6.0]])
        layers, X, _ = stacked_case(np.random.default_rng(4), 3, (4,), 2, 1, per_run=False)
        run = nc.StackedPass(layers, STACKED_ACTS["relu"], X, new_grads(layers))
        for upstream in (u, u[1]):
            run.set_upstream(upstream)
            every = np.broadcast_to(upstream, u.shape)
            assert same_bits(run.upstream, every)
            np.testing.assert_array_equal(run.wide, np.repeat(every.T[:, :, None], 4, axis=2))

    @pytest.mark.parametrize("per_run", [False, True], ids=["shared-inputs", "per-run-inputs"])
    @pytest.mark.parametrize(
        "widths", [(4, 6), (3, 6)], ids=["one-gemm-first-layer", "per-run-first-layer"]
    )
    def test_gradients_written_into_grads(self, per_run, widths):
        """Gradients written into a caller's views of one flat block, at an
        odd offset and filled with NaN, have the bits of new arrays.  Four
        shared runs of four first-layer units make the first layer one
        GEMM."""
        rng = np.random.default_rng(11)
        layers, X, u = stacked_case(rng, 4, widths, 7, 2, per_run)
        act = STACKED_ACTS["relu"]
        ref = one_shot(layers, act, X, u)[2]
        block = np.full(1 + sum(w.size for w in layers), np.nan)
        ends = np.cumsum([1] + [w.size for w in layers])
        grads = [block[lo:hi].reshape(w.shape) for lo, hi, w in zip(ends, ends[1:], layers)]
        run = nc.StackedPass(layers, act, X, grads)
        run.forward()
        run.set_upstream(u)
        assert run.backprop() is grads
        assert all(same_bits(g, r) for g, r in zip(grads, ref))
        assert np.isnan(block[0])

    @pytest.mark.parametrize("kind", sorted(STACKED_ACTS))
    @pytest.mark.parametrize(
        "widths",
        [(5,), (8,), (4, 6), (3, 5, 2), (6, 4, 3), (8, 16, 4), (1,), (1, 4), (4, 1), (2,),
         (3, 1, 2), (2, 3, 1)],
        ids=lambda w: "widths-" + "-".join(map(str, w)),
    )
    @pytest.mark.parametrize("n, d", [(7, 2), (16, 0), (1, 2), (9, 3)], ids=lambda v: str(v))
    @pytest.mark.parametrize("prepared", [False, True], ids=["one-shot", "prepared"])
    def test_shared_equals_repeated_per_run(self, kind, widths, n, d, prepared):
        """Shared ``(n, d+1)`` inputs lay the runs side by side; the same
        inputs repeated per run keep one product per run.  Both give the
        same bytes."""
        seed = len(widths) + 7 * n + d
        assert_shared_equals_repeated(STACKED_ACTS[kind], 5, widths, n, d, seed, prepared)

    @pytest.mark.parametrize(
        "runs, widths, n, d",
        [(48, (4,), 64, 2), (49, (4,), 64, 2), (51, (4,), 64, 2), (16, (12,), 64, 2),
         (17, (12,), 64, 2), (128, (8,), 64, 2), (64, (9,), 37, 0), (120, (7,), 64, 0)],
        ids=lambda v: str(v),
    )
    def test_wide_first_layer(self, runs, widths, n, d):
        """First layers of 192 to 1024 columns in all: some with 4 to 7
        columns past a multiple of 8, some over the bias coordinate alone."""
        assert_shared_equals_repeated(STACKED_ACTS["relu"], runs, widths, n, d, runs, True)

    def test_shared_upstream_vector(self):
        """An ``(n,)`` upstream is every run's, in fresh and reused
        passes."""
        rng = np.random.default_rng(4)
        layers, X, u = stacked_case(rng, 3, (4, 5), 6, 2, per_run=False)
        relu = STACKED_ACTS["relu"]
        ref = one_shot(layers, relu, X, np.tile(u, (3, 1)))
        run = nc.StackedPass(layers, relu, X, new_grads(layers))
        for got in (one_shot(layers, relu, X, u), run_prepared(run, u)):
            assert_same(got, ref)


@pytest.mark.parametrize("kind", sorted(STACKED_ACTS))
@pytest.mark.parametrize("per_run", [False, True], ids=["shared-inputs", "per-run-inputs"])
@pytest.mark.parametrize("prepared", [False, True], ids=["one-shot", "prepared"])
def test_backprop_never_writes_the_inputs(kind, per_run, prepared):
    """The deltas go over ``hs[1:]``, never over ``hs[0]``: read-only inputs,
    as a caller's own array may be, keep their bytes.  Widths of 4 and 2
    over four runs make the shared first layer one GEMM and the second
    layer per-run."""
    act = STACKED_ACTS[kind]
    rng = np.random.default_rng(5)
    layers, X, u = stacked_case(rng, 4, (4, 2), 6, 2, per_run)
    before = X.copy()
    X.flags.writeable = False
    run = nc.StackedPass(layers, act, X, new_grads(layers))
    for _ in range(2):
        if not prepared:
            run = nc.StackedPass(layers, act, X, new_grads(layers))
        run_prepared(run, u)
        assert run.hs[0] is X
        assert same_bits(X, before)


def reference_per_run(a, runs):
    """A hidden layer's array as its ``(runs, n, m)`` view."""
    return a if a.ndim == 3 else a.reshape(a.shape[0], runs, -1).transpose(1, 0, 2)


def reference_forward(layers, act, inputs):
    """The stacked forward pass with a new preactivation and a new
    activation per hidden layer, which the backward pass then pairs with a
    new delta: three arrays per hidden layer, with the layouts and products
    of :class:`nc.StackedPass`."""
    hs, zs = [inputs], []
    if inputs.ndim == 3:
        for w in layers[:-1]:
            zs.append(hs[-1] @ w.transpose(0, 2, 1))
            hs.append(act(zs[-1]))
        return (hs[-1] @ layers[-1].transpose(0, 2, 1))[..., 0], hs, zs
    runs, n = len(layers[0]), len(inputs)
    below = inputs
    for w in layers[:-1]:
        m = w.shape[1]
        z = np.empty((n, runs * m) if m >= 4 else (runs, n, m))
        if not zs and z.ndim == 2 and min(inputs.shape) > 1 and z.shape[1] % 8 == 0:
            np.matmul(inputs, w.reshape(z.shape[1], -1).T, out=z)
        else:
            np.matmul(below, w.transpose(0, 2, 1), out=reference_per_run(z, runs))
        zs.append(z)
        hs.append(act(z))
        below = reference_per_run(hs[-1], runs)
    return (below @ layers[-1].transpose(0, 2, 1))[..., 0], hs, zs


def reference_backprop(layers, act, hs, zs, upstream):
    """The backward pass of :func:`reference_forward`, each delta new."""

    def times_derivative(delta, z):
        if act.kind == "relu":
            np.multiply(delta, z > 0, out=delta)
        else:
            delta *= act.derivative(z)

    x, depth = hs[0], len(layers)
    grads = [None] * depth
    if x.ndim == 3:
        grads[-1] = upstream[..., None, :] @ hs[-1]
        delta = upstream[..., :, None] * layers[-1]
        for k in range(depth - 2, -1, -1):
            times_derivative(delta, zs[k])
            grads[k] = delta.transpose(0, 2, 1) @ hs[k]
            if k:
                delta = delta @ layers[k]
        return grads
    runs, n = len(layers[0]), len(x)
    grads[-1] = upstream[..., None, :] @ reference_per_run(hs[-1], runs)
    delta = np.empty(zs[-1].shape)
    if delta.ndim == 2:
        m = layers[-1].shape[-1]
        top = upstream.T.reshape(n, -1, 1)
        np.multiply(top, layers[-1].reshape(runs, m), out=delta.reshape(n, runs, m))
    else:
        np.multiply(upstream[..., :, None], layers[-1], out=delta)
    times_derivative(delta, zs[-1])
    for k in range(depth - 2, 0, -1):
        d = reference_per_run(delta, runs)
        grads[k] = d.transpose(0, 2, 1) @ reference_per_run(hs[k], runs)
        delta = np.empty(zs[k - 1].shape)
        np.matmul(d, layers[k], out=reference_per_run(delta, runs))
        times_derivative(delta, zs[k - 1])
    if delta.ndim == 2 and min(x.shape) > 1 and delta.shape[1] % 8 == 0:
        grads[0] = (delta.T @ x).reshape(layers[0].shape)
    else:
        grads[0] = reference_per_run(delta, runs).transpose(0, 2, 1) @ x
    return grads


@st.composite
def stacked_problems(draw):
    """Depth 2 to 4, widths 1 to 9, 1 to 6 runs over 1 to 9 inputs of 1 to 4
    coordinates, shared or per run, every activation, and an upstream per
    run or shared."""
    widths = tuple(draw(st.lists(st.integers(1, 9), min_size=1, max_size=3)))
    runs, n, d = draw(st.integers(1, 6)), draw(st.integers(1, 9)), draw(st.integers(0, 3))
    per_run = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layers, X, u = stacked_case(rng, runs, widths, n, d, per_run)
    if draw(st.booleans()):
        u = u if u.ndim == 1 else u[0]
    elif u.ndim == 1:
        u = np.tile(u, (runs, 1))
    act = draw(st.sampled_from(sorted(STACKED_ACTS)))
    return layers, STACKED_ACTS[act], X, u


@st.composite
def stepped_shared_problems(draw):
    """Stacked layers over shared inputs, shaped as in
    :func:`stacked_problems`, in one layer-major block, with every
    activation and 1 to 4 steps' upstreams: the same for every step, as the
    ascent's signs, or some new."""
    widths = tuple(draw(st.lists(st.integers(1, 9), min_size=1, max_size=3)))
    runs, n, d = draw(st.integers(1, 6)), draw(st.integers(1, 9)), draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layers, X, u = stacked_case(rng, runs, widths, n, d, per_run=False)
    upstreams = [np.tile(u, (runs, 1))]
    for _ in range(draw(st.integers(0, 3))):
        fresh = draw(st.booleans())
        upstreams.append(rng.choice([-1.0, 1.0], size=(runs, n)) if fresh else upstreams[-1])
    act = draw(st.sampled_from(sorted(STACKED_ACTS)))
    return layer_major(layers), STACKED_ACTS[act], X, upstreams


class TestOneWorkingArrayPerLayer:
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(stacked_problems())
    def test_same_bits_as_three_arrays_per_layer(self, problem):
        """Outputs and gradients byte for byte, and the inputs untouched."""
        layers, act, X, u = problem
        X0 = X.copy()
        ref_out, ref_hs, ref_zs = reference_forward(layers, act, X)
        ref_grads = reference_backprop(layers, act, ref_hs, ref_zs, u)
        out, _, grads = one_shot(layers, act, X, u)
        assert same_bits(out, ref_out)
        assert all(same_bits(a, b) for a, b in zip(grads, ref_grads, strict=True))
        assert same_bits(X, X0)


class TestSteppedPass:
    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(stepped_shared_problems())
    def test_equals_fresh_one_shot_passes(self, problem):
        """A prepared shared-input pass, stepped with its layers updated in
        place and its upstream set only when it changes, has at every step
        the bits of fresh passes used once and of the reference with three
        arrays per hidden layer."""
        layers, act, X, upstreams = problem
        grads = new_grads(layers)
        run = nc.StackedPass(layers, act, X, grads)
        last = None
        for u in upstreams:
            got = run_prepared(run, None if u is last else u)
            last = u
            assert_same(got, one_shot(layers, act, X, u))
            ref_out, ref_hs, ref_zs = reference_forward(layers, act, X)
            assert same_bits(got[0], ref_out)
            ref_grads = reference_backprop(layers, act, ref_hs, ref_zs, u)
            assert all(same_bits(a, b) for a, b in zip(got[2], ref_grads, strict=True))
            for w, g in zip(layers, grads):
                w -= 0.25 * g


class TestAbsorbBias:
    def test_two_layer_direct_substitution(self):
        """f(x) = relu(x + 1) becomes a single row (1, 1) over (x, 1)."""
        bn = BiasedNet(
            weights=(np.array([[1.0]]), np.array([[1.0]])), biases=(np.array([1.0]),)
        )
        p = nc.absorb_bias(bn, ActivationSpec.relu())
        np.testing.assert_array_equal(p.layers[0], [[1.0, 1.0]])
        x = np.array([[0.3, 1.0], [-2.0, 1.0]])
        np.testing.assert_array_equal(
            nc.forward(p, ActivationSpec.relu(), x), [1.3, 0.0]
        )

    def test_zero_biases_inert_unit(self):
        rng = np.random.default_rng(3)
        act = ActivationSpec.relu()
        bn = BiasedNet(
            weights=(rng.normal(size=(3, 2)), rng.normal(size=(2, 3)), rng.normal(size=(1, 2))),
            biases=(np.zeros(3), np.zeros(2)),
        )
        p = nc.absorb_bias(bn, act)
        xs = rng.normal(size=(1000, 2))
        xs /= np.maximum(np.linalg.norm(xs, axis=1, keepdims=True), 1.0)
        got = nc.forward(p, act, np.hstack([xs, np.ones((1000, 1))]))
        np.testing.assert_array_equal(got, nc.forward_biased(bn, act, xs))

    @pytest.mark.parametrize("act", [ActivationSpec.relu(), ActivationSpec.leaky_relu(0.1)])
    def test_random_three_layer_function_equality(self, act):
        rng = np.random.default_rng(4)
        bn = BiasedNet(
            weights=(rng.normal(size=(4, 3)), rng.normal(size=(3, 4)), rng.normal(size=(1, 3))),
            biases=(rng.normal(size=4), rng.normal(size=3)),
            output_bias=rng.normal(),
        )
        p = nc.absorb_bias(bn, act)
        xs = rng.normal(size=(1000, 3))
        xs /= np.maximum(np.linalg.norm(xs, axis=1, keepdims=True), 1.0)
        got = nc.forward(p, act, np.hstack([xs, np.ones((1000, 1))]))
        assert np.max(np.abs(got - nc.forward_biased(bn, act, xs))) < 1e-12


class TestNormalizeActivation:
    def test_noop_when_already_zero(self):
        p = NetParams.from_arrays([np.ones((2, 3)), np.ones((1, 2))])
        act = ActivationSpec.relu()
        p2, act2 = nc.normalize_activation(p, act)
        assert p2 is p and act2 is act

    def test_constant_shift_two_layer(self):
        """sigma(x) = x + 1: transformed outputs match exactly on 1000 probes."""
        act = ActivationSpec.tabulated([-8.0, 8.0], [-7.0, 9.0])
        assert act.value_at_zero == 1.0
        rng = np.random.default_rng(5)
        p = NetParams.from_arrays([rng.normal(size=(3, 3)), rng.normal(size=(1, 3))])
        p2, act2 = nc.normalize_activation(p, act)
        assert act2.value_at_zero == 0.0
        assert p2.widths == (4,)
        xs = np.hstack([rng.normal(size=(1000, 2)) * 0.5, np.ones((1000, 1))])
        diff = np.abs(nc.forward(p, act, xs) - nc.forward(p2, act2, xs))
        assert np.max(diff) < 1e-12

    def test_shifted_relu_single_neuron(self):
        act = ActivationSpec.tabulated([-4.0, 0.0, 4.0], [0.5, 0.5, 4.5])
        p = NetParams.from_arrays([np.array([[1.0, 0.0]]), np.array([[1.0]])])
        p2, act2 = nc.normalize_activation(p, act)
        assert nc.forward(p2, act2, np.array([0.0, 1.0])) == 0.5

    def test_deep_shift_equality(self):
        act = ActivationSpec.tabulated([-9.0, 9.0], [-8.4, 9.6])  # x + 0.6
        rng = np.random.default_rng(6)
        p = NetParams.from_arrays(
            [rng.normal(size=(3, 3)), rng.normal(size=(2, 3)), rng.normal(size=(1, 2))]
        )
        p2, act2 = nc.normalize_activation(p, act)
        assert p2.widths == (4, 3)
        xs = np.hstack([rng.normal(size=(500, 2)) * 0.4, np.ones((500, 1))])
        diff = np.abs(nc.forward(p, act, xs) - nc.forward(p2, act2, xs))
        assert np.max(diff) < 1e-12


# Fixed example sequence, so the suite runs the same cases every time.
DERANDOMIZED = settings(derandomize=True, max_examples=60, deadline=None, database=None)

# Weights, biases and inputs are 0 or of magnitude in [1e-3, 2]: no product
# underflows, so every rounding is relative.
ENTRIES = st.one_of(st.just(0.0), st.floats(1e-3, 2.0), st.floats(-2.0, -1e-3))

relu_family = st.one_of(
    st.just(ActivationSpec.relu()),
    st.just(ActivationSpec.identity()),
    st.floats(0.01, 2.0).map(ActivationSpec.leaky_relu),
)


@st.composite
def biased_nets(draw, output_bias: bool):
    """Depth-2 to depth-4 biased networks and five raw inputs; the output
    bias is nonzero exactly when ``output_bias``."""
    d = draw(st.integers(1, 3))
    widths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    weights = tuple(
        draw(hnp.arrays(np.float64, shape, elements=ENTRIES))
        for shape in nc.layer_shapes(widths, d)
    )
    biases = tuple(draw(hnp.arrays(np.float64, w, elements=ENTRIES)) for w in widths)
    bias = draw(ENTRIES.filter(lambda v: v != 0.0)) if output_bias else 0.0
    x = draw(hnp.arrays(np.float64, (5, d), elements=ENTRIES))
    return BiasedNet(weights=weights, biases=biases, output_bias=bias), x


@st.composite
def shifted_tables(draw):
    """Tabulated activations with sigma(0) != 0: 2 to 5 knots in [-3, 3] at
    least 0.25 apart, values 0 or of magnitude in [1e-3, 2]."""
    knots = draw(st.lists(st.integers(-12, 12), min_size=2, max_size=5, unique=True))
    xs = sorted(k / 4 for k in knots)
    ys = draw(st.lists(ENTRIES, min_size=len(xs), max_size=len(xs)))
    assume(len(set(ys)) > 1)
    act = ActivationSpec.tabulated(xs, ys)
    assume(act.value_at_zero != 0.0)
    return act


def rounding_scale(layers, act, x, value_bound=None):
    """Per input row, the magnitudes each layer rounds, carried to the output.

    ``m`` bounds the values a layer reads: ``|x|`` at the input, then
    ``L_sigma |W| m`` after an activation with sigma(0) = 0, or
    ``value_bound`` after any other.  A hidden layer adds its products'
    magnitudes ``|W| m``, times ``L_sigma``, and its activation values'
    ``m`` to the carried sum, which the next layer multiplies by
    ``L_sigma |W|``; the output layer adds ``|W| m`` and multiplies by ``|W|``.
    """
    mag = np.abs(x)
    carried = np.zeros_like(mag)
    for w in layers[:-1]:
        pre = mag @ np.abs(w).T
        mag = act.lipschitz * pre if value_bound is None else np.full_like(pre, value_bound)
        carried = act.lipschitz * ((carried @ np.abs(w).T) + pre) + mag
    return ((carried + mag) @ np.abs(layers[-1]).T).ravel()


class TestTransformProperties:
    # Let u = 2**-53, the float64 unit roundoff.  A first-order rounding
    # error propagates to the output as rounding_scale carries magnitudes,
    # so a network's output errs by at most k u times its scale when no
    # layer rounds by more than k u of the magnitudes it adds.  Per layer:
    # a dot product of at most 6 terms errs by at most 6u of |W| m; leaky
    # relu's slope product by u of m; the table's interpolation
    # slope * (z - x_k) + y_k by 5u of L_sigma (|z| + max|x_k|) + |y_k|,
    # which value_bound = max|y| + |sigma(0)| + L_sigma max|x_k| and the
    # L_sigma |W| m term cover.  The transforms' own weights add at most 7u
    # on a column they write (s0 * row sum / carrier value: a sum of at most
    # 4 terms, a product, a quotient; the carrier weight probe / value: one
    # quotient), 1u on the shifted table values, and nothing in bias
    # absorption, whose relu-family carrier values are exactly 1.  So k <= 16
    # for every network here, and the two outputs differ by at most 16u
    # times the sum of the two scales (for bias absorption, twice the
    # absorbed network's scale, which dominates the biased network's).
    # TOL = 64u = 7.1e-15 leaves 4x room.
    TOL = 64 * 2.0**-53

    @DERANDOMIZED
    @pytest.mark.parametrize("output_bias", [False, True])
    @given(data=st.data(), act=relu_family)
    def test_absorb_bias_keeps_outputs(self, data, act, output_bias):
        net, x = data.draw(biased_nets(output_bias))
        p = nc.absorb_bias(net, act)
        hidden = [w.shape[0] for w in net.weights[:-1]]
        carriers = [1] * (len(hidden) - 1) + [int(output_bias)]
        assert p.widths == tuple(h + c for h, c in zip(hidden, carriers))
        x1 = np.hstack([x, np.ones((len(x), 1))])
        slack = self.TOL * 2 * rounding_scale(p.layers, act, x1)
        diff = np.abs(nc.forward(p, act, x1) - nc.forward_biased(net, act, x))
        assert np.all(diff <= slack)

    @DERANDOMIZED
    @given(shifted_tables(), st.data())
    def test_normalize_activation_keeps_outputs(self, act, data):
        d = data.draw(st.integers(1, 3))
        widths = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
        layers = [
            data.draw(hnp.arrays(np.float64, shape, elements=ENTRIES))
            for shape in nc.layer_shapes(widths, d + 1)
        ]
        x = data.draw(hnp.arrays(np.float64, (5, d + 1), elements=ENTRIES))
        x[:, -1] = 1.0
        p = NetParams.from_arrays(layers)
        try:
            p2, act2 = nc.normalize_activation(p, act)
        except UnsupportedActivationError:
            reject()  # the shifted table vanishes at every carrier probe
        assert act2.value_at_zero == 0.0
        assert p2.widths == tuple(w + 1 for w in widths)
        xs, ys = act.grid
        value_bound = max(map(abs, ys)) + abs(act.value_at_zero) + act.lipschitz * max(
            map(abs, xs)
        )
        slack = self.TOL * (
            rounding_scale(p.layers, act, x, value_bound)
            + rounding_scale(p2.layers, act2, x, value_bound)
        )
        diff = np.abs(nc.forward(p, act, x) - nc.forward(p2, act2, x))
        assert np.all(diff <= slack)


class TestMaxNondecreasingComponent:
    @pytest.mark.parametrize(
        "widths,expect",
        [
            ((2, 2, 2), (2, 2, 2)),
            ((3, 1, 2), (1, 1, 2)),
            ((5, 3, 7, 2, 9), (2, 2, 2, 2, 9)),
            ((4,), (4,)),
            ((9, 4), (4, 4)),
        ],
    )
    def test_hand_cases(self, widths, expect):
        assert nc.max_nondecreasing_component(widths) == expect

    def test_maximality_exhaustive(self):
        """Against brute force over every nondecreasing minorant, for all
        width vectors of length <= 4 with entries <= 5."""
        for length in (1, 2, 3, 4):
            for widths in itertools.product(range(1, 6), repeat=length):
                up = nc.max_nondecreasing_component(widths)
                assert all(a <= b for a, b in zip(up, up[1:]))
                assert all(u <= w for u, w in zip(up, widths))
                # dominates every nondecreasing minorant
                for cand in itertools.product(*(range(1, w + 1) for w in widths)):
                    if all(a <= b for a, b in zip(cand, cand[1:])):
                        assert all(c <= u for c, u in zip(cand, up))
                # bumping any entry breaks one of the two properties
                for i in range(length):
                    bumped = list(up)
                    bumped[i] += 1
                    nondec = all(a <= b for a, b in zip(bumped, bumped[1:]))
                    minor = all(u <= w for u, w in zip(bumped, widths))
                    assert not (nondec and minor)


class TestSerialization:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(8)
        layers = [rng.normal(size=(3, 4)) * 1e-7, rng.normal(size=(1, 3)) * 1e3]
        layers[0][0, 0] = 0.1  # not exactly representable in decimal
        p = NetParams.from_arrays(layers)
        act = ActivationSpec.leaky_relu(0.1)
        text = nc.network_to_json(p, act)
        p2, act2 = nc.network_from_json(text)
        assert act2 == act
        for a, b in zip(p.layers, p2.layers):
            np.testing.assert_array_equal(a, b)

    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        p = random_net(rng, (2, 3), 2)
        act = ActivationSpec.tabulated([-1.0, 0.0, 2.0], [0.5, 0.0, 4.0])
        path = tmp_path / "net.json"
        nc.save_network(path, p, act)
        p2, act2 = nc.load_network(path)
        assert act2 == act
        for a, b in zip(p.layers, p2.layers):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("widths", [(3,), (4, 1), (2, 5, 3)])
    @pytest.mark.parametrize(
        "act",
        [ActivationSpec.relu(), ActivationSpec.leaky_relu(0.1),
         ActivationSpec.tabulated([-1.0, 0.0, 2.0], [0.5, 0.0, 4.0], differentiable=False)],
        ids=["relu", "leaky", "tabulated"],
    )
    @pytest.mark.parametrize("special", [False, True], ids=["finite", "nan-inf-negzero"])
    def test_saved_bytes_are_the_json_text(self, tmp_path, widths, act, special):
        """The streamed file holds ``network_to_json(...) + "\\n"`` byte for
        byte, for depths 2 to 4, each activation kind, and weights holding
        nan, infinities and -0.0 (set past ``NetParams``' finiteness check,
        as the serializer must not care)."""
        net = random_net(np.random.default_rng(len(widths)), widths, 2)
        layers = [np.array(w) for w in net.layers]
        if special:
            layers[0][0, :3] = [math.nan, -0.0, math.inf]
            layers[-1][0, -1] = -math.inf
            layers[len(layers) // 2][-1, 0] = -0.0
            p = object.__new__(NetParams)
            object.__setattr__(p, "layers", tuple(layers))
        else:
            p = NetParams.from_arrays(layers)
        path = tmp_path / "net.json"
        nc.save_network(path, p, act)
        assert path.read_bytes() == (nc.network_to_json(p, act) + "\n").encode()

    def test_save_streams_the_rows(self, tmp_path):
        """A depth-3 width-256 model is written with a traced peak below a
        tenth of its text, which the one-shot ``json.dumps`` holds whole."""
        p = random_net(np.random.default_rng(3), (256, 256), 2)
        act = ActivationSpec.relu()
        size = len(nc.network_to_json(p, act))
        tracemalloc.start()
        try:
            nc.save_network(tmp_path / "net.json", p, act)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size > 1_000_000 and peak < size / 10
