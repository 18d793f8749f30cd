"""Regularizers, subgradients, and output-preserving rescalings."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from pesvlab import netcore as nc, norms
from pesvlab.netcore import ActivationSpec, NetParams, UnsupportedActivationError

from test_netcore import random_net


def penalty_alone(layers, kind, p=1.0, q=2.0):
    """Values and subgradients of ``(S, rows, cols)`` stacked networks under
    one penalty: a fresh :class:`norms.PenaltyPass` with a single group."""
    out = [np.empty_like(w) for w in layers]
    group = norms.PenaltyGroup(slice(0, len(layers[0])), norms.Penalty(kind, p, q))
    return norms.PenaltyPass(layers, [group], out)()[1], out


def subgradient(params, kind, p=1.0, q=2.0):
    """The subgradient of one network under one penalty."""
    layers = [np.asarray(w, dtype=np.float64)[None] for w in nc.as_layers(params)]
    return [g[0] for g in penalty_alone(layers, kind, p, q)[1]]


class TestPesvNorm:
    def test_zero_weights(self):
        p = NetParams.from_arrays([np.zeros((3, 4)), np.zeros((1, 3))])
        assert norms.pesv_norm(p) == 0.0

    def test_two_layer_hand_eval(self):
        """2*||(3,4)|| + 3*||(0,5)|| = 2*5 + 3*5 = 25."""
        p = NetParams.from_arrays(
            [np.array([[3.0, 4.0], [0.0, 5.0]]), np.array([[2.0, -3.0]])]
        )
        assert norms.pesv_norm(p) == 25.0

    def test_unit_single_path(self):
        p = NetParams.from_arrays(
            [np.array([[0.6, 0.8]]), np.array([[1.0]]), np.array([[1.0]])]
        )
        assert norms.pesv_norm(p) == pytest.approx(1.0, rel=1e-15)

    def test_output_scaling_linearity(self):
        rng = np.random.default_rng(0)
        p = random_net(rng, (3, 2), 2)
        base = norms.pesv_norm(p)
        scaled = [np.array(w) for w in p.layers]
        scaled[-1] *= 3.5
        assert norms.pesv_norm(scaled) == pytest.approx(3.5 * base, rel=1e-12)


class TestMatrixProductVariant:
    def test_equals_pesv_when_nonnegative(self):
        rng = np.random.default_rng(1)
        layers = [np.abs(rng.normal(size=(3, 4))), np.abs(rng.normal(size=(2, 3))),
                  np.abs(rng.normal(size=(1, 2)))]
        p = NetParams.from_arrays(layers)
        assert norms.pesv_matrixproduct_variant(p) == pytest.approx(
            norms.pesv_norm(p), rel=1e-12
        )

    def test_sign_cancellation(self):
        """Opposite hidden signs cancel in the product form: 0 versus 2."""
        p = NetParams.from_arrays(
            [np.array([[1.0, 0.0]]), np.array([[1.0], [-1.0]]), np.array([[1.0, 1.0]])]
        )
        assert norms.pesv_matrixproduct_variant(p) == 0.0
        assert norms.pesv_norm(p) == 2.0

    def test_zero_weights(self):
        p = NetParams.from_arrays([np.zeros((2, 3)), np.zeros((1, 2))])
        assert norms.pesv_matrixproduct_variant(p) == 0.0

    def test_never_exceeds_pesv(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = random_net(rng, (3, 4, 2), 3)
            assert norms.pesv_matrixproduct_variant(p) <= norms.pesv_norm(p) + 1e-12


class TestPesvSubgradient:
    def test_two_layer_hand_eval(self):
        p = NetParams.from_arrays([np.array([[3.0, 4.0]]), np.array([[2.0]])])
        g = subgradient(p, "pesv")
        np.testing.assert_allclose(g[1], [[5.0]])
        np.testing.assert_allclose(g[0], [[2 * 0.6, 2 * 0.8]])

    def test_zero_params_zero_subgradient(self):
        p = NetParams.from_arrays([np.zeros((2, 3)), np.zeros((1, 2))])
        for g in subgradient(p, "pesv"):
            assert np.all(g == 0.0)

    def test_matches_finite_differences(self):
        """FD oracle on a positive-weight net (no kinks)."""
        rng = np.random.default_rng(3)
        layers = [
            np.abs(rng.normal(size=(3, 4))) + 0.1,
            np.abs(rng.normal(size=(2, 3))) + 0.1,
            np.abs(rng.normal(size=(1, 2))) + 0.1,
        ]
        g = subgradient(layers, "pesv")
        eps = 1e-6
        for li in range(3):
            for i in range(layers[li].shape[0]):
                for j in range(layers[li].shape[1]):
                    hi = [w.copy() for w in layers]
                    lo = [w.copy() for w in layers]
                    hi[li][i, j] += eps
                    lo[li][i, j] -= eps
                    fd = (norms.pesv_norm(hi) - norms.pesv_norm(lo)) / (2 * eps)
                    assert abs(fd - g[li][i, j]) <= 1e-5 * max(abs(fd), 1.0)


# Fixed example sequence, so the suite runs the same cases every time.
DERANDOMIZED = settings(derandomize=True, max_examples=60, deadline=None, database=None)


@st.composite
def signed_nets_off_kinks(draw):
    """Depth-2/3 networks with every weight magnitude in [0.1, 2] and random
    signs: no weight sits near a sign kink and no first-layer row near zero."""
    d = draw(st.integers(1, 3))
    widths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    layers = []
    for shape in nc.layer_shapes(widths, d + 1):
        mag = draw(hnp.arrays(np.float64, shape, elements=st.floats(0.1, 2.0)))
        neg = draw(hnp.arrays(np.bool_, shape))
        layers.append(np.where(neg, -mag, mag))
    return layers


class TestPesvSubgradientProperty:
    # Central differences with step H, tolerance TOL * (f + 1).  Between
    # kinks the norm is linear in every weight above the first layer, so the
    # quotient is exact there up to rounding.  A first-layer row w enters as
    # c ||w|| with c ||w|| <= f and ||w|| >= 0.1 sqrt(2); its third
    # derivative is at most 3 c / ||w||^2 <= 1500 f, a truncation error below
    # H^2 / 6 * 1500 f < 1e-9 f.  Each evaluation sums fewer than 100 rounded
    # terms, erring by at most 100 * 2.2e-16 f, so the quotient errs by at
    # most 2.2e-14 f / H = 2.2e-8 f.
    H = 1e-6
    TOL = 1e-7

    @DERANDOMIZED
    @given(signed_nets_off_kinks())
    def test_matches_central_differences(self, layers):
        g = subgradient(layers, "pesv")
        f = norms.pesv_norm(layers)
        for li, w in enumerate(layers):
            for idx in np.ndindex(w.shape):
                hi = [v.copy() for v in layers]
                lo = [v.copy() for v in layers]
                hi[li][idx] += self.H
                lo[li][idx] -= self.H
                fd = (norms.pesv_norm(hi) - norms.pesv_norm(lo)) / (2 * self.H)
                assert abs(fd - g[li][idx]) <= self.TOL * (abs(f) + 1.0)


class TestWeightDecay:
    def test_cases(self):
        assert norms.weight_decay_norm(
            NetParams.from_arrays([np.zeros((2, 3)), np.zeros((1, 2))])
        ) == 0.0
        p = NetParams.from_arrays([np.array([[3.0, 4.0]]), np.array([[2.0]])])
        assert norms.weight_decay_norm(p) == 29.0
        doubled = [2.0 * np.array(w) for w in p.layers]
        assert norms.weight_decay_norm(doubled) == 4 * 29.0

    def test_subgradient_is_gradient(self):
        rng = np.random.default_rng(4)
        p = random_net(rng, (3,), 2)
        for g, w in zip(subgradient(p, "weight_decay"), p.layers):
            np.testing.assert_array_equal(g, 2.0 * w)


class TestMixedMaxNorm:
    def test_zeros(self):
        p = NetParams.from_arrays([np.zeros((2, 3)), np.zeros((1, 2))])
        assert norms.mixed_max_norm(p, 1, 2) == 0.0

    def test_hand_eval(self):
        """max{||a||_1-ish rows, first-layer l2 rows} = max{3, 5} = 5."""
        p = NetParams.from_arrays(
            [np.array([[3.0, 4.0], [1.0, 0.0]]), np.array([[1.0, -2.0]])]
        )
        assert norms.mixed_max_norm(p, 1, 2) == 5.0

    def test_single_weight(self):
        p = NetParams.from_arrays([np.zeros((2, 3)), np.array([[0.0, 7.0]])])
        assert norms.mixed_max_norm(p, 1, 2) == 7.0

    @pytest.mark.parametrize(
        "p, q",
        [(0.5, 2.0), (1.0, 0.5), (math.nan, 2.0), (1.0, math.nan), (math.inf, 2.0), (1.0, math.inf)],
    )
    def test_rejects_bad_exponents(self, p, q):
        net = NetParams.from_arrays([np.ones((1, 2)), np.ones((1, 1))])
        with pytest.raises(ValueError, match="at least 1"):
            norms.mixed_max_norm(net, p, q)
        with pytest.raises(ValueError, match="at least 1"):
            norms.Penalty("mixed_max", p, q)

    def test_subgradient_matches_fd(self):
        rng = np.random.default_rng(5)
        layers = [rng.normal(size=(3, 4)), rng.normal(size=(1, 3))]
        g = subgradient(layers, "mixed_max", 1, 2)
        eps = 1e-7
        base = norms.mixed_max_norm(layers, 1, 2)
        # directional check: moving along the subgradient increases the max norm
        moved = [w + eps * gi for w, gi in zip(layers, g)]
        gnorm2 = sum(float(np.sum(gi * gi)) for gi in g)
        assert norms.mixed_max_norm(moved, 1, 2) == pytest.approx(
            base + eps * gnorm2, rel=1e-4
        )

    def test_tie_goes_to_the_upper_layer(self):
        """First-layer row norm 5 ties the output row's l1 norm 5; the scan
        visits upper layers first, so the output row carries the subgradient,
        also when stacked next to a run without a tie."""
        tie = [np.array([[3.0, 4.0], [0.0, 1.0]]), np.array([[2.0, -3.0]])]
        no_tie = [np.array([[6.0, 8.0], [0.0, 1.0]]), np.array([[2.0, -3.0]])]
        g = subgradient(tie, "mixed_max", 1, 2)
        np.testing.assert_array_equal(g[0], np.zeros((2, 2)))
        np.testing.assert_array_equal(g[1], [[1.0, -1.0]])
        value, stacked = penalty_alone([np.stack(ws) for ws in zip(tie, no_tie)], "mixed_max", 1, 2)
        assert list(value) == [5.0, 10.0]
        for k in range(2):
            np.testing.assert_array_equal(stacked[k][0], g[k])
            np.testing.assert_array_equal(
                stacked[k][1], subgradient(no_tie, "mixed_max", 1, 2)[k]
            )
        np.testing.assert_array_equal(stacked[0][1], [[0.6, 0.8], [0.0, 0.0]])


@st.composite
def stacked_nets_picking_each_layer(draw):
    """2 to 6 stacked networks of depth 2 to 4 with small integer weights,
    signed zeros among them, so rows tie often.  Run ``s`` scales layer
    ``s % depth`` by 1000, so the maximal rows of the runs lie in different
    layers, and zeroes one row of the next layer; the last run may be all
    zeros."""
    runs = draw(st.integers(2, 6))
    d = draw(st.integers(1, 3))
    widths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    shapes = nc.layer_shapes(widths, d + 1)
    ints = st.sampled_from([-3.0, -2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0])
    layers = [draw(hnp.arrays(np.float64, (runs, *shape), elements=ints)) for shape in shapes]
    for s in range(runs):
        layers[s % len(shapes)][s] *= 1000.0
        zero = layers[(s + 1) % len(shapes)][s]
        zero[draw(st.integers(0, zero.shape[0] - 1))] = 0.0
    if draw(st.booleans()):
        for w in layers:
            w[-1] = 0.0
    return layers


def mixed_max_one_row_at_a_time(layers, p, q):
    """Value and subgradient of each stacked network, from a loop over its
    rows in scan order (layers above the first, then the first), keeping
    the first row of the largest norm.  Each norm stays a 1-element array:
    the power of a numpy scalar may round differently from an array's."""
    values, grads = [], [np.zeros_like(w) for w in layers]
    for s in range(len(layers[0])):
        best = None
        for k, r in [(k, p) for k in range(1, len(layers))] + [(0, q)]:
            for i, row in enumerate(layers[k][s]):
                if r == 1.0:
                    norm = np.add.reduce(np.abs(row), keepdims=True)
                elif r == 2.0:
                    norm = np.sqrt(np.add.reduce(row * row, keepdims=True))
                else:
                    norm = np.add.reduce(np.abs(row) ** r, keepdims=True) ** (1.0 / r)
                if best is None or norm[0] > best[0][0]:
                    best = (norm, k, i, r)
        norm, k, i, r = best
        values.append(norm[0])
        if norm > 0.0:
            row = layers[k][s, i]
            g = np.sign(row)
            if r != 1.0:
                g = g * (np.abs(row) / norm) ** (r - 1.0)
            grads[k][s, i] = g
    return np.array(values), grads


class TestMixedMaxStackedProperty:
    @DERANDOMIZED
    @given(
        stacked_nets_picking_each_layer(),
        st.sampled_from([1.0, 1.5, 2.0, 3.0]),
        st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    )
    def test_equals_one_row_at_a_time(self, layers, p, q):
        value, grads = penalty_alone(layers, "mixed_max", p, q)
        ref_value, ref_grads = mixed_max_one_row_at_a_time(layers, p, q)
        assert value.tobytes() == ref_value.tobytes()
        for g, ref in zip(grads, ref_grads, strict=True):
            assert g.tobytes() == ref.tobytes()


@st.composite
def penalty_groups(draw, runs):
    """Consecutive groups over ``runs`` stacked networks, each of a drawn
    kind (mixed max with ``p`` and ``q`` in {1, 1.5, 2, 3}).  A group takes
    subgradients when one of its runs has a positive lambda, so a group may
    hold runs with lambda 0 and still take them, or take none."""
    cuts = sorted(draw(st.sets(st.integers(1, runs - 1), max_size=runs - 1)))
    exps = st.sampled_from([1.0, 1.5, 2.0, 3.0])
    groups = []
    for lo, hi in zip([0, *cuts], [*cuts, runs]):
        kind = draw(st.sampled_from(["pesv", "weight_decay", "mixed_max"]))
        p, q = (draw(exps), draw(exps)) if kind == "mixed_max" else (1.0, 2.0)
        lams = draw(st.lists(st.sampled_from([0.0, 0.5]), min_size=hi - lo, max_size=hi - lo))
        groups.append(norms.PenaltyGroup(slice(lo, hi), norms.Penalty(kind, p, q), max(lams) > 0.0))
    return groups


class TestPenaltyStackedProperty:
    @DERANDOMIZED
    @given(st.data())
    def test_equals_per_group_calls(self, data):
        """Path norms, values and subgradients have the bits of each group
        computed alone, by a call on its own slices, signs of zeros included.
        Those calls share no pieces with other groups, and no other group
        writes over their subgradients.  The pass and its subgradient block
        are reused, as training reuses them: stale values from an earlier
        call on other networks must not survive."""
        layers = data.draw(stacked_nets_picking_each_layer())
        groups = data.draw(penalty_groups(len(layers[0])))
        out = [np.full_like(w, np.nan) for w in layers]
        arrs = [-7.0 * w[::-1] for w in layers]
        penalty = norms.PenaltyPass(arrs, groups, out)
        penalty()
        for a, w in zip(arrs, layers):
            a[...] = w
        nu, value = penalty()
        assert nu.tobytes() == norms.pesv_stacked(layers).tobytes()
        for runs, pen, grad in groups:
            ref_value, ref_grads = penalty_alone([w[runs] for w in layers], pen.kind, pen.p, pen.q)
            assert value[runs].tobytes() == ref_value.tobytes()
            if grad:
                for g, ref in zip(out, ref_grads, strict=True):
                    assert g[runs].tobytes() == ref.tobytes()


@st.composite
def stacked_nets_some_zero(draw):
    """1 to 5 stacked networks of depth 2 to 4 with normal weights of a
    drawn scale, signed zeros and subnormals among them.  In one draw of
    four, some runs get a zero output row, so their path norm is 0."""
    runs = draw(st.integers(1, 5))
    d = draw(st.integers(1, 3))
    widths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    layers = []
    for shape in nc.layer_shapes(widths, d + 1):
        w = scale * rng.standard_normal((runs, *shape))
        w[rng.random(w.shape) < 0.2] = draw(st.sampled_from([0.0, -0.0, 5e-324, -7e-310]))
        layers.append(w)
    if draw(st.integers(0, 3)) == 0:
        for s in draw(st.sets(st.integers(0, runs - 1), min_size=1)):
            layers[-1][s] = 0.0
    return layers


class TestPesvUnitScaled:
    @DERANDOMIZED
    @given(stacked_nets_some_zero())
    @example([np.ones((2, 1, 2)), np.array([[[1.0]], [[0.0]]])])  # one zero-norm run of two
    @example([np.array([[[3.0, 4.0]]]), np.array([[[-0.5]]])])  # norm 2.5
    def test_norms_are_pesv_stacked_of_the_nets(self, layers):
        """Only the output row changes, divided by the path norm; the norms
        returned are :func:`norms.pesv_stacked` of the returned nets, bit
        for bit.  A batch with a path norm that is not positive gives None."""
        nu = norms.pesv_stacked(layers)
        got = norms.pesv_unit_scaled(layers)
        if not (nu > 0.0).all():
            assert got is None
            return
        scaled, unit = got
        assert len(scaled) == len(layers)
        assert all(s is w for s, w in zip(scaled[:-1], layers[:-1]))
        assert scaled[-1].tobytes() == (layers[-1] / nu[:, None, None]).tobytes()
        assert unit.tobytes() == norms.pesv_stacked(scaled).tobytes()


class TestStackedL2:
    @DERANDOMIZED
    @given(stacked_nets_some_zero())
    def test_each_run_has_the_bits_of_the_run_alone(self, layers):
        """Each run's norm is that of its weights alone: each layer's
        squares summed, then the layers' sums added in layer order."""
        got = norms.stacked_l2(layers)
        assert got.shape == (len(layers[0]),)
        for s in range(len(layers[0])):
            alone = np.sqrt(sum(np.add.reduce((w[s] * w[s]).ravel()) for w in layers))
            assert got[s].tobytes() == alone.tobytes()


THREE_PENALTIES = pytest.mark.parametrize(
    "penalty",
    [norms.Penalty("pesv"), norms.Penalty("weight_decay"), norms.Penalty("mixed_max", 1.0, 3.0)],
    ids=["pesv", "weight_decay", "mixed_max"],
)


class TestPenaltyStackedWork:
    @THREE_PENALTIES
    def test_a_call_allocates_under_half_a_middle_layer(self, penalty):
        """Building a pass allocates the arrays its calls write, so one call
        on a width-256 network of depth 3 allocates nothing of a layer's
        size: only ufunc buffers (the broadcast multiply's take a fixed
        128 KiB) and small temporaries."""
        rng = np.random.default_rng(0)
        layers = [rng.normal(size=(1, *shape)) for shape in nc.layer_shapes((256, 256), 3)]
        group = [norms.PenaltyGroup(slice(0, 1), penalty)]
        out = [np.empty_like(w) for w in layers]
        run = norms.PenaltyPass(layers, group, out)
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < layers[1].nbytes // 2

    @THREE_PENALTIES
    def test_one_shot_pass_runs_the_chain_once(self, monkeypatch, penalty):
        """Preparing a pass allocates the path-norm chain's arrays without
        computing it, so a one-shot value computes the chain once."""
        runs = []
        real = norms._PathChain.__call__

        def counting(chain):
            runs.append(chain)
            return real(chain)

        monkeypatch.setattr(norms._PathChain, "__call__", counting)
        params = random_net(np.random.default_rng(1), (3, 4), 2)
        value = penalty.value(params)
        assert len(runs) == 1
        monkeypatch.undo()
        assert value == penalty.value(params)


@st.composite
def row_sum_inputs(draw):
    """1 to 3 dimensions with 1 to 9 values a row and up to 600 rows, in
    C order or as a transposed view, holding finite values of any scale,
    signed zeros, infinities and nans with random payloads and signs."""
    k = draw(st.integers(1, 9))
    lead = draw(st.sampled_from([(), (1,), (31,), (64,), (200,), (600,), (3, 50), (16, 32)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(*lead, k)) * np.exp(rng.normal(size=(*lead, k)) * 30)
    flat = a.reshape(-1)
    pick = rng.random(flat.size)
    bits = rng.integers(1, 2**51, size=flat.size, dtype=np.uint64)
    bits |= np.uint64(0x7FF8000000000000) | rng.integers(0, 2, flat.size, dtype=np.uint64) << 63
    flat[pick < 0.1] = 0.0
    flat[pick < 0.05] = -0.0
    flat[(0.1 <= pick) & (pick < 0.12)] = np.inf
    flat[(0.12 <= pick) & (pick < 0.14)] = -np.inf
    nans = (0.14 <= pick) & (pick < 0.17)
    flat[nans] = bits.view(np.float64)[nans]
    if draw(st.booleans()):
        a = np.full(a.shape, -0.0)
    if draw(st.booleans()) and a.ndim == 2:
        a = np.ascontiguousarray(a.T).T
    return a


class TestRowSums:
    @DERANDOMIZED
    @given(row_sum_inputs())
    def test_bits_of_add_reduce(self, a):
        """Byte for byte, nan payloads and the +0.0 of a row of -0.0 too."""
        with np.errstate(invalid="ignore"):
            assert norms.row_sums(a).tobytes() == np.add.reduce(a, axis=-1).tobytes()
            assert norms.row_sums(a).shape == a.shape[:-1]

    @pytest.mark.parametrize(
        "shape, columns", [((64, 2), True), ((63, 2), False), ((224, 7), True),
                           ((223, 7), False), ((10, 16, 3), True), ((600, 8), False),
                           ((600, 1), False)],
    )
    def test_columns_from_32_rows_per_column(self, monkeypatch, shape, columns):
        """Rows of 2 to 7 values are added by column from 32 rows per column."""
        calls = []
        real = np.add.reduce

        def recording(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.add, "reduce", recording)
        norms.row_sums(np.ones(shape))
        assert calls == ([] if columns else [shape])


class TestRescaleNeuron:
    def test_identity_when_c_is_one(self):
        rng = np.random.default_rng(6)
        p = random_net(rng, (3, 2), 2)
        q = norms.rescale_neuron(p, 1, 1, 1.0)
        for a, b in zip(p.layers, q.layers):
            np.testing.assert_array_equal(a, b)

    def test_rejects_nonpositive_factor(self):
        p = NetParams.from_arrays([np.ones((2, 3)), np.ones((1, 2))])
        with pytest.raises(ValueError):
            norms.rescale_neuron(p, 1, 0, 0.0)

    def test_relu_outputs_unchanged(self):
        rng = np.random.default_rng(7)
        act = ActivationSpec.relu()
        p = random_net(rng, (4, 3), 2)
        x = rng.normal(size=(100, 3))
        base = nc.forward(p, act, x)
        for layer, width in ((1, 4), (2, 3)):
            for j in range(width):
                q = norms.rescale_neuron(p, layer, j, 2.0)
                got = nc.forward(q, act, x)
                np.testing.assert_allclose(got, base, rtol=1e-10, atol=1e-14)

    def test_pesv_invariant(self):
        """Path products are invariant under per-neuron rescaling."""
        rng = np.random.default_rng(8)
        p = random_net(rng, (4, 3), 2)
        base = norms.pesv_norm(p)
        for c in (0.25, 1.7, 10.0):
            q = norms.rescale_neuron(p, 2, 1, c)
            assert norms.pesv_norm(q) == pytest.approx(base, rel=1e-10)


@st.composite
def nets_with_inputs(draw):
    """Depth-2 to depth-4 networks and five inputs, every weight and input
    coordinate 0 or of magnitude in [1e-3, 2]: no product or square
    underflows, so every rounding is relative."""
    d = draw(st.integers(1, 3))
    widths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    weights = st.one_of(st.just(0.0), st.floats(1e-3, 2.0), st.floats(-2.0, -1e-3))
    layers = [
        draw(hnp.arrays(np.float64, shape, elements=weights))
        for shape in nc.layer_shapes(widths, d + 1)
    ]
    return layers, draw(hnp.arrays(np.float64, (5, d + 1), elements=weights))


relu_or_leaky = st.one_of(
    st.just(ActivationSpec.relu()), st.floats(0.01, 2.0).map(ActivationSpec.leaky_relu)
)


def pointwise_bound(layers, act, x):
    """``L_sigma^(L-1) ||x|| nu`` for each input row."""
    scale = act.lipschitz ** (len(layers) - 1) * norms.pesv_norm(layers)
    return scale * np.linalg.norm(x, axis=1)


class TestHomogeneityProperties:
    # Every value is a sum of fewer than 100 rounded products, each bounded
    # by its path's share of L_sigma^(L-1) ||x|| nu, so rounding moves an
    # output by at most 100 * 2.2e-16 of that bound, and a path-norm sum by
    # the same fraction of itself.  Scaling a unit by c and its outgoing
    # weights by 1/c adds two roundings per path.  TOL leaves 45x room.
    TOL = 1e-12

    @DERANDOMIZED
    @given(nets_with_inputs(), relu_or_leaky, st.data())
    def test_rescale_neuron_keeps_outputs_and_path_norm(self, net, act, data):
        layers, x = net
        layer = data.draw(st.integers(1, len(layers) - 1))
        index = data.draw(st.integers(0, layers[layer - 1].shape[0] - 1))
        c = data.draw(st.floats(0.1, 10.0))
        scaled = norms.rescale_neuron(NetParams.from_arrays(layers), layer, index, c)
        slack = self.TOL * pointwise_bound(layers, act, x)
        diff = np.abs(nc.forward(scaled, act, x) - nc.forward(layers, act, x))
        assert np.all(diff <= slack)
        nu = norms.pesv_norm(layers)
        assert abs(norms.pesv_norm(scaled) - nu) <= self.TOL * nu

    @DERANDOMIZED
    @given(nets_with_inputs(), relu_or_leaky)
    # One path fed a negative preactivation: |f(x)| equals the bound.
    @example(
        ([np.array([[-1.0, 0.0]]), np.array([[1.0]])], np.array([[1.0, 0.0]] * 5)),
        ActivationSpec.leaky_relu(2.0),
    )
    def test_pointwise_output_bound(self, net, act):
        """``|f(x)| <= L_sigma^(L-1) ||x|| nu``, as ``|sigma(z)| <= L_sigma |z|``."""
        layers, x = net
        bound = pointwise_bound(layers, act, x)
        assert np.all(np.abs(nc.forward(layers, act, x)) <= bound * (1.0 + self.TOL))


def balance_relu_neuron_by_neuron(params):
    """Reference: :func:`norms.balance_relu` rescaling one neuron at a time."""
    layers = [np.array(w) for w in params.layers]
    prev = sum(float(np.sum(w * w)) for w in layers)
    for _ in range(norms._BALANCE_MAX_SWEEPS):
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
        if prev - cur <= norms._BALANCE_TOL * max(prev, 1e-300):
            break
        prev = cur
    return NetParams(tuple(layers))


class TestBalanceRelu:
    def test_equals_neuron_by_neuron(self):
        """Seeded nets of depth 2-4 and widths 1-8, with entries scaled by
        1e-3 to 1e3 and zeroed entries, rows and columns: the same bits as
        rescaling one neuron at a time, signs of zeros included."""
        rng = np.random.default_rng(13)
        for _ in range(200):
            widths = tuple(rng.integers(1, 9, size=rng.integers(1, 4)))
            layers = [np.array(w) for w in random_net(rng, widths, int(rng.integers(1, 4))).layers]
            for w in layers:
                w *= 10.0 ** rng.uniform(-3.0, 3.0, size=w.shape)
                w[rng.random(w.shape) < 0.15] = 0.0
                if rng.random() < 0.3:
                    w[rng.integers(w.shape[0])] = -0.0
                if rng.random() < 0.3:
                    w[:, rng.integers(w.shape[1])] = 0.0
            net = NetParams.from_arrays(layers)
            got = norms.balance_relu(net, ActivationSpec.relu())
            ref = balance_relu_neuron_by_neuron(net)
            for g, r in zip(got.layers, ref.layers, strict=True):
                assert g.tobytes() == r.tobytes()

    def test_two_layer_closed_form(self):
        """|a| = ||w||_2 = sqrt(2) after balancing; weight decay = 2 nu."""
        p = NetParams.from_arrays([np.array([[0.3, 0.4]]), np.array([[4.0]])])
        b = norms.balance_relu(p, ActivationSpec.relu())
        assert np.linalg.norm(b.layers[0]) == pytest.approx(np.sqrt(2), rel=1e-12)
        assert abs(b.layers[1][0, 0]) == pytest.approx(np.sqrt(2), rel=1e-12)
        assert norms.weight_decay_norm(b) == pytest.approx(4.0, rel=1e-12)
        assert norms.weight_decay_norm(b) == pytest.approx(
            2 * norms.pesv_norm(b), rel=1e-12
        )

    def test_fixed_point_returned_unchanged(self):
        p = NetParams.from_arrays(
            [np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[1.0, -1.0]])]
        )
        b = norms.balance_relu(p, ActivationSpec.relu())
        for a, c in zip(p.layers, b.layers):
            assert np.max(np.abs(a - c)) <= 1e-12

    def test_three_layer_outputs_and_decay(self):
        rng = np.random.default_rng(9)
        act = ActivationSpec.relu()
        p = random_net(rng, (4, 3), 2)
        b = norms.balance_relu(p, act)
        x = rng.normal(size=(200, 3))
        f0, f1 = nc.forward(p, act, x), nc.forward(b, act, x)
        assert np.max(np.abs(f0 - f1)) <= 1e-9 * max(1.0, np.max(np.abs(f0)))
        assert norms.weight_decay_norm(b) <= norms.weight_decay_norm(p) + 1e-12

    def test_two_layer_decay_equals_twice_pesv(self):
        rng = np.random.default_rng(10)
        for seed in range(5):
            p = random_net(np.random.default_rng(seed), (6,), 3)
            b = norms.balance_relu(p, ActivationSpec.relu())
            assert norms.weight_decay_norm(b) == pytest.approx(
                2 * norms.pesv_norm(b), rel=1e-9
            )

    def test_balance_minimizes_over_sampled_rescalings(self):
        """No random per-neuron rescaling beats the balanced weight decay."""
        rng = np.random.default_rng(11)
        p = random_net(rng, (3, 3), 2)
        b = norms.balance_relu(p, ActivationSpec.relu())
        wd_bal = norms.weight_decay_norm(b)
        for _ in range(200):
            q = p
            for layer, width in ((1, 3), (2, 3)):
                for j in range(width):
                    q = norms.rescale_neuron(q, layer, j, float(rng.uniform(0.2, 5.0)))
            assert norms.weight_decay_norm(q) >= wd_bal - 1e-9

    def test_max_norm_canonical_rescaling_two_layer(self):
        """Per-neuron rescaling to common row norm sqrt(nu) puts the mixed
        max norm at exactly sqrt(nu) on a hand-built depth-2 net."""
        p = NetParams.from_arrays(
            [np.array([[3.0, 4.0], [0.0, 5.0]]), np.array([[2.0, -3.0]])]
        )
        nu = norms.pesv_norm(p)  # 25
        t = np.sqrt(nu)
        q = p
        for j in range(2):
            row_norm = np.linalg.norm(q.layers[0][j])
            q = norms.rescale_neuron(q, 1, j, t / row_norm)
        assert norms.mixed_max_norm(q, 1, 2) == pytest.approx(t, rel=1e-12)
        assert norms.pesv_norm(q) == pytest.approx(nu, rel=1e-12)

    def test_result_pinned(self):
        """The stopping tolerance fixes these bits: at 1e-9 or 1e-11 the
        sweeps stop elsewhere."""
        rng = np.random.default_rng(12)
        p = NetParams.from_arrays([rng.standard_normal(s) for s in ((2, 2), (2, 2), (1, 2))])
        b = norms.balance_relu(p, ActivationSpec.relu())
        assert [[v.hex() for v in w.ravel()] for w in b.layers] == [
            ["-0x1.563f1b77522f9p-8", "0x1.99bc77c410d9ap-1", "0x1.8724f27b6f9fdp-1",
             "0x1.7dd8340e84b3fp-1"],
            ["0x1.c96b24c2ae601p-2", "-0x1.f9ec35d9e50cap-3", "-0x1.53f95a58868dfp-1",
             "-0x1.09e52032d27fdp+0"],
            ["-0x1.055a517042909p-1", "0x1.3b96835d3e419p+0"],
        ]

    def test_rejects_non_homogeneous(self):
        p = NetParams.from_arrays([np.ones((1, 2)), np.ones((1, 1))])
        tab = ActivationSpec.tabulated([-1.0, 0.0, 1.0], [0.0, 0.0, 0.9])
        with pytest.raises(UnsupportedActivationError):
            norms.balance_relu(p, tab)

    def test_dead_neuron_cleanup(self):
        """A neuron with zero incoming weights has its outgoing zeroed."""
        p = NetParams.from_arrays(
            [np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([[5.0, 1.0]])]
        )
        b = norms.balance_relu(p, ActivationSpec.relu())
        assert b.layers[1][0, 0] == 0.0
        x = np.random.default_rng(0).normal(size=(50, 2))
        act = ActivationSpec.relu()
        np.testing.assert_allclose(
            nc.forward(b, act, x), nc.forward(p, act, x), rtol=1e-12, atol=1e-15
        )
