"""Network evaluation, gradients, and structural transforms."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings, strategies as st
from hypothesis.extra import numpy as hnp

from pesvlab import netcore as nc
from pesvlab.netcore import (
    ActivationSpec,
    BiasedNet,
    NetParams,
    UnsupportedActivationError,
    WidthVector,
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

    def test_leaky_requires_positive_slope(self):
        with pytest.raises(ValueError):
            ActivationSpec.leaky_relu(-0.2)

    def test_derivative_convention_at_kink(self):
        assert ActivationSpec.relu().derivative(0.0) == 0.0
        assert ActivationSpec.leaky_relu(0.3).derivative(0.0) == 0.3


class TestWidthVector:
    def test_max_min(self):
        wv = WidthVector((3, 1, 5))
        assert wv.m == 5 and wv.b == 1 and len(wv) == 3

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            WidthVector((0, 2))
        with pytest.raises(ValueError):
            WidthVector(())


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


class TestBackprop:
    def test_zero_weights_zero_gradient(self):
        p = NetParams.from_arrays([np.zeros((2, 3)), np.zeros((1, 2))])
        grads = nc.backprop(p, ActivationSpec.relu(), np.ones((4, 3)), np.ones(4))
        for g in grads:
            assert np.all(g == 0.0)

    def test_linear_model_gradient(self):
        p = NetParams.from_arrays([np.array([[1.0, 0.0]]), np.array([[1.0]])])
        g = nc.backprop(p, ActivationSpec.identity(), np.array([[3.0, 1.0]]), [1.0])
        np.testing.assert_allclose(g[1], [[3.0]])
        np.testing.assert_allclose(g[0], [[3.0, 1.0]])

    @pytest.mark.parametrize("kind", ["relu", "leaky", "identity", "tabulated"])
    def test_matches_central_differences(self, kind):
        """Finite-difference oracle away from activation kinks."""
        acts = {
            "relu": ActivationSpec.relu(),
            "leaky": ActivationSpec.leaky_relu(0.1),
            "identity": ActivationSpec.identity(),
            "tabulated": ActivationSpec.tabulated(
                [-6.0, -0.5, 0.5, 6.0], [-1.2, -0.1, 0.4, 4.0]
            ),
        }
        act = acts[kind]
        rng = np.random.default_rng(7)
        layers = [rng.normal(size=(3, 4)), rng.normal(size=(2, 3)), rng.normal(size=(1, 2))]
        X = rng.normal(size=(6, 4)) * 0.7
        u = rng.normal(size=6)
        # keep every preactivation clear of kinks at step 1e-4
        p = NetParams.from_arrays(layers)
        h = X
        for w in layers[:-1]:
            z = h @ w.T
            assert np.min(np.abs(z)) > 1e-2
            h = act(z)
        grads = nc.backprop(p, act, X, u)
        eps = 1e-4
        for li in range(len(layers)):
            for i in range(layers[li].shape[0]):
                for j in range(layers[li].shape[1]):
                    hi = [w.copy() for w in layers]
                    lo = [w.copy() for w in layers]
                    hi[li][i, j] += eps
                    lo[li][i, j] -= eps
                    fd = (
                        float(u @ nc.forward(hi, act, X))
                        - float(u @ nc.forward(lo, act, X))
                    ) / (2 * eps)
                    assert abs(fd - grads[li][i, j]) <= 1e-5 * max(abs(fd), 1.0)

    def test_tabulated_without_derivative_unsupported(self):
        act = ActivationSpec.tabulated([-1.0, 1.0], [0.0, 1.0], differentiable=False)
        p = NetParams.from_arrays([np.ones((1, 2)), np.ones((1, 1))])
        with pytest.raises(UnsupportedActivationError):
            nc.backprop(p, act, np.ones((1, 2)), [1.0])


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
        assert p2.width_vector.widths == (4,)
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
        assert p2.width_vector.widths == (4, 3)
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
        assert p.width_vector.widths == tuple(h + c for h, c in zip(hidden, carriers))
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
        assert p2.width_vector.widths == tuple(w + 1 for w in widths)
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
        assert nc.max_nondecreasing_component(widths).widths == expect

    def test_maximality_exhaustive(self):
        """Against brute force over every nondecreasing minorant, for all
        width vectors of length <= 4 with entries <= 5."""
        for length in (1, 2, 3, 4):
            for widths in itertools.product(range(1, 6), repeat=length):
                up = nc.max_nondecreasing_component(widths).widths
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
