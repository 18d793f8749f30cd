"""Closed-form bound evaluations and the double-descent curve."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pesvlab import erm, theory
from pesvlab.theory import BoundConfig

from test_norms import DERANDOMIZED


def relu_cfg(**over):
    base = dict(n=1e4, d=1, L=2, L_sigma=1.0, sigma_eps=0.1, M=1.0, c=1.0, C=1.0, C1=1.0)
    base.update(over)
    return BoundConfig(**base)


class TestHOfM:
    def test_depth_two_single_term(self):
        assert theory.h_of_m((4,), 1.0) == 0.5

    def test_depth_three_direct(self):
        expect = math.sqrt(5) / 2 + 1.0 / 3.0
        assert theory.h_of_m((4, 9), 1.0) == pytest.approx(expect, rel=1e-12)

    def test_depth_three_with_reordering(self):
        """(9, 4) collapses to (4, 4) before the sum."""
        expect = math.sqrt(5) / 2 + 1.0 / 2.0
        assert theory.h_of_m((9, 4), 1.0) == pytest.approx(expect, rel=1e-12)

    def test_elementwise_monotone(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = rng.integers(1, 20, size=3)
            b = a + rng.integers(0, 5, size=3)
            assert theory.h_of_m(tuple(b), 1.3) <= theory.h_of_m(tuple(a), 1.3) + 1e-12


class TestApproxBounds:
    def test_l2_direct(self):
        assert theory.approx_bound_l2((4,), 1.0, R=1.0, M=1.0) == 1.5

    def test_l2_zero_target(self):
        assert theory.approx_bound_l2((4,), 1.0, R=1.0, M=0.0) == 0.0

    def test_l2_linear_in_norm(self):
        one = theory.approx_bound_l2((3, 5), 1.2, R=2.0, M=1.0)
        assert theory.approx_bound_l2((3, 5), 1.2, R=2.0, M=2.0) == pytest.approx(
            2 * one, rel=1e-12
        )

    def test_inf_relu_direct(self):
        expect = 1.0 / (9 * (math.log(165) / math.log(3) - 4))
        got = theory.approx_bound_inf_relu(21, 165, 1, 1.0, 1.0)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_inf_relu_zero_norm(self):
        assert theory.approx_bound_inf_relu(25, 200, 2, 0.0) == 0.0

    def test_inf_relu_decreasing_in_depth(self):
        vals = [theory.approx_bound_inf_relu(L, 200, 2, 1.0) for L in (21, 30, 60)]
        assert vals[0] > vals[1] > vals[2]

    def test_inf_relu_preconditions(self):
        with pytest.raises(ValueError):
            theory.approx_bound_inf_relu(20, 200, 1, 1.0)
        with pytest.raises(ValueError):
            theory.approx_bound_inf_relu(30, 162, 1, 1.0)


class TestMetricEntropy:
    def test_direct(self):
        assert theory.metric_entropy_bound(1.0, (2,), 2, 1.0) == pytest.approx(
            6 * math.log(5), rel=1e-12
        )

    def test_vanishes_as_delta_grows(self):
        assert theory.metric_entropy_bound(1e9, (2,), 2, 1.0) == pytest.approx(
            0.0, abs=1e-7
        )

    def test_monotone_in_delta(self):
        a = theory.metric_entropy_bound(0.5, (3, 2), 2, 1.0)
        b = theory.metric_entropy_bound(0.25, (3, 2), 2, 1.0)
        assert b > a


class TestRademacherBound:
    def test_direct(self):
        assert theory.rademacher_bound((1,), 1.0, 4, 100, 1.0) == 40.0

    def test_zero_radius(self):
        assert theory.rademacher_bound((8,), 0.0, 2, 64, 1.0) == 0.0

    def test_linear_in_radius(self):
        one = theory.rademacher_bound((8,), 1.0, 2, 64, 1.0)
        assert theory.rademacher_bound((8,), 2.0, 2, 64, 1.0) == 2 * one


class TestDeltaN:
    def test_direct(self):
        expect = 4 * 9 * 2 * math.log(1000) / 1000
        assert theory.delta_n(1000, 2, (3, 3), 1.0) == pytest.approx(expect, rel=1e-12)

    def test_half_lipschitz(self):
        assert theory.delta_n(math.e**2, 1, (1,), 0.5) == pytest.approx(
            2 / math.e**2, rel=1e-12
        )

    def test_linear_in_dimension(self):
        one = theory.delta_n(500, 3, (4,), 1.0)
        assert theory.delta_n(500, 6, (4,), 1.0) == pytest.approx(2 * one, rel=1e-12)


class TestLambdas:
    def test_overparam_small_d(self):
        cfg = BoundConfig(n=math.e, d=1, L=2, sigma_eps=1.0)
        assert theory.lambda_overparam(cfg) == pytest.approx(
            6 / math.sqrt(math.e), rel=1e-12
        )

    def test_overparam_zero_noise(self):
        assert theory.lambda_overparam(relu_cfg(sigma_eps=0.0)) == 0.0

    def test_overparam_dimension_branch(self):
        """d = 100 activates the 2^L c sqrt(d) = 40 branch over 6."""
        cfg = BoundConfig(n=math.e, d=100, L=2, sigma_eps=1.0)
        assert theory.lambda_overparam(cfg) == pytest.approx(
            40 / math.sqrt(math.e), rel=1e-12
        )

    def test_underparam_h_dominant(self):
        cfg = BoundConfig(n=1e6, d=1, L=2, sigma_eps=1.0)
        assert theory.lambda_underparam(cfg, (1,)) == 1.0

    def test_underparam_zero_noise(self):
        assert theory.lambda_underparam(relu_cfg(sigma_eps=0.0), (4,)) == 0.0

    def test_underparam_rate_dominant(self):
        cfg = BoundConfig(n=1000, d=10, L=2, sigma_eps=1.0)
        expect = 2 * 100 * 10 * math.log(1000) / 1000
        assert theory.lambda_underparam(cfg, (100,)) == pytest.approx(expect, rel=1e-12)


class TestGenBounds:
    def test_over_direct(self):
        cfg = relu_cfg(sigma_eps=0.0)
        rep = theory.gen_bound_over(cfg, (4,))
        expect = 0.25 + 12.0 * math.sqrt(math.log(1e4) / 1e4)
        assert rep.total == pytest.approx(expect, rel=1e-10)
        assert rep.regime == "over"
        assert rep.regime_condition is True

    def test_over_zero_signal(self):
        rep = theory.gen_bound_over(relu_cfg(sigma_eps=0.0, M=0.0), (4,))
        assert rep.total == 0.0

    def test_over_bias_monotone_in_width(self):
        cfg = relu_cfg()
        wide = theory.gen_bound_over(cfg, (16,))
        narrow = theory.gen_bound_over(cfg, (4,))
        assert wide.bias_term <= narrow.bias_term
        assert wide.variance_term == narrow.variance_term

    def test_under_direct(self):
        cfg = relu_cfg(sigma_eps=0.0)
        rep = theory.gen_bound_under(cfg, (4,))
        expect = 0.25 + 4 * math.log(1e4) / 1e4
        assert rep.total == pytest.approx(expect, rel=1e-10)

    def test_under_linear_in_count_and_dimension(self):
        cfg = relu_cfg()
        v1 = theory.gen_bound_under(cfg, (5,)).variance_term
        v2 = theory.gen_bound_under(cfg, (10,)).variance_term
        assert v2 == pytest.approx(2 * v1, rel=1e-12)
        cfg3 = relu_cfg(d=3)
        v3 = theory.gen_bound_under(cfg3, (5,)).variance_term
        assert v3 == pytest.approx(3 * v1, rel=1e-12)

    def test_encompassing_anchor_33(self):
        cfg = relu_cfg()
        rep = theory.gen_bound_encompassing(cfg, (33,))
        expect = 1 / 33 + 1.01 * min(
            12 * math.sqrt(math.log(1e4) / 1e4), 33 * math.log(1e4) / 1e4
        )
        assert rep.total == pytest.approx(expect, rel=1e-12)
        assert rep.regime == "under"

    def test_encompassing_anchor_400(self):
        rep = theory.gen_bound_encompassing(relu_cfg(), (400,))
        assert rep.total == pytest.approx(0.37033, abs=5e-5)
        assert rep.regime == "over"

    def test_encompassing_cap_from_above(self):
        """Very wide networks approach the cap from above."""
        cap = 1.01 * 12 * math.sqrt(math.log(1e4) / 1e4)
        rep = theory.gen_bound_encompassing(relu_cfg(), (10**6,))
        assert cap < rep.total < cap + 1e-5

    def test_encompassing_is_exact_min(self):
        """Bit-level equality with min(over, under) on an (n, width) grid."""
        for n in (100, 316, 1000, 5000, 2e4, 1e5, 3e5, 1e6, 55, 77):
            for m in (1, 2, 5, 12, 30, 80, 200, 500, 1300, 4000):
                cfg = relu_cfg(n=n, sigma_eps=0.17, M=1.3)
                over = theory.gen_bound_over(cfg, (m,)).total
                under = theory.gen_bound_under(cfg, (m,)).total
                enc = theory.gen_bound_encompassing(cfg, (m,)).total
                assert enc == min(over, under)

    def test_lambda_is_max_of_schedules(self):
        cfg = relu_cfg()
        rep = theory.gen_bound_encompassing(cfg, (33,))
        assert rep.lambda_used == max(
            theory.lambda_overparam(cfg), theory.lambda_underparam(cfg, (33,))
        )

    def test_width_vector_length_checked(self):
        with pytest.raises(ValueError):
            theory.gen_bound_over(relu_cfg(), (4, 4))

    def test_outputs_finite_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            cfg = BoundConfig(
                n=float(rng.uniform(2, 1e6)),
                d=int(rng.integers(1, 20)),
                L=int(rng.integers(2, 5)),
                L_sigma=float(rng.uniform(0.3, 2.0)),
                sigma_eps=float(rng.uniform(0, 2)),
                M=float(rng.uniform(0, 3)),
            )
            widths = tuple(int(v) for v in rng.integers(1, 50, size=cfg.L - 1))
            for rep in (
                theory.gen_bound_over(cfg, widths),
                theory.gen_bound_under(cfg, widths),
                theory.gen_bound_encompassing(cfg, widths),
            ):
                assert math.isfinite(rep.total)
                assert rep.bias_term >= 0 and rep.variance_term >= 0
                assert rep.total == cfg.C * (rep.bias_term + rep.variance_term)


class TestEncompassingProperty:
    @DERANDOMIZED
    @given(
        st.lists(st.integers(1, 5000), min_size=1, max_size=4),
        st.floats(2.0, 1e7),
        st.integers(1, 6),
        st.floats(0.5, 2.0),
        st.floats(0.0, 2.0),
        st.floats(0.0, 3.0),
    )
    def test_total_is_min_of_regimes(self, widths, n, d, lip, sigma, M):
        cfg = BoundConfig(n=n, d=d, L=len(widths) + 1, L_sigma=lip, sigma_eps=sigma, M=M)
        over = theory.gen_bound_over(cfg, widths).total
        under = theory.gen_bound_under(cfg, widths).total
        assert theory.gen_bound_encompassing(cfg, widths).total == min(over, under)


class TestGeneralLossBound:
    def loss(self):
        # half squared error with unit working range: L0 = 2sqrt2, L1y = sqrt2
        return erm.LossSpec("mse", 1.0, 1.0, 0.0, 1.0, 1.0)

    def test_direct(self):
        """With L0 = L1y = 1 and B = 0 the variance factor is max{12,16}=16."""
        cfg = relu_cfg()
        rep = theory.gen_bound_general_loss(cfg, self.loss(), (4,), T=3.0)
        lognn = math.log(1e4) / 1e4
        expect = 0.5 + 1.01 * min(16 * math.sqrt(lognn), 4 * lognn)
        assert rep.total == pytest.approx(expect, rel=1e-12)

    def test_zero_everything(self):
        cfg = relu_cfg(sigma_eps=0.0, M=0.0)
        rep = theory.gen_bound_general_loss(cfg, self.loss(), (4,), T=2.0)
        assert rep.total == 0.0

    def test_linear_in_second_derivative_bound(self):
        """Raising B by db raises the total by exactly 2*T*db*C."""
        cfg = relu_cfg(C=1.7)
        l0 = erm.LossSpec("mse", 1.0, 1.0, 0.0, 1.0, 1.0)
        l1 = erm.LossSpec("mse", 1.0, 1.0, 0.25, 1.0, 1.0)
        t0 = theory.gen_bound_general_loss(cfg, l0, (4,), T=3.0).total
        t1 = theory.gen_bound_general_loss(cfg, l1, (4,), T=3.0).total
        assert t1 - t0 == pytest.approx(2 * 3.0 * 0.25 * 1.7, rel=1e-12)

    def test_first_power_bias(self):
        cfg = relu_cfg()
        rep = theory.gen_bound_general_loss(cfg, self.loss(), (4,), T=1.0)
        assert rep.bias_term == pytest.approx(0.5, rel=1e-12)  # H * M, not H^2 M^2


class TestLowerBoundShape:
    def test_direct(self):
        assert theory.lower_bound_shape(math.e, 1.0) == pytest.approx(
            math.exp(-0.5), rel=1e-12
        )

    def test_zero_constant(self):
        assert theory.lower_bound_shape(100, 0.0) == 0.0

    def test_strictly_decreasing(self):
        vals = [theory.lower_bound_shape(n) for n in (2, 10, 100, 1000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestDoubleDescentSweep:
    def test_documented_relu_curve(self):
        """Grid-scan oracle: recompute totals from raw formulas and locate
        the interior extrema independently."""
        cfg = relu_cfg()
        res = theory.double_descent_sweep(cfg, range(1, 1001))
        lognn = math.log(1e4) / 1e4
        totals = [
            1 / m + 1.01 * min(12 * math.sqrt(lognn), m * lognn)
            for m in range(1, 1001)
        ]
        np.testing.assert_allclose(res.totals(), totals, rtol=1e-12)
        mins = [
            m
            for i, m in enumerate(range(2, 1000), start=1)
            if totals[i] < totals[i - 1] and totals[i] < totals[i + 1]
        ]
        maxs = [
            m
            for i, m in enumerate(range(2, 1000), start=1)
            if totals[i] > totals[i - 1] and totals[i] > totals[i + 1]
        ]
        assert list(res.minima) == mins == [33]
        assert list(res.maxima) == maxs == [396]
        assert res.switch_width == 396

    def test_finite_difference_sign_pattern(self):
        """(- ... -, + ... +, - ... -) with exactly one interior max."""
        res = theory.double_descent_sweep(relu_cfg(), range(1, 1001))
        diffs = np.diff(res.totals())
        sign_changes = np.sum(np.diff(np.sign(diffs)) != 0)
        assert sign_changes == 2
        assert np.all(diffs[:10] < 0) and np.all(diffs[50:300] > 0)
        assert np.all(diffs[450:] <= 0)

    def test_flat_zero_curve(self):
        res = theory.double_descent_sweep(
            relu_cfg(sigma_eps=0.0, M=0.0), range(1, 200)
        )
        assert all(t == 0.0 for t in res.totals())
        assert res.minima == () and res.maxima == ()

    def test_monotone_when_cap_binds_immediately(self):
        """n = 2, d = 200 puts the variance cap in force from width 1, so the
        total is bias-driven and strictly decreasing: no interior max."""
        cfg = relu_cfg(n=2, d=200, sigma_eps=0.3)
        assert theory._var_over(cfg) <= theory._var_under(cfg, (1,))
        res = theory.double_descent_sweep(cfg, range(1, 300))
        diffs = np.diff(res.totals())
        assert np.all(diffs <= 0)
        assert res.maxima == ()

    def test_eventually_nonincreasing(self):
        res = theory.double_descent_sweep(relu_cfg(), range(1, 1001))
        start = res.widths.index(res.switch_width)
        diffs = np.diff(res.totals()[start:])
        assert np.all(diffs <= 0)

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            theory.double_descent_sweep(relu_cfg(), [])
        with pytest.raises(ValueError):
            theory.double_descent_sweep(relu_cfg(), [5, 3, 1])

    def test_pattern_scaling(self):
        cfg = relu_cfg(L=3)
        res = theory.double_descent_sweep(cfg, [2, 4], pattern=(1, 2))
        direct = theory.gen_bound_encompassing(cfg, (2, 4)).total
        assert res.totals()[0] == direct

    @pytest.mark.parametrize(
        "cfg, pattern",
        [
            (relu_cfg(), (1,)),
            (relu_cfg(L=3, n=500, d=3, L_sigma=1.3, sigma_eps=0.4, M=2.0, C=1.5, C1=0.3), (2, 1)),
        ],
    )
    def test_reports_equal_encompassing_at_each_width(self, cfg, pattern):
        """Every report equals the encompassing bound at its width vector, the
        switch is the first width with ``var_over <= var_under``, and each
        report owns its constants."""
        widths = range(1, 401)
        res = theory.double_descent_sweep(cfg, widths, pattern)
        for w, rep in zip(widths, res.reports):
            wv = tuple(w * p for p in pattern)
            assert rep == theory.gen_bound_encompassing(cfg, wv)
        switch = next(
            (w for w in widths
             if theory._var_over(cfg) <= theory._var_under(cfg, tuple(w * p for p in pattern))),
            None,
        )
        assert switch is not None and res.switch_width == switch
        res.reports[0].constants["n"] = -1.0
        assert all(rep.constants == cfg.as_dict() for rep in res.reports[1:])


class TestBoundConfigValidation:
    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            BoundConfig(n=1, d=1, L=2)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            BoundConfig(n=100, d=1, L=2, sigma_eps=-0.1)

    def test_d_sigma(self):
        assert BoundConfig(n=100, d=1, L=3, L_sigma=2.0).D_sigma == 8.0


class TestReportSerialization:
    def test_constants_echoed(self):
        rep = theory.gen_bound_encompassing(relu_cfg(), (33,))
        d = rep.as_dict()
        assert d["constants"]["n"] == 1e4
        assert d["constants"]["C1"] == 1.0
        text = theory.report_to_json(rep)
        assert '"total"' in text and '"lambda"' in text
