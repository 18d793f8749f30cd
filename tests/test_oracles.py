"""Brute-force and Monte Carlo verification oracles."""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pesvlab import erm, norms, oracles, theory
from pesvlab import netcore as nc
from pesvlab.netcore import ActivationSpec, NetParams, UnsupportedActivationError
from pesvlab.oracles import InconsistencyError

RELU = ActivationSpec.relu()


class TestLemma1:
    def test_m_equals_n_equals_2(self):
        """Exact hand sum (1/4)(2*1 + 1*1/2) = 0.625 for both averages."""
        r = oracles.lemma1_exact(2, 2)
        assert r.lhs1 == 0.625 and r.lhs2 == 0.625
        assert r.bound == 2.5 and r.passed

    def test_m2_n3_exact_fraction(self):
        """(1/8)(3 + 3/2 + 1/3) = 29/48."""
        r = oracles.lemma1_exact(2, 3)
        assert r.lhs1 == pytest.approx(float(Fraction(29, 48)), rel=0, abs=0)
        assert r.passed

    def test_scan_small(self):
        ok, worst = oracles.lemma1_scan(20)
        assert ok and worst < 1.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            oracles.lemma1_exact(5, 4)
        with pytest.raises(ValueError):
            oracles.lemma1_exact(1, 4)

    @pytest.mark.parametrize("m, n", [(2.5, 3), (2, 3.0), ("2", 3)])
    def test_rejects_non_integer_m_or_n(self, m, n):
        with pytest.raises(ValueError, match="m and n must be integers"):
            oracles.lemma1_exact(m, n)

    def test_numpy_integers_are_exact(self):
        """``m ** n`` of numpy int64 values would wrap around; the arguments
        are taken as Python ints."""
        r = oracles.lemma1_exact(np.int64(30), np.int64(40))
        assert r == oracles.lemma1_exact(30, 40) and type(r.m) is int

    def test_printed_variant_is_false(self):
        """The k-exponent on the 1/(n-k) weight makes the average grow like
        m/n and break the 5/n bound; first counterexample (5, 10)."""
        m, n = 5, 10
        import math

        s = sum(
            Fraction(math.comb(n, k) * (m - 1) ** k, n - k) for k in range(0, n)
        ) / Fraction(m**n)
        assert s > Fraction(5, n)


class TestLemma2:
    def test_m2_n3_enumeration(self):
        """Compositions (1,2) and (2,1): (1/8)(3*1.5 + 3*1.5) = 9/8."""
        r = oracles.lemma2_exact(2, 3)
        assert r.lhs == 1.125
        assert r.lhs_enumeration == 1.125
        assert r.paths_agree and r.passed

    def test_m_equals_n_equals_2(self):
        """Single composition (1,1): (1/4)*2*2 = 1 <= 5."""
        r = oracles.lemma2_exact(2, 2)
        assert r.lhs == 1.0 and r.bound == 5.0 and r.passed

    def test_dual_paths_agree_exactly(self):
        ok, agree, worst = oracles.lemma2_scan(10)
        assert ok and agree and worst < 1.0

    def test_reduction_only_for_large_n(self):
        r = oracles.lemma2_exact(3, 20)
        assert r.lhs_enumeration is None and r.paths_agree is None

    def test_claim_fails_beyond_scoped_range(self):
        """The occupancy bound is false in general; (5, 14) exceeds it."""
        r = oracles.lemma2_exact(5, 14)
        assert not r.passed
        assert r.paths_agree  # the two computations still agree exactly

    def test_domain_error(self):
        with pytest.raises(ValueError):
            oracles.lemma2_exact(7, 6)

    def test_rejects_non_integer_n(self):
        with pytest.raises(ValueError, match="m and n must be integers"):
            oracles.lemma2_exact(2, 3.0)


def lemma1_per_term(m, n):
    """Both averages of lemma1_exact as one Fraction per term."""
    s1 = sum(Fraction(math.comb(n, k) * (m - 1) ** k, k) for k in range(1, n + 1))
    s2 = sum(Fraction(math.comb(n, k) * (m - 1) ** (n - k), n - k) for k in range(n))
    return s1 / m**n, s2 / m**n


def lemma2_per_term(m, n):
    """The reduction and the enumeration of lemma2_exact, one Fraction per term."""

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(1, total - parts + 2):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    def surjections(items, cells):
        if cells == 0:
            return 1 if items == 0 else 0
        return sum(
            (-1) ** i * math.comb(cells, i) * (cells - i) ** items for i in range(cells + 1)
        )

    red = sum(
        Fraction(math.comb(n, k) * surjections(n - k, m - 1), k) for k in range(1, n + 1)
    )
    enum = Fraction(0)
    for comp in compositions(n, m):
        mult = math.factorial(n)
        for k in comp:
            mult //= math.factorial(k)
        enum += mult * sum(Fraction(1, k) for k in comp)
    return Fraction(m) * red / m**n, enum / m**n


class TestLemmaCommonDenominator:
    """The integer sums over lcm(1..n) m^n equal per-term Fraction sums."""

    def test_lemma1_full_scan_range(self):
        for n in range(2, 41):
            for m in range(2, n + 1):
                r = oracles.lemma1_exact(m, n)
                lhs1, lhs2 = lemma1_per_term(m, n)
                bound = Fraction(5, n)
                assert (r.lhs1, r.lhs2) == (float(lhs1), float(lhs2)), (m, n)
                assert r.passed == (lhs1 <= bound and lhs2 <= bound)

    def test_lemma2_full_scan_range(self):
        for n in range(2, 13):
            for m in range(2, n + 1):
                r = oracles.lemma2_exact(m, n)
                red, enum = lemma2_per_term(m, n)
                assert red == enum
                assert (r.lhs_reduction, r.lhs_enumeration) == (float(red), float(enum))
                assert r.passed == (red <= Fraction(5 * m, n)) and r.paths_agree


class TestLemmaScansPinned:
    """The worst ratios of the scans at the sizes ``verify`` and the
    benchmark run."""

    def test_lemma1_scan_40(self):
        assert oracles.lemma1_scan(40) == (True, 0.47497395833333333)

    def test_lemma2_scan_12(self):
        assert oracles.lemma2_scan(12) == (True, True, 0.9064068310601371)


class TestMaurey:
    def test_single_atom_zero_error(self):
        # entries picked so that averaging m identical copies is exact
        atoms = np.array([[0.25, -0.75, 1.5]])
        for m in (1, 3, 9):
            r = oracles.maurey_sampling_check(atoms, [1.0], m=m, trials=50, seed=0)
            assert r.mean_sq_error == 0.0 and r.passed

    def test_orthogonal_pair_exact_half(self):
        """Every draw errs by ||(e1 - e2)/2||^2 = 1/2 exactly."""
        r = oracles.maurey_sampling_check(np.eye(2), [0.5, 0.5], m=1, trials=400, seed=1)
        assert r.mean_sq_error == 0.5
        assert r.radius == 1.0 and r.passed

    def test_error_scales_inversely_with_m(self):
        rng = np.random.default_rng(2)
        atoms = rng.standard_normal((10, 5))
        w = rng.random(10)
        w /= w.sum()
        means = {
            m: oracles.maurey_sampling_check(atoms, w, m=m, trials=6000, seed=m).mean_sq_error
            for m in (1, 2, 4, 16)
        }
        assert means[2] == pytest.approx(means[1] / 2, rel=0.25)  # halves
        assert means[4] == pytest.approx(means[1] / 4, rel=0.25)
        assert means[16] == pytest.approx(means[1] / 16, rel=0.25)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            oracles.maurey_sampling_check(np.eye(2), [0.6, 0.6], m=1)


class TestRademacherMC:
    def inputs(self, n=32, d=2, seed=5):
        return erm.uniform_ball(np.random.default_rng(seed), n, d)

    def test_zero_radius_exactly_zero(self):
        r = oracles.rademacher_mc((4,), 0.0, self.inputs(), trials=5, n_starts=2,
                                  inner_steps=10, seed=0)
        assert r.estimate == 0.0 and r.bound == 0.0

    def test_exact_linearity_in_radius(self):
        """Paired seeds: doubling the class radius doubles the estimate."""
        kw = dict(trials=10, n_starts=4, inner_steps=40, seed=3)
        a = oracles.rademacher_mc((4,), 1.0, self.inputs(), **kw)
        b = oracles.rademacher_mc((4,), 2.0, self.inputs(), **kw)
        assert b.estimate == 2.0 * a.estimate

    def test_estimate_below_bound(self):
        r = oracles.rademacher_mc((8,), 1.0, self.inputs(64), trials=30, n_starts=8,
                                  inner_steps=60, seed=7)
        assert r.passed and r.estimate <= r.bound
        assert r.c_hat > 0

    def test_rejects_inputs_outside_ball(self):
        with pytest.raises(ValueError):
            oracles.rademacher_mc((4,), 1.0, np.full((8, 2), 2.0), trials=2)

    @pytest.mark.parametrize("widths", [(8,), (5, 3)])
    def test_keeps_the_callers_inputs(self, monkeypatch, widths):
        """The caller's own float64 array is every pass's ``hs[0]``, and the
        backward passes, which write their deltas over ``hs[1:]``, leave it
        as it was; a read-only one gives the same result."""
        X = self.inputs(16)
        before = X.copy()
        seen = []

        class Recording(nc.StackedPass):
            def backprop(self):
                seen.append(self.hs[0] is X)
                return super().backprop()

        monkeypatch.setattr(oracles, "StackedPass", Recording)
        kw = dict(trials=3, n_starts=4, inner_steps=5, seed=1)
        r = oracles.rademacher_mc(widths, 1.0, X, **kw)
        assert seen and all(seen)
        assert X.tobytes() == before.tobytes()
        X.flags.writeable = False
        assert oracles.rademacher_mc(widths, 1.0, X, **kw) == r

    @pytest.mark.parametrize(
        "widths, kw, estimate, stderr",
        [
            ((6,), dict(trials=4, n_starts=5, inner_steps=15, seed=3),
             3.3520372160582195, 0.3404157667508435),
            ((4, 3), dict(trials=2, n_starts=3, inner_steps=10, seed=1),
             1.314663626178847, 0.26743436399368503),
        ],
    )
    def test_pinned_estimate(self, widths, kw, estimate, stderr):
        """Values of the one-start-at-a-time ascent this batched one replaced."""
        r = oracles.rademacher_mc(widths, 1.0, self.inputs(24), **kw)
        assert (r.estimate, r.stderr) == (estimate, stderr)

    @pytest.mark.parametrize(
        "kw, match",
        [
            (dict(trials=0), "trials"),
            (dict(n_starts=0), "n_starts"),
            (dict(inner_steps=-1), "inner_steps"),
            (dict(inputs=np.zeros((0, 2))), "inputs"),
            (dict(inputs=np.zeros(2)), "inputs"),
            (dict(F=-1.0), "F"),
            (dict(F=math.inf), "F"),
            (dict(F=math.nan), "F"),
            (dict(inputs=np.array([[0.1, 0.2], [math.nan, 0.0]] * 4)), "inputs"),
        ],
        ids=["trials=0", "n_starts=0", "inner_steps=-1", "no-inputs", "1-d-inputs", "F=-1",
             "F=inf", "F=nan", "nan-inputs"],
    )
    def test_rejects_bad_arguments(self, monkeypatch, kw, match):
        """Rejected before the ascent: no net is drawn."""
        monkeypatch.setattr(oracles, "random_unit_norm_nets", None)
        args = dict(F=1.0, inputs=self.inputs(), trials=2, n_starts=2, inner_steps=5) | kw
        with pytest.raises(ValueError, match=match):
            oracles.rademacher_mc((4,), **args)

    @pytest.mark.parametrize(
        "widths, n, d, kw",
        [
            *[((8,), 64, 2, dict(trials=t, n_starts=16, inner_steps=20, seed=t))
              for t in (1, 2, 3, 5)],
            ((4, 3), 24, 2, dict(trials=4, n_starts=3, inner_steps=10, seed=1)),
            ((8,), 64, 2, dict(trials=3, n_starts=1, inner_steps=20, seed=2)),
            ((6,), 32, 2, dict(trials=3, n_starts=4, inner_steps=20, seed=4,
                               act=ActivationSpec.leaky_relu(0.1))),
            # 16 starts x 64 points x 8 units = 2^13 values a trial: 8 trials
            # fill a block of 2^16, and a 9th starts a second block
            ((8,), 64, 2, dict(trials=8, n_starts=16, inner_steps=10, seed=5)),
            ((8,), 64, 2, dict(trials=9, n_starts=16, inner_steps=10, seed=5)),
            # one trial of 128 starts is exactly 2^16 values, of 129 above it:
            # one trial per block either way
            ((8,), 64, 2, dict(trials=2, n_starts=128, inner_steps=5, seed=6)),
            ((8,), 64, 2, dict(trials=2, n_starts=129, inner_steps=5, seed=6)),
            # shapes where a per-start product is a matrix-vector one
            ((3, 5, 2), 24, 2, dict(trials=3, n_starts=6, inner_steps=10, seed=7)),
            ((6, 1), 32, 2, dict(trials=3, n_starts=5, inner_steps=10, seed=8)),
            ((1,), 32, 2, dict(trials=3, n_starts=5, inner_steps=10, seed=9)),
            ((8,), 64, 1, dict(trials=2, n_starts=16, inner_steps=10, seed=10)),
            ((4, 3), 24, 3, dict(trials=2, n_starts=6, inner_steps=10, seed=11)),
            # 49 starts x width 4: a first layer of 196 columns, 4 past a multiple of 8
            ((4,), 32, 2, dict(trials=1, n_starts=49, inner_steps=5, seed=12)),
        ],
        ids=["1-trial", "2-trials", "3-trials", "5-trials", "depth-3", "1-start",
             "leaky-relu", "full-block", "full-block-and-1", "trial-at-block",
             "trial-above-block", "depth-4-last-width-2", "last-width-1", "first-width-1",
             "input-dim-1", "input-dim-3", "first-layer-196-columns"],
    )
    def test_blocked_trials_equal_one_trial_at_a_time(self, widths, n, d, kw):
        r = oracles.rademacher_mc(widths, 1.0, self.inputs(n, d), **kw)
        ref = rademacher_mc_one_trial_at_a_time(widths, self.inputs(n, d), **kw)
        assert (r.estimate, r.stderr, r.c_hat) == ref

    @pytest.mark.parametrize(
        "widths, n, kw, blocks",
        [
            # the oracle_suite benchmark configuration: one block of 8 trials
            ((8,), 64, dict(trials=8, n_starts=16, inner_steps=120, seed=1), 1),
            # blocks of 31 trials: one full, one partial
            ((6,), 50, dict(trials=40, n_starts=7, inner_steps=10, seed=2), 2),
            ((5, 7, 3), 16, dict(trials=11, n_starts=5, inner_steps=10, seed=3), 1),
            # 129 starts: one trial per block, above the limit
            ((8,), 64, dict(trials=3, n_starts=129, inner_steps=2, seed=4), 3),
        ],
        ids=["oracle-suite", "partial-block", "depth-4", "trial-above-block"],
    )
    def test_blocks_stay_within_block_limit(self, monkeypatch, widths, n, kw, blocks):
        """Each stacked pass holds at most 2^16 values in any hidden layer
        unless one trial's starts hold more, a block runs one ascent of
        ``inner_steps + 1`` passes, and every pass of a block size writes
        into the one set of working arrays prepared for it."""
        hidden, addresses, sizes = [], set(), set()

        class Recording(nc.StackedPass):
            def forward(self):
                hidden.append(max(z.size for z in self.zs))
                addresses.add(tuple(z.ctypes.data for z in self.hs[1:] + self.zs))
                sizes.add(len(self.out))
                return super().forward()

        monkeypatch.setattr(oracles, "StackedPass", Recording)
        oracles.rademacher_mc(widths, 1.0, self.inputs(n), **kw)
        assert len(hidden) == blocks * (kw["inner_steps"] + 1)
        assert max(hidden) <= max(2**16, kw["n_starts"] * n * max(widths))
        assert len(addresses) == len(sizes)

    def test_warm_call_takes_few_page_faults(self, warm_call_faults):
        """A warm call at the oracle_suite configuration, one block of 128
        starts, in a fresh process.  With the buffers reused it takes about
        500 minor faults, mostly first touches of the buffers; allocating the
        hidden-layer arrays anew every step took about 27,000, because the
        allocator hands arrays of this size back to the kernel."""
        faults = warm_call_faults(
            "import numpy as np\n"
            "from pesvlab import erm, oracles\n"
            "X = erm.uniform_ball(np.random.default_rng(5), 64, 2)\n"
            "kw = dict(trials=8, n_starts=16, inner_steps=120, seed=1)",
            "oracles.rademacher_mc((8,), 1.0, X, **kw)",
        )
        assert faults < 2_000


def rademacher_mc_one_trial_at_a_time(
    widths, inputs, trials, n_starts, inner_steps, seed, step_size=0.5, act=RELU
):
    """The multi-start ascent one trial after another, before trials were
    blocked and before shared inputs were laid side by side: each start gets
    its own copy of the inputs, so the kernels take one product per start.
    Returns ``(estimate, stderr, c_hat)`` at radius 1."""
    X = np.asarray(inputs, dtype=np.float64)
    n, dim = X.shape
    per_start = np.broadcast_to(X, (n_starts, n, dim))
    wv = nc.WidthVector.of(widths)
    rng = np.random.default_rng(seed)
    per_trial = np.empty(trials)
    for t in range(trials):
        rho = rng.integers(0, 2, size=n) * 2.0 - 1.0
        arrs, _ = oracles.random_unit_norm_nets(rng, wv, dim, n_starts)
        best = 0.0
        for it in range(inner_steps + 1):
            out, hs, zs = nc.stacked_forward(arrs, act, per_start)
            best = max(best, float(np.max(rho @ out[..., None])))
            if it == inner_steps:
                break
            grads = nc.stacked_backprop(arrs, act, hs, zs, rho)
            gnorm = np.sqrt(sum(np.sum(g * g, axis=(1, 2)) for g in grads))
            step = step_size / math.sqrt(it + 1.0) / np.maximum(gnorm, 1e-12)
            for w, g in zip(arrs, grads):
                w += step[:, None, None] * g
            nu = norms.pesv_stacked(arrs)[:, None, None]
            np.divide(arrs[-1], nu, out=arrs[-1], where=nu > 1.0)
        per_trial[t] = best
    mean = float(per_trial.mean())
    se = float(per_trial.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    L = len(wv) + 1
    scale = 2.0 ** (L - 1) * act.lipschitz ** (L - 1) * math.sqrt(dim * n)
    return mean, se, mean / scale


class TestPacking:
    def test_everything_in_one_ball(self):
        """delta above twice the class sup-range packs a single function."""
        r = oracles.covering_packing_lower_bound((2,), delta=4.0, d=1,
                                                 param_samples=100, seed=0)
        assert r.packing_count == 1

    def test_documented_formula_value(self):
        """Packing at delta = 0.25 stays under exp(2 ln 33) = 33^2."""
        r = oracles.covering_packing_lower_bound((1,), delta=0.25, d=1,
                                                 param_samples=300, seed=0)
        assert np.exp(r.entropy_bound) == pytest.approx(33.0**2, rel=1e-9)
        assert r.packing_count <= 33**2 and r.passed

    def test_stable_across_seeds(self):
        for seed in range(10):
            r = oracles.covering_packing_lower_bound((2,), delta=0.5, d=1,
                                                     param_samples=150, seed=seed)
            assert r.passed


    # Packing counts the per-net forward and pairwise greedy loop gave at 60
    # samples, seed 3, for widths x delta x d under relu and leaky relu 0.1.
    PINNED_COUNTS = {
        "relu": {
            ((1,), 0.5, 1): 11, ((1,), 0.5, 2): 29, ((1,), 0.25, 1): 23, ((1,), 0.25, 2): 44,
            ((2,), 0.5, 1): 13, ((2,), 0.5, 2): 27, ((2,), 0.25, 1): 27, ((2,), 0.25, 2): 52,
            ((2, 2), 0.5, 1): 8, ((2, 2), 0.5, 2): 10, ((2, 2), 0.25, 1): 21,
            ((2, 2), 0.25, 2): 25,
        },
        "leaky_relu:0.1": {
            ((1,), 0.5, 1): 11, ((1,), 0.5, 2): 28, ((1,), 0.25, 1): 23, ((1,), 0.25, 2): 44,
            ((2,), 0.5, 1): 11, ((2,), 0.5, 2): 26, ((2,), 0.25, 1): 27, ((2,), 0.25, 2): 52,
            ((2, 2), 0.5, 1): 7, ((2, 2), 0.5, 2): 10, ((2, 2), 0.25, 1): 21,
            ((2, 2), 0.25, 2): 24,
        },
    }

    @pytest.mark.parametrize("act", sorted(PINNED_COUNTS))
    def test_pinned_counts(self, act):
        spec = ActivationSpec.parse(act)
        counts = {
            key: oracles.covering_packing_lower_bound(
                key[0], key[1], d=key[2], param_samples=60, seed=3, act=spec
            ).packing_count
            for key in self.PINNED_COUNTS[act]
        }
        assert counts == self.PINNED_COUNTS[act]

    def test_no_samples_packs_nothing(self):
        r = oracles.covering_packing_lower_bound((2,), 0.5, d=1, param_samples=0)
        assert r.packing_count == 0 and r.passed

    @pytest.mark.parametrize("d", [0, -1, 4, 1.5])
    def test_rejects_d_outside_1_to_3(self, d):
        with pytest.raises(ValueError, match="d must be an integer from 1 to 3"):
            oracles.covering_packing_lower_bound((2,), 0.5, d=d)

    def test_rejects_negative_param_samples(self):
        with pytest.raises(ValueError, match="param_samples"):
            oracles.covering_packing_lower_bound((2,), 0.5, d=1, param_samples=-1)

    # The counts of the c08 grid, which ``verify entropy`` and the benchmark
    # run: widths (1,) then (2,), delta 0.5 then 0.25, seeds 0 to 19.
    C08_COUNTS = [
        15, 14, 16, 14, 15, 13, 15, 14, 13, 15, 15, 14, 15, 15, 14, 15, 16, 15, 16, 13,
        29, 30, 26, 27, 27, 29, 29, 28, 28, 27, 28, 27, 29, 29, 27, 30, 28, 28, 30, 26,
        15, 16, 13, 15, 14, 16, 15, 12, 15, 17, 15, 11, 13, 12, 14, 15, 14, 18, 16, 15,
        62, 54, 45, 55, 51, 54, 52, 42, 51, 50, 56, 49, 52, 50, 47, 53, 48, 50, 44, 50,
    ]

    def test_pinned_c08_counts(self):
        counts = [
            oracles.covering_packing_lower_bound(
                widths, delta, d=1, param_samples=200, seed=seed
            ).packing_count
            for widths in ((1,), (2,))
            for delta in (0.5, 0.25)
            for seed in range(20)
        ]
        assert counts == self.C08_COUNTS

    @pytest.mark.parametrize("delta", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_delta(self, delta):
        with pytest.raises(ValueError, match="delta"):
            oracles.covering_packing_lower_bound((2,), delta, d=1)

    @pytest.mark.parametrize("d, delta", [(1, 0.25), (1, 0.05), (2, 0.25)])
    @pytest.mark.parametrize("samples", [0, 1, 15, 16, 17, 200])
    def test_blocked_pass_equals_one_candidate_at_a_time(
        self, monkeypatch, d, delta, samples
    ):
        """The count equals the greedy loop's over the same network values;
        at 200 samples the kept set spans several blocks of 16, and for d = 2
        its ~10^4 grid points shrink the blocks below 16."""
        outputs = []
        real = oracles.stacked_forward

        def recording(layers, act, X):
            out = real(layers, act, X)
            outputs.append(out[0])
            return out

        monkeypatch.setattr(oracles, "stacked_forward", recording)
        r = oracles.covering_packing_lower_bound((2,), delta, d, param_samples=samples, seed=1)
        vals = np.concatenate(outputs) if outputs else np.empty((0, 1))
        assert len(vals) == samples
        count = greedy_packing_one_by_one(vals, delta)
        assert r.packing_count == count
        if samples == 200:
            assert count > 3 * 16


def greedy_packing_one_by_one(vals, delta):
    """Greedy packing one candidate at a time: keep a row of ``vals`` unless
    it is within ``delta`` in max norm of a kept row."""
    kept = np.empty_like(vals)
    count = 0
    for v in vals:
        if not (np.abs(kept[:count] - v).max(axis=1) <= delta).any():
            kept[count] = v
            count += 1
    return count


# Levels a quarter of DELTA apart: differences of exactly DELTA are common.
DELTA = 0.5
LEVELS = st.sampled_from([-0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0])


@st.composite
def packing_values(draw):
    """Up to 40 rows over 1 to 20 grid points, each a copy of one of up to
    three base rows with up to three entries changed, and at times one
    entry set to NaN."""
    grid = draw(st.integers(1, 20))
    bases = draw(st.lists(st.lists(LEVELS, min_size=grid, max_size=grid), min_size=1, max_size=3))
    rows = []
    for _ in range(draw(st.integers(0, 40))):
        row = list(draw(st.sampled_from(bases)))
        for col, value in draw(st.lists(st.tuples(st.integers(0, grid - 1), LEVELS), max_size=3)):
            row[col] = value
        rows.append(row)
    vals = np.array(rows, dtype=np.float64).reshape(len(rows), grid)
    if rows and draw(st.booleans()):
        vals[draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, grid - 1))] = math.nan
    return vals


def two_rows(grid, col, diff):
    """A zero row and a copy with ``diff`` at ``col``."""
    vals = np.zeros((2, grid))
    vals[1, col] = diff
    return vals


class TestScreenedPacking:
    """The screened greedy pass gives the count of the one-at-a-time loop.
    The screen reads every 8th grid point, so column 0 is on it and column
    3 is off it."""

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(packing_values())
    @example(np.empty((0, 9)))  # no candidates
    @example(np.zeros((1, 13)))
    @example(two_rows(9, 0, DELTA))  # a tie at delta on the screen
    @example(two_rows(9, 3, DELTA))  # a tie at delta off the screen
    @example(two_rows(13, 3, 2 * DELTA))  # equal on the screen, far off it
    @example(two_rows(17, 16, DELTA + 0.25))  # far on the screen's last point
    @example(np.ones((3, 10)))  # duplicate rows
    @example(np.array([[0.0, math.nan, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))  # a NaN row
    def test_equals_one_candidate_at_a_time(self, vals):
        assert oracles._greedy_packing(vals.T, DELTA) == greedy_packing_one_by_one(vals, DELTA)


def unit_norm_nets_one_by_one(rng, widths, in_size, count):
    """Nets drawn and normalized one at a time, stacked on a run axis."""
    shapes = nc.layer_shapes(widths, in_size)
    nets = []
    while len(nets) < count:
        arrs = [rng.standard_normal(s) for s in shapes]
        nu = norms.pesv_norm(arrs)
        if nu > 0:
            arrs[-1] = arrs[-1] / nu
            nets.append(arrs)
    return [np.stack(ws) for ws in zip(*nets)]


class TestRandomUnitNormNets:
    def assert_same_draws(self, widths, in_size, count, seed):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, nu = oracles.random_unit_norm_nets(rng, widths, in_size, count)
        ref = unit_norm_nets_one_by_one(ref_rng, widths, in_size, count)
        assert len(got) == len(ref)
        for g, r in zip(got, ref):
            assert g.shape == r.shape and g.flags.c_contiguous
            np.testing.assert_array_equal(g, r, strict=True)
        assert nu.tobytes() == norms.pesv_stacked(got).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        return got

    @pytest.mark.parametrize(
        "widths, in_size, count",
        [((1,), 2, 1), ((2,), 2, 200), ((8,), 3, 16), ((3, 5), 4, 7), ((4, 2, 3), 2, 9)],
    )
    def test_equals_one_net_at_a_time(self, widths, in_size, count):
        got = self.assert_same_draws(widths, in_size, count, seed=count)
        np.testing.assert_allclose(norms.pesv_stacked(got), 1.0, rtol=1e-14)

    def test_zero_norm_nets_are_drawn_again(self, monkeypatch):
        """Force the path norm of the raw nets 2 and 6 to zero.  Net 6 is the
        first net drawn after the initial block of 6, so both the block and
        the redraw reject one net."""
        widths, in_size, count = (3,), 2, 6
        raw = unit_norm_nets_one_by_one(np.random.default_rng(4), widths, in_size, 8)
        markers = raw[0][[2, 6], 0, 0]
        real = norms.pesv_stacked

        def zero_at_markers(layers):
            return np.where(np.isin(layers[0][:, 0, 0], markers), 0.0, real(layers))

        monkeypatch.setattr(norms, "pesv_stacked", zero_at_markers)
        got = self.assert_same_draws(widths, in_size, count, seed=4)
        for g, r in zip(got, raw):
            np.testing.assert_array_equal(g, r[[0, 1, 3, 4, 5, 7]])


class ZeroedNormals:
    """A generator whose standard normals at the stream positions in
    ``zeroed`` read 0, however the draws are split into calls."""

    def __init__(self, seed, zeroed):
        self.rng, self.zeroed, self.drawn = np.random.default_rng(seed), zeroed, 0

    def standard_normal(self, shape):
        out = self.rng.standard_normal(shape)
        flat = out.reshape(-1)
        flat[np.isin(np.arange(self.drawn, self.drawn + flat.size), self.zeroed)] = 0.0
        self.drawn += flat.size
        return out


class TestUnitNormNet:
    """The audit's single-net draw, ``random_unit_norm_nets(rng, widths,
    in_size, 1)``, gives the net and the generator state of one net drawn
    alone, with its path norm taken from the chain that normalized it."""

    def assert_one_net_of_the_block(self, rng, ref_rng, widths, in_size):
        layers, nu = oracles.random_unit_norm_nets(rng, widths, in_size, 1)
        ref = unit_norm_nets_one_by_one(ref_rng, widths, in_size, 1)
        assert len(layers) == len(ref)
        for w, r in zip(layers, ref):
            assert w.shape == r.shape and w.flags.c_contiguous
            assert w.tobytes() == r.tobytes()
        assert nu.tobytes() == norms.pesv_stacked(ref).tobytes()
        return [w[0] for w in layers]

    @pytest.mark.parametrize(
        "widths, in_size", [((1,), 2), ((8,), 3), ((3, 5), 4), ((4, 2, 3), 2), ((8, 8, 8), 4)]
    )
    def test_equals_a_block_of_one(self, widths, in_size):
        for seed in range(20):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            self.assert_one_net_of_the_block(rng, ref_rng, widths, in_size)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_zero_norm_net_is_drawn_again(self):
        """The first net's output row is zeroed, so its path norm is 0; the
        second net is drawn and returned."""
        widths, in_size = (3, 2), 2
        size = sum(r * c for r, c in nc.layer_shapes(widths, in_size))
        top = range(size - widths[-1], size)
        rng, ref_rng = ZeroedNormals(5, top), ZeroedNormals(5, top)
        layers = self.assert_one_net_of_the_block(rng, ref_rng, widths, in_size)
        assert rng.drawn == ref_rng.drawn == 2 * size
        assert rng.rng.bit_generator.state == ref_rng.rng.bit_generator.state
        second = unit_norm_nets_one_by_one(np.random.default_rng(5), widths, in_size, 2)
        for w, r in zip(layers, second):
            assert w.tobytes() == r[1].tobytes()


class TestPointwise:
    def test_linear_net_is_cosine(self):
        """f(x) = w.x with ||w|| = 1: ratio = max |cos angle| <= 1."""
        w = np.array([[0.6, 0.8]])
        p = NetParams.from_arrays([w, np.array([[1.0]])])
        r = oracles.pointwise_norm_check(p, ActivationSpec.identity(), 500, seed=0)
        assert r.passed and r.max_ratio <= 1.0

    def test_zero_net_vacuous_pass(self):
        p = NetParams.from_arrays([np.zeros((2, 3)), np.zeros((1, 2))])
        r = oracles.pointwise_norm_check(p, RELU, 100, seed=0)
        assert r.max_ratio == 0.0 and r.passed

    def test_inconsistency_guard(self, monkeypatch):
        p = NetParams.from_arrays([np.ones((2, 3)), np.ones((1, 2))])
        monkeypatch.setattr(norms, "pesv_norm", lambda params: 0.0)
        with pytest.raises(InconsistencyError):
            oracles.pointwise_norm_check(p, RELU, 50, seed=0)

    @staticmethod
    def ratio_one_net(layers, act, nu, probes, seed):
        """One net's max ratio, computed alone: its own probes, forward pass,
        row norms and mask."""
        X = erm.uniform_ball(np.random.default_rng(seed), probes, layers[0].shape[1])
        out = np.abs(nc.forward(layers, act, X))
        if nu == 0.0:
            return 0.0
        scale = act.lipschitz ** (len(layers) - 1) * np.linalg.norm(X, axis=1) * nu
        mask = scale > 0
        return float((out[mask] / scale[mask]).max()) if mask.any() else 0.0

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_nets_probed_together_have_the_bits_of_each_alone(self, d):
        """Nets of several depths, widths and activations, one of them zero
        with path norm 0, probed in one call: the ratio is the largest of
        the nets' ratios computed one net at a time."""
        rng = np.random.default_rng(d)
        acts = [RELU, ActivationSpec.leaky_relu(0.1), ActivationSpec.leaky_relu(2.5)]
        nets = []
        for i, widths in enumerate([(3,), (1, 4), (8, 2, 5), (2,), (6, 6)]):
            layers, nu = oracles.random_unit_norm_nets(rng, widths, d + 1, 1)
            nets.append(([w[0] for w in layers], acts[i % 3], float(nu[0]), 100 + i))
        zero = [np.zeros_like(w) for w in nets[0][0]]
        nets.insert(2, (zero, RELU, 0.0, 7))
        ratios = [self.ratio_one_net(*net[:3], 40, net[3]) for net in nets]
        assert oracles._pointwise_ratio(nets, 40) == max(ratios)
        for net, ratio in zip(nets, ratios):
            assert oracles._pointwise_ratio([net], 40) == ratio

    def test_randomized_audit(self):
        r = oracles.pointwise_audit(n_nets=150, probes=50, seed=1)
        assert r.passed

    def test_audit_pinned_at_verify_size(self):
        """The c02 audit, which ``verify pointwise`` and the benchmark run."""
        r = oracles.pointwise_audit(n_nets=1000, probes=100, seed=0)
        assert r.max_ratio.hex() == "0x1.ffff3d10cd5dcp-1" and r.probes == 100_000

    @staticmethod
    def scalar_audit_draws(n_nets, seed):
        """The audit's draws one scalar call at a time: each net's widths and
        input size with the generator's state where its layers are drawn,
        and the final state."""
        rng = np.random.default_rng(seed)
        calls = []
        for _ in range(n_nets):
            L = (2, 3, 4)[int(rng.integers(3))]
            d = (1, 2, 3)[int(rng.integers(3))]
            widths = tuple(int(rng.integers(1, 9)) for _ in range(L - 1))
            rng.integers(2)  # the activation
            calls.append((widths, d + 1, rng.bit_generator.state))
            oracles.random_unit_norm_nets(rng, widths, d + 1, 1)
            rng.integers(2**31)  # the probes' seed
        return calls, rng.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 1, 3, 7, 123])
    def test_audit_draws_equal_scalar_draws(self, monkeypatch, seed):
        """Three blocks of nets, drawn with the shapes and generator states
        of one bounded scalar call per value: a regrouping of the draws must
        keep both, and the widths Python ints."""
        want_calls, want_state = self.scalar_audit_draws(300, seed)
        calls, rngs = [], []
        real = oracles.random_unit_norm_nets

        def recording(rng, widths, in_size, count):
            assert all(type(w) is int for w in widths) and count == 1
            calls.append((widths, in_size, rng.bit_generator.state))
            rngs.append(rng)
            return real(rng, widths, in_size, count)

        monkeypatch.setattr(oracles, "random_unit_norm_nets", recording)
        oracles.pointwise_audit(n_nets=300, probes=1, seed=seed)
        assert calls == want_calls
        assert rngs[-1].bit_generator.state == want_state

    def test_audit_grid_pinned(self):
        """The audit's depths, dimensions, widths and activations fix this
        ratio, so a change to any of them moves it."""
        r = oracles.pointwise_audit(n_nets=200, probes=20, seed=3)
        assert r.max_ratio.hex() == "0x1.fd04631377463p-1" and r.probes == 4000

    @pytest.mark.parametrize("kw", [dict(n_nets=0), dict(probes=0), dict(n_nets=-1)])
    def test_audit_rejects_empty_counts(self, kw):
        with pytest.raises(ValueError, match="n_nets >= 1 and probes >= 1"):
            oracles.pointwise_audit(**{"n_nets": 2, "probes": 2} | kw)

    @pytest.mark.parametrize("count", [0, -3])
    def test_check_rejects_empty_probe_count(self, count):
        p = NetParams.from_arrays([np.ones((2, 3)), np.ones((1, 2))])
        with pytest.raises(ValueError, match="probe_count >= 1"):
            oracles.pointwise_norm_check(p, RELU, count)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("layer", [0, 1])
    def test_check_rejects_non_finite_raw_layers(self, layer, bad):
        """``NetParams`` rejects these weights; raw layers are checked too.
        A nan weight made the path norm nan, which skipped every probe and
        passed with a ratio of 0."""
        layers = [np.ones((2, 3)), np.ones((1, 2))]
        layers[layer][0, 0] = bad
        with pytest.raises(ValueError, match="params"):
            oracles.pointwise_norm_check(layers, RELU, 10)

    @pytest.mark.parametrize("seq", [(2, 3, 4), (1, 2, 3), (0.0, 0.1), (7,), (0.5, 1, 2, 3, 5)])
    def test_index_draw_equals_choice(self, seq):
        """``seq[rng.integers(len(seq))]``, the audit's draw, gives the values
        of ``rng.choice(list(seq))`` and leaves the generator in its state,
        interleaved with the audit's other draws."""
        rng, ref = np.random.default_rng(17), np.random.default_rng(17)
        for _ in range(500):
            assert seq[int(rng.integers(len(seq)))] == ref.choice(list(seq))
            assert rng.integers(1, 9) == ref.integers(1, 9)
            assert rng.standard_normal() == ref.standard_normal()
        assert rng.bit_generator.state == ref.bit_generator.state


class TestSignPatterns:
    def test_same_pattern_same_group(self):
        """Two first-layer rows that agree in sign on the single sample and
        share the output sign land in one group."""
        p = NetParams.from_arrays(
            [np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([[0.5, 0.5]])]
        )
        labels = oracles.sign_pattern_groups(p, RELU, np.array([[1.0, 1.0]]))
        assert labels[0][0] == labels[0][1]

    def test_opposite_pattern_different_groups(self):
        p = NetParams.from_arrays(
            [np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([[0.5, 0.5]])]
        )
        labels = oracles.sign_pattern_groups(p, RELU, np.array([[1.0, 1.0]]))
        assert labels[0][0] != labels[0][1]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        layers = [rng.normal(size=(6, 3)), rng.normal(size=(4, 6)), rng.normal(size=(1, 4))]
        p = NetParams.from_arrays(layers)
        X = np.hstack([rng.normal(size=(10, 2)), np.ones((10, 1))])
        labels = oracles.sign_pattern_groups(p, RELU, X)

        # brute force: recompute keys per layer and compare the partition
        h = X
        acc = [layers[-1].ravel()]
        m = layers[-1]
        for w in reversed(layers[1:-1]):
            m = m @ w
            acc.append(m.ravel())
        acc.reverse()
        for li, w in enumerate(layers[:-1]):
            z = h @ w.T
            keys = [
                (np.sign(acc[li][j]), tuple(z[:, j] >= 0)) for j in range(w.shape[0])
            ]
            for a in range(len(keys)):
                for b in range(len(keys)):
                    same = keys[a] == keys[b]
                    assert (labels[li][a] == labels[li][b]) == same
            h = RELU(z)

    def test_invariant_under_rescaling(self):
        rng = np.random.default_rng(5)
        layers = [rng.normal(size=(5, 3)), rng.normal(size=(1, 5))]
        p = NetParams.from_arrays(layers)
        X = np.hstack([rng.normal(size=(8, 2)), np.ones((8, 1))])
        base = [lab.tolist() for lab in oracles.sign_pattern_groups(p, RELU, X)]
        for j, c in ((0, 3.0), (2, 0.2)):
            q = norms.rescale_neuron(p, 1, j, c)
            got = [lab.tolist() for lab in oracles.sign_pattern_groups(q, RELU, X)]
            assert got == base

    def test_requires_relu(self):
        p = NetParams.from_arrays([np.ones((2, 3)), np.ones((1, 2))])
        with pytest.raises(UnsupportedActivationError):
            oracles.sign_pattern_groups(p, ActivationSpec.identity(), np.ones((2, 3)))


class TestCollinearity:
    def test_duplicated_rows_cosine_one(self):
        row = np.array([0.5, -0.2, 0.4])
        p = NetParams.from_arrays([np.vstack([row, row]), np.array([[1.0, 1.0]])])
        X = np.hstack([np.random.default_rng(0).normal(size=(6, 2)), np.ones((6, 1))])
        r = oracles.collinearity_report(p, RELU, X)
        assert r.global_min == 1.0

    def test_orthogonal_rows_forced_into_one_cone(self):
        """Inputs in the positive quadrant give both rows the all-positive
        pattern; the report exposes cosine 0."""
        p = NetParams.from_arrays(
            [np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), np.array([[1.0, 1.0]])]
        )
        X = np.array([[0.5, 0.5, 1.0], [0.8, 0.3, 1.0]])
        r = oracles.collinearity_report(p, RELU, X)
        assert r.global_min == pytest.approx(0.0, abs=1e-12)

    def test_boundary_neurons_excluded(self):
        """A neuron with a vanishing preactivation somewhere is flagged."""
        p = NetParams.from_arrays(
            [np.array([[1.0, 0.0, 0.0], [0.0, 1.0, -0.5]]), np.array([[1.0, 1.0]])]
        )
        X = np.array([[0.5, 0.5, 1.0], [0.0, 0.8, 1.0]])  # first neuron hits 0
        r = oracles.collinearity_report(p, RELU, X)
        assert 0 in r.boundary_neurons
        assert r.global_min == 1.0  # survivors form singletons

    def test_boundary_tolerances_pinned(self):
        """Neuron 0 has a preactivation of 5e-7 and neuron 3 one of 2e-6, on
        either side of the 1e-6 tolerance; neurons 1 and 2 carry 5e-4 and
        2e-3 of the largest outgoing mass, on either side of 1e-3."""
        W = np.array([[1.0, 0.0, 5e-7], [0.3, 1.0, 0.5], [1.0, 1.0, 0.0], [0.0, 1.0, 2e-6]])
        p = NetParams.from_arrays([W, np.array([[1.0, 5e-4, 2e-3, 1.0]])])
        X = np.array([[0.0, 0.5, 1.0], [0.5, 0.0, 1.0], [0.4, 0.3, 1.0]])
        assert oracles.collinearity_report(p, RELU, X).boundary_neurons == (0, 1)


class TestEquivalence:
    def dataset(self, n=12, seed=0):
        from pesvlab.erm import documented_teacher

        teacher = documented_teacher(d=2)
        return erm.sample_dataset(teacher, n, 0.05, seed=seed), teacher

    def test_lambda_zero_arms_coincide(self):
        """With no penalty the three objectives share trajectories."""
        ds, teacher = self.dataset()
        loss = erm.LossSpec.mse_for(teacher, 0.05)
        opt = erm.OptimizerConfig(step_size=0.3, max_iters=400)
        res = oracles.equivalence_check_relu(
            ds, 0.0, (6,), [0, 1], RELU, loss, opt
        )
        for row in res.rows:
            assert abs(row["gap_weight_decay"]) < 1e-9

    def test_zero_targets_all_arms_near_zero(self):
        ds, teacher = self.dataset()
        zero = erm.Dataset(
            inputs=ds.inputs, targets=np.zeros(ds.n), noise_std=0.0, seed=0
        )
        loss = erm.LossSpec.mse_for(teacher, 0.0)
        opt = erm.OptimizerConfig(step_size=0.5, max_iters=20_000)
        res = oracles.equivalence_check_relu(zero, 0.01, (4,), [0], RELU, loss, opt)
        row = res.rows[0]
        assert row["pesv_objective"] < 1e-3
        assert row["weight_decay_objective"] < 1e-3
        assert row["mixed_max_objective"] < 1e-3

    def test_pinned_rows(self):
        """Rows of the one-run-at-a-time loop this batched one replaced."""
        ds, teacher = self.dataset(n=32)
        loss = erm.LossSpec.mse_for(teacher, 0.05)
        opt = erm.OptimizerConfig(step_size=0.5, max_iters=300)
        res = oracles.equivalence_check_relu(ds, 0.01, (16,), (0, 1, 2), RELU, loss, opt)
        keys = (
            "pesv_objective", "weight_decay_objective", "mixed_max_objective",
            "pesv_of_balanced_weight_decay", "pesv_of_balanced_mixed_max",
            "gap_weight_decay", "gap_mixed_max",
        )
        assert [[r["seed"]] + [r[k] for k in keys] for r in res.rows] == [
            [0, 0.016502034713448088, 0.028752160203265452, 0.021350569191090074,
             0.018787005859155596, 0.01391483307900417, 0.1384660246681826,
             -0.15678076548557474],
            [1, 0.013697980235405704, 0.024315619032183416, 0.017344721618460443,
             0.015786441698483856, 0.012217022369904254, 0.15246492016976518,
             -0.10811505346412752],
            [2, 0.014918959190518458, 0.0243848911747383, 0.017718406775485394,
             0.01674798149315157, 0.012066397969374594, 0.12259717848115859,
             -0.19120376862192706],
        ]

    def test_requires_relu(self):
        ds, teacher = self.dataset()
        with pytest.raises(UnsupportedActivationError):
            oracles.equivalence_check_relu(
                ds, 0.1, (4,), [0], ActivationSpec.identity(),
                erm.LossSpec.mse(1.0), erm.OptimizerConfig(max_iters=10),
            )


class TestDocumentedExperiments:
    def test_collinearity_rows_serialize(self):
        """The rows go into the ``verify --out`` JSON report."""
        rows = oracles.run_collinearity_experiment({"iters": 10, "seeds": (0, 1)})
        assert all(type(r["ok"]) is bool for r in rows)
        json.dumps(rows)

    def test_collinearity_pinned_objectives(self):
        """Per-seed datasets train as one batch; objectives of the
        one-seed-at-a-time loop it replaced."""
        rows = oracles.run_collinearity_experiment({"iters": 300, "seeds": (0, 1, 2)})
        assert [(r["seed"], r["objective"], r["global_min_abs_cosine"]) for r in rows] == [
            (0, 0.04618846789179037, 0.972552514090748),
            (1, 0.043371429369978565, 1.0),
            (2, 0.04348803881928391, 0.9818911343333477),
        ]


def maurey_rule_holds(check: dict) -> bool:
    """The rule a Maurey record states, evaluated on its own inputs and outputs."""
    inp, out = check["inputs"], check["outputs"]
    slack = inp["radius"] ** 2 / inp["m"] * (1 + 3 / math.sqrt(inp["trials"]))
    assert check["tolerances"]["mc_slack"] == "R^2/m * (1 + 3/sqrt(trials))"
    assert out["bound"] == slack
    holds = out["mean_sq_error"] <= out["bound"]
    if "mean" in check["tolerances"]:
        assert check["tolerances"]["mean"] == "|mean_sq_error - 0.5| <= 0.02"
        holds = holds and abs(out["mean_sq_error"] - 0.5) <= 0.02
    return holds


class TestVerifyRecords:
    @pytest.mark.parametrize("suite", ["lemmas", "maurey"])
    def test_record_shape(self, suite):
        run = next(run for name, run, _ in oracles.SUITES if name == suite)
        checks = run()
        assert checks
        for check in checks:
            assert set(check) == {"name", "inputs", "outputs", "pass", "tolerances"}
            assert type(check["pass"]) is bool
            json.dumps(check)

    def test_maurey_pass_is_its_stated_rule(self):
        checks = oracles._maurey_checks()
        assert [("mean" in c["tolerances"]) for c in checks] == [True, False, False, False]
        for check in checks:
            assert check["pass"] == maurey_rule_holds(check)

    @pytest.mark.parametrize("scale", [0.99, 1.01])
    def test_maurey_pass_follows_the_bound(self, monkeypatch, scale):
        """An error just past ``bound`` fails every record, one just below it
        passes the mixtures: the record applies the rule it states, and not a
        looser one (for m = 1, ``1.1 R^2/m`` is above ``bound``)."""
        real = oracles.maurey_sampling_check

        def moved(*args, **kwargs):
            r = real(*args, **kwargs)
            err = r.bound * scale
            return dataclasses.replace(r, mean_sq_error=err, passed=err <= r.bound)

        monkeypatch.setattr(oracles, "maurey_sampling_check", moved)
        checks = oracles._maurey_checks()
        assert [c["pass"] for c in checks[1:]] == [scale < 1] * 3
        for check in checks:
            assert check["pass"] == maurey_rule_holds(check)
