"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Budgets are generous on commodity hardware; the training-based
criteria (10, 11) dominate the runtime at a few minutes total.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from pesvlab import cli, erm, norms, oracles, theory
from pesvlab import netcore as nc
from pesvlab.netcore import ActivationSpec, BiasedNet, NetParams

RELU = ActivationSpec.relu()


def report(name, passed, elapsed, detail=""):
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {name}: {status} ({elapsed:.1f}s)"
    if detail:
        line += f" {detail}"
    print(line)
    assert passed, line


def report_digest(monkeypatch, tmp_path, suite, oracle, result):
    """sha256 of ``pesvlab verify suite --out`` with ``oracles.<oracle>``
    patched to return ``result``: the criterion's own run of the suite's
    experiment, so the report's bytes are checked at no added run time."""
    monkeypatch.setattr(oracles, oracle, result)
    out = tmp_path / f"{suite}.json"
    assert cli.main(["verify", suite, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


class TestAcceptance:
    def test_c01_combinatoric_lemmas(self):
        t0 = time.time()
        ok1, worst1 = oracles.lemma1_scan(40)
        ok2 = True
        agree_exact = True
        for n in range(2, 13):
            for m in range(2, n + 1):
                r = oracles.lemma2_exact(m, n)
                ok2 = ok2 and r.passed
                # dual paths: exact rational agreement beats 1e-12 relative
                agree_exact = agree_exact and r.paths_agree
                rel = abs(r.lhs_enumeration - r.lhs_reduction) / abs(r.lhs_reduction)
                assert rel <= 1e-12
        elapsed = time.time() - t0
        assert elapsed < 60
        report(
            "01 combinatoric-lemmas",
            ok1 and ok2 and agree_exact,
            elapsed,
            f"worst ratio {worst1:.3f}",
        )

    def test_c02_pointwise_bound(self):
        t0 = time.time()
        res = oracles.pointwise_audit(n_nets=1000, probes=100, seed=0)
        elapsed = time.time() - t0
        assert elapsed < 30
        report(
            "02 pointwise-bound",
            res.max_ratio <= 1.0 + 1e-9,
            elapsed,
            f"max ratio {res.max_ratio:.12f}",
        )

    def test_c03_pesv_rescaling_invariance(self):
        t0 = time.time()
        rng = np.random.default_rng(0)
        worst_nu, worst_out = 0.0, 0.0
        for _ in range(200):
            L = int(rng.choice([2, 3, 4]))
            widths = tuple(int(rng.integers(1, 8)) for _ in range(L - 1))
            d = int(rng.integers(1, 4))
            shapes = [(widths[0], d + 1)]
            for lo, hi in zip(widths, widths[1:]):
                shapes.append((hi, lo))
            shapes.append((1, widths[-1]))
            p = NetParams.from_arrays([rng.normal(size=s) for s in shapes])
            x = rng.normal(size=(20, d + 1))
            nu0 = norms.pesv_norm(p)
            f0 = nc.forward(p, RELU, x)
            scale_out = max(1.0, float(np.max(np.abs(f0))))
            for _ in range(20):
                layer = int(rng.integers(1, L))
                j = int(rng.integers(0, widths[layer - 1]))
                c = float(rng.uniform(0.1, 10.0))
                q = norms.rescale_neuron(p, layer, j, c)
                worst_nu = max(
                    worst_nu, abs(norms.pesv_norm(q) - nu0) / max(nu0, 1e-300)
                )
                worst_out = max(
                    worst_out,
                    float(np.max(np.abs(nc.forward(q, RELU, x) - f0))) / scale_out,
                )
        elapsed = time.time() - t0
        assert elapsed < 10
        report(
            "03 pesv-rescaling-invariance",
            worst_nu <= 1e-10 and worst_out <= 1e-10,
            elapsed,
            f"worst nu drift {worst_nu:.2e}, output drift {worst_out:.2e}",
        )

    def test_c04_transform_exactness(self):
        t0 = time.time()
        rng = np.random.default_rng(1)
        worst_bias = 0.0
        for _ in range(50):
            d = int(rng.integers(1, 4))
            L = int(rng.choice([2, 3, 4]))
            widths = [int(rng.integers(1, 6)) for _ in range(L - 1)]
            ws = [rng.normal(size=(widths[0], d))]
            for lo, hi in zip(widths, widths[1:]):
                ws.append(rng.normal(size=(hi, lo)))
            ws.append(rng.normal(size=(1, widths[-1])))
            bn = BiasedNet(
                weights=tuple(ws),
                biases=tuple(rng.normal(size=w) for w in widths),
                output_bias=float(rng.normal()),
            )
            p = nc.absorb_bias(bn, RELU)
            xs = rng.normal(size=(1000, d))
            xs /= np.maximum(np.linalg.norm(xs, axis=1, keepdims=True), 1.0)
            got = nc.forward(p, RELU, np.hstack([xs, np.ones((1000, 1))]))
            worst_bias = max(
                worst_bias, float(np.max(np.abs(got - nc.forward_biased(bn, RELU, xs))))
            )

        worst_norm = 0.0
        shift = ActivationSpec.tabulated([-12.0, 12.0], [-11.3, 12.7])  # x + 0.7
        for _ in range(50):
            d = int(rng.integers(1, 4))
            L = int(rng.choice([2, 3]))
            widths = [int(rng.integers(1, 6)) for _ in range(L - 1)]
            shapes = [(widths[0], d + 1)]
            for lo, hi in zip(widths, widths[1:]):
                shapes.append((hi, lo))
            shapes.append((1, widths[-1]))
            p = NetParams.from_arrays([rng.normal(size=s) for s in shapes])
            p2, act2 = nc.normalize_activation(p, shift)
            xs = np.hstack([rng.normal(size=(1000, d)) * 0.5, np.ones((1000, 1))])
            worst_norm = max(
                worst_norm,
                float(np.max(np.abs(nc.forward(p, shift, xs) - nc.forward(p2, act2, xs)))),
            )
        elapsed = time.time() - t0
        assert elapsed < 10
        report(
            "04 transform-exactness",
            worst_bias < 1e-12 and worst_norm < 1e-12,
            elapsed,
            f"bias {worst_bias:.2e}, activation {worst_norm:.2e}",
        )

    def test_c05_double_descent_curve(self):
        t0 = time.time()
        cfg = theory.BoundConfig(
            n=1e4, d=1, L=2, L_sigma=1.0, sigma_eps=0.1, M=1.0, c=1.0, C=1.0
        )
        res = theory.double_descent_sweep(cfg, range(1, 1001))
        totals = res.totals()
        ok = len(res.minima) == 1 and abs(res.minima[0] - 33) <= 2
        min_total = totals[res.widths.index(res.minima[0])]
        ok = ok and abs(min_total - 0.0610) <= 0.0005
        ok = ok and len(res.maxima) == 1 and abs(res.maxima[0] - 396) <= 5
        tail = np.diff([t for w, t in zip(res.widths, totals) if w > 450])
        ok = ok and bool(np.all(tail <= 0))
        elapsed = time.time() - t0
        assert elapsed < 5
        report(
            "05 double-descent-curve",
            ok,
            elapsed,
            f"min at {res.minima[0]} total {min_total:.6f}, max at {res.maxima[0]}",
        )

    def test_c06_encompassing_consistency(self):
        t0 = time.time()
        ok = True
        ns = (64, 128, 320, 1000, 3200, 1e4, 3.2e4, 1e5, 3.2e5, 1e6)
        ms = (1, 2, 4, 8, 16, 33, 64, 128, 396, 1024)
        for n in ns:
            for m in ms:
                cfg = theory.BoundConfig(n=n, d=1, L=2, sigma_eps=0.1, M=1.0)
                over = theory.gen_bound_over(cfg, (m,)).total
                under = theory.gen_bound_under(cfg, (m,)).total
                enc = theory.gen_bound_encompassing(cfg, (m,)).total
                ok = ok and (enc == min(over, under))
        elapsed = time.time() - t0
        assert elapsed < 5
        report("06 encompassing-consistency", ok, elapsed, "bit-level on 10x10 grid")

    def test_c07_rademacher_mc(self, monkeypatch, tmp_path):
        t0 = time.time()
        X = erm.uniform_ball(np.random.default_rng(5), 64, 2)
        kw = dict(trials=200, n_starts=16, inner_steps=120, seed=7)
        r1 = oracles.rademacher_mc((8,), 1.0, X, **kw)
        r2 = oracles.rademacher_mc((8,), 2.0, X, **kw)
        # the one-trial-at-a-time ascent's values; blocking the trials keeps them
        assert r1.estimate == float.fromhex("0x1.07c2dac146ac5p+2")
        assert r1.stderr == float.fromhex("0x1.df2e7498af998p-4")
        doubling_rel = abs(r2.estimate - 2.0 * r1.estimate) / (2.0 * r1.estimate)
        elapsed = time.time() - t0
        assert elapsed < 300

        def r1_again(widths, F, inputs, **kwargs):  # the rademacher suite's call is r1's
            assert (widths, F, {"inner_steps": 120, **kwargs}) == ((8,), 1.0, kw)
            assert np.array_equal(inputs, X)
            return r1

        assert report_digest(monkeypatch, tmp_path, "rademacher", "rademacher_mc", r1_again) == (
            "2c7aa521331a367efb9d792cd1cacae594ce5bee833ccc4a7501755b8c3f59b2"
        )
        report(
            "07 rademacher-mc",
            r1.passed and r1.estimate <= r1.bound and doubling_rel <= 1e-9,
            elapsed,
            f"estimate {r1.estimate:.3f} <= bound {r1.bound:.2f}, c_hat {r1.c_hat:.4f}",
        )

    def test_c08_metric_entropy_packing(self):
        t0 = time.time()
        ok = True
        worst = 0
        for widths in ((1,), (2,)):
            for delta in (0.5, 0.25):
                for seed in range(20):
                    r = oracles.covering_packing_lower_bound(
                        widths, delta, d=1, param_samples=200, seed=seed
                    )
                    ok = ok and r.passed
                    worst = max(worst, r.packing_count)
        elapsed = time.time() - t0
        assert elapsed < 120
        report(
            "08 metric-entropy-packing", ok, elapsed, f"largest pack {worst}"
        )

    def test_c09_maurey_sampling(self):
        t0 = time.time()
        orth = oracles.maurey_sampling_check(
            np.eye(2), [0.5, 0.5], m=1, trials=10_000, seed=0
        )
        ok = abs(orth.mean_sq_error - 0.5) <= 0.02
        rng = np.random.default_rng(3)
        atoms = rng.standard_normal((10, 6))
        w = rng.random(10)
        w /= w.sum()
        for m in (1, 4, 16):
            r = oracles.maurey_sampling_check(atoms, w, m=m, trials=4000, seed=m)
            ok = ok and r.mean_sq_error <= r.radius**2 / m * 1.1
        elapsed = time.time() - t0
        assert elapsed < 60
        report(
            "09 maurey-sampling", ok, elapsed,
            f"orthogonal-pair mean {orth.mean_sq_error:.4f}",
        )

    def test_c10_collinearity_soft(self, monkeypatch, tmp_path):
        t0 = time.time()
        rows = oracles.run_collinearity_experiment()
        good = sum(1 for r in rows if r["ok"])
        elapsed = time.time() - t0
        assert elapsed < 600
        digest = report_digest(
            monkeypatch, tmp_path, "collinearity", "run_collinearity_experiment", lambda: rows
        )
        assert digest == "6dd1c35a355b1c4bf3243a5e2e3ccd2f5343dfbe1757617431b8820508923631"
        detail = f"{good}/5 seeds collinear (>= 0.99)"
        if good == 4:
            detail += " [one non-global optimum tolerated]"
        report("10 collinearity-soft", good >= 4, elapsed, detail)

    def test_c11_equivalence_soft(self, monkeypatch, tmp_path):
        t0 = time.time()
        res = oracles.run_equivalence_experiment()
        elapsed = time.time() - t0
        assert elapsed < 900
        digest = report_digest(
            monkeypatch, tmp_path, "equivalence", "run_equivalence_experiment", lambda: res
        )
        assert digest == "2cbb03de5c393501e3e709c4cccba1415e83eaa7b189dfea6ed69519a7d08c9b"
        gap = res.median_gap_weight_decay
        report(
            "11 equivalence-soft", abs(gap) <= 0.05, elapsed,
            f"median path-norm gap {gap:.4f}",
        )

    def test_c12_cli_determinism(self, tmp_path):
        t0 = time.time()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[problem]\nd = 2\nn = 16\nsigma_eps = 0.05\nseed = 3\n"
            "teacher_widths = 2\nteacher_seed = 11\n"
            "[network]\nwidths = 4\nactivation = relu\n"
            "[optimizer]\nstep_size = 0.3\nmax_iters = 1000\nlambda = 0.01\n"
            "regularizer = pesv\nseed = 5\n"
            "[bounds]\nn = 10000\nd = 1\nM = 1\nsigma_eps = 0.1\nwidths = 1..100\n"
        )
        blobs = []
        for tag in ("1", "2"):
            model = tmp_path / f"m{tag}.json"
            trace = tmp_path / f"t{tag}.csv"
            curve = tmp_path / f"c{tag}.csv"
            assert cli.main(
                ["train", "--config", str(cfg), "--out", str(model),
                 "--trace", str(trace), "--no-timestamp"]
            ) == 0
            assert cli.main(
                ["bound", "--config", str(cfg), "--out", str(curve), "--no-timestamp"]
            ) == 0
            blobs.append(
                (model.read_bytes(), trace.read_bytes(), curve.read_bytes())
            )
        elapsed = time.time() - t0
        assert elapsed < 60
        report("12 cli-determinism", blobs[0] == blobs[1], elapsed, "byte-identical")
