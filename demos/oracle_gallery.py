"""Tour of the brute-force verification oracles.

Each closed-form claim used by the bound machinery has an independent check:
exact rational scans for the combinatoric inequalities, Monte Carlo for the
sampling and complexity estimates, greedy packing against the entropy
formula, and randomized audits of the pointwise output bound.

Run:  python demos/oracle_gallery.py
"""

import numpy as np

from pesvlab import erm, oracles

# Exact rational arithmetic: binomial inverse-moment averages against 5/n.
print("binomial inverse-moment averages (exact rationals):")
for m, n in [(2, 2), (2, 3), (7, 25), (40, 40)]:
    r = oracles.lemma1_exact(m, n)
    print(f"  m={m:>2} n={n:>2}: lhs {r.lhs1:.6f} <= {r.bound:.4f}  pass={r.passed}")
ok, worst = oracles.lemma1_scan(40)
print(f"  full scan 2<=m<=n<=40: pass={ok}, worst ratio {worst:.3f}")

# Occupancy sums, two independent computations that must agree exactly.
print("\noccupancy inverse sums, enumeration vs surjection reduction:")
for m, n in [(2, 3), (3, 9), (6, 12)]:
    r = oracles.lemma2_exact(m, n)
    print(
        f"  m={m} n={n:>2}: lhs {r.lhs:.6f} <= {r.bound:.4f}  "
        f"paths agree={r.paths_agree}"
    )
print("  note: the 5m/n bound fails beyond the scoped range, e.g.")
r = oracles.lemma2_exact(5, 14)
print(f"  m=5 n=14: lhs {r.lhs:.4f} > bound {r.bound:.4f} (both paths agree)")

# Sampling a convex combination: m iid draws err like R^2/m in the mean.
print("\nmixture sampling error vs R^2/m:")
rng = np.random.default_rng(3)
atoms = rng.standard_normal((10, 6))
w = rng.random(10)
w /= w.sum()
for m in (1, 4, 16):
    r = oracles.maurey_sampling_check(atoms, w, m=m, trials=4000, seed=m)
    print(f"  m={m:>2}: mean err^2 {r.mean_sq_error:.4f}, R^2/m {r.radius**2 / m:.4f}")

# The signed-sum supremum over the unit path-norm ball, estimated from below
# by multi-start projected ascent, against the closed-form upper bound.
print("\nsigned-sum supremum over the unit-norm class (n=64, d=2, width 8):")
X = erm.uniform_ball(np.random.default_rng(5), 64, 2)
r = oracles.rademacher_mc((8,), 1.0, X, trials=50, n_starts=8, inner_steps=80, seed=7)
print(f"  estimate {r.estimate:.3f} +/- {r.stderr:.3f} <= bound {r.bound:.2f}")
print(f"  empirical chaining constant c_hat = {r.c_hat:.4f}")

# Greedy sup-norm packing never exceeds the metric entropy formula.
print("\nsup-norm packing vs entropy bound (unit-norm class, d=1):")
for widths, delta in [((1,), 0.25), ((2,), 0.5)]:
    r = oracles.covering_packing_lower_bound(widths, delta, d=1, param_samples=300, seed=0)
    print(
        f"  widths {widths} delta {delta}: packed {r.packing_count} "
        f"<= exp({r.entropy_bound:.2f}) = {np.exp(r.entropy_bound):.0f}"
    )

# Outputs never exceed L_sigma^(L-1) ||x|| nu: randomized audit.
print("\npointwise output bound audit (300 random nets x 100 probes):")
r = oracles.pointwise_audit(n_nets=300, probes=100, seed=0)
print(f"  max ratio {r.max_ratio:.10f} (must stay <= 1)")
