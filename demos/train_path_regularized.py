"""Train a path-regularized network on synthetic teacher data end to end.

Builds a small relu teacher, samples noisy data from the unit ball, minimizes
the penalized empirical risk by subgradient descent, and inspects the result:
errors against the teacher, the path norm, the cone structure of the learned
first layer, and the rescaling equivalence with weight decay.

Run:  python demos/train_path_regularized.py
"""

import numpy as np

from pesvlab import erm, norms, oracles, theory
from pesvlab.erm import documented_teacher
from pesvlab.netcore import ActivationSpec

act = ActivationSpec.relu()
teacher = documented_teacher(d=2, widths=(2,), seed=11)
print(f"teacher: depth {teacher.teacher.depth}, widths "
      f"{teacher.teacher.width_vector.widths}, path norm {teacher.nu_teacher:.4f}")

n, sigma = 64, 0.1
ds = erm.sample_dataset(teacher, n, sigma, seed=0)
loss = erm.LossSpec.mse_for(teacher, sigma)
print(f"data: n = {n}, noise {sigma}, working range {loss.range_bound:.3f}")

# Penalty strength from the wide-regime schedule.
cfg = theory.BoundConfig(n=n, d=2, L=2, sigma_eps=sigma, M=teacher.nu_teacher)
lam = theory.lambda_overparam(cfg)
print(f"penalty lambda = {lam:.5f}")

init = erm.init_params((16,), 2, seed=1)
opt = erm.OptimizerConfig(step_size=0.4, max_iters=40_000)
res = erm.train(init, ds, lam, loss, erm.Penalty("pesv"), opt, act)

emp = erm.empirical_error(res.params, act, teacher, ds)
gen, se = erm.generalization_error_mc(res.params, act, teacher, 20_000, seed=2)
print(f"\nbest objective {res.best_objective:.6f} after {res.iterations} iterations")
print(f"path norm: init {norms.pesv_norm(init):.4f} -> trained "
      f"{norms.pesv_norm(res.params):.4f} (teacher {teacher.nu_teacher:.4f})")
print(f"empirical error vs teacher: {emp:.6f}")
print(f"population error (monte carlo): {gen:.6f} +/- {se:.6f}")
print(f"encompassing bound at this width: "
      f"{theory.gen_bound_encompassing(cfg, (16,)).total:.4f}")

# The path penalty drives same-cone first-layer rows together: group neurons
# by activation pattern and output sign, then look at pairwise alignment.
rep = oracles.collinearity_report(res.params, act, ds.inputs)
print(f"\ncone structure: {len(rep.per_group)} occupied cones, "
      f"{len(rep.boundary_neurons)} boundary/dead neurons excluded")
print(f"minimum same-cone |cosine|: {rep.global_min:.6f}")

# Weight decay at lambda/2 is the same problem in disguise (rescale to
# balance, depth-2 relu): cross-evaluate the two minimizers.
res_wd = erm.train(init, ds, lam / 2, loss, erm.Penalty("weight_decay"), opt, act)
balanced = norms.balance_relu(res_wd.params, act)
cross = erm.objective(balanced, ds, lam, loss, erm.Penalty("pesv"), act)
print(f"\nweight-decay arm, path-norm objective after balancing: {cross:.6f}")
print(f"direct path-norm minimum:                         {res.best_objective:.6f}")
print(f"relative gap: {(cross - res.best_objective) / res.best_objective:.4%}")
