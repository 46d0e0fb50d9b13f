"""Find the lightest design whose worst-case compliance stays in budget.

Instead of bounding volume and minimizing compliance, this flips the
roles: minimize volume subject to C_i <= C_t for every load scenario.
The augmented Lagrangian solver handles the scenario-many constraints;
the threshold here is 1.5 times the maximum compliance of the full
ground structure, so the answer tells you how much material a 50%
compliance margin lets you delete.
"""
from pathlib import Path

import numpy as np

import toporisk as tr
from toporisk.io import write_pgm

mesh = tr.cantilever_mesh(2, (30, 10))
material = tr.Material(youngs_modulus=1.0, poissons_ratio=0.3)
pipeline = tr.DensityPipeline(mesh, filter_radius=1.5, x_min=1e-3)
scenarios = tr.sample_cantilever_scenarios(mesh, 50, seed=2)
model = tr.ForwardModel(mesh, material, pipeline, scenarios, method="svd")

full = model.analyze(np.ones(mesh.n_elements), 1.0, 0.0)
C_t = 1.5 * float(np.max(full.stats.C))
print(f"full design max compliance: {np.max(full.stats.C):.5e}")
print(f"threshold C_t (1.5x):       {C_t:.5e}\n")

problem = tr.MaxComplianceProblem(model, C_t=C_t)
result = tr.run_continuation(problem)

print(f"{'step':>4} {'p':>4} {'beta':>5} {'volume':>8} {'max C_i / C_t':>14} {'dual':>5}")
for rec in result.history:
    print(f"{rec['step']:>4} {rec['penalty']:>4.1f} {rec['beta']:>5.1f} "
          f"{rec['volume']:>8.4f} {rec['max_compliance'] / C_t:>14.5f} "
          f"{rec['dual_iters']:>5}")

final = result.final  # the last step's analysis at p = 6, beta = 20
print(f"\nfinal volume fraction: {final.volume:.4f}")
print(f"worst scenario compliance: {np.max(final.stats.C):.5e} "
      f"({np.max(final.stats.C) / C_t:.4f} of budget)")

out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)
write_pgm(out / "max_compliance_budget.pgm", mesh, final.field.physical)
print(f"density written to {out}/max_compliance_budget.pgm")
