"""Minimize the mean compliance of a 2D cantilever under sampled loads.

The classic benchmark: a cantilever plate fixed along its left edge,
loaded by a family of randomly sampled surface load scenarios, optimized
for the average compliance at a 40% volume budget. Continuation sweeps
the SIMP penalty up first and then sharpens the Heaviside projection.
Because the sampled family pushes on the whole free surface, the optimum
keeps a band of intermediate densities: with loads possible anywhere,
spreading stiffness beats committing to a single truss layout.

Writes the final density field to demos/out/ as both a VTK image grid
(for ParaView) and a PGM picture you can open in any image viewer.
"""
from pathlib import Path

import numpy as np

import toporisk as tr
from toporisk.io import write_pgm, write_vtk

mesh = tr.cantilever_mesh(2, (48, 16))
material = tr.Material(youngs_modulus=1.0, poissons_ratio=0.3)
pipeline = tr.DensityPipeline(mesh, filter_radius=1.8, x_min=1e-3)
scenarios = tr.sample_cantilever_scenarios(mesh, 64, seed=0)
print(f"mesh: {mesh.cells[0]}x{mesh.cells[1]} elements, "
      f"{scenarios.n_scenarios} load scenarios")

model = tr.ForwardModel(mesh, material, pipeline, scenarios, method="svd")
print(f"scenario matrix rank: {model.svd.n_s} "
      f"(so {model.svd.n_s} solves per design instead of {scenarios.n_scenarios})")

# mean compliance is the risk-averse objective mu_C + m sigma_C at m = 0
problem = tr.MeanStdProblem(model, volume_fraction=0.4, m=0.0)
result = tr.run_continuation(problem)

print(f"\n{'step':>4} {'p':>4} {'beta':>5} {'mu_C (scaled)':>14} {'volume':>7} {'iters':>6}")
for rec in result.history:
    print(f"{rec['step']:>4} {rec['penalty']:>4.1f} {rec['beta']:>5.1f} "
          f"{rec['objective_end']:>14.6f} {rec['volume']:>7.4f} {rec['n_iters']:>6}")

final = result.final  # the last step's analysis at p = 6, beta = 20
solid = np.mean(final.field.physical > 0.95)
print(f"\nfinal mean compliance: {final.stats.mean:.6e}")
print(f"final volume fraction: {final.volume:.4f}")
print(f"solid elements (density above 95%): {100 * solid:.1f}%, "
      f"rest is the load-spreading gray band")
print(f"linear solves over the whole run: {result.total_solves}")

out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)
write_vtk(out / "mean_compliance_2d.vtk", mesh, final.field.physical)
write_pgm(out / "mean_compliance_2d.pgm", mesh, final.field.physical)
print(f"density written to {out}/mean_compliance_2d.{{vtk,pgm}}")
