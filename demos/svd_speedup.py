"""Measure the payoff of evaluating compliance statistics through the SVD.

With L load scenarios of rank n_s, the naive route solves the stiffness
system L times while the SVD route solves it n_s times and recombines.
Both give the same numbers to machine precision; only the cost differs.
This script times mean and standard deviation evaluation together with
their design gradients at a fixed design, for a growing scenario count.
"""
import time

import numpy as np

import toporisk as tr
from toporisk import compliance as comp

mesh = tr.cantilever_mesh(2, (40, 10))
material = tr.Material(youngs_modulus=1.0, poissons_ratio=0.3)
pipeline = tr.DensityPipeline(mesh, filter_radius=1.5, x_min=1e-3)
ke = tr.element_stiffness(mesh, material)

rng = np.random.default_rng(5)
x = rng.uniform(0.3, 0.9, mesh.n_elements)
field = pipeline.apply(x, 3.0, 4.0)
system = tr.StiffnessSystem.factorize(tr.assemble(mesh, ke, field.physical))

print(f"{'L':>6} {'n_s':>4} {'naive [s]':>10} {'svd [s]':>9} {'speedup':>8} {'agreement':>10}")
for L in (50, 200, 1000):
    F = tr.sample_cantilever_scenarios(mesh, L, seed=0)

    t0 = time.perf_counter()
    naive = tr.compliances_naive(system, F)
    g_naive = comp.weighted_gradient(
        naive, comp.weight_vector(naive, "std"), ke, mesh)
    t_naive = time.perf_counter() - t0
    assert naive.Q.shape[1] == L  # one solve per scenario

    t0 = time.perf_counter()
    svd = tr.thin_svd(F)
    fast = tr.compliances_svd(system, F, svd)
    g_fast = comp.weighted_gradient(
        fast, comp.weight_vector(fast, "std"), ke, mesh)
    t_svd = time.perf_counter() - t0
    assert fast.Q.shape[1] == svd.n_s  # one solve per singular direction

    agree = np.max(np.abs(g_fast - g_naive)) / np.max(np.abs(g_naive))
    print(f"{L:>6} {svd.n_s:>4} {t_naive:>10.4f} {t_svd:>9.4f} "
          f"{t_naive / t_svd:>7.1f}x {agree:>10.2e}")

print("\nagreement column: relative gap between the two sigma_C gradients")
