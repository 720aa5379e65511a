"""The branching-process view of stick clusters.

Estimates the offspring mean (sticks hitting a fixed stick), compares it
with the closed-form bound, shows the subcriticality pivot at the lower
bound intensity, and demonstrates the pathwise domination of a real
component exploration by the coupled Galton-Watson process.
"""

import numpy as np

from stickperc.branching import (
    component_exploration,
    dominating_gw_run,
    offspring_mean_mc,
)
from stickperc.measures import gw_offspring_bound, stick_hit_volume, theorem_bounds
from stickperc.sampling import Rigid, Uniform

e2 = np.array([0.0, 1.0])

print("== aligned sticks: the offspring mean is exactly computable ==")
L, lam = 10.0, 0.1
est = offspring_mean_mc(2, L, lam, Rigid(e2), 4000, seed=1)
exact = lam * stick_hit_volume(2, 2 * L, 2.0)
bound = gw_offspring_bound(2, L, lam, "rigid")
print(f"  MC {est.mean:.4f} +- {est.stderr:.4f}   exact {exact:.4f}   closed-form bound {bound:.4f}\n")

print("== subcriticality pivot for isotropic sticks ==")
for L in (32.0, 64.0):
    lam = theorem_bounds(2, L, "uniform", strict=False).lower
    est = offspring_mean_mc(2, L, lam, Uniform(), 2000, seed=2)
    print(f"  L={L:4.0f} at the lower-bound intensity: offspring mean {est.mean:.3f} < 1")
    runs = 300
    extinct = sum(
        1 for k in range(runs)
        if dominating_gw_run(est.samples, 100, 1_000_000, seed=k).extinct
    )
    print(f"           dominating GW extinct in {extinct}/{runs} runs")

print("\n== pathwise domination of a component exploration ==")
L = 16.0
lam = 3.0 * theorem_bounds(2, L, "uniform", strict=False).lower
shown = 0
for seed in range(200):
    res = component_exploration(
        2, L, lam, Uniform(), max_generations=10, population_cap=50_000, seed=seed,
    )
    if res.component_size >= 4:
        print(f"  seed {seed}: actual generations {list(res.generation_sizes)}")
        print(f"            dominating GW    {list(res.dominating_sizes)}")
        shown += 1
        if shown == 3:
            break
print("  every actual generation is at most its dominating counterpart.")
