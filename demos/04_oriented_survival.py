"""Oriented percolation on the half-plane lattice: survival vs alpha.

The bond variant survives for alpha beyond 2/3 and the site variant beyond
3/4; the working supercritical value in the block construction is 0.81.
The shared-driving coupling is bond's: it keeps bond survival monotone
in alpha trial by trial.
"""

from stickperc.oriented import (
    coupled_survival_matrix,
    survival_probability,
)

N_MAX, TRIALS = 300, 200

print("== survival fractions (frontier alive at level", N_MAX, ") ==")
for variant, threshold in [("bond", 2 / 3), ("site", 3 / 4)]:
    print(f"  {variant} variant (survives beyond alpha = {threshold:.3f}):")
    for alpha in (0.5, 0.7, 0.81, 0.9):
        stats = survival_probability(alpha, variant, N_MAX, TRIALS, seed=11)
        print(
            f"    alpha={alpha:.2f}: {stats.fraction:5.3f} "
            f"[{stats.ci_low:.3f}, {stats.ci_high:.3f}]"
        )

print("\n== monotone coupling across alpha ==")
alphas = [0.5, 0.7, 0.81, 0.95]
matrix = coupled_survival_matrix(alphas, N_MAX, 100, seed=13)
fractions = matrix.mean(axis=0)
print("  shared-driving survival fractions:", " ".join(f"{f:.2f}" for f in fractions))
print("  per-trial monotone in alpha:", bool((matrix[:, 1:] >= matrix[:, :-1]).all()))
