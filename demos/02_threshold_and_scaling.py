"""Crossing thresholds and the length-scaling exponent, at demo scale.

Estimates the crossing intensity for a few stick lengths under both
orientation laws and fits the log-log slope, and prints the probes of one
estimate by intensity: the crossing curve its bisection read.  Replicate
counts here are small so the demo finishes in about a minute; the
acceptance suite runs the full protocol.
"""

import numpy as np

from stickperc.percolation import estimate_threshold, fit_weight, scaling_fit
from stickperc.sampling import Rigid, Uniform

REPLICATES = 40
SEED = 7

print("== isotropic sticks, d = 2 (expected slope near -2 for large L) ==")
points, estimates = [], []
for L in (8.0, 16.0, 32.0):
    est = estimate_threshold(2, L, Uniform(), 10.0 * L, replicates=REPLICATES, seed=SEED)
    estimates.append(est)
    points.append((L, est.lambda_hat, fit_weight(est)))
    print(
        f"  L={L:4.0f}: lambda_hat {est.lambda_hat:.5g}  "
        f"ci [{est.ci_low:.3g}, {est.ci_high:.3g}]  "
        f"lambda*L^2 = {est.lambda_hat * L * L:.3f}  probes {len(est.probes)}"
    )
fit = scaling_fit(points)
print(f"  fitted slope {fit.slope:.3f} +- {fit.stderr:.3f}")
print("  note: at these lengths the caps and width of the sticks still")
print("  contribute heavily to the excluded area, so the effective exponent")
print("  sits well above the asymptotic -2; see README for the numbers.\n")

print("== crossing frequency at the probes of the L = 8 estimate, the curve bisection reads ==")
est8 = estimates[0]
for stats in sorted(est8.probes, key=lambda p: p.intensity):
    print(
        f"  {stats.intensity / est8.lambda_hat:6.3f} x lambda_hat: frequency {stats.frequency:.3f}  "
        f"wilson [{stats.ci_low:.3f}, {stats.ci_high:.3f}]"
    )
print()

print("== aligned sticks, d = 2 (expected slope near -1) ==")
points = []
law = Rigid(np.array([0.0, 1.0]))
for L in (8.0, 16.0, 32.0):
    est = estimate_threshold(2, L, law, 10.0 * L, replicates=REPLICATES, seed=SEED)
    points.append((L, est.lambda_hat, fit_weight(est)))
    print(
        f"  L={L:4.0f}: lambda_hat {est.lambda_hat:.5g}  "
        f"lambda*L = {est.lambda_hat * L:.3f}  probes {len(est.probes)}"
    )
fit = scaling_fit(points)
print(f"  fitted slope {fit.slope:.3f} +- {fit.stderr:.3f}")
