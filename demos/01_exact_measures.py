"""Closed-form measures and their Monte Carlo verification.

Walks through the exact quantities the package provides: the capsule
volume behind segment-ball hitting, the spherical-cap hitting probability
with its closed-form lower bound, the two-ball connection constant, and
the critical-intensity brackets for both orientation laws.
"""

import math

from stickperc.measures import (
    c_d,
    c_d_prime,
    cap_hit_lower_bound,
    cap_hit_probability_exact,
    mc_cap_hit_probability,
    mc_stick_hit_volume,
    mc_two_ball_measure,
    stick_hit_volume,
    theorem_bounds,
    two_ball_lower_bound,
)
from stickperc.sampling import Uniform

print("== segment-ball hitting volume ==")
print("The set of centers whose length-L segment reaches B(o, rho) is a")
print("radius-rho capsule; its volume is L vol(B_{d-1}) + vol(B_d).\n")
for d, L, rho in [(2, 10.0, 2.0), (3, 10.0, 2.0), (4, 8.0, 2.0)]:
    exact = stick_hit_volume(d, L, rho)
    mc = mc_stick_hit_volume(d, L, rho, Uniform(), 300_000, seed=1)
    print(f"  d={d} L={L:4.0f} rho={rho}: exact {exact:10.4f}   MC {mc.value:10.4f} +- {mc.stderr:.4f}")

print("\n== spherical-cap hitting probability ==")
print("From distance r, the fraction of directions whose line passes within")
print("rho of the center is a regularized incomplete beta value; the")
print("power-law lower bound below it drives the subcriticality argument.\n")
for d, rho, r in [(2, 1.0, 2.0), (3, 1.0, 2.0), (5, 2.0, 7.0)]:
    exact = cap_hit_probability_exact(d, rho, r)
    lower = cap_hit_lower_bound(d, rho, r)
    mc = mc_cap_hit_probability(d, rho, r, 200_000, seed=2)
    print(
        f"  d={d} rho={rho} r={r}: exact {exact:.6f}   direction-MC {mc.value:.6f} "
        f"+- {mc.stderr:.6f}   lower bound {lower:.6f}"
    )

print("\n== two-ball connection measure ==")
print("Segments centered in the middle construction box that connect a ball")
print("in the far box with one on the near inset face have measure at least")
print("lambda * delta * c_d * L^(2-d).\n")
print(f"  c_2 = {c_d(2):.6f} = 1/(2 sqrt(2) pi); c_3 = {c_d(3):.6f}")
print(f"  per-step constants c'_d: d=2 {c_d_prime(2):.3e}, d=3 {c_d_prime(3):.3e}")
est = mc_two_ball_measure(2, 256.0, Uniform(), 500_000, seed=3)
print(f"  d=2 L=256: MC {est.value:.4f} +- {est.stderr:.4f} vs bound {two_ball_lower_bound(2, 256.0, 1.0):.4f}")

print("\n== critical-intensity brackets ==")
print("Isotropic sticks: both bounds scale like 1/L^2; aligned sticks: 1/L.\n")
for law, L in [("uniform", 400.0), ("rigid", 100.0)]:
    for d in (2, 3):
        rep = theorem_bounds(d, L * math.sqrt(d), law)
        print(
            f"  {law:7s} d={d} L={rep.length:6.1f}: "
            f"[{rep.lower:.4e}, {rep.upper:.4e}]  (ratio {rep.upper / rep.lower:.1e})"
        )
