import math
import sys

import numpy as np
import pytest
import scipy.special

from conftest import traced_peak
from stickperc.errors import DomainError, PreconditionViolated
from stickperc.measures import (
    ConstructionGeometry,
    ball_volume,
    c_d,
    c_d_prime,
    cap_hit_lower_bound,
    cap_hit_probability_exact,
    gw_offspring_bound,
    lattice_T_count,
    lattice_T_count_bound,
    mc_cap_hit_probability,
    mc_stick_hit_volume,
    mc_two_ball_measure,
    stick_hit_volume,
    theorem_bounds,
    two_ball_lower_bound,
)
from stickperc.sampling import Rigid


class TestStickHitVolume:
    def test_zero_length_is_ball_volume(self):
        assert stick_hit_volume(3, 0.0, 1.0) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)
        for d, rho in [(2, 1.0), (3, 2.0), (4, 0.5), (7, 1.3)]:
            assert stick_hit_volume(d, 0.0, rho) == pytest.approx(ball_volume(d, rho), abs=1e-12)

    def test_d2_closed_values(self):
        assert stick_hit_volume(2, 10.0, 2.0) == pytest.approx(40.0 + 4.0 * math.pi, rel=1e-12)
        assert stick_hit_volume(2, 10.0, 4.0) == pytest.approx(80.0 + 16.0 * math.pi, rel=1e-12)

    def test_radius_scaling(self):
        # L rho^{d-1} term and rho^d term scale as claimed
        d = 4
        lo = stick_hit_volume(d, 7.0, 1.0)
        cross = lo - ball_volume(d, 1.0)
        hi = stick_hit_volume(d, 7.0, 3.0)
        assert hi == pytest.approx(cross * 3.0 ** (d - 1) + ball_volume(d, 1.0) * 3.0**d, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            stick_hit_volume(1, 1.0, 1.0)
        with pytest.raises(DomainError):
            stick_hit_volume(2, 1.0, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_length_or_radius_rejected(self, value):
        with pytest.raises(DomainError, match=rf"^stick length must be a number in \[0, inf\), got {value}$"):
            stick_hit_volume(2, value, 1.0)
        with pytest.raises(DomainError, match=rf"^radius must be a number in \(0, inf\), got {value}$"):
            stick_hit_volume(2, 1.0, value)
        with pytest.raises(DomainError, match=rf"^radius must be a number in \[0, inf\), got {value}$"):
            ball_volume(2, value)
        # a point is still a segment, and a point ball still a ball
        assert stick_hit_volume(2, 0.0, 1.0) == ball_volume(2, 1.0)
        assert ball_volume(2, 0.0) == 0.0

    def test_monte_carlo_length_checked(self):
        with pytest.raises(DomainError, match=r"^stick length must be a number in \(0, inf\), got inf$"):
            mc_stick_hit_volume(2, math.inf, 1.0, 10, seed=1)

    @pytest.mark.parametrize("d, trials, seed", [(2, 200_000, 1), (2, 1_200_000, 2), (3, 400_000, 3)])
    def test_memory_does_not_grow_with_the_draws(self, d, trials, seed):
        # the directions and box uniforms stream in blocks; verify's 200,000
        # drawn at once held 7.6 MiB
        assert traced_peak(lambda: mc_stick_hit_volume(d, 10.0, 2.0, trials, seed)) < 3e6

    def test_monte_carlo_agreement(self):
        est = mc_stick_hit_volume(2, 10.0, 2.0, 150_000, seed=4)
        target = stick_hit_volume(2, 10.0, 2.0)
        assert abs(est.value - target) <= 3.0 * est.stderr
        assert est.stderr < 0.01 * target


# 20,000 draws are blocks of 8,192 + 8,192 + 3,616: a block draws each of
# its arrays in turn, so the stick-hit and two-ball values depend on the
# split, and these pins are the oracle rather than an unblocked call.
@pytest.mark.parametrize(
    "estimate, hits, value, stderr",
    [
        (lambda: mc_stick_hit_volume(3, 10.0, 2.0, 20_000, seed=5),
         14270, 159.824, 0.7161307500729179),
        (lambda: mc_cap_hit_probability(4, 1.0, 2.5, 20_000, seed=6),
         537, 0.02685, 0.0011430021325439424),
        (lambda: mc_two_ball_measure(2, 256.0, 20_000, seed=7, intensity=0.5),
         28, 0.35840000000000005, 0.06768380509398096),
        (lambda: mc_two_ball_measure(3, 33.0, 20_000, seed=7, intensity=0.5),
         220, 0.07429381603598419, 0.004981262992033056),
        (lambda: mc_two_ball_measure(4, 33.0, 20_000, seed=7, intensity=0.5),
         31, 0.014024181747436523, 0.0025168645579237863),
    ],
    ids=["stick-hit", "cap-hit", "two-ball", "two-ball-d3", "two-ball-d4"],
)
def test_chunked_estimates_pinned(estimate, hits, value, stderr):
    est = estimate()
    assert (est.trials, est.hits, est.value, est.stderr) == (20_000, hits, value, stderr)


class TestCapHitProbability:
    def test_d2_arcsine_value(self):
        assert cap_hit_probability_exact(2, 1.0, 2.0) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_d3_cap_height(self):
        assert cap_hit_probability_exact(3, 1.0, 2.0) == pytest.approx(
            1.0 - math.sqrt(3.0) / 2.0, abs=1e-12
        )

    def test_grazing_limit(self):
        for d in (2, 3, 5):
            assert cap_hit_probability_exact(d, 1.0, 1.0 + 1e-9) == pytest.approx(1.0, abs=1e-3)

    def test_monotonicity(self):
        rhos = np.linspace(0.1, 1.9, 25)
        vals = [cap_hit_probability_exact(3, float(r), 2.0) for r in rhos]
        assert np.all(np.diff(vals) > 0)
        rs = np.linspace(1.1, 30.0, 25)
        vals = [cap_hit_probability_exact(3, 1.0, float(r)) for r in rs]
        assert np.all(np.diff(vals) < 0)

    def test_lower_bound_examples(self):
        assert cap_hit_lower_bound(2, 1.0, 2.0) == pytest.approx(1.0 / math.pi, rel=1e-12)
        assert cap_hit_lower_bound(3, 1.0, 2.0) == pytest.approx(0.125, rel=1e-12)

    def test_lower_bound_below_exact(self):
        rng = np.random.default_rng(77)
        for _ in range(2000):
            d = int(rng.integers(2, 9))
            r = float(rng.uniform(1.01, 60.0))
            rho = float(rng.uniform(0.02, 0.98) * r)
            assert cap_hit_lower_bound(d, rho, r) <= cap_hit_probability_exact(d, rho, r) + 1e-12

    def test_bound_limit_is_constant_below_one(self):
        for d in range(2, 9):
            limit = math.exp(math.lgamma(d / 2) - 0.5 * math.log(math.pi) - math.lgamma((d + 1) / 2))
            assert cap_hit_lower_bound(d, 1.0 - 1e-12, 1.0) == pytest.approx(limit, rel=1e-9)
            assert limit < 1.0

    def test_against_scipy(self):
        rng = np.random.default_rng(41)
        for d in range(2, 13):
            cases = [(float(s), 1.0) for s in rng.uniform(0.0, 1.0, 300) if s > 0.0]
            cases += [(1.0, 1.0 + 1e-9), (math.nextafter(1.0, 0.0), 1.0), (1e-9, 1.0), (1e-300, 1.0)]
            for rho, r in cases:
                ref = float(scipy.special.betainc(0.5 * (d - 1), 0.5, (rho / r) ** 2))
                assert abs(cap_hit_probability_exact(d, rho, r) - ref) <= 1e-12, (d, rho, r)

    def test_direction_mc(self):
        est = mc_cap_hit_probability(3, 1.0, 2.0, 200_000, seed=8)
        target = cap_hit_probability_exact(3, 1.0, 2.0)
        assert abs(est.value - target) <= 3.0 * est.stderr

    @pytest.mark.parametrize("trials", [300_000, 1_200_000])
    def test_memory_does_not_grow_with_the_draws(self, trials):
        # the directions stream in blocks; 300,000 drawn at once held 16.7 MiB
        assert traced_peak(lambda: mc_cap_hit_probability(3, 1.0, 2.5, trials, 1)) < 3e6

    def test_domain(self):
        with pytest.raises(DomainError):
            cap_hit_probability_exact(3, 2.0, 2.0)
        with pytest.raises(DomainError):
            cap_hit_lower_bound(3, 2.0, 1.0)

    @pytest.mark.parametrize(
        "call",
        [cap_hit_probability_exact, cap_hit_lower_bound, lambda d, rho, r: mc_cap_hit_probability(d, rho, r, 10, 1)],
        ids=["exact", "lower-bound", "mc"],
    )
    @pytest.mark.parametrize("rho, r", [(2.0, 2.0), (0.0, 1.0), (math.nan, 1.0), (1.0, math.inf)])
    def test_cap_rule_has_one_message(self, call, rho, r):
        message = rf"^need 0 < rho < r < inf \(point strictly outside the ball\), got rho = {rho}, r = {r}$"
        with pytest.raises(DomainError, match=message):
            call(3, rho, r)

    @pytest.mark.parametrize(
        "call",
        [cap_hit_probability_exact, cap_hit_lower_bound, lambda d, rho, r: mc_cap_hit_probability(d, rho, r, 10, 1)],
        ids=["exact", "lower-bound", "mc"],
    )
    def test_int_beyond_float_refused_by_cap_rule(self, call):
        # the rule's upper end is the largest float, as a float or an int
        r = int(sys.float_info.max)
        assert call(3, 1.0, r) == call(3, 1.0, float(r))
        for beyond in (r + 1, 10**400):
            with pytest.raises(DomainError, match=rf"^need 0 < rho < r < inf .*, got rho = 1.0, r = {beyond}$"):
                call(3, 1.0, beyond)


class TestConnectionConstants:
    def test_c2_value(self):
        assert c_d(2) == pytest.approx(1.0 / (2.0 * math.sqrt(2.0) * math.pi), rel=1e-12)

    def test_c3_value(self):
        expected = 32.0 / math.sqrt(math.pi) / math.sqrt(3.0) * (math.sqrt(math.pi) / 2.0) ** 3 / 24.0
        assert c_d(3) == pytest.approx(expected, rel=1e-12)
        assert c_d(3) == pytest.approx(0.302, rel=2e-3)

    def test_unsimplified_product_chain(self):
        # rebuild the constant from the factor chain before simplification:
        # (1/(32 sqrt d)) * [2^{d-1} G(d/2)/(sqrt(pi) G((d+1)/2))]
        #                 * [2 pi^{(d-1)/2}/G((d-1)/2)]
        #                 * [2^{2(d-1)} G(d-1) G(d) / G(2d-1)]
        for d in range(2, 9):
            product = (
                (1.0 / (32.0 * math.sqrt(d)))
                * (2.0 ** (d - 1) * math.exp(math.lgamma(d / 2)) / (math.sqrt(math.pi) * math.exp(math.lgamma((d + 1) / 2))))
                * (2.0 * math.pi ** ((d - 1) / 2) / math.exp(math.lgamma((d - 1) / 2)))
                * (2.0 ** (2 * (d - 1)) * math.exp(math.lgamma(d - 1)) * math.exp(math.lgamma(d)) / math.exp(math.lgamma(2 * d - 1)))
            )
            assert abs(product - c_d(d)) <= 1e-12 * c_d(d)

    def test_c_d_prime(self):
        assert c_d_prime(2) == pytest.approx(c_d(2) / 2e6, rel=1e-12)
        assert c_d_prime(3) == pytest.approx(c_d(3) / (1000.0 * math.sqrt(3.0)) ** 3, rel=1e-12)
        for d in range(2, 10):
            assert c_d_prime(d) < c_d(d)


class TestTheoremBounds:
    def test_uniform_lower_constant_d2(self):
        rep = theorem_bounds(2, 4.0, "uniform", strict=False)
        assert rep.lower == pytest.approx(0.125 / 16.0, rel=1e-12)

    def test_rigid_constants_d2(self):
        rep = theorem_bounds(2, 100.0, "rigid")
        assert rep.lower == pytest.approx(1.0 / (8.0 * math.sqrt(math.pi)) / 100.0, rel=1e-12)
        assert rep.upper == pytest.approx(8.0 * math.sqrt(math.pi) / 100.0, rel=1e-12)

    def test_uniform_upper_constant_d2(self):
        rep = theorem_bounds(2, 300.0, "uniform")
        expected_const = 20.0 * (1000.0 * math.sqrt(2.0)) ** 2 * math.sqrt(2.0) * 2.0 / (
            9.0 * (1.0 / math.pi)
        )
        assert rep.upper == pytest.approx(expected_const / 300.0**2, rel=1e-12)
        assert expected_const == pytest.approx(3.95e7, rel=1e-3)

    def test_density_law_scales_with_delta(self):
        rep1 = theorem_bounds(2, 300.0, "density", delta=1.0)
        rep2 = theorem_bounds(2, 300.0, "density", delta=0.25)
        assert rep2.upper == pytest.approx(4.0 * rep1.upper, rel=1e-12)
        assert rep2.lower == pytest.approx(rep1.lower, rel=1e-12)

    def test_validity_thresholds(self):
        with pytest.raises(PreconditionViolated):
            theorem_bounds(2, 3.0, "rigid")
        with pytest.raises(PreconditionViolated):
            theorem_bounds(2, math.pi, "uniform")
        with pytest.raises(PreconditionViolated):
            theorem_bounds(3, 300.0, "uniform")  # 300 < 200 sqrt(3)
        # non-strict evaluates anyway
        rep = theorem_bounds(2, 8.0, "uniform", strict=False)
        assert rep.lower < rep.upper

    def test_ordering_invariant(self):
        for d in range(2, 8):
            for law in ("uniform", "rigid"):
                rep = theorem_bounds(d, 250.0 * math.sqrt(d), law)
                assert 0.0 < rep.lower < rep.upper < math.inf

    def test_law_objects_accepted(self):
        rep = theorem_bounds(2, 100.0, Rigid(np.array([0.0, 1.0])))
        assert rep.law == "rigid"

    @pytest.mark.parametrize("law", ["uniform", "rigid", "density"])
    @pytest.mark.parametrize("delta", [0.0, -1.0, 1.5, math.inf, math.nan])
    def test_density_floor_checked_for_every_law(self, law, delta):
        with pytest.raises(DomainError, match=rf"^density floor delta must be a number in \(0, 1\], got {delta}$"):
            theorem_bounds(2, 400.0, law, delta=delta)


class TestOffspringBound:
    def test_pivot_equals_one(self):
        for d in range(2, 7):
            L = 50.0 * d
            lam = theorem_bounds(d, L, "uniform", strict=False).lower
            assert gw_offspring_bound(d, L, lam, "uniform") == pytest.approx(1.0, abs=1e-12)

    def test_uniform_example(self):
        assert gw_offspring_bound(2, 10.0, 0.01, "uniform") == pytest.approx(8.0, rel=1e-12)

    def test_rigid_example(self):
        assert gw_offspring_bound(2, 10.0, 0.1, "rigid") == pytest.approx(
            8.0 * math.sqrt(math.pi), rel=1e-12
        )

    def test_preconditions(self):
        with pytest.raises(PreconditionViolated):
            gw_offspring_bound(2, 3.0, 0.1, "uniform")
        with pytest.raises(PreconditionViolated):
            gw_offspring_bound(2, 2.9, 0.1, "rigid")

    @pytest.mark.parametrize(
        "length, intensity, message",
        [
            (math.inf, 0.1, r"^stick length must be a number in \(0, inf\), got inf$"),
            (10.0, -0.1, r"^intensity must be a number in \[0, inf\), got -0.1$"),
        ],
        ids=["L-inf", "intensity-negative"],
    )
    def test_length_and_intensity_checked(self, length, intensity, message):
        # unchecked, these gave inf and -80.0
        with pytest.raises(DomainError, match=message):
            gw_offspring_bound(2, length, intensity, "uniform")


class TestConstructionGeometry:
    def test_boxes_disjoint(self):
        geom = ConstructionGeometry(3, 600.0)
        hi1 = geom.box((0, 0)).high
        lo2 = geom.box((1, 0)).low
        assert hi1[0] < lo2[0]
        # spacing L/4 exceeds the side L/(8 sqrt d)
        assert geom.spacing > 2.0 * geom.half_side

    def test_lattice_count_examples(self):
        assert lattice_T_count(2, 600.0) == 1
        assert lattice_T_count(2, 2000.0) == 13

    def test_lattice_count_matches_direct_enumeration(self):
        for d, L in [(2, 400.0), (2, 977.0), (3, 800.0), (4, 1500.0)]:
            geom = ConstructionGeometry(d, L)
            margin = geom.half_side - 16.0
            per_axis = 0
            if margin >= 0:
                pts = np.arange(math.ceil(-margin / 12.0), math.floor(margin / 12.0) + 1)
                per_axis = len(pts)
            assert lattice_T_count(d, L) == per_axis ** (d - 1)

    def test_lattice_count_bound(self):
        # enumerated count respects the closed-form lower bound wherever the
        # inset face is nonempty
        for L in np.linspace(300, 5000, 40):
            assert lattice_T_count(2, float(L)) >= lattice_T_count_bound(2, float(L))
        for L in np.linspace(760, 8000, 30):  # face nonempty needs L >= 256 sqrt(3)
            assert lattice_T_count(3, float(L)) >= lattice_T_count_bound(3, float(L))

    def test_lattice_count_precondition(self):
        with pytest.raises(PreconditionViolated):
            lattice_T_count(2, 250.0)


class TestTwoBallMeasure:
    def test_zero_trials_rejected(self):
        with pytest.raises(DomainError, match="^trials must be an integer >= 1$"):
            mc_two_ball_measure(2, 256.0, 0, seed=1)

    def test_geometry_preconditions(self):
        with pytest.raises(PreconditionViolated):
            mc_two_ball_measure(2, 30.0, 10, seed=1)

    def test_estimate_beats_lower_bound(self):
        est = mc_two_ball_measure(2, 256.0, 400_000, seed=3)
        bound = two_ball_lower_bound(2, 256.0, delta=1.0)
        assert est.value + 3.0 * est.stderr >= bound
        # comfortably above, not marginal
        assert est.value > bound

    @pytest.mark.parametrize("intensity", [-1.0, math.nan, math.inf])
    def test_invalid_intensity_rejected(self, intensity):
        with pytest.raises(DomainError):
            two_ball_lower_bound(2, 256.0, delta=1.0, intensity=intensity)

    @pytest.mark.parametrize("delta", [0.0, 1.5, math.inf])
    def test_density_floor_out_of_range_rejected(self, delta):
        with pytest.raises(DomainError, match=rf"^density floor delta must be a number in \(0, 1\], got {delta}$"):
            two_ball_lower_bound(2, 256.0, delta=delta)

    def test_lower_bound_length_checked(self):
        with pytest.raises(DomainError, match=r"^stick length must be a number in \(0, inf\), got -5.0$"):
            two_ball_lower_bound(3, -5.0, 1.0)

    @pytest.mark.parametrize("length", [math.inf, math.nan])
    def test_non_finite_length_rejected(self, length):
        with pytest.raises(DomainError, match=rf"^stick length must be a number in \(0, inf\), got {length}$"):
            ConstructionGeometry(2, length)

    def test_box_volume_overflow_names_length(self):
        with pytest.raises(DomainError, match="L = 1e\\+300"):
            mc_two_ball_measure(2, 1e300, 10, seed=1)

    @pytest.mark.parametrize("d, length, trials, seed", [(2, 256.0, 300_000, 1), (2, 256.0, 1_200_000, 2),
                                                         (3, 300.0, 400_000, 3)])
    def test_memory_does_not_grow_with_the_draws(self, d, length, trials, seed):
        # the sticks stream in blocks; verify's 300,000 drawn at once held 25.2 MiB
        assert traced_peak(lambda: mc_two_ball_measure(d, length, trials, seed)) < 3e6
