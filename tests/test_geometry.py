import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    grid_distance_outside_window,
    grid_line_point_min,
    grid_profile_min,
    grid_segment_distance,
    random_unit,
)
from stickperc.errors import DomainError, ParallelLines, PreconditionViolated
from stickperc.geometry import (
    Segment,
    line_line_distance_profile,
    line_line_t_min,
    line_point_distance_sq,
    min_distance_outside_window,
    segment_distance_arrays,
    segments_hit_ball,
    segment_segment_distance,
    sticks_intersect,
)
from stickperc.percolation import intersection_edges
from stickperc.sampling import BoxRegion, Configuration


def seg(center, direction, length):
    return Segment(np.asarray(center, float), np.asarray(direction, float), float(length))


def rand_segment(rng, d, scale=4.0, lmax=8.0):
    return seg(rng.normal(0, scale, d), random_unit(rng, d), rng.uniform(0.5, lmax))


class TestLinePointDistance:
    def test_perpendicular_offset(self):
        assert line_point_distance_sq([2.0, 0.0], [0.0, 1.0], [0.0, 0.0]) == pytest.approx(4.0)

    def test_line_through_origin(self):
        assert line_point_distance_sq([2.0, 0.0], [1.0, 0.0], [0.0, 0.0]) == pytest.approx(0.0)

    def test_3d_against_grid(self):
        x, p, y = [3.0, 4.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]
        val = line_point_distance_sq(x, p, y)
        assert val == pytest.approx(16.0, abs=1e-12)
        assert val == pytest.approx(grid_line_point_min(x, p, y), abs=1e-6)

    def test_random_against_grid(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            x, y = rng.normal(0, 3, 3), rng.normal(0, 3, 3)
            p = random_unit(rng, 3)
            assert line_point_distance_sq(x, p, y) == pytest.approx(
                grid_line_point_min(x, p, y), abs=1e-6
            )


class TestLineLineProfile:
    def test_coincident_points(self):
        x = np.array([1.0, 2.0, 3.0])
        p = random_unit(np.random.default_rng(0), 3)
        q = random_unit(np.random.default_rng(1), 3)
        assert line_line_distance_profile(x, p, x, q, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_skew_perpendicular_gap(self):
        val = line_line_distance_profile(
            [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0], 0.0
        )
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_random_against_tau_grid(self):
        # grid min overshoots the true min by at most (step/2)^2 (unit
        # quadratic coefficient in tau)
        rng = np.random.default_rng(17)
        for _ in range(8):
            x, y = rng.normal(0, 4, 3), rng.normal(0, 4, 3)
            p, q = random_unit(rng, 3), random_unit(rng, 3)
            t = float(rng.normal(0, 5))
            h = line_line_distance_profile(x, p, y, q, t)
            g = grid_profile_min(x, p, y, q, t)
            assert -1e-9 <= g - h <= 2.6e-7


class TestLineLineTMin:
    def test_symmetric_case(self):
        o = np.zeros(3)
        assert line_line_t_min(o, [1.0, 0.0, 0.0], o, [0.0, 1.0, 0.0]) == pytest.approx(0.0)

    def test_vanishing_numerator(self):
        assert line_line_t_min(
            [5.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]
        ) == pytest.approx(0.0)

    def test_minimizer_beats_random_t(self):
        rng = np.random.default_rng(23)
        x, y = rng.normal(0, 5, 3), rng.normal(0, 5, 3)
        p, q = random_unit(rng, 3), random_unit(rng, 3)
        t_min = line_line_t_min(x, p, y, q)
        h_min = line_line_distance_profile(x, p, y, q, t_min)
        ts = rng.normal(0, 50, 10_000)
        hs = np.array([line_line_distance_profile(x, p, y, q, t) for t in ts])
        assert np.all(hs >= h_min - 1e-9)

    def test_quadratic_shift_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            x, y = rng.normal(0, 5, d), rng.normal(0, 5, d)
            p, q = random_unit(rng, d), random_unit(rng, d)
            c = float(p @ q)
            if 1.0 - c * c < 1e-9:
                continue
            t_min = line_line_t_min(x, p, y, q)
            h_min = line_line_distance_profile(x, p, y, q, t_min)
            a = float(rng.normal(0, 20))
            lhs = line_line_distance_profile(x, p, y, q, t_min + a)
            assert abs(lhs - h_min - a * a * (1 - c * c)) <= 1e-9 * (1 + a * a)

    def test_parallel_raises(self):
        p = np.array([1.0, 0.0])
        with pytest.raises(ParallelLines):
            line_line_t_min([0.0, 1.0], p, [0.0, 0.0], p)
        with pytest.raises(ParallelLines):
            line_line_t_min([0.0, 1.0], p, [0.0, 0.0], -p)


class TestSegmentDistance:
    def test_identical_segments(self):
        a = seg([1.0, 2.0], [0.6, 0.8], 3.0)
        assert segment_segment_distance(a, a) == pytest.approx(0.0, abs=1e-12)

    def test_collinear_gap(self):
        a = seg([0.0, 0.0], [1.0, 0.0], 4.0)
        b = seg([10.0, 0.0], [1.0, 0.0], 4.0)
        assert segment_segment_distance(a, b) == pytest.approx(6.0, abs=1e-12)

    def test_parallel_offset_formula(self):
        # parallel sticks: distance = sqrt(rho^2 + max(0, a - L)^2) for
        # perpendicular offset rho and axial center offset a (equal lengths)
        rng = np.random.default_rng(3)
        for _ in range(30):
            L = rng.uniform(1, 8)
            rho = rng.uniform(0, 4)
            shift = rng.uniform(0, 12)
            a = seg([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], L)
            b = seg([shift, rho, 0.0], [1.0, 0.0, 0.0], L)
            expected = math.hypot(rho, max(0.0, shift - L))
            assert segment_segment_distance(a, b) == pytest.approx(expected, abs=1e-10)

    def test_symmetry_and_rigid_motion(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            a, b = rand_segment(rng, d), rand_segment(rng, d)
            dist = segment_segment_distance(a, b)
            assert dist == pytest.approx(segment_segment_distance(b, a), abs=0.0)
            rot, _ = np.linalg.qr(rng.standard_normal((d, d)))
            shift = rng.normal(0, 10, d)
            a2 = seg(rot @ a.center + shift, rot @ a.direction, a.length)
            b2 = seg(rot @ b.center + shift, rot @ b.direction, b.length)
            assert segment_segment_distance(a2, b2) == pytest.approx(dist, abs=1e-9)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_against_grid_oracle(self, d):
        rng = np.random.default_rng(100 + d)
        done = 0
        while done < 40:
            a = rand_segment(rng, d, scale=3.0, lmax=5.0)
            b = rand_segment(rng, d, scale=3.0, lmax=5.0)
            closed = segment_segment_distance(a, b)
            if closed < 0.1:
                continue
            assert abs(closed - grid_segment_distance(a, b, steps=600)) <= 1e-3
            done += 1

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(7)
        for d in (2, 3, 4):
            segs_a = [rand_segment(rng, d) for _ in range(200)]
            segs_b = [rand_segment(rng, d) for _ in range(200)]
            batch = segment_distance_arrays(
                np.array([s.center for s in segs_a]),
                np.array([s.direction for s in segs_a]),
                np.array([s.length for s in segs_a]),
                np.array([s.center for s in segs_b]),
                np.array([s.direction for s in segs_b]),
                np.array([s.length for s in segs_b]),
            )
            scalar = np.array(
                [segment_segment_distance(a, b) for a, b in zip(segs_a, segs_b)]
            )
            np.testing.assert_allclose(batch, scalar, atol=1e-9)


class TestSticksIntersect:
    def test_identical(self):
        s = seg([0.0, 0.0], [1.0, 0.0], 5.0)
        assert sticks_intersect(s, s)

    def test_just_beyond_tangency(self):
        a = seg([0.0, 0.0], [1.0, 0.0], 5.0)
        b = seg([0.0, 2.0001], [1.0, 0.0], 5.0)
        assert not sticks_intersect(a, b)

    def test_parallel_within_reach(self):
        a = seg([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], 10.0)
        b = seg([0.0, 1.9, 0.0], [1.0, 0.0, 0.0], 10.0)
        assert segment_segment_distance(a, b) == pytest.approx(1.9)
        assert sticks_intersect(a, b)

    def test_tangency_counts_as_intersecting(self):
        a = seg([0.0, 0.0], [1.0, 0.0], 5.0)
        b = seg([0.0, 2.0], [1.0, 0.0], 5.0)
        assert sticks_intersect(a, b)


def batch_distance(a, b):
    return float(
        segment_distance_arrays(
            a.center[None], a.direction[None], a.length, b.center[None], b.direction[None], b.length
        )[0]
    )


@st.composite
def segment_pairs(draw):
    d = draw(st.sampled_from([2, 3, 4]))
    vectors = st.lists(st.floats(-10.0, 10.0), min_size=d, max_size=d).map(np.array)
    dirs = vectors.filter(lambda v: np.linalg.norm(v) > 0.1).map(lambda v: v / np.linalg.norm(v))
    lengths = st.floats(0.5, 8.0)
    return tuple(seg(draw(vectors), draw(dirs), draw(lengths)) for _ in range(2))


@st.composite
def near_parallel_pairs(draw, gap_factors):
    """Segments whose directions have 1 - <p,q>^2 = k * 1e-12, k drawn from
    ``gap_factors``, set about 2 apart: distances near 0 are too
    ill-conditioned in the square root to compare at 1e-9, and only
    distances near 2 decide an overlap."""
    d = draw(st.sampled_from([2, 3, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = random_unit(rng, d)
    w = rng.normal(size=d)
    w = (w - (w @ p) * p) / np.linalg.norm(w - (w @ p) * p)
    sin = math.sqrt(draw(gap_factors) * 1e-12)
    q = math.sqrt(1.0 - sin * sin) * p + sin * w
    n = rng.normal(size=d)
    n = (n - (n @ p) * p) / np.linalg.norm(n - (n @ p) * p)
    ca = rng.normal(0.0, 4.0, d)
    cb = ca + draw(st.floats(-8.0, 8.0)) * p + draw(st.floats(1.5, 2.5)) * n
    lengths = st.floats(0.5, 8.0)
    return seg(ca, p, draw(lengths)), seg(cb, q / np.linalg.norm(q), draw(lengths))


@st.composite
def tangent_pairs(draw):
    """Two axis-aligned sticks of one integer length at distance exactly 2:
    parallel with overlapping projections, or a perpendicular stick passing
    2 beyond the first one's end.  Every coordinate is a small dyadic."""
    d = draw(st.sampled_from([2, 3, 4]))
    i, j = draw(st.permutations(range(d)))[:2]
    ei, ej = np.eye(d)[i], np.eye(d)[j]
    length = draw(st.integers(1, 16))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    ca = np.array(draw(st.lists(st.integers(-20, 20), min_size=d, max_size=d)), dtype=float)
    if draw(st.booleans()):
        cb = ca + 2.0 * sign * ej + draw(st.integers(-length, length)) * ei
        db = ei
    else:
        along = draw(st.integers(-(length // 2), length // 2))
        cb = ca + sign * (0.5 * length + 2.0) * ei + along * ej
        db = ej
    return seg(ca, ei, length), seg(cb, db, length)


# Unit segments whose 1 - <p,q>^2 falls below the parallel tolerance.  Two
# crossing at the origin (1.4e-14): the scalar edge scan alone gave 5.96e-8
# instead of 0.  One tilted by 1.49e-8 towards a parallel one at distance 1
# (1 - c^2 rounds to 0): the vector kernel started at t = 0 and gave 1
# instead of 1 - 7.45e-9.
CROSSING_NEAR_PARALLEL = (
    seg([0.0, 0.0], np.array([2.0**-23, 1.0]) / np.linalg.norm([2.0**-23, 1.0]), 1.0),
    seg([0.0, 0.0], [0.0, 1.0], 1.0),
)
TILTED_NEAR_PARALLEL = (
    seg([0.0, 0.0], np.array([1.0, 2.0**-26]) / np.linalg.norm([1.0, 2.0**-26]), 1.0),
    seg([0.0, 1.0], [1.0, 0.0], 1.0),
)


class TestKernelProperties:
    @settings(max_examples=300, deadline=None)
    @given(segment_pairs())
    @example(CROSSING_NEAR_PARALLEL)
    @example(TILTED_NEAR_PARALLEL)
    def test_batch_matches_scalar(self, pair):
        a, b = pair
        assert batch_distance(a, b) == pytest.approx(segment_segment_distance(a, b), abs=1e-9)

    @pytest.mark.parametrize("gap_factors", [st.floats(0.25, 0.95), st.floats(1.05, 4.0)],
                             ids=["below-tolerance", "above-tolerance"])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_near_parallel_batch_matches_scalar(self, gap_factors, data):
        a, b = data.draw(near_parallel_pairs(gap_factors))
        assert batch_distance(a, b) == pytest.approx(segment_segment_distance(a, b), abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(tangent_pairs(), st.sampled_from([None, 1.0, 2.0, 3.0, 7.0]))
    def test_tangent_pairs_overlap(self, pair, cell):
        a, b = pair
        assert segment_segment_distance(a, b) == 2.0
        assert batch_distance(a, b) == 2.0
        assert sticks_intersect(a, b)
        centers = np.array([a.center, b.center])
        dirs = np.array([a.direction, b.direction])
        reach = a.length + 3.0
        box = BoxRegion(centers.min(axis=0) - reach, centers.max(axis=0) + reach)
        config = Configuration(len(centers[0]), a.length, 1.0, box, centers, dirs, seed=0)
        edges = intersection_edges(config, cell)
        assert edges.tolist() == [[0, 1]]


def hits_ball(s, c, rho):
    # one row through the vectorized test
    return bool(segments_hit_ball(s.center[None], s.direction[None], [s.half], c, rho)[0])


class TestSegmentHitsBall:
    def test_center_inside(self):
        s = seg([1.0, 1.0], [1.0, 0.0], 10.0)
        assert hits_ball(s, s.center, 0.5)

    def test_endpoint_out_of_reach(self):
        s = seg([0.0, 0.0], [1.0, 0.0], 10.0)
        assert not hits_ball(s, [7.0, 0.0], 1.0)

    def test_endpoint_within_reach(self):
        s = seg([0.0, 0.0], [1.0, 0.0], 10.0)
        assert hits_ball(s, [5.5, 0.0], 1.0)

    def test_invalid_radius(self):
        s = seg([0.0, 0.0], [1.0, 0.0], 10.0)
        with pytest.raises(DomainError):
            hits_ball(s, [0.0, 0.0], 0.0)


class TestMinDistanceOutsideWindow:
    def test_window_zero_returns_pair_distance(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.0, 1.0])
        val = min_distance_outside_window(np.zeros(2), p, np.zeros(2), q, 0.0, 0.0, 0.0)
        assert val <= 2.0

    def test_perpendicular_through_origin(self):
        p = np.array([1.0, 0.0, 0.0])
        q = np.array([0.0, 1.0, 0.0])
        val = min_distance_outside_window(np.zeros(3), p, np.zeros(3), q, 0.0, 0.0, 12.0)
        assert val == pytest.approx(12.0, abs=1e-9)
        oracle = grid_distance_outside_window(np.zeros(3), p, np.zeros(3), q, 0.0, 0.0, 12.0)
        assert val == pytest.approx(oracle, abs=1e-3)

    def test_forty_five_degree_lines(self):
        # |<p,q>| = 1/sqrt(2), the extreme the precondition allows
        p = np.array([1.0, 0.0])
        q = np.array([1.0, 1.0]) / math.sqrt(2.0)
        val = min_distance_outside_window(np.zeros(2), p, np.zeros(2), q, 0.0, 0.0, 12.0)
        assert val == pytest.approx(12.0 / math.sqrt(2.0), abs=1e-9)
        oracle = grid_distance_outside_window(np.zeros(2), p, np.zeros(2), q, 0.0, 0.0, 12.0)
        assert val == pytest.approx(oracle, abs=1e-3)

    def test_random_instances_against_grid(self):
        rng = np.random.default_rng(222)
        done = 0
        while done < 10:
            p, q = random_unit(rng, 3), random_unit(rng, 3)
            if abs(float(p @ q)) > 1.0 / math.sqrt(2.0):
                continue
            t1, tau1 = rng.normal(0, 5), rng.normal(0, 5)
            anchor = rng.normal(0, 5, 3)
            x = anchor - t1 * p
            y = anchor + rng.uniform(0, 2) * random_unit(rng, 3) - tau1 * q
            val = min_distance_outside_window(x, p, y, q, t1, tau1, 12.0)
            oracle = grid_distance_outside_window(x, p, y, q, t1, tau1, 12.0)
            assert val == pytest.approx(oracle, abs=2e-3)
            assert val >= 6.0
            done += 1

    def test_preconditions(self):
        p = np.array([1.0, 0.0])
        with pytest.raises(PreconditionViolated):
            min_distance_outside_window(
                np.zeros(2), p, np.zeros(2), np.array([0.98, math.sqrt(1 - 0.98**2)]),
                0.0, 0.0, 12.0,
            )
        q = np.array([0.0, 1.0])
        with pytest.raises(PreconditionViolated):
            # the window-defining pair is 5 apart, beyond 2
            min_distance_outside_window(np.array([5.0, 0.0]), q, np.zeros(2), p, 0.0, 0.0, 12.0)


class TestSegmentValidation:
    def test_non_unit_direction_rejected(self):
        with pytest.raises(DomainError):
            Segment(np.zeros(2), np.array([1.0, 1.0]), 2.0)

    def test_nonpositive_length_rejected(self):
        with pytest.raises(DomainError):
            Segment(np.zeros(2), np.array([1.0, 0.0]), 0.0)

    def test_dimension_one_rejected(self):
        with pytest.raises(DomainError):
            Segment(np.zeros(1), np.array([1.0]), 2.0)
