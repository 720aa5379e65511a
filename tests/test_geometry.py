import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    batch_clustering,
    einsum_ball_distance_sq,
    einsum_segment_distance,
    full_grid_segment_distance,
    grid_distance_outside_window,
    grid_profile_min,
    grid_segment_distance,
    random_unit,
    segment_segment_distance,
)
from stickperc import geometry
from stickperc.errors import DomainError, ParallelLines, PreconditionViolated
from stickperc.geometry import (
    line_line_distance_profile,
    line_line_t_min,
    min_distance_outside_window,
    segment_distance_arrays,
    segments_hit_ball,
)
from stickperc.percolation import tuned_cell_size
from stickperc.sampling import BoxRegion, Configuration, Rigid


def seg(center, direction, length):
    # a stick as the rows segment_distance_arrays takes
    return np.asarray(center, float), np.asarray(direction, float), float(length)


def rand_segment(rng, d, scale=4.0, lmax=8.0):
    return seg(rng.normal(0, scale, d), random_unit(rng, d), rng.uniform(0.5, lmax))


def batch_distance(a, b):
    return float(segment_distance_arrays(*a, *b))


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


class TestBroadcastLineFunctions:
    @staticmethod
    def rows(n, d, seed):
        rng = np.random.default_rng(seed)
        return [
            (rng.normal(0, 5, d), random_unit(rng, d), rng.normal(0, 5, d), random_unit(rng, d), rng.normal(0, 20))
            for _ in range(n)
        ]

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_rows_equal_scalar_calls(self, d):
        rows = self.rows(200, d, 40 + d)
        x, p, y, q, t = map(np.array, zip(*rows))
        profile = line_line_distance_profile(x, p, y, q, t)
        t_min = line_line_t_min(x, p, y, q)
        assert profile.shape == t_min.shape == (200,)
        assert profile.tolist() == [line_line_distance_profile(*row) for row in rows]
        scalar = [line_line_t_min(*row[:4]) for row in rows]
        assert t_min.tolist() == scalar
        assert all(isinstance(v, float) for v in scalar)

    def test_one_parallel_row_raises(self):
        x, p, y, q, _ = map(np.array, zip(*self.rows(50, 3, 7)))
        line_line_t_min(x, p, y, q)
        q[17] = -p[17]
        with pytest.raises(ParallelLines):
            line_line_t_min(x, p, y, q)


def test_window_pair_distance_reads_the_gap():
    # far out along both lines the expanded quadratic cancels to about
    # 4e-9; the gap vector itself is exact to a few ulp of 300
    p = np.array([1.0, 0.0, 0.0])
    q = np.array([0.0, 0.6, 0.8])
    gap = 1e-3 * np.array([0.0, 0.8, -0.6])  # orthogonal to p and q
    val = min_distance_outside_window(-300.0 * p, p, gap - 300.0 * q, q, 300.0, 300.0, 0.0)
    assert abs(val - 1e-3) <= 1e-12


class TestSegmentDistance:
    def test_identical_segments(self):
        a = seg([1.0, 2.0], [0.6, 0.8], 3.0)
        assert batch_distance(a, a) == pytest.approx(0.0, abs=1e-12)

    def test_collinear_gap(self):
        a = seg([0.0, 0.0], [1.0, 0.0], 4.0)
        b = seg([10.0, 0.0], [1.0, 0.0], 4.0)
        assert batch_distance(a, b) == pytest.approx(6.0, abs=1e-12)

    def test_parallel_offset_formula(self):
        # parallel sticks: distance = sqrt(rho^2 + max(0, a - L)^2) for
        # perpendicular offset rho and axial center offset a (equal lengths)
        rng = np.random.default_rng(3)
        L, rho, shift = rng.uniform([1, 0, 0], [8, 4, 12], (30, 3)).T
        axis = np.array([1.0, 0.0, 0.0])
        centers_b = np.stack([shift, rho, np.zeros(30)], axis=1)
        dist = segment_distance_arrays(np.zeros(3), axis, L, centers_b, axis, L)
        expected = np.hypot(rho, np.maximum(0.0, shift - L))
        np.testing.assert_allclose(dist, expected, rtol=0.0, atol=1e-10)

    def test_symmetry_and_rigid_motion(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            a, b = rand_segment(rng, d), rand_segment(rng, d)
            assert segment_segment_distance(*a, *b) == pytest.approx(segment_segment_distance(*b, *a), abs=0.0)
            dist = batch_distance(a, b)
            rot, _ = np.linalg.qr(rng.standard_normal((d, d)))
            shift = rng.normal(0, 10, d)
            a2, b2 = (seg(rot @ center + shift, rot @ direction, length) for center, direction, length in (a, b))
            assert batch_distance(a2, b2) == pytest.approx(dist, abs=1e-9)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_against_grid_oracle(self, d):
        rng = np.random.default_rng(100 + d)
        done = 0
        while done < 40:
            a = rand_segment(rng, d, scale=3.0, lmax=5.0)
            b = rand_segment(rng, d, scale=3.0, lmax=5.0)
            closed = batch_distance(a, b)
            if closed < 0.1:
                continue
            assert abs(closed - grid_segment_distance(*a, *b, steps=600)) <= 1e-3
            done += 1

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(7)
        for d in (2, 3, 4):
            segs_a = [rand_segment(rng, d) for _ in range(200)]
            segs_b = [rand_segment(rng, d) for _ in range(200)]
            batch = segment_distance_arrays(*map(np.array, zip(*segs_a)), *map(np.array, zip(*segs_b)))
            scalar = np.array([segment_segment_distance(*a, *b) for a, b in zip(segs_a, segs_b)])
            np.testing.assert_allclose(batch, scalar, atol=1e-9)

    @pytest.mark.parametrize("steps", [2, 3, 7, 40, 101])
    def test_grid_oracle_equals_full_grid(self, steps):
        # the oracle evaluates each row only at the two grid points around
        # the row's vertex; the full scan must find the same minimum
        rng = np.random.default_rng(steps)
        for _ in range(100):
            d = int(rng.integers(2, 6))
            a = rand_segment(rng, d, scale=3.0, lmax=5.0)
            b = rand_segment(rng, d, scale=3.0, lmax=5.0)
            assert grid_segment_distance(*a, *b, steps) == full_grid_segment_distance(*a, *b, steps)


def unit_rows(v):
    return v / np.sqrt(np.einsum("...i,...i->...", v, v))[..., None]


def random_sticks(rng, n, d):
    return rng.normal(0.0, 6.0, (n, d)), unit_rows(rng.standard_normal((n, d)))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
class TestKernelMatchesEinsumReference:
    """The per-axis kernel equals its einsum row form to the last bit at
    d = 2..6.  At d >= 7 its even-then-odd sum may differ from einsum's
    order in the last bit; no workload, test or acceptance run uses d >= 7."""

    def test_rows(self, d):
        rng = np.random.default_rng(d)
        a, b = ((*random_sticks(rng, 20_000, d), rng.uniform(0.5, 16.0, 20_000)) for _ in range(2))
        assert np.array_equal(segment_distance_arrays(*a, *b), einsum_segment_distance(*a, *b))

    def test_one_stick_against_rows(self, d):
        # branching's calls: many sticks against one, and each fresh stick
        # against every processed one through a (k, 1, d) axis
        rng = np.random.default_rng(10 + d)
        centers, dirs = random_sticks(rng, 5_000, d)
        one = rng.normal(0.0, 1.0, d), unit_rows(rng.standard_normal(d))
        for args in [(centers, dirs, 8.0, *one, 8.0), (*one, 8.0, centers, dirs, 8.0),
                     (centers[:200, None], dirs[:200, None], 8.0, centers[200:260], dirs[200:260], 8.0)]:
            assert np.array_equal(segment_distance_arrays(*args), einsum_segment_distance(*args))

    def test_parallel_and_nearly_parallel(self, d):
        rng = np.random.default_rng(20 + d)
        ca, cb = rng.normal(0.0, 4.0, (2, 6_000, d))
        da = unit_rows(rng.standard_normal((6_000, d)))
        tilt = 10.0 ** rng.uniform(-12.0, -4.0, (2_000, 1)) * rng.standard_normal((2_000, d))
        db = np.concatenate([unit_rows(da[:2_000] + tilt), da[2_000:4_000], -da[4_000:]])
        assert np.array_equal(segment_distance_arrays(ca, da, 8.0, cb, db, 6.0),
                              einsum_segment_distance(ca, da, 8.0, cb, db, 6.0))

    def test_distance_exactly_two(self, d):
        # axis-aligned sticks of length 6: side by side 2 apart, and end on
        # 2 beyond the first one's end
        eye = np.eye(d)
        beside = [2.0 * eye[1] + s * eye[0] for s in range(-6, 7)]
        cb = np.stack(beside + [5.0 * eye[0] + s * eye[1] for s in (-2, 0, 3)])
        db = np.stack([eye[0]] * 13 + [eye[1]] * 3)
        dist = segment_distance_arrays(np.zeros(d), eye[0], 6.0, cb, db, 6.0)
        assert np.all(dist == 2.0)
        assert np.array_equal(dist, einsum_segment_distance(np.zeros(d), eye[0], 6.0, cb, db, 6.0))


@pytest.mark.parametrize(
    "center_b, direction, overlap",
    [
        ([0.0, 0.0], [1.0, 0.0], True),
        ([0.0, 2.0001], [1.0, 0.0], False),
        ([0.0, 1.9, 0.0], [1.0, 0.0, 0.0], True),
        ([0.0, 2.0], [1.0, 0.0], True),
    ],
    ids=["identical", "just-beyond-tangency", "parallel-within-reach-d3", "tangency-counts"],
)
def test_two_stick_overlap(center_b, direction, overlap):
    # one stick at the origin and one centred at ``center_b``, both length 5
    # along ``direction``: the pipeline's edge rule on a two-stick sample
    centers = np.array([np.zeros(len(center_b)), center_b])
    dirs = np.array([direction, direction])
    box = BoxRegion(centers.min(axis=0) - 8.0, centers.max(axis=0) + 8.0)
    config = Configuration(5.0, box, centers, dirs)
    first, second, _ = batch_clustering([config])
    assert list(zip(first.tolist(), second.tolist())) == ([(0, 1)] if overlap else [])


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
        assert batch_distance(a, b) == pytest.approx(segment_segment_distance(*a, *b), abs=1e-9)

    @pytest.mark.parametrize("gap_factors", [st.floats(0.25, 0.95), st.floats(1.05, 4.0)],
                             ids=["below-tolerance", "above-tolerance"])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_near_parallel_batch_matches_scalar(self, gap_factors, data):
        a, b = data.draw(near_parallel_pairs(gap_factors))
        assert batch_distance(a, b) == pytest.approx(segment_segment_distance(*a, *b), abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(tangent_pairs(), st.sampled_from([None, 1.0, 2.0, 3.0, 7.0, "rigid"]))
    def test_tangent_pairs_overlap(self, pair, cell):
        (ca, da, length), (cb, db, _) = pair
        if cell == "rigid":
            # 2 wide across the first stick: integer coordinates put the
            # touching edges exactly on cell boundaries
            cell = tuned_cell_size(length, Rigid(da))
        assert batch_distance(*pair) == 2.0
        centers = np.array([ca, cb])
        dirs = np.array([da, db])
        reach = length + 3.0
        box = BoxRegion(centers.min(axis=0) - reach, centers.max(axis=0) + reach)
        config = Configuration(length, box, centers, dirs)
        first, second, _ = batch_clustering([config], cell=cell)
        assert list(zip(first.tolist(), second.tolist())) == [(0, 1)]


def hits_ball(s, c, rho):
    # one row through the vectorized test
    center, direction, length = s
    return bool(segments_hit_ball(center[None], direction[None], [0.5 * length], c, rho)[0])


class TestSegmentHitsBall:
    def test_center_inside(self):
        s = seg([1.0, 1.0], [1.0, 0.0], 10.0)
        assert hits_ball(s, [1.0, 1.0], 0.5)

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


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("n", [0, 1, geometry._BLOCK - 1, geometry._BLOCK, geometry._BLOCK + 1, 3 * geometry._BLOCK + 5])
def test_blocked_ball_test_matches_einsum_rows(d, n):
    """The blocked ball test equals its einsum row form: each squared
    distance to the last bit on C-contiguous rows, and so each hit, with
    scalar and per-row half lengths and with centers broadcast from one
    point."""
    rng = np.random.default_rng(100 * d + n)
    centers, dirs = random_sticks(rng, n, d)
    point, c = rng.normal(0.0, 6.0, (2, d))
    for rows in (centers, np.broadcast_to(point, (n, d))):
        for half in (4.0, rng.uniform(0.0, 8.0, n)):
            reference = einsum_ball_distance_sq(rows, dirs, half, c)
            w = [c[k] - rows[:, k] for k in range(d)]
            assert np.array_equal(geometry._ball_distance_sq(w, dirs.T, half), reference)
            for rho in (1.0, 3.0, 6.0):
                assert np.array_equal(segments_hit_ball(rows, dirs, half, c, rho), reference <= rho * rho)


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

    @staticmethod
    def instances(n, seed, p=None):
        """Rows (x, p, y, q, t1, tau1) of separation-lemma instances in R^3,
        all along the direction ``p`` if one is given."""
        rng = np.random.default_rng(seed)
        rows = []
        while len(rows) < n:
            p_row = random_unit(rng, 3) if p is None else p
            q = random_unit(rng, 3)
            if abs(float(p_row @ q)) > 1.0 / math.sqrt(2.0):
                continue
            t1, tau1 = rng.normal(0, 20), rng.normal(0, 20)
            anchor = rng.normal(0, 20, 3)
            y = anchor + rng.uniform(0, 2) * random_unit(rng, 3) - tau1 * q
            rows.append((anchor - t1 * p_row, p_row, y, q, t1, tau1))
        return rows

    @pytest.mark.parametrize("w", [0.0, 3.0, 12.0, 40.0])
    def test_rows_equal_single_instances(self, w):
        rows = self.instances(300, 444)
        batch = min_distance_outside_window(*map(np.array, zip(*rows)), w)
        assert batch.shape == (300,)
        assert batch.tolist() == [min_distance_outside_window(*row, w) for row in rows]

    def test_shared_direction_broadcasts(self):
        p = random_unit(np.random.default_rng(5), 3)
        rows = self.instances(100, 555, p)
        x, _, y, q, t1, tau1 = map(np.array, zip(*rows))
        batch = min_distance_outside_window(x, p, y, q, t1, tau1, 12.0)
        assert batch.tolist() == [min_distance_outside_window(*row, 12.0) for row in rows]

    @pytest.mark.parametrize("broken", ["direction", "pair"])
    def test_one_bad_row_raises(self, broken):
        x, p, y, q, t1, tau1 = map(np.array, zip(*self.instances(50, 666)))
        assert np.all(min_distance_outside_window(x, p, y, q, t1, tau1, 12.0) >= 6.0)
        if broken == "direction":
            q[17] = p[17]  # |<p,q>| = 1 > 1/sqrt(2)
        else:
            y[17] += 5.0 * np.cross(p[17], q[17]) / np.linalg.norm(np.cross(p[17], q[17]))
        with pytest.raises(PreconditionViolated):
            min_distance_outside_window(x, p, y, q, t1, tau1, 12.0)

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

