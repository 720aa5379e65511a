import dataclasses
import math
import os

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.csgraph
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stickperc import percolation
from stickperc.errors import BracketFailure, DegenerateDesign, DomainError, PreconditionViolated
from stickperc.geometry import segment_distance_arrays
from stickperc.measures import theorem_bounds
from stickperc.percolation import (
    CrossingStats,
    UnionFind,
    build_index,
    cluster,
    component_labels,
    crossing_event,
    crossing_probability,
    estimate_threshold,
    fit_weight,
    intersection_edges,
    scaling_fit,
)
from stickperc.sampling import (
    BoxRegion,
    Configuration,
    Rigid,
    Uniform,
    sample_configuration,
    sample_window_configuration,
)
from stickperc.stats import wilson_interval


def all_pairs_edges(config):
    n = config.count
    if n < 2:
        return np.empty((0, 2), dtype=int)
    ii, jj = np.triu_indices(n, 1)
    halves = np.full(n, config.length)
    dist = segment_distance_arrays(
        config.centers[ii], config.dirs[ii], halves[ii],
        config.centers[jj], config.dirs[jj], halves[jj],
    )
    keep = dist <= 2.0
    return np.column_stack((ii[keep], jj[keep]))


def bfs_components(n, edges):
    edges = np.asarray(edges, dtype=int).reshape(-1, 2)
    graph = scipy.sparse.coo_matrix(
        (np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n)
    )
    _, labels = scipy.sparse.csgraph.connected_components(graph, directed=False)
    return labels


def bfs_labels(config):
    return bfs_components(config.count, all_pairs_edges(config))


def cells(index):
    """Cell coordinate -> sorted stick indices of a SpatialIndex."""
    out = {}
    bounds = list(index._starts) + [len(index._stick_ids)]
    for gi in range(len(index._starts)):
        lo, hi = bounds[gi], bounds[gi + 1]
        coord = np.unravel_index(index._codes[lo], index._grid_span)
        key = tuple(int(c + g) for c, g in zip(coord, index._grid_min))
        out[key] = index._stick_ids[lo:hi]
    return out


def loop_candidate_pairs(index):
    """Reference broad phase: every pair within every cell, deduplicated."""
    if index.n < 2 or len(index._stick_ids) == 0:
        return np.empty((0, 2), dtype=np.int64)
    pieces_i, pieces_j = [], []
    for members in cells(index).values():
        if len(members) < 2:
            continue
        iu, ju = np.triu_indices(len(members), 1)
        pieces_i.append(members[iu])
        pieces_j.append(members[ju])
    if not pieces_i:
        return np.empty((0, 2), dtype=np.int64)
    keys = np.unique(np.concatenate(pieces_i) * index.n + np.concatenate(pieces_j))
    return np.column_stack((keys // index.n, keys % index.n))


@st.composite
def stick_configurations(draw):
    """Random sticks in a box, with 0, 1 or many of them, and a cell size
    that may be far smaller than a stick."""
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.one_of(st.just(0), st.just(1), st.integers(2, 40 if d == 2 else 25)))
    length = draw(st.floats(0.5, 8.0))
    cell = draw(st.floats(0.5 if d == 2 else 1.0, 16.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    side = 6.0 * length + 4.0
    dirs = rng.standard_normal((n, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    config = Configuration(
        d, length, 1.0, BoxRegion.cube(d, side), rng.uniform(0.0, side, (n, d)), dirs, 0
    )
    return config, cell


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 40))
    node = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(node, node), max_size=80)) if n else []
    return n, np.array(edges, dtype=np.int64).reshape(-1, 2)


def labels_equivalent(a, b):
    # same partition up to relabeling
    map_ab, map_ba = {}, {}
    for x, y in zip(a, b):
        if map_ab.setdefault(x, y) != y or map_ba.setdefault(y, x) != x:
            return False
    return True


class TestUnionFind:
    def test_basics(self):
        uf = UnionFind(5)
        assert uf.count == 5
        assert uf.union(0, 1)
        assert not uf.union(1, 0)
        uf.union(2, 3)
        uf.union(0, 3)
        assert uf.count == 2
        assert uf.find(2) == uf.find(1)
        assert uf.find(4) == 4
        # find is idempotent
        assert uf.find(2) == uf.find(2)

    def test_labels(self):
        uf = UnionFind(4)
        uf.union(0, 2)
        labels = uf.labels()
        assert labels[0] == labels[2]
        assert labels[1] != labels[0]


class TestSpatialIndex:
    def test_empty_configuration(self):
        box = BoxRegion.cube(2, 10.0)
        config = Configuration(2, 4.0, 1.0, box, np.zeros((0, 2)), np.zeros((0, 2)), 0)
        index = build_index(config)
        assert cells(index) == {}
        assert len(index.candidate_pairs()) == 0

    def test_registration_matches_inflated_aabb(self):
        config = sample_configuration(2, 6.0, 0.05, Uniform(), BoxRegion.cube(2, 40.0), seed=1)
        cell = 8.0
        index = build_index(config, cell)
        registered = cells(index)
        # recompute the expected registration directly
        expected = {}
        for i in range(config.count):
            half_ext = config.half * np.abs(config.dirs[i]) + 1.0
            lo = np.floor((config.centers[i] - half_ext) / cell).astype(int)
            hi = np.floor((config.centers[i] + half_ext) / cell).astype(int)
            for cx in range(lo[0], hi[0] + 1):
                for cy in range(lo[1], hi[1] + 1):
                    expected.setdefault((cx, cy), []).append(i)
        assert set(registered.keys()) == set(expected.keys())
        for key, members in expected.items():
            assert sorted(registered[key].tolist()) == sorted(members)

    @pytest.mark.parametrize("d,cell", [(2, None), (2, 3.0), (2, 11.0), (3, None), (3, 5.0)])
    def test_candidate_pairs_superset_of_intersections(self, d, cell):
        # zero misses across seeds and cell sizes: candidates must cover
        # every truly intersecting pair
        for seed in range(20):
            config = sample_configuration(
                d, 6.0, 0.004 if d == 3 else 0.03, Uniform(), BoxRegion.cube(d, 30.0), seed=seed
            )
            index = build_index(config, cell)
            cands = {tuple(p) for p in index.candidate_pairs()}
            truth = {tuple(p) for p in all_pairs_edges(config)}
            assert truth <= cands

    @settings(max_examples=60, deadline=None)
    @given(stick_configurations())
    def test_candidate_pairs_match_loop_oracle(self, case):
        config, cell = case
        index = build_index(config, cell)
        pairs = index.candidate_pairs()
        assert pairs.shape[1] == 2
        assert np.all(pairs[:, 0] < pairs[:, 1])
        keys = pairs[:, 0] * max(config.count, 1) + pairs[:, 1]
        assert len(np.unique(keys)) == len(keys)
        expected = loop_candidate_pairs(index)
        assert {tuple(p) for p in pairs.tolist()} == {tuple(p) for p in expected.tolist()}

    def test_edges_match_all_pairs(self):
        for seed in range(8):
            config = sample_configuration(
                2, 8.0, 0.05, Uniform(), BoxRegion.cube(2, 50.0), seed=seed
            )
            edges = intersection_edges(config)
            assert {tuple(e) for e in edges} == {tuple(e) for e in all_pairs_edges(config)}

    def test_two_nearby_sticks_share_a_cell(self):
        box = BoxRegion.cube(2, 40.0)
        centers = np.array([[10.0, 10.0], [10.0, 11.0]])
        dirs = np.array([[1.0, 0.0], [1.0, 0.0]])
        config = Configuration(2, 6.0, 1.0, box, centers, dirs, 0)
        index = build_index(config)  # default cell L / 2 + 2
        assert any(len(v) == 2 for v in cells(index).values())


class TestCluster:
    def test_single_stick(self):
        box = BoxRegion.cube(2, 20.0)
        config = Configuration(
            2, 4.0, 1.0, box, np.array([[10.0, 10.0]]), np.array([[1.0, 0.0]]), 0
        )
        assert cluster(config).tolist() == [0]
        assert not crossing_event(config)

    def test_tangent_chain(self):
        # vertical sticks spaced exactly 2 apart: tangency chains them up
        k = 7
        centers = np.array([[2.0 * i + 5.0, 10.0] for i in range(k)])
        dirs = np.tile([0.0, 1.0], (k, 1))
        box = BoxRegion.cube(2, 30.0)
        config = Configuration(2, 6.0, 1.0, box, centers, dirs, 0)
        assert cluster(config).tolist() == [0] * k

    def test_labels_match_bfs_oracle(self):
        for seed in range(10):
            config = sample_configuration(
                2, 8.0, 0.04, Uniform(), BoxRegion.cube(2, 60.0), seed=seed
            )
            labels = cluster(config)
            assert labels_equivalent(labels, bfs_labels(config))

    def test_labels_match_bfs_oracle_3d(self):
        for seed in range(4):
            config = sample_configuration(
                3, 6.0, 0.003, Uniform(), BoxRegion.cube(3, 40.0), seed=seed
            )
            labels = cluster(config)
            assert labels_equivalent(labels, bfs_labels(config))


NO_EDGES = np.empty((0, 2), dtype=np.int64)
# node k + 1 hooks onto k in the first round, leaving one chain that the
# pointer jumping has to collapse from end to end
FALLING_PATH = np.column_stack((np.arange(999, 0, -1), np.arange(998, -1, -1)))


class TestComponentLabels:
    @settings(max_examples=150, deadline=None)
    @given(graphs())
    @example((0, NO_EDGES))
    @example((1, NO_EDGES))
    @example((5, NO_EDGES))
    @example((4, np.array([[1, 3], [3, 1], [1, 3], [0, 2], [0, 2]])))
    @example((1000, FALLING_PATH))
    def test_matches_bfs_and_union_find(self, graph):
        n, edges = graph
        labels = component_labels(n, edges)
        bfs = bfs_components(n, edges)
        assert labels_equivalent(labels, bfs)
        # canonical: each label is the smallest node of its component
        smallest = {c: np.flatnonzero(bfs == c).min() for c in set(bfs.tolist())}
        assert labels.tolist() == [smallest[c] for c in bfs.tolist()]
        uf = UnionFind(n)
        for a, b in edges.tolist():
            uf.union(a, b)
        assert labels_equivalent(labels, uf.labels())


class TestCrossing:
    def test_empty_no_crossing(self):
        box = BoxRegion.cube(2, 20.0)
        config = Configuration(2, 4.0, 1.0, box, np.zeros((0, 2)), np.zeros((0, 2)), 0)
        assert not crossing_event(config)

    def test_single_spanning_stick(self):
        window = BoxRegion.cube(2, 10.0)
        box = window.grown(10.0)
        config = Configuration(
            2, 14.0, 1.0, box,
            np.array([[5.0, 5.0]]), np.array([[1.0, 0.0]]), 0, window=window,
        )
        assert crossing_event(config, axis=0)
        assert not crossing_event(config, axis=1)

    def test_supercritical_crossing_frequency(self):
        # comfortably above threshold (lambda * L^2 = 8, roughly twice the
        # measured crossing point) the window crosses almost always
        crossings = 0
        for seed in range(20):
            config = sample_window_configuration(2, 16.0, 8.0 / 256.0, Uniform(), 160.0, seed=seed)
            crossings += 1 if crossing_event(config) else 0
        assert crossings / 20 > 0.9

    def test_axis_out_of_range(self):
        config = sample_window_configuration(2, 8.0, 0.01, Uniform(), 64.0, seed=0)
        with pytest.raises(DomainError):
            crossing_event(config, axis=2)


class TestCrossingProbability:
    def test_extreme_intensities(self):
        lo = crossing_probability(2, 8.0, 1e-5, Uniform(), 64.0, 10, seed=1)
        assert lo.frequency == 0.0
        hi = crossing_probability(2, 8.0, 0.5, Uniform(), 64.0, 10, seed=1)
        assert hi.frequency == 1.0

    def test_deterministic(self):
        a = crossing_probability(2, 8.0, 0.04, Uniform(), 64.0, 30, seed=5)
        b = crossing_probability(2, 8.0, 0.04, Uniform(), 64.0, 30, seed=5)
        assert a == b

    def test_workers_do_not_change_result(self):
        a = crossing_probability(2, 8.0, 0.04, Uniform(), 64.0, 16, seed=5, workers=1)
        b = crossing_probability(2, 8.0, 0.04, Uniform(), 64.0, 16, seed=5, workers=2)
        assert a == b

    def test_pool_capped_at_cpu_count(self, monkeypatch):
        # a pool starts all its processes at the first task, so a huge
        # --workers must not reach it; the recorder starts no process
        sizes = []

        class Recorder:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        monkeypatch.setattr(percolation, "ProcessPoolExecutor", Recorder)
        a = crossing_probability(2, 8.0, 0.04, Uniform(), 64.0, 6, seed=5, workers=10_000)
        assert len(sizes) == 1 and sizes[0] <= (os.cpu_count() or 1)
        assert a == crossing_probability(2, 8.0, 0.04, Uniform(), 64.0, 6, seed=5, workers=1)

    def test_workers_do_not_change_estimate(self):
        kw = dict(replicates=8, seed=5, max_bisect=3)
        a = estimate_threshold(2, 8.0, Uniform(), 64.0, workers=1, **kw)
        b = estimate_threshold(2, 8.0, Uniform(), 64.0, workers=2, **kw)
        assert a == b

    def test_wilson_interval_scaling(self):
        # doubling the replicate count shrinks the interval by about sqrt 2
        lo1, hi1 = wilson_interval(100, 200)
        lo2, hi2 = wilson_interval(200, 400)
        assert (hi1 - lo1) / (hi2 - lo2) == pytest.approx(math.sqrt(2.0), rel=0.02)


class TestEstimateThreshold:
    def test_rigid_inside_theorem_bracket(self):
        est = estimate_threshold(
            2, 16.0, Rigid(np.array([0.0, 1.0])), 128.0, replicates=40, seed=4
        )
        bounds = theorem_bounds(2, 16.0, "rigid")
        assert bounds.lower < est.lambda_hat < bounds.upper
        assert est.ci_low <= est.lambda_hat <= est.ci_high

    def test_uniform_inside_theorem_bracket(self):
        est = estimate_threshold(2, 16.0, Uniform(), 160.0, replicates=40, seed=4)
        bounds = theorem_bounds(2, 16.0, "uniform", strict=False)
        assert bounds.lower < est.lambda_hat < bounds.upper

    def test_window_precondition(self):
        with pytest.raises(PreconditionViolated):
            estimate_threshold(2, 16.0, Uniform(), 100.0, replicates=10, seed=0)

    def test_deterministic(self):
        kw = dict(replicates=15, seed=8)
        a = estimate_threshold(2, 8.0, Uniform(), 64.0, **kw)
        b = estimate_threshold(2, 8.0, Uniform(), 64.0, **kw)
        assert a == b

    def test_negative_max_bisect_rejected(self):
        with pytest.raises(DomainError):
            estimate_threshold(2, 8.0, Uniform(), 64.0, replicates=4, seed=0, max_bisect=-2)

    def test_pinned_rigid_estimate(self):
        # recorded before the interval constants became stats._Z95; a change
        # of probe order, interpolation or weight shows here
        est = estimate_threshold(
            2, 8.0, Rigid(np.array([0.0, 1.0])), 64.0, replicates=12, seed=3, max_bisect=3
        )
        assert est.lambda_hat == 0.08668369890034283
        assert est.ci_low == 0.0757801403242951
        assert est.ci_high == 0.0991561063741695
        assert est.bracket == (0.07052369794346952, 0.09973557010035815)
        assert [p.intensity for p in est.probes] == [
            0.00881546224293369, 0.01763092448586738, 0.03526184897173476,
            0.07052369794346952, 0.14104739588693904, 0.09973557010035815,
        ]
        assert [p.successes for p in est.probes] == [0, 0, 0, 2, 12, 9]
        assert fit_weight(est) == 212.57217895697755

    def test_pinned_downward_walk(self, monkeypatch):
        # a lower bound 40x too high starts supercritical, so the walk-out
        # halves down to a subcritical probe before bisecting
        real = percolation.theorem_bounds

        def raised(*args, **kwargs):
            bounds = real(*args, **kwargs)
            return dataclasses.replace(bounds, lower=40.0 * bounds.lower)

        monkeypatch.setattr(percolation, "theorem_bounds", raised)
        est = estimate_threshold(
            2, 8.0, Rigid(np.array([0.0, 1.0])), 64.0, replicates=12, seed=3, max_bisect=3
        )
        assert est.lambda_hat == 0.07845158353362021
        assert est.ci_low == 0.07127856497171764
        assert est.ci_high == 0.08634644877284875
        assert est.bracket == (0.0741289059888741, 0.08083814519488314)
        assert [p.intensity for p in est.probes] == [
            0.3526184897173476, 0.1763092448586738, 0.0881546224293369,
            0.04407731121466845, 0.062334731312723844, 0.0741289059888741,
            0.08083814519488314,
        ]
        assert [p.successes for p in est.probes] == [12, 12, 9, 0, 0, 1, 9]

    @pytest.mark.parametrize(
        "frequency,message",
        [
            (0.0, "no supercritical intensity found below 10x upper bound"),
            (1.0, "no subcritical intensity found above lower bound / 10"),
        ],
    )
    def test_walk_out_gives_up_at_its_limit(self, monkeypatch, frequency, message):
        # never crossing walks up past 10x the upper bound; always crossing
        # walks down past a tenth of the lower bound
        def constant(d, length, intensity, law, side, replicates, seed, **kwargs):
            successes = int(frequency * replicates)
            return CrossingStats(
                intensity, frequency, frequency, frequency, successes, replicates,
                (int(frequency),) * replicates,
            )

        monkeypatch.setattr(percolation, "crossing_probability", constant)
        with pytest.raises(BracketFailure) as info:
            estimate_threshold(2, 8.0, Uniform(), 64.0, replicates=4, seed=0)
        assert str(info.value) == message


class TestScalingFit:
    def test_exact_inverse_square(self):
        pts = [(L, L**-2.0, 1.0) for L in (8, 16, 32, 64)]
        fit = scaling_fit(pts)
        assert fit.slope == pytest.approx(-2.0, abs=1e-12)
        assert fit.stderr == pytest.approx(0.0, abs=1e-10)

    def test_exact_linear_with_prefactor(self):
        pts = [(L, 7.0 / L, 1.0) for L in (8, 16, 32, 64)]
        fit = scaling_fit(pts)
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(7.0), abs=1e-12)

    def test_noisy_synthetic(self):
        rng = np.random.default_rng(123)
        slopes = []
        for _ in range(30):
            pts = [
                (L, L**-2.0 * math.exp(rng.normal(0.0, 0.05)), 1.0)
                for L in (8, 12, 16, 24, 32, 48, 64)
            ]
            slopes.append(scaling_fit(pts).slope)
        assert abs(np.mean(slopes) + 2.0) <= 0.1
        assert np.all(np.abs(np.array(slopes) + 2.0) <= 0.35)

    def test_weights_matter(self):
        pts = [(8, 8.0**-2, 1e6), (16, 16.0**-2, 1e6), (32, 32.0**-2, 1e6), (64, 1e-9, 1e-12)]
        fit = scaling_fit(pts)
        assert fit.slope == pytest.approx(-2.0, abs=1e-3)

    def test_degenerate_design(self):
        with pytest.raises(DegenerateDesign):
            scaling_fit([(8, 0.1, 1.0), (8, 0.2, 1.0), (16, 0.05, 1.0)])
