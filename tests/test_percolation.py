import ctypes
import dataclasses
import itertools
import math
import platform
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.csgraph
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    batch_clustering, batch_crossings, checkout_env, probe, reference_index, reference_sticks, sample_configuration,
    stacked_rows,
)
from stickperc import geometry, percolation
from stickperc.errors import BracketFailure, DegenerateDesign, DomainError, PreconditionViolated
from stickperc.geometry import segment_distance_arrays
from stickperc.measures import theorem_bounds
from stickperc.rng import substream
from stickperc.percolation import (
    CrossingStats,
    UnionFind,
    build_index,
    crossing_event,
    estimate_threshold,
    fit_weight,
    scaling_fit,
    tuned_cell_size,
)
from stickperc.sampling import (
    _STREAM_CONFIG,
    BoxRegion,
    Configuration,
    Rigid,
    Uniform,
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


def smallest_labels(bfs):
    """``bfs`` component labels as the smallest node of each component,
    the canonical labels ``_labels`` gives."""
    smallest = {c: np.flatnonzero(bfs == c).min() for c in set(bfs.tolist())}
    return np.array([smallest[c] for c in bfs.tolist()], dtype=np.int64)


def edge_set(first, second):
    return set(zip(first.tolist(), second.tolist()))


def batch_offsets(configs):
    """Where each configuration's sticks start in a batch of ``configs``."""
    return np.cumsum([0] + [c.count for c in configs[:-1]]).tolist()


def cells(config, cell=None):
    """Cell coordinate -> indices of the sticks whose radius-1-inflated
    bounding box overlaps that cell (the default cell is the isotropic
    tuned size)."""
    cell = tuned_cell_size(config.length, None) if cell is None else cell
    out = {}
    for i in range(config.count):
        half_ext = config.half * np.abs(config.dirs[i]) + 1.0
        lo = np.floor((config.centers[i] - half_ext) / cell).astype(int)
        hi = np.floor((config.centers[i] + half_ext) / cell).astype(int)
        for key in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
            out.setdefault(key, []).append(i)
    return out


def registered_groups(index):
    """The sorted stick indices registered in each cell of a SpatialIndex,
    as a sorted list: the index keeps no cell coordinates."""
    bounds = [*index._starts.tolist(), len(index._stick_ids)]
    return sorted(tuple(sorted(index._stick_ids[lo:hi].tolist())) for lo, hi in zip(bounds, bounds[1:]))


def geometry_sample(d, law_tag):
    """Eight configurations of one geometry and the cell they run on:
    rigid sticks on their tuned per-axis cells, 2 wide across them."""
    law = Rigid(np.eye(d)[d - 1]) if law_tag == "rigid" else Uniform()
    lam = {(2, "uniform"): 0.05, (3, "uniform"): 0.004, (2, "rigid"): 0.06}[d, law_tag]
    cell = tuned_cell_size(8.0, law) if law_tag == "rigid" else None
    box = BoxRegion.cube(d, 50.0 if d == 2 else 30.0)
    return [sample_configuration(d, 8.0, lam, law, box, seed=seed) for seed in range(8)], cell


def index_case(case):
    """The (centers, dirs, length, cell, replicate) arguments of one
    ``percolation._index`` call for ``test_index_matches_reference``.

    Random cases draw sticks about the origin (so coordinates are
    negative too) in replicates 0-3 and hand the index per-axis rows
    through ``.T`` views, as ``_batch_edges`` does; a tuned cell is
    ``tuned_cell_size`` for the law."""
    if case == "single-stick":
        return np.array([[-3.25, 7.5]]), np.array([[0.6, 0.8]]), 5.0, 0.7, np.zeros(1, dtype=np.int64)
    if case == "edges-on-cell-boundaries":
        # sticks along axis 0, length 2, cell 1: every box edge, low and
        # high, lies exactly on a cell boundary
        centers = np.array([[3.0, 5.0], [-2.0, 5.0], [4.0, 6.0], [-7.0, -1.0]])
        return centers, np.tile([1.0, 0.0], (4, 1)), 2.0, 1.0, np.array([0, 0, 1, 1])
    law_tag, d, cell = case.split("-")
    d = int(d[1:])
    rng = np.random.default_rng(sum(map(ord, case)))
    n = 300 if d < 4 else 120
    length = 8.0
    if law_tag == "rigid":
        law = Rigid(np.eye(d)[d - 1])
        dirs = np.tile(law.axis, (n, 1))
    else:
        law = Uniform()
        dirs = rng.standard_normal((n, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    cell = {"tuned": tuned_cell_size(length, law), "fine": 0.7, "fine2x5": np.array([2.0, 5.0])}[cell]
    centers = rng.uniform(-40.0, 40.0, (n, d))
    replicate = np.sort(rng.integers(0, 4, n))
    return np.ascontiguousarray(centers.T).T, np.ascontiguousarray(dirs.T).T, length, cell, replicate


def two_stick_grid(spans):
    """Two sticks along axis 0 of length 2 whose radius-1 boxes span a grid
    of exactly ``spans`` unit cells, as (centers, dirs): the first in the
    grid's lowest cells, the second in its highest."""
    d = len(spans)
    low = np.full(d, 1.5)
    low[0] = 2.5
    high = np.array(spans, dtype=float) - 1.5
    high[0] -= 1.0
    return np.array([low, high]), np.tile(np.eye(d)[0], (2, 1))


def loop_candidate_pairs(config, cell=None):
    """Reference broad phase: every pair within every cell of ``cells``,
    deduplicated."""
    pairs = set()
    for members in cells(config, cell).values():
        pairs.update(itertools.combinations(members, 2))
    return pairs


@st.composite
def stick_configurations(draw):
    """Random sticks in a box, with 0, 1 or many of them, and one cell edge
    or one per axis (some 2 wide, as across aligned sticks) that may be far
    smaller than a stick."""
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.one_of(st.just(0), st.just(1), st.integers(2, 40 if d == 2 else 25)))
    length = draw(st.floats(0.5, 8.0))
    edge = st.floats(0.5 if d == 2 else 1.0, 16.0)
    cell = draw(st.one_of(edge, st.lists(st.one_of(st.just(2.0), edge), min_size=d, max_size=d).map(np.array)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    side = 6.0 * length + 4.0
    dirs = rng.standard_normal((n, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    config = Configuration(length, BoxRegion.cube(d, side), rng.uniform(0.0, side, (n, d)), dirs)
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
        uf.union(0, 1)
        uf.union(1, 0)
        assert uf.count == 4
        uf.union(2, 3)
        uf.union(0, 3)
        assert uf.count == 2
        assert uf.labels().tolist() == [0, 0, 0, 0, 4]

    def test_labels(self):
        uf = UnionFind(4)
        uf.union(0, 2)
        labels = uf.labels()
        assert labels[0] == labels[2]
        assert labels[1] != labels[0]

    def test_count_reads_the_last_labels(self, monkeypatch):
        # the replay reads labels() and then count: one _labels run, not two
        calls = []
        labels = percolation._labels
        monkeypatch.setattr(percolation, "_labels", lambda *a: calls.append(a) or labels(*a))
        uf = UnionFind(4)
        uf.union(0, 2)
        uf.labels()
        assert uf.count == 3
        assert len(calls) == 1
        uf.union(1, 3)  # an edge since: count labels again
        assert uf.count == 2
        assert len(calls) == 2


class TestSpatialIndex:
    def test_empty_configuration(self):
        box = BoxRegion.cube(2, 10.0)
        config = Configuration(4.0, box, np.zeros((0, 2)), np.zeros((0, 2)))
        index = build_index(config)
        assert registered_groups(index) == []
        assert len(index.candidate_pairs()) == 0

    def test_registration_matches_inflated_aabb(self):
        config = sample_configuration(2, 6.0, 0.05, Uniform(), BoxRegion.cube(2, 40.0), seed=1)
        for cell in (8.0, np.array([2.0, 5.0])):
            expected = sorted(tuple(members) for members in cells(config, cell).values())
            assert registered_groups(build_index(config, cell)) == expected

    @pytest.mark.parametrize(
        "d,cell",
        [(2, None), (2, 3.0), (2, 11.0), (3, None), (3, 5.0), (2, "e0"), (2, "e1"), (3, "e1"), (3, "e2")],
    )
    def test_candidate_pairs_superset_of_intersections(self, d, cell):
        # zero misses across seeds and cell sizes: candidates must cover
        # every truly intersecting pair; "e<k>" is sticks along axis k on
        # their tuned per-axis cells, 2 wide across the sticks
        law, lam = Uniform(), 0.004 if d == 3 else 0.03
        if isinstance(cell, str):
            law, lam = Rigid(np.eye(d)[int(cell[1:])]), 0.01 if d == 3 else 0.05
            cell = tuned_cell_size(6.0, law)
        for seed in range(20):
            config = sample_configuration(d, 6.0, lam, law, BoxRegion.cube(d, 30.0), seed=seed)
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
        assert {tuple(p) for p in pairs.tolist()} == loop_candidate_pairs(config, cell)

    def test_edges_match_all_pairs(self):
        for d, law_tag in [(2, "uniform"), (3, "uniform"), (2, "rigid")]:
            configs, cell = geometry_sample(d, law_tag)
            for config in configs:
                first, second, _ = batch_clustering([config], cell=cell)
                assert edge_set(first, second) == {tuple(e) for e in all_pairs_edges(config).tolist()}

    def test_batch_edges_match_each_replicates_all_pairs(self):
        # the edges _batch_edges finds are each replicate's
        # all-pairs edges, shifted to the replicate's place in the batch
        configs, cell = geometry_sample(2, "rigid")
        first, second, _ = batch_clustering(configs, cell=cell)
        truths = [all_pairs_edges(c).tolist() for c in configs]
        assert all(truths)
        assert first.dtype == second.dtype == np.int64 and first.shape == second.shape
        union = {(a + o, b + o) for o, truth in zip(batch_offsets(configs), truths) for a, b in truth}
        assert edge_set(first, second) == union

    @pytest.mark.parametrize("case", ["empty", "one-cell", "batch"])
    def test_candidate_pairs_layout(self, case):
        # C-contiguous int64 (k, 2) rows with i < j, whatever the index holds
        configs = [sample_configuration(2, 6.0, 0.05, Uniform(), BoxRegion.cube(2, 30.0), seed=s) for s in range(3)]
        if case == "empty":
            index = build_index(Configuration(6.0, BoxRegion.cube(2, 30.0), np.zeros((0, 2)), np.zeros((0, 2))))
        elif case == "one-cell":
            index = build_index(configs[0], 1000.0)
        else:
            centers = np.concatenate([c.centers for c in configs])
            dirs = np.concatenate([c.dirs for c in configs])
            replicate = np.repeat(np.arange(3), [c.count for c in configs])
            index = percolation._index(centers, dirs, 6.0, None, replicate)
        pairs = index.candidate_pairs()
        assert pairs.dtype == np.int64 and pairs.ndim == 2 and pairs.shape[1] == 2
        assert pairs.flags.c_contiguous
        assert np.all(pairs[:, 0] < pairs[:, 1])
        if case == "empty":
            assert len(pairs) == 0
        elif case == "one-cell":
            n = configs[0].count
            assert {tuple(p) for p in pairs.tolist()} == set(itertools.combinations(range(n), 2))
        else:
            assert len(pairs) > 0
            assert np.array_equal(replicate[pairs[:, 0]], replicate[pairs[:, 1]])

    @pytest.mark.parametrize("k", [255, 256, 257])
    def test_pairs_of_one_cell_of_k_registrations(self, k):
        # the count after each registration is uint8 up to 255 in a cell
        # and uint16 from 256
        rng = np.random.default_rng(k)
        centers = rng.uniform(40.0, 60.0, (k, 2))
        dirs = rng.standard_normal((k, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        index = build_index(Configuration(4.0, BoxRegion.cube(2, 100.0), centers, dirs), 100.0)
        assert index._starts.tolist() == [0]
        first, second = index._pair_ids()
        assert first.dtype == second.dtype == np.int64 and len(first) == k * (k - 1) // 2
        assert set(zip(first.tolist(), second.tolist())) == set(itertools.combinations(range(k), 2))

    def test_crowded_cell_among_sparse_ones_matches_loop_oracle(self):
        # 300 sticks crowd one cell of 6 and hold its 300 registrations,
        # 200 more spread out over 120 x 120, so one cell sets the number
        # of offset passes and most registrations have none after them
        rng = np.random.default_rng(11)
        centers = np.concatenate([rng.uniform(62.5, 63.5, (300, 2)), rng.uniform(0.0, 120.0, (200, 2))])
        dirs = rng.standard_normal((500, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        config = Configuration(1.0, BoxRegion.cube(2, 120.0), centers, dirs)
        index = build_index(config, 6.0)
        sizes = np.diff(np.append(index._starts, len(index._stick_ids)))
        assert sizes.max() >= 300 and np.median(sizes) <= 2
        pairs = {tuple(p) for p in index.candidate_pairs().tolist()}
        assert pairs == loop_candidate_pairs(config, 6.0)

    def test_pair_ids_peak_below_8_bytes_per_in_cell_pair(self):
        # 3,000 sticks on cells of 1 in a 60 x 60 box: about 2.16M in-cell
        # pairs, of which the low-corner rule keeps 8%; expanding every
        # in-cell pair into two int64 arrays alone takes 16 bytes a pair
        rng = np.random.default_rng(3)
        centers = rng.uniform(0.0, 60.0, (3000, 2))
        dirs = rng.standard_normal((3000, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        index = percolation._index(centers, dirs, 6.0, 1.0, np.zeros(3000, dtype=np.int64))
        sizes = np.diff(np.append(index._starts, len(index._stick_ids)))
        in_cell = int((sizes * (sizes - 1) // 2).sum())
        assert in_cell > 2_000_000
        tracemalloc.start()
        try:
            first, _ = index._pair_ids()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(first) < 0.1 * in_cell
        assert peak < 8 * in_cell

    @pytest.mark.parametrize(
        "centers, dirs",
        [
            # the kernel reads 2.0; stick 0's box ends at 3.9999999999999996
            # in cell 0, stick 1's starts at 4.0 in cell 1
            ([[2.9999999999999996, 10.0], [6.948997482504226, 10.448785932480273]],
             [[0.0, 1.0], [0.9744987412521132, 0.22439296624013627]]),
            ([[2.9999999999999996, 14.0], [6.882839092614323, 13.325524684422572]],
             [[0.0, 1.0], [0.9414195463071616, -0.3372376577887143]]),
            # both corners round to the 2^-33 steps of 1e6, from either side
            # of the midpoint below it: 999999.9999999999 and 1000000.0
            ([[999998.664604972, 10.0], [1000001.4025014618, 13.930756517584385]],
             [[0.16769751397077914, 0.9858384978321857], [0.20125073092640366, 0.9795397609600073]]),
        ],
        ids=["at-4", "at-4-below", "at-1e6"],
    )
    def test_pair_at_distance_2_across_a_cell_boundary_is_an_edge(self, centers, dirs):
        # the box corners, floored by the cell of 4, fall either side of a
        # cell boundary; only the registered boxes' margin keeps the pair
        config = Configuration(4.0, BoxRegion(np.full(2, -10.0), np.full(2, 1e6 + 20.0)), np.array(centers),
                               np.array(dirs))
        reach = 0.5 * config.length * np.abs(config.dirs[:, 0]) + 1.0
        high, low = config.centers[0, 0] + reach[0], config.centers[1, 0] - reach[1]
        assert np.floor(high / 4.0) < np.floor(low / 4.0)
        assert all_pairs_edges(config).tolist() == [[0, 1]]
        assert build_index(config).candidate_pairs().tolist() == [[0, 1]]
        first, second, _ = batch_clustering([config])
        assert edge_set(first, second) == {(0, 1)}

    def test_two_nearby_sticks_share_a_cell(self):
        box = BoxRegion.cube(2, 40.0)
        centers = np.array([[10.0, 10.0], [10.0, 11.0]])
        dirs = np.array([[1.0, 0.0], [1.0, 0.0]])
        config = Configuration(6.0, box, centers, dirs)
        index = build_index(config)  # default cell L / 2 + 2
        assert any(len(members) == 2 for members in registered_groups(index))

    @pytest.mark.parametrize(
        "cell",
        [0.0, -3.0, math.nan, math.inf, [2.0, math.inf], [2.0, -1.0], [4.0], [2.0, 5.0, 5.0], "x", "3.0",
         ["x", 2.0], [2.0, None]],
        ids=["zero", "negative", "nan", "inf", "inf-entry", "negative-entry", "one-entry", "three-entries", "text",
             "numeric-text", "text-entry", "none-entry"],
    )
    def test_invalid_cell_rejected(self, cell):
        config = sample_configuration(2, 6.0, 0.05, Uniform(), BoxRegion.cube(2, 40.0), seed=1)
        with pytest.raises(DomainError, match=r"^cell must be a positive finite size, or 2 of them$"):
            build_index(config, cell)

    @pytest.mark.parametrize(
        "case",
        [
            "uniform-d2-tuned", "uniform-d3-tuned", "uniform-d4-tuned", "rigid-d2-tuned", "rigid-d3-tuned",
            "uniform-d2-fine", "uniform-d3-fine", "rigid-d2-fine", "uniform-d2-fine2x5",
            "single-stick", "edges-on-cell-boundaries",
        ],
    )
    def test_index_matches_reference(self, case):
        # the offset expansion and packed-key sort build the very arrays
        # the per-registration decode and argsort built, dtypes included;
        # fine cells reach 4 or more cells past a stick's lowest
        centers, dirs, length, cell, replicate = index_case(case)
        index = percolation._index(centers, dirs, length, cell, replicate)
        expected = reference_index(centers, dirs, length, cell, replicate)
        for name in ("_stick_ids", "_starts", "_low_edges"):
            got, want = getattr(index, name), getattr(expected, name)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        if case.endswith("fine"):
            assert np.max(np.bincount(index._stick_ids)) >= 25
        if case != "single-stick":
            assert replicate[-1] > 0

    @pytest.mark.parametrize("replicates", [1, 2])
    @pytest.mark.parametrize("d", [2, 3])
    def test_grid_guard_bound(self, d, replicates):
        # keys ((cell code * n + stick) << d) | low bits stay below 2^64
        # while grid cells x replicates x (n << d) does: a grid one row of
        # cells short of the bound indexes as the reference does, and one
        # at the bound is refused
        n = 2
        cells = 2**64 // (replicates * (n << d))
        spans = [2 ** ((cells.bit_length() - 1) // d)] * d
        spans[0] = cells // math.prod(spans[1:])
        assert math.prod(spans) == cells
        replicate = np.array([0, replicates - 1])
        centers, dirs = two_stick_grid(spans)
        with pytest.raises(DomainError, match="cell codes overflow"):
            percolation._index(centers, dirs, 2.0, 1.0, replicate)
        spans[-1] -= 1
        centers, dirs = two_stick_grid(spans)
        index = percolation._index(centers, dirs, 2.0, 1.0, replicate)
        expected = reference_index(centers, dirs, 2.0, 1.0, replicate)
        for name in ("_stick_ids", "_starts", "_low_edges"):
            assert np.array_equal(getattr(index, name), getattr(expected, name))
        assert len(index._stick_ids) == 2 * 3 ** (d - 1) * 5

    def test_grid_too_fine_rejected(self):
        # 1e10 cells per axis: the grid's cell codes would overflow int64
        box = BoxRegion.cube(2, 2e9)
        centers = np.array([[1.0, 1.0], [1e9, 1e9]])
        config = Configuration(1.0, box, centers, np.tile([1.0, 0.0], (2, 1)))
        with pytest.raises(DomainError):
            build_index(config, 0.1)
        # about 2e18 cells: one configuration's 2 sticks fit, and so do the
        # 4 sticks of two, but not with the replicate as the leading digit
        centers = np.array([[1.0, 1.0], [1.4e8, 1.4e8]])
        config = Configuration(1.0, box, centers, np.tile([1.0, 0.0], (2, 1)))
        assert len(build_index(config, 0.1).candidate_pairs()) == 0
        assert not crossing_event(config, cell=0.1)
        with pytest.raises(DomainError):
            batch_crossings([config, config], 0, 0.1)


class TestCluster:
    def test_single_stick(self):
        box = BoxRegion.cube(2, 20.0)
        config = Configuration(4.0, box, np.array([[10.0, 10.0]]), np.array([[1.0, 0.0]]))
        assert batch_clustering([config])[2].tolist() == [0]
        assert not crossing_event(config)

    def test_tangent_chain(self):
        # vertical sticks spaced exactly 2 apart: tangency chains them up,
        # also on the rigid cells, where every touching edge lies on a
        # 2-wide cell boundary
        k = 7
        centers = np.array([[2.0 * i + 5.0, 10.0] for i in range(k)])
        dirs = np.tile([0.0, 1.0], (k, 1))
        box = BoxRegion.cube(2, 30.0)
        config = Configuration(6.0, box, centers, dirs)
        for cell in (None, tuned_cell_size(6.0, Rigid(np.array([0.0, 1.0])))):
            assert batch_clustering([config], cell=cell)[2].tolist() == [0] * k

    def test_labels_match_bfs_oracle(self):
        for seed in range(10):
            config = sample_configuration(
                2, 8.0, 0.04, Uniform(), BoxRegion.cube(2, 60.0), seed=seed
            )
            labels = batch_clustering([config])[2]
            assert labels_equivalent(labels, bfs_labels(config))

    def test_labels_match_bfs_oracle_3d(self):
        for seed in range(4):
            config = sample_configuration(
                3, 6.0, 0.003, Uniform(), BoxRegion.cube(3, 40.0), seed=seed
            )
            labels = batch_clustering([config])[2]
            assert labels_equivalent(labels, bfs_labels(config))

    @pytest.mark.parametrize("d", [2, 3])
    def test_rigid_labels_match_bfs_oracle(self, d):
        law = Rigid(np.eye(d)[d - 1])
        for seed in range(4):
            config = sample_configuration(
                d, 6.0, 0.06 if d == 2 else 0.01, law, BoxRegion.cube(d, 40.0), seed=seed
            )
            # integer centres: many pairs sit exactly 2 apart, on the
            # boundaries of the 2-wide cells across the sticks
            config = dataclasses.replace(config, centers=np.round(config.centers))
            labels = batch_clustering([config], cell=tuned_cell_size(6.0, law))[2]
            assert labels_equivalent(labels, bfs_labels(config))

    @pytest.mark.parametrize("d,law_tag", [(2, "uniform"), (3, "uniform"), (2, "rigid")])
    def test_narrow_phase_blocks_change_nothing(self, monkeypatch, d, law_tag):
        # geometry's block rule sizes the narrow phase: blocks of 7 pairs
        # cut every replicate's candidate pairs, and a batch's edges, labels
        # and crossings stay the same to the last bit
        configs, cell = geometry_sample(d, law_tag)
        expected = batch_clustering(configs, cell=cell), batch_crossings(configs, 0, cell)
        kernel, blocks = percolation._segment_distance, []

        def counted(u, *rest):
            blocks.append(u.shape[1])
            return kernel(u, *rest)

        monkeypatch.setattr(percolation, "_segment_distance", counted)
        monkeypatch.setattr(geometry, "_BLOCK", 7)
        got = batch_clustering(configs, cell=cell), batch_crossings(configs, 0, cell)
        assert len(blocks) > 20 and max(blocks) == 7
        (first, second, labels), crossed = expected
        (got_first, got_second, got_labels), got_crossed = got
        assert np.array_equal(got_first, first) and np.array_equal(got_second, second)
        assert np.array_equal(got_labels, labels) and np.array_equal(got_crossed, crossed)

    @pytest.mark.parametrize("d,law_tag", [(2, "uniform"), (3, "uniform"), (2, "rigid")])
    def test_batch_labels_match_each_replicates_bfs(self, d, law_tag):
        # each replicate's slice of a batch's labels is its own canonical
        # BFS labels shifted to its place in the batch: no cluster joins two
        configs, cell = geometry_sample(d, law_tag)
        labels = batch_clustering(configs, cell=cell)[2]
        for config, offset in zip(configs, batch_offsets(configs)):
            own = labels[offset : offset + config.count]
            assert np.all((offset <= own) & (own < offset + config.count))
            assert np.array_equal(own, smallest_labels(bfs_labels(config)) + offset)


def touching_pair(centers, dirs, length):
    """Two sticks of length ``length`` in a window of side 40, each as its
    (centre, direction) row."""
    box = BoxRegion.cube(len(centers[0]), 40.0)
    return Configuration(length, box, np.array(centers, dtype=float), np.array(dirs, dtype=float))


def shifted(config, offset):
    """``config`` with its sticks and window moved by ``offset`` on every axis."""
    window = BoxRegion(config.observation_window.low + offset, config.observation_window.high + offset)
    return dataclasses.replace(config, observation_window=window, centers=config.centers + offset)


def batch_truth(configs):
    """Each configuration's all-pairs edges, shifted to its place in the
    batch of ``configs``, as one set."""
    return {
        (a + o, b + o) for o, c in zip(batch_offsets(configs), configs) for a, b in all_pairs_edges(c).tolist()
    }


def packed_boxes(boxes, w):
    """The (low, high, guards) words of ``_box_words``'s layout for boxes
    already on their integer fields: ``boxes`` holds each box's low and
    high corner per axis, every value in [0, 2^(w-1))."""
    corners = np.array(boxes, dtype=np.uint64).reshape(len(boxes), 2, -1)
    guard = 1 << (w - 1)
    guards = sum(guard << (w * k) for k in range(corners.shape[2]))
    return percolation._pack(corners[:, 0].T, w), percolation._pack(corners[:, 1].T + np.uint64(guard), w), guards


@st.composite
def field_boxes(draw):
    """A field width w, as ``_box_words`` picks it for 1-32 axes, and 2-6
    boxes on its fields; the values favour the ends of the field, so equal
    corners and zero-width boxes are common."""
    axes = draw(st.integers(1, 32))
    w = 64 // max(axes, 2)
    top = (1 << (w - 1)) - 1
    value = st.one_of(st.sampled_from([0, 1, top - 1, top]), st.integers(0, top))
    corners = st.lists(value, min_size=2 * axes, max_size=2 * axes)
    return w, draw(st.lists(corners, min_size=2, max_size=6))


class TestBoxTest:
    """The packed box test that ``_batch_edges`` runs before the kernel keeps
    every pair within distance 2, down to exact touching."""

    @pytest.mark.parametrize(
        "config",
        [
            touching_pair([[10.0, 10.0], [12.0, 10.0]], [[0.0, 1.0], [0.0, 1.0]], 6.0),
            touching_pair([[10.0, 10.0], [16.0, 10.0]], [[1.0, 0.0], [1.0, 0.0]], 4.0),
            # the closest points are the centres, and the inflated boxes
            # touch on the face z = 11 and nowhere else
            touching_pair([[10.0, 10.0, 10.0], [10.0, 10.0, 12.0]], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], 4.0),
            touching_pair(
                [[10.0, 10.0, 10.0], [10.0, 10.0, 12.0]],
                [[math.sqrt(0.5), math.sqrt(0.5), 0.0], [math.sqrt(0.5), -math.sqrt(0.5), 0.0]], 8.0,
            ),
        ],
        ids=["parallel-across", "collinear-gap", "skew-d3-axes", "skew-d3-diagonals"],
    )
    @pytest.mark.parametrize("offset", [0.0, 1e6, -1e6 + 0.375])
    def test_exactly_touching_pairs_are_edges(self, config, offset):
        config = shifted(config, offset)
        assert all_pairs_edges(config).tolist() == [[0, 1]]
        first, second, _ = batch_clustering([config])
        assert edge_set(first, second) == {(0, 1)}

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_end_to_end_pairs_at_any_angle_match_all_pairs(self, offset):
        # each stick along axis 0 has a tilted partner whose end lies 2
        # past its own end: the boxes touch on axis 0 at corners that
        # round, and the kernel reads each pair's distance as 2 give or
        # take its rounding, so some pairs are edges and some are not
        rng = np.random.default_rng(7)
        m, length = 100, 6.0
        theta = rng.uniform(-1.3, 1.3, m)
        tilted = np.column_stack([np.cos(theta), np.sin(theta)])
        ends = np.column_stack([np.zeros(m), 20.0 * np.arange(m)]) + rng.uniform(0.0, 1.0, (m, 2))
        centers = np.concatenate([ends, ends + [0.5 * length + 2.0, 0.0] + 0.5 * length * tilted])
        dirs = np.concatenate([np.tile([1.0, 0.0], (m, 1)), tilted])
        config = Configuration(length, BoxRegion(np.full(2, -10.0), np.full(2, 20.0 * m)), centers, dirs)
        config = shifted(config, offset)
        truth = {tuple(e) for e in all_pairs_edges(config).tolist()}
        assert 0 < len(truth) < m
        first, second, _ = batch_clustering([config])
        assert edge_set(first, second) == truth

    def test_edge_across_a_step_boundary_inside_a_rounding_gap(self):
        # stick 1's end lies 2 from stick 0 and the kernel reads 2.0, but
        # its box's low x corner rounds 2 ulps past stick 0's high one, 1.0;
        # stick 2 sets the extent so that a step boundary falls in that gap,
        # and only the box's extra step keeps the pair
        centers = np.array([[0.0, 10.0], [3.990106538652705, 10.198685592864077], [6.980213081986038, 30.0]])
        dirs = np.array([[0.0, 1.0], [0.9950532693263524, 0.09934279643203872], [0.0, 1.0]])
        config = Configuration(4.0, BoxRegion.cube(2, 40.0), centers, dirs)
        low_corner = centers[1, 0] - (0.5 * 4.0 * dirs[1, 0] + 1.0)
        assert low_corner == np.nextafter(np.nextafter(1.0, 2.0), 2.0)
        assert all_pairs_edges(config).tolist() == [[0, 1]]
        first, second, _ = batch_clustering([config])
        assert edge_set(first, second) == {(0, 1)}

    @pytest.mark.parametrize("law_tag", ["uniform", "rigid"])
    def test_d4_batch_matches_each_replicates_all_pairs(self, law_tag):
        law = Rigid(np.eye(4)[3]) if law_tag == "rigid" else Uniform()
        configs = [
            sample_configuration(4, 4.0, 0.02, law, BoxRegion.cube(4, 12.0), seed=seed) for seed in range(3)
        ]
        # integer centres: many rigid pairs sit exactly 2 apart
        configs = [dataclasses.replace(c, centers=np.round(c.centers)) for c in configs]
        first, second, _ = batch_clustering(configs)
        truth = batch_truth(configs)
        assert len(truth) > 50
        assert edge_set(first, second) == truth

    @pytest.mark.parametrize("d,law_tag", [(2, "uniform"), (3, "uniform"), (2, "rigid")])
    def test_batch_near_a_million_matches_all_pairs(self, d, law_tag):
        configs, cell = geometry_sample(d, law_tag)
        if law_tag == "rigid":
            configs = [dataclasses.replace(c, centers=np.round(c.centers)) for c in configs]
        configs = [shifted(c, 1e6) for c in configs[:3]]
        first, second, _ = batch_clustering(configs, cell=cell)
        truth = batch_truth(configs)
        assert truth
        assert edge_set(first, second) == truth

    @settings(max_examples=300, deadline=None)
    @given(field_boxes())
    @example((32, [[0, 0, 0, 0], [0, 0, 0, 0]]))
    @example((32, [[2**31 - 1] * 4, [0, 0, 2**31 - 1, 2**31 - 1]]))
    @example((2, [[1] * 64, [0] * 64, [1, 0] * 32]))
    @example((21, [[5, 7, 9, 5, 7, 9], [9, 0, 0, 9, 0, 0]]))
    def test_packed_comparison_matches_each_axis(self, case):
        # two boxes meet when on every axis each low corner is at most
        # the other's high corner, equal corners included
        w, boxes = case
        axes = len(boxes[0]) // 2
        low, high, guards = packed_boxes(boxes, w)
        i, j = (np.array(v, dtype=np.int64) for v in zip(*itertools.combinations(range(len(boxes)), 2)))
        meet = percolation._boxes_meet(low, high, np.uint64(guards), i, j)
        expected = [
            p for p, (a, b) in enumerate(zip(i.tolist(), j.tolist()))
            if all(boxes[a][k] <= boxes[b][axes + k] and boxes[b][k] <= boxes[a][axes + k] for k in range(axes))
        ]
        assert meet.tolist() == expected

    def test_kernel_sees_fewer_pairs_than_the_broad_phase(self, monkeypatch):
        # a box test that kept every pair would still give the right edges
        configs, cell = geometry_sample(3, "uniform")
        kernel, rows = percolation._segment_distance, []

        def counted(u, *rest):
            rows.append(u.shape[1])
            return kernel(u, *rest)

        monkeypatch.setattr(percolation, "_segment_distance", counted)
        centers, dirs, counts, length, _ = stacked_rows(configs)
        replicate, first, _ = percolation._batch_edges(centers, dirs, counts, length, None)
        candidates, _ = percolation._index(centers.T, dirs.T, length, None, replicate)._pair_ids()
        assert len(first) <= sum(rows) < len(candidates) / 2


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
    def test_matches_bfs(self, graph):
        n, edges = graph
        labels = percolation._labels(n, *np.ascontiguousarray(edges.T, dtype=np.int64))
        bfs = bfs_components(n, edges)
        assert labels_equivalent(labels, bfs)
        # canonical: each label is the smallest node of its component
        assert np.array_equal(labels, smallest_labels(bfs))

    @settings(max_examples=150, deadline=None)
    @given(graphs())
    @example((0, NO_EDGES))
    @example((4, np.array([[1, 3], [3, 1], [1, 3], [0, 2], [0, 2]])))
    @example((5, np.array([[2, 2], [4, 4], [0, 4], [3, 3]])))
    def test_union_find_front_matches_bfs(self, graph):
        n, edges = graph
        uf = UnionFind(n)
        for a, b in edges.tolist():
            uf.union(a, b)
        bfs = bfs_components(n, edges)
        assert np.array_equal(uf.labels(), smallest_labels(bfs))
        assert uf.count == len(set(bfs.tolist()))


class TestCrossing:
    def test_empty_no_crossing(self):
        box = BoxRegion.cube(2, 20.0)
        config = Configuration(4.0, box, np.zeros((0, 2)), np.zeros((0, 2)))
        assert not crossing_event(config)

    def test_single_spanning_stick(self):
        window = BoxRegion.cube(2, 10.0)
        config = Configuration(14.0, window, np.array([[5.0, 5.0]]), np.array([[1.0, 0.0]]))
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
        for axis in (2, -1):
            with pytest.raises(DomainError):
                crossing_event(config, axis=axis)


class TestBatchCrossings:
    @pytest.mark.parametrize("law_tag", ["uniform", "rigid"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_one_configuration_at_a_time(self, d, law_tag):
        # a window of side L + 2, so one stick along the crossing axis at
        # its centre touches both faces; intensities from nearly empty to
        # well above crossing
        length, side = 8.0, 10.0
        law = Uniform() if law_tag == "uniform" else Rigid(np.eye(d)[d - 1])
        cell = tuned_cell_size(length, law)
        for axis in (0, d - 1):
            batch = [
                sample_window_configuration(d, length, (0.002 if d == 2 else 0.0002) * 2 ** (k / 2), law, side, seed=k)
                for k in range(16)
            ]
            window = batch[0].observation_window
            empty = Configuration(length, window, np.zeros((0, d)), np.zeros((0, d)))
            spanning = Configuration(length, window, np.full((1, d), side / 2), np.eye(d)[[axis]])
            batch[5:5] = [empty, spanning]
            expected = [crossing_event(c, axis, cell) for c in batch]
            assert expected[5:7] == [False, True]
            assert 0 < sum(expected) < len(batch) - 1
            assert batch_crossings(batch, axis, cell).tolist() == expected

    def test_replicates_in_one_window_stay_apart(self):
        # horizontal sticks chained along y = 10 across the window [0, 20]^2:
        # the first replicate holds the half touching x = 0, the second the
        # half touching x = 20; only merged do they cross
        window = BoxRegion.cube(2, 20.0)
        dirs = np.tile([1.0, 0.0], (2, 1))
        low = Configuration(6.0, window, np.array([[1.0, 10.0], [6.0, 10.0]]), dirs)
        high = Configuration(6.0, window, np.array([[11.0, 10.0], [16.0, 10.0]]), dirs)
        merged = Configuration(6.0, window, np.concatenate([low.centers, high.centers]), np.tile([1.0, 0.0], (4, 1)))
        assert batch_crossings([low, high], 0, 5.0).tolist() == [False, False]
        assert batch_crossings([merged], 0, 5.0).tolist() == [True]
        assert crossing_event(merged, cell=5.0)


class TestCrossingProbability:
    def test_extreme_intensities(self):
        lo = probe(2, 8.0, 1e-5, Uniform(), 64.0, 10, seed=1)
        assert lo.frequency == 0.0
        hi = probe(2, 8.0, 0.5, Uniform(), 64.0, 10, seed=1)
        assert hi.frequency == 1.0

    def test_deterministic(self):
        a = probe(2, 8.0, 0.04, Uniform(), 64.0, 30, seed=5)
        b = probe(2, 8.0, 0.04, Uniform(), 64.0, 30, seed=5)
        assert a == b

    def test_workers_do_not_change_result(self):
        a = probe(2, 8.0, 0.04, Uniform(), 64.0, 16, seed=5, workers=1)
        b = probe(2, 8.0, 0.04, Uniform(), 64.0, 16, seed=5, workers=2)
        assert a == b

    @pytest.mark.parametrize("replicates", [7, 13, 24])
    def test_chunks_that_split_batches_change_nothing(self, replicates):
        # about 950 sticks a replicate, so batches of five: the last batch
        # is short (7, 13, 24), and two processes share the batches
        args = (2, 8.0, 0.033, Uniform(), 160.0, replicates)
        a = probe(*args, seed=5, workers=1)
        b = probe(*args, seed=5, workers=2)
        assert a == b
        configs = [sample_window_configuration(2, 8.0, 0.033, Uniform(), 160.0, s)
                   for s in percolation.replicate_seeds(5, 0, replicates)]
        assert sum(c.count for c in configs) > 1.5 * percolation._BATCH_STICKS
        assert a.outcomes == tuple(int(crossing_event(c, cell=tuned_cell_size(8.0, Uniform()))) for c in configs)
        assert 0 < a.successes < replicates

    def test_pinned_outcomes(self):
        # recorded before the pipeline gathered by take: a speed-up that
        # flips one edge, and so one crossing, shows here and not only in
        # the benchmark digests
        uniform = probe(3, 8.0, 0.00507, Uniform(), 64.0, replicates=8, seed=20260810)
        assert uniform.outcomes == (0, 1, 0, 1, 1, 0, 0, 1)
        rigid = probe(2, 8.0, 0.08, Rigid(np.array([0.0, 1.0])), 64.0, replicates=16, seed=20260810)
        assert rigid.outcomes == (1, 0, 0, 1, 0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 1)
        # recorded before the batch moved to per-axis columns
        planar = probe(2, 8.0, 0.033, Uniform(), 64.0, replicates=16, seed=20260810)
        assert planar.outcomes == (0, 0, 0, 1, 0, 1, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1)

    @staticmethod
    def refuse_sampling(monkeypatch):
        def sample(*args):
            raise AssertionError("sampled a replicate")

        monkeypatch.setattr(percolation, "poisson_sticks", sample)

    @pytest.mark.parametrize("axis", [2, -1])
    def test_axis_out_of_range_rejected_before_sampling(self, monkeypatch, axis):
        self.refuse_sampling(monkeypatch)
        with pytest.raises(DomainError, match="axis"):
            estimate_threshold(2, 8.0, Uniform(), 64.0, replicates=4, seed=5, axis=axis)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_law_of_another_dimension_rejected_before_sampling_or_pool(self, monkeypatch, workers):
        # refused by the estimate's input checks, not met in the sampler's
        # normalising after a pool has started
        def pool(*args):
            raise AssertionError("started a pool")

        self.refuse_sampling(monkeypatch)
        monkeypatch.setattr(percolation, "_replicate_pool", pool)
        law = Rigid(np.array([0.0, 1.0]))
        with pytest.raises(DomainError, match="rigid axis dimension does not match d"):
            estimate_threshold(3, 8.0, law, 80.0, replicates=10, seed=1, workers=workers)

    @pytest.mark.parametrize(
        "inputs, message",
        [({"replicates": 2.5}, "replicates must be an integer >= 1"),
         ({"workers": 1.5}, "workers must be an integer >= 1"),
         ({"max_bisect": 1.5}, "max_bisect must be an integer >= 0"),
         ({"axis": math.nan}, "axis must be an integer >= 0")],
        ids=["replicates", "workers", "max_bisect", "axis"],
    )
    def test_fractional_count_rejected_before_sampling_or_pool(self, monkeypatch, inputs, message):
        # refused by the input checks, before any probe of the walk-out
        self.refuse_sampling(monkeypatch)
        built = self.record_pools(monkeypatch, {0, 1})
        with pytest.raises(DomainError, match=f"^{message}$"):
            estimate_threshold(2, 8.0, Uniform(), 64.0, **{"replicates": 4, "seed": 5, "workers": 2, **inputs})
        assert built == []

    @pytest.mark.parametrize("side", [math.inf, math.nan])
    def test_non_finite_side_rejected_before_sampling_or_pool(self, monkeypatch, side):
        # named as the window side, not met as an infinite Poisson mean
        self.refuse_sampling(monkeypatch)
        built = self.record_pools(monkeypatch, {0, 1})
        with pytest.raises(DomainError, match=rf"^window side must be a number in \(0, inf\), got {side}$"):
            estimate_threshold(2, 8.0, Uniform(), side, replicates=4, seed=5, workers=2)
        assert built == []

    @pytest.mark.parametrize("law_tag", ["uniform", "rigid"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_batches_hold_each_replicates_own_draw(self, monkeypatch, d, law_tag):
        # about 950 sticks expected a replicate, so a probe of 13 runs
        # batches of five: each replicate's columns of its batch's rows
        # are, bit for bit, the sticks its stream draws alone
        law = Uniform() if law_tag == "uniform" else Rigid(np.eye(d)[d - 1])
        box = percolation.sampling_box(BoxRegion.cube(d, 64.0), 8.0)
        intensity = 950.0 / box.volume
        seen = []
        real = percolation._batch_crossings

        def recording(centers, dirs, counts, *rest):
            seen.append((centers, dirs, counts))
            return real(centers, dirs, counts, *rest)

        monkeypatch.setattr(percolation, "_batch_crossings", recording)
        seeds = percolation.replicate_seeds(5, 0, 13)
        probe(d, 8.0, intensity, law, 64.0, 13, seed=5, workers=1)
        assert [len(counts) for _, _, counts in seen] == [5, 5, 3]
        assert sum(seen[0][2]) > percolation._BATCH_STICKS
        columns = [(c, u) for centers, dirs, counts in seen
                   for c, u in zip(np.split(centers, np.cumsum(counts)[:-1], axis=1),
                                   np.split(dirs, np.cumsum(counts)[:-1], axis=1))]
        for s, (c, u) in zip(seeds, columns):
            ref_centers, ref_dirs = reference_sticks(d, intensity, law, box, substream(s, _STREAM_CONFIG))
            assert np.array_equal(c, ref_centers.T) and np.array_equal(u, ref_dirs.T)
        assert all(centers.flags.c_contiguous and dirs.flags.c_contiguous for centers, dirs, _ in seen)

    @staticmethod
    def record_pools(monkeypatch, cpus, tasks=None):
        """Pin the CPUs this process may use to ``cpus`` and swap the pool
        for a recorder of its size and initializer that starts no process;
        the seeds of each task it is handed go into ``tasks``."""
        built = []

        class Recorder:
            def __init__(self, max_workers, initializer):
                built.append((max_workers, initializer))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                payloads = list(iterable)
                if tasks is not None:
                    tasks.extend(seeds for seeds, *_ in payloads)
                return map(fn, payloads)

        monkeypatch.setattr(percolation.os, "sched_getaffinity", lambda pid: set(cpus), raising=False)
        monkeypatch.setattr(percolation, "ProcessPoolExecutor", Recorder)
        return built

    def test_pool_capped_at_cpu_count(self, monkeypatch):
        # a pool starts all its processes at the first task, so a huge
        # --workers must not reach it; the recorder starts no process
        built = self.record_pools(monkeypatch, range(3))
        a = probe(2, 8.0, 0.04, Uniform(), 64.0, 6, seed=5, workers=10_000)
        assert built == [(3, percolation._keep_freed_heap)]
        assert a == probe(2, 8.0, 0.04, Uniform(), 64.0, 6, seed=5, workers=1)

    def test_pool_tasks_are_the_batches(self, monkeypatch):
        # 64 workers asked for on 2 CPUs: the pool of 2 is handed the
        # probe's batches, in order, the ones one process runs
        tasks, batches = [], []
        built = self.record_pools(monkeypatch, {0, 1}, tasks)
        real = percolation._replicate_crossings
        monkeypatch.setattr(percolation, "_replicate_crossings", lambda task: batches.append(task[0]) or real(task))
        a = probe(2, 8.0, 0.033, Uniform(), 64.0, 200, seed=5, workers=64)
        assert [size for size, _ in built] == [2]
        assert [s for seeds in tasks for s in seeds] == percolation.replicate_seeds(5, 0, 200)
        expected = 0.033 * percolation.sampling_box(BoxRegion.cube(2, 64.0), 8.0).volume
        size = math.ceil(percolation._BATCH_STICKS / expected)
        assert [len(seeds) for seeds in tasks[:-1]] == [size] * (len(tasks) - 1)
        assert 0 < len(tasks[-1]) <= size
        pooled = list(batches)
        batches.clear()
        assert a == probe(2, 8.0, 0.033, Uniform(), 64.0, 200, seed=5, workers=1)
        assert pooled == tasks == batches

    @pytest.mark.parametrize("cpus, sizes", [({0}, []), ({0, 1}, [2])])
    def test_pool_capped_at_cpu_affinity(self, monkeypatch, cpus, sizes):
        # under taskset or a cpuset the affinity mask, not the machine,
        # bounds the pool; with one CPU the replicates run in process
        built = self.record_pools(monkeypatch, cpus)
        a = probe(2, 8.0, 0.04, Uniform(), 64.0, 6, seed=5, workers=4)
        assert [size for size, _ in built] == sizes
        assert a == probe(2, 8.0, 0.04, Uniform(), 64.0, 6, seed=5, workers=1)

    def test_estimate_shares_one_pool(self, monkeypatch):
        # every probe of an estimate runs on the one pool it opens
        built = self.record_pools(monkeypatch, {0, 1})
        est = estimate_threshold(2, 8.0, Uniform(), 64.0, replicates=8, seed=5, max_bisect=3, workers=2)
        assert len(est.probes) > 2
        assert built == [(2, percolation._keep_freed_heap)]

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


class TestWorkerHeap:
    @staticmethod
    def fake_libc(monkeypatch, returns=1):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return returns

        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
        return calls, mallopt

    def test_sets_mmap_then_trim_threshold(self, monkeypatch):
        # glibc's M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD -1
        calls, mallopt = self.fake_libc(monkeypatch)
        assert percolation._keep_freed_heap() is True
        assert calls == [(-3, 32 * 2**20), (-1, 64 * 2**20)]
        assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int) and mallopt.restype is ctypes.c_int

    def test_refused_mmap_threshold_leaves_trim_alone(self, monkeypatch):
        # musl's mallopt returns 0; the trim threshold alone would map every
        # array above 128 KiB afresh on each call
        calls, _ = self.fake_libc(monkeypatch, returns=0)
        assert percolation._keep_freed_heap() is False
        assert calls == [(-3, 32 * 2**20)]

    def test_no_c_library_does_nothing(self, monkeypatch):
        def missing(name):
            raise OSError("no C library")

        monkeypatch.setattr(ctypes, "CDLL", missing)
        assert percolation._keep_freed_heap() is False

    def test_no_mallopt_does_nothing(self, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace())
        assert percolation._keep_freed_heap() is False

    def test_caller_allocator_untouched(self, monkeypatch):
        # workers inherit the recording fake and run it on their own copy
        # of the list, so only a call in this process would show here
        calls, _ = self.fake_libc(monkeypatch)
        monkeypatch.setattr(percolation.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        probe(2, 8.0, 0.04, Uniform(), 64.0, 4, seed=5, workers=1)
        probe(2, 8.0, 0.04, Uniform(), 64.0, 4, seed=5, workers=2)
        assert calls == []

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc mallopt")
    def test_glibc_worker_keeps_freed_heap(self, monkeypatch):
        monkeypatch.setattr(percolation.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        with percolation._replicate_pool(2) as pool:
            assert pool.submit(percolation._keep_freed_heap).result() is True


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

    def test_design_is_built_once_per_estimate(self, monkeypatch):
        # check_threshold_inputs builds the window, its sampling box and the
        # cell once, and no probe builds them again
        calls = []

        def spy(name, real):
            def counted(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return counted

        monkeypatch.setattr(BoxRegion, "cube", staticmethod(spy("cube", BoxRegion.cube)))
        monkeypatch.setattr(percolation, "sampling_box", spy("sampling_box", percolation.sampling_box))
        monkeypatch.setattr(percolation, "tuned_cell_size", spy("tuned_cell_size", percolation.tuned_cell_size))
        est = estimate_threshold(2, 8.0, Uniform(), 64.0, replicates=12, seed=3, workers=1)
        assert len(est.probes) >= 4
        assert sorted(calls) == ["cube", "sampling_box", "tuned_cell_size"]

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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pinned_uniform_d3_estimate(self, workers):
        # the one pinned estimate outside the plane: the edges of every
        # replicate of eight probes show here
        est = estimate_threshold(3, 8.0, Uniform(), 64.0, replicates=8, seed=20260810, workers=workers)
        assert est.lambda_hat == 0.00499914423124692
        assert (est.ci_low, est.ci_high) == (0.004973591971621729, 0.006043675301361488)
        assert [p.successes for p in est.probes] == [0, 0, 0, 3, 8, 8, 8, 5]

    @pytest.mark.parametrize("d, law", [(3, "Uniform()"), (2, "Rigid([0.0, 1.0])")])
    def test_estimate_leaves_numpy_ma_unimported(self, d, law):
        # each fresh pool worker runs this path, so an import on it is paid
        # per worker: np.unique, np.intersect1d or a large np.isin loads
        # numpy.ma, 8-17 ms
        script = (f"import sys; from stickperc import Rigid, Uniform, estimate_threshold\n"
                  f"estimate_threshold({d}, 4.0, {law}, 32.0, 20, 1); print('numpy.ma' in sys.modules)")
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=checkout_env())
        assert (run.returncode, run.stdout) == (0, "False\n")

    def test_pool_forks_after_numpy_random(self):
        # a worker forked before numpy.random is imported imports it at its
        # first task; the pool opens no process, so two CPUs are assumed
        script = ("import sys; from stickperc import percolation\n"
                  "print('numpy.random' in sys.modules); percolation._usable_cpus = lambda: 2\n"
                  "with percolation._replicate_pool(2): print('numpy.random' in sys.modules, 'numpy.ma' in sys.modules)")
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=checkout_env())
        assert (run.returncode, run.stdout) == (0, "False\nTrue False\n")

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
        def constant(executor, design, intensity, replicates, seed, probe_id):
            successes = int(frequency * replicates)
            return CrossingStats(
                intensity, frequency, frequency, frequency, successes, replicates,
                (int(frequency),) * replicates,
            )

        monkeypatch.setattr(percolation, "_probe", constant)
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

    @pytest.mark.parametrize(
        "point",
        [(16, 0.0, 1.0), (16, -0.01, 1.0), (16, math.inf, 1.0), (16, math.nan, 1.0), (0, 0.01, 1.0),
         (-16, 0.01, 1.0), (math.inf, 0.01, 1.0), (math.nan, 0.01, 1.0), (16, 0.01, 0.0), (16, 0.01, -1.0),
         (16, 0.01, math.inf), (16, 0.01, math.nan)],
        ids=["lambda-0", "lambda-negative", "lambda-inf", "lambda-nan", "L-0", "L-negative", "L-inf", "L-nan",
             "weight-0", "weight-negative", "weight-inf", "weight-nan"],
    )
    def test_points_must_be_positive_and_finite(self, point):
        # refused by name, not met as a numpy warning or a nan slope
        pts = [(8, 8.0**-2, 1.0), point, (32, 32.0**-2, 1.0), (64, 64.0**-2, 1.0)]
        k = next(k for k, v in enumerate(point) if not 0.0 < v < math.inf)
        message = rf"^scaling point {('L', 'lambda', 'weight')[k]} must be a number in \(0, inf\), got {point[k]!r}$"
        with pytest.raises(DomainError, match=message):
            scaling_fit(pts)
