import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stickperc import oriented
from stickperc.errors import CapacityExceeded, DomainError
from stickperc.oriented import (
    _KEY_LEFT,
    _KEY_RIGHT,
    _STREAM_TRIAL,
    Frontier,
    coupled_survival_matrix,
    coupled_survival_monotonicity,
    op_step,
    survival_probability,
)
from stickperc.rng import combine_keys, derive_seed, mix_to_unit, substream


def coupled_step(frontier, alpha, trial_key):
    """``_coupled_steps`` on the one frontier ``frontier``: the x of its site
    children and of its bond children."""
    parents = frontier.occupied
    bands, site, bond = oriented._coupled_steps(
        np.array([frontier.level]), [trial_key], np.zeros(parents.size, dtype=np.int64), parents, alpha
    )
    return bands.unpack(site)[1], bands.unpack(bond)[1]


def loop_coupled_step(frontier, alpha, trial_key):
    """Reference coupled step: a loop over candidate children, reading each
    parent arrow as one scalar keyed uniform."""
    parents = frontier.occupied
    level = frontier.level
    if parents.size == 0:
        empty = Frontier(level + 1, np.empty(0, dtype=np.int64))
        return empty, empty
    parent_set = set(int(x) for x in parents)
    site_children = []
    bond_children = []
    candidates = np.unique(np.concatenate((parents - 1, parents + 1)))
    for c in candidates:
        c = int(c)
        left_parent = c - 1 in parent_set
        right_parent = c + 1 in parent_set
        u_from_left = float(mix_to_unit(combine_keys(trial_key, level, np.array([c - 1]), _KEY_RIGHT))[0])
        u_from_right = float(mix_to_unit(combine_keys(trial_key, level, np.array([c + 1]), _KEY_LEFT))[0])
        arrows = []
        if left_parent:
            arrows.append(u_from_left)
        if right_parent:
            arrows.append(u_from_right)
        if any(u < alpha for u in arrows):
            bond_children.append(c)
        if arrows[0] < alpha:  # designated parent: leftmost occupied
            site_children.append(c)
    return (
        Frontier(level + 1, np.array(site_children, dtype=np.int64)),
        Frontier(level + 1, np.array(bond_children, dtype=np.int64)),
    )


def loop_coupled_survival_matrix(alphas, n_max, trials, seed):
    """Reference bond survival matrix: each trial and alpha runs on its own
    from the origin through checked frontiers, reading every parent arrow of
    the keyed field one level at a time."""
    out = np.zeros((trials, len(alphas)), dtype=int)
    for t in range(trials):
        trial_key = derive_seed(seed, _STREAM_TRIAL, t)

        def field(level, sites, key):
            return mix_to_unit(combine_keys(trial_key, level, sites, key))

        for k, alpha in enumerate(alphas):
            frontier = Frontier.origin()
            for _ in range(n_max):
                parents, level = frontier.occupied, frontier.level
                left = field(level, parents, _KEY_LEFT) < alpha
                right = field(level, parents, _KEY_RIGHT) < alpha
                frontier = Frontier(level + 1, np.concatenate((parents[left] - 1, parents[right] + 1)))
                if not frontier.alive:
                    break
            out[t, k] = 1 if frontier.alive else 0
    return out


def loop_survival_levels(alpha, variant, n_max, trials, seed):
    """Reference extinction levels: each trial runs on its own from the
    origin through checked frontiers, drawing from its own stream (bond: left
    arrows, then right arrows, of the sorted parents; site: one uniform per
    sorted candidate child)."""
    levels = []
    for t in range(trials):
        stream = substream(seed, _STREAM_TRIAL, t)
        frontier = Frontier.origin()
        for _ in range(n_max):
            parents = frontier.occupied
            if variant == "bond":
                left = stream.random(parents.size) < alpha
                right = stream.random(parents.size) < alpha
                children = np.concatenate((parents[left] - 1, parents[right] + 1))
            else:
                candidates = np.unique(np.concatenate((parents - 1, parents + 1)))
                children = candidates[stream.random(candidates.size) < alpha]
            frontier = Frontier(frontier.level + 1, children)
            if not frontier.alive:
                break
        levels.append(-1 if frontier.alive else frontier.level)
    return tuple(levels)


@st.composite
def frontiers(draw):
    """A frontier at a random level with 0 to 30 occupied sites."""
    level = draw(st.integers(0, 60))
    sites = draw(st.lists(st.integers(-40, 40), max_size=30))
    return Frontier(level, np.array(sites, dtype=np.int64) * 2 + level % 2)


class TestFrontier:
    def test_parity_enforced(self):
        with pytest.raises(DomainError):
            Frontier(1, np.array([0]))
        Frontier(1, np.array([-1, 1]))

    @pytest.mark.parametrize(
        "sites, shown",
        [([0.5], "0.5"), ([2.9], "2.9"), ([math.nan], "nan"), (["a"], "'a'"), (["2"], "'2'"),
         ([2**70], str(2**70)), ([2**63], str(2**63)), ([-(2**63) - 1], str(-(2**63) - 1)),
         ([0, 2**70], str(2**70)), (np.array([4.0, 2.5]), "2.5"), (np.array([2**63], dtype=np.uint64), str(2**63))],
        ids=["half", "fraction", "nan", "text", "digit-text", "2^70", "2^63", "below-int64",
             "second-site", "float-array", "uint64-array"],
    )
    def test_non_int64_site_refused(self, sites, shown):
        with pytest.raises(DomainError, match=f"^sites must be integers in the int64 range, got {re.escape(shown)}$"):
            Frontier(0, sites)

    def test_integral_sites_kept(self):
        assert Frontier(0, [2.0, -(2**63), 2**63 - 2]).occupied.tolist() == [-(2**63), 2, 2**63 - 2]
        assert Frontier(0, np.array([4.0, -2.0])).occupied.tolist() == [-2, 4]
        assert Frontier(0, np.array([2**63 - 2], dtype=np.uint64)).occupied.tolist() == [2**63 - 2]

    def test_deduplication_and_sorting(self):
        f = Frontier(0, np.array([4, -2, 4, 0]))
        assert f.occupied.tolist() == [-2, 0, 4]


class TestOpStep:
    def test_empty_absorbing(self):
        empty = Frontier(2, np.empty(0, dtype=np.int64))
        out = op_step(empty, 0.9, "bond", substream(0))
        assert not out.alive and out.level == 3

    def test_alpha_one_full_cone(self):
        frontier = Frontier.origin()
        rng = substream(1)
        for n in range(1, 30):
            frontier = op_step(frontier, 1.0, "bond", rng)
            assert frontier.occupied.tolist() == list(range(-n, n + 1, 2))

    def test_support_bound(self):
        rng = substream(2)
        for variant in ("bond", "site"):
            frontier = Frontier.origin()
            for _ in range(80):
                frontier = op_step(frontier, 0.85, variant, rng)
                if not frontier.alive:
                    break
                assert frontier.occupied.min() >= -frontier.level
                assert frontier.occupied.max() <= frontier.level

    def test_single_site_child_frequencies(self):
        alpha = 0.7
        rng = substream(3)
        steps = 100_000
        left = right = 0
        for _ in range(steps):
            child = op_step(Frontier.origin(), alpha, "bond", rng)
            occ = set(child.occupied.tolist())
            left += 1 if -1 in occ else 0
            right += 1 if 1 in occ else 0
        se = math.sqrt(alpha * (1 - alpha) / steps)
        assert abs(left / steps - alpha) <= 3 * se
        assert abs(right / steps - alpha) <= 3 * se

    def test_two_parent_occupation_matches_beta(self):
        # candidate with both predecessors occupied: bond turns on with
        # 1-(1-a)^2, site with a
        alpha = 0.6
        rng = substream(4)
        steps = 30_000
        hits = {"bond": 0, "site": 0}
        parents = Frontier(0, np.array([-2, 0, 2]))
        for variant in ("bond", "site"):
            for _ in range(steps):
                child = op_step(parents, alpha, variant, rng)
                hits[variant] += 1 if -1 in set(child.occupied.tolist()) else 0
        se = math.sqrt(0.25 / steps)
        assert abs(hits["bond"] / steps - (1 - (1 - alpha) ** 2)) <= 4 * se
        assert abs(hits["site"] / steps - alpha) <= 4 * se

    @settings(max_examples=200, deadline=None)
    @given(frontiers(), st.sampled_from([0.0, 0.3, 0.65, 0.9, 1.0]), st.integers(0, 2**64 - 1))
    @example(Frontier(3, np.empty(0, dtype=np.int64)), 0.7, 5)
    @example(Frontier(0, np.arange(-20, 21, 2)), 1.0, 2**63)
    def test_outputs_are_well_formed_frontiers(self, frontier, alpha, seed):
        # the steps' outputs are already sorted unique sites of the child
        # level's parity, so a second pass through Frontier(...) keeps them
        outs = [op_step(frontier, alpha, variant, substream(seed)) for variant in ("bond", "site")]
        assert all(out.level == frontier.level + 1 for out in outs)
        children = [out.occupied for out in outs] + list(coupled_step(frontier, alpha, seed))
        for occupied in children:
            checked = Frontier(frontier.level + 1, occupied)
            assert occupied.dtype == checked.occupied.dtype
            assert occupied.tolist() == checked.occupied.tolist()

    @pytest.mark.parametrize(
        "frontier, site", [(Frontier(1, [2**63 - 1]), 2**63 - 1), (Frontier(0, [-(2**63), 0]), -(2**63))],
        ids=["top", "bottom"],
    )
    def test_site_at_int64_end_refused_before_any_draw(self, monkeypatch, frontier, site):
        # unchecked, the site 2^63 - 1 stepped to the children -2^63 and 2^63 - 2
        stream = mock.Mock(spec=np.random.Generator)
        fields = []
        monkeypatch.setattr(oriented, "_field", lambda *args: fields.append(args))
        message = f"^site {site} has a child outside the int64 range$"
        for variant in ("bond", "site"):
            with pytest.raises(DomainError, match=message):
                op_step(frontier, 1.0, variant, stream)
        with pytest.raises(DomainError, match=message):
            coupled_step(frontier, 1.0, trial_key=1)
        assert stream.mock_calls == [] and fields == []

    def test_sites_next_to_int64_ends_step(self):
        frontier = Frontier(1, [-(2**63) + 1, 2**63 - 3])
        children = [-(2**63), -(2**63) + 2, 2**63 - 4, 2**63 - 2]
        for variant in ("bond", "site"):
            assert op_step(frontier, 1.0, variant, substream(0)).occupied.tolist() == children
        top = Frontier(1, [2**63 - 3])
        assert [x.tolist() for x in coupled_step(top, 1.0, trial_key=1)] == [children[2:], children[2:]]

    @pytest.mark.parametrize(
        "run, x, shown",
        [
            ([0, 1, 2], [2**61, -(2**61), 0], f"3 packed runs of sites in [{-(2**61)}, {2**61}]"),
            # two runs of width 2^62, the first layout at 2^63
            ([0, 1], [-(2**61), 2**61 - 4], f"2 packed runs of sites in [{-(2**61)}, {2**61 - 4}]"),
            # its offset 2 - lo is 2^63 + 1
            ([0], [-(2**63) + 1], f"1 packed runs of sites in [{-(2**63) + 1}, {-(2**63) + 1}]"),
        ],
        ids=["three-runs", "two-runs-at-the-bound", "offset"],
    )
    def test_coupled_layout_outside_int64_refused_before_any_draw(self, monkeypatch, run, x, shown):
        # unchecked, the three runs stepped to children whose unpacked run read -2,
        # and the offset met numpy's bare OverflowError
        fields = []
        monkeypatch.setattr(oriented, "_field", lambda *args: fields.append(args))
        levels = np.array([x[r] % 2 for r in range(len(x))])
        with pytest.raises(DomainError, match=f"^{re.escape(shown)} overflow int64$"):
            oriented._coupled_steps(levels, list(range(len(x))), np.array(run), np.array(x, dtype=np.int64), 1.0)
        assert fields == []

    def test_largest_coupled_layouts_step(self):
        # one step below each refused layout: two runs of width 2^62 - 2, and the offset 2^63 - 1
        for run, x in [([0, 1], [-(2**61), 2**61 - 6]), ([0], [-(2**63) + 3])]:
            levels = np.array([v % 2 for v in x])
            bands, site, bond = oriented._coupled_steps(levels, [1] * len(x), np.array(run), np.array(x), 1.0)
            for children in (site, bond):
                got_run, got_x = bands.unpack(children)
                assert got_run.tolist() == np.repeat(run, 2).tolist()
                assert got_x.tolist() == [v + s for v in x for s in (-1, 1)]

    def test_invalid_alpha(self):
        with pytest.raises(DomainError):
            op_step(Frontier.origin(), 1.5, "bond", substream(0))
        with pytest.raises(DomainError):
            op_step(Frontier.origin(), 0.5, "triangle", substream(0))


class TestSurvival:
    def test_alpha_one_survives(self):
        stats = survival_probability(1.0, "bond", 50, 20, seed=1)
        assert stats.fraction == 1.0

    def test_supercritical_bond_survives_often(self):
        stats = survival_probability(0.81, "bond", 200, 100, seed=2)
        assert stats.fraction > 0.15
        assert stats.ci_low <= stats.fraction <= stats.ci_high

    def test_subcritical_bond_dies(self):
        stats = survival_probability(0.5, "bond", 300, 200, seed=3)
        assert stats.survivors == 0
        assert all(lvl >= 1 for lvl in stats.extinction_levels)

    def test_subcritical_site_dies(self):
        stats = survival_probability(0.5, "site", 300, 200, seed=4)
        assert stats.survivors == 0

    def test_extinction_levels_recorded(self):
        stats = survival_probability(0.6, "bond", 50, 50, seed=5)
        assert len(stats.extinction_levels) == 50
        for lvl in stats.extinction_levels:
            assert lvl == -1 or 1 <= lvl <= 50

    def test_deterministic(self):
        a = survival_probability(0.7, "bond", 100, 40, seed=6)
        b = survival_probability(0.7, "bond", 100, 40, seed=6)
        assert a == b

    @pytest.mark.parametrize("batch_runs", [1, 7, 256])
    @pytest.mark.parametrize("variant, alpha", [("bond", 0.66), ("site", 0.72)])
    def test_levels_match_loop_oracle_at_any_batch_size(self, variant, alpha, batch_runs):
        # 1 and 7 split the 20 trials over several packed arrays, 256 packs them all
        with mock.patch.object(oriented, "_BATCH_RUNS", batch_runs):
            stats = survival_probability(alpha, variant, 60, 20, seed=8)
        levels = loop_survival_levels(alpha, variant, 60, 20, 8)
        assert stats.extinction_levels == levels
        assert 0 < levels.count(-1) < 20


class TestCoupling:
    def test_singleton_list(self):
        assert coupled_survival_monotonicity([0.7], 50, 20, seed=1)

    def test_two_point_list(self):
        assert coupled_survival_monotonicity([0.2, 0.9], 80, 40, seed=2)

    def test_four_point_bond(self):
        assert coupled_survival_monotonicity([0.5, 0.7, 0.81, 0.95], 120, 50, seed=3)

    def test_site_step_not_monotone_in_parents(self):
        # the one open arrow is site 1's left arrow: alone, 1 opens child 0
        # through it, but beside -1 child 0 reads -1's closed right arrow
        # instead, so more parents give fewer site children; bond opens 0 either way
        def opens(level, parents, key):
            return (parents == 1) & (np.asarray(key) == _KEY_LEFT)

        assert oriented._step(np.array([1]), 0, "site", opens).tolist() == [0]
        assert oriented._step(np.array([-1, 1]), 0, "site", opens).tolist() == []
        assert oriented._step(np.array([-1, 1]), 0, "bond", opens).tolist() == [0]

    def test_matrix_shape_and_trend(self):
        mat = coupled_survival_matrix([0.4, 0.95], 120, 60, seed=5)
        assert mat.shape == (60, 2)
        assert mat[:, 0].mean() < mat[:, 1].mean()

    def test_unsorted_rejected(self):
        with pytest.raises(DomainError):
            coupled_survival_monotonicity([0.9, 0.5], 10, 5, seed=0)

    @pytest.mark.parametrize(
        "alphas, n_max, trials",
        [([0.5, 1.5], 10, 5), ([math.nan], 10, 5), ([-0.1, 0.5], 10, 5), ([0.5], 0, 5), ([0.5], 10, 0)],
        ids=["alpha-above-1", "alpha-nan", "alpha-negative", "n_max-0", "trials-0"],
    )
    def test_matrix_invalid_input_rejected(self, alphas, n_max, trials):
        with pytest.raises(DomainError):
            coupled_survival_matrix(alphas, n_max, trials, seed=0)

    def test_runs_above_guard_refused(self):
        # 250,001 trials at two alphas are 500,002 runs
        with pytest.raises(CapacityExceeded, match="500002 runs exceed guard of 5e"):
            coupled_survival_matrix([0.5, 0.6], 1, 250_001, seed=0)
        with pytest.raises(CapacityExceeded, match="500001 runs exceed guard of 5e"):
            survival_probability(0.5, "bond", 1, 500_001, seed=0)

    # 256 runs in a batch and 2 n_max + 4 sites a run fill int64 exactly at n_max = 2^54 - 2
    @pytest.mark.parametrize(
        "call",
        [lambda n_max: survival_probability(0.1, "bond", n_max, 300, 1),
         lambda n_max: coupled_survival_matrix([0.1, 0.2], n_max, 300, 1)],
        ids=["survival", "coupled"],
    )
    def test_n_max_past_int64_packing_refused_before_any_draw(self, monkeypatch, call):
        draws = []
        monkeypatch.setattr(oriented, "substream", lambda *args: draws.append(args))
        monkeypatch.setattr(oriented, "derive_seed", lambda *args: draws.append(args))
        for n_max in (2**54 - 1, 10**17, 2**62):
            message = f"^n_max too large: 256 packed runs of n_max = {n_max} overflow int64$"
            with pytest.raises(DomainError, match=message):
                call(n_max)
        assert draws == []

    def test_largest_n_max_in_int64_packing_runs(self):
        n_max = 2**54 - 2
        stats = survival_probability(0.1, "bond", n_max, 300, 1)
        assert stats.extinction_levels == loop_survival_levels(0.1, "bond", n_max, 300, 1)
        matrix = coupled_survival_matrix([0.1, 0.2], n_max, 300, 1)
        assert matrix.tolist() == loop_coupled_survival_matrix([0.1, 0.2], n_max, 300, 1).tolist()

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(0.01, 0.99), min_size=1, max_size=4).map(sorted),
        st.integers(1, 80), st.integers(1, 12), st.integers(0, 2**64 - 1), st.integers(1, 64),
    )
    @example([0.55, 0.65, 0.75], 40, 10, 2**63, 256)
    @example([0.3, 0.81, 0.95], 80, 12, 2**63, 7)
    def test_matrix_matches_loop_oracle(self, alphas, n_max, trials, seed, batch_runs):
        # small batch sizes split the trials over several packed arrays
        with mock.patch.object(oriented, "_BATCH_RUNS", batch_runs):
            matrix = coupled_survival_matrix(alphas, n_max, trials, seed)
        assert matrix.tolist() == loop_coupled_survival_matrix(alphas, n_max, trials, seed).tolist()

    def test_site_subset_of_bond_per_step(self):
        rng = substream(7)
        for t in range(300):
            level = int(rng.integers(0, 40))
            width = int(rng.integers(1, 25))
            sites = np.unique(rng.integers(-30, 31, width) * 2 + (level % 2))
            frontier = Frontier(level, sites)
            site, bond = coupled_step(frontier, 0.65, trial_key=1000 + t)
            assert set(site.tolist()) <= set(bond.tolist())

    @settings(max_examples=300, deadline=None)
    @given(frontiers(), st.sampled_from([0.0, 0.3, 0.65, 0.81, 0.9, 1.0]), st.integers(0, 2**64 - 1))
    @example(Frontier(3, np.empty(0, dtype=np.int64)), 0.7, 5)
    @example(Frontier(0, np.arange(-20, 21, 2)), 0.65, 2**63)
    def test_coupled_step_matches_loop_oracle(self, frontier, alpha, trial_key):
        site, bond = coupled_step(frontier, alpha, trial_key)
        site_ref, bond_ref = loop_coupled_step(frontier, alpha, trial_key)
        assert site.tolist() == site_ref.occupied.tolist()
        assert bond.tolist() == bond_ref.occupied.tolist()

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(frontiers(), st.integers(-10**9, 10**9)), min_size=1, max_size=8),
        st.sampled_from([0.0, 0.3, 0.65, 0.81, 1.0]), st.integers(0, 2**64 - 1),
    )
    @example([(Frontier(3, np.empty(0, dtype=np.int64)), 0)] * 2, 0.7, 5)
    @example([(Frontier(5, np.arange(-5, 6, 2)), -7)], 0.81, 2**64 - 1)
    @example(
        [(Frontier(4, np.arange(-6, 7, 2)), 0), (Frontier(0, np.empty(0, dtype=np.int64)), 0),
         (Frontier(7, np.arange(-5, 6, 2)), 0), (Frontier(8, np.array([0])), 10**9)],
        0.65, 2**64 - 2,
    )
    def test_packed_coupled_steps_match_loop_oracle(self, runs, alpha, first_key):
        # run t is a frontier moved by an even 2 * shift and keyed by first_key + t, which
        # wraps past 2^64; its sites go in reversed and twice, as the body sorts and deduplicates
        moved = [Frontier(f.level, f.occupied + 2 * shift) for f, shift in runs]
        keys = [first_key + t for t in range(len(moved))]
        run = np.repeat(np.arange(len(moved)), [f.occupied.size for f in moved])
        x = np.concatenate([f.occupied for f in moved])
        bands, site, bond = oriented._coupled_steps(
            np.array([f.level for f in moved]), keys, np.tile(run, 2)[::-1], np.tile(x, 2)[::-1], alpha
        )
        site_run, site_x = bands.unpack(site)
        bond_run, bond_x = bands.unpack(bond)
        for t, (frontier, key) in enumerate(zip(moved, keys)):
            site_ref, bond_ref = loop_coupled_step(frontier, alpha, key)
            assert site_x[site_run == t].tolist() == site_ref.occupied.tolist()
            assert bond_x[bond_run == t].tolist() == bond_ref.occupied.tolist()

    @pytest.mark.parametrize("alpha", [1.5, math.nan], ids=["above-1", "nan"])
    def test_coupled_step_invalid_alpha_rejected(self, alpha):
        # unchecked, 1.5 would open every arrow and nan none
        with pytest.raises(DomainError):
            coupled_step(Frontier(0, np.array([-2, 0, 2])), alpha, trial_key=1)

    def test_coupled_step_is_deterministic_in_key(self):
        frontier = Frontier(4, np.array([-2, 0, 2, 4]))
        a = coupled_step(frontier, 0.7, trial_key=99)
        b = coupled_step(frontier, 0.7, trial_key=99)
        assert a[0].tolist() == b[0].tolist()
        assert a[1].tolist() == b[1].tolist()


class TestPinnedOutputs:
    """Outputs recorded before the stream step, the keyed-field step and the
    coupled step became one update rule; a change of draw order or keying
    shows here."""

    @pytest.mark.parametrize(
        "variant, alpha, levels",
        [
            ("bond", 0.62, (19, -1, 6, -1, 29, 4, 14, 1, -1, -1, -1, -1, -1, 2, 16, 10)),
            ("site", 0.7, (-1, 6, 7, -1, -1, 16, 24, 1, -1, -1, -1, -1, -1, 2, 36, -1)),
        ],
    )
    def test_survival_extinction_levels(self, variant, alpha, levels):
        stats = survival_probability(alpha, variant, 40, 16, seed=21)
        assert stats.extinction_levels == levels
        assert stats.survivors == levels.count(-1)

    def test_coupled_survival_matrix(self):
        matrix = coupled_survival_matrix([0.55, 0.65, 0.75], 40, 10, seed=22)
        assert matrix.dtype == np.int64
        assert matrix.tolist() == [[0, 1, 1], [0, 1, 1], [1, 1, 1], [0, 0, 1], [0, 0, 1],
                                   [1, 1, 1], [0, 1, 1], [0, 0, 0], [0, 0, 1], [0, 1, 1]]
