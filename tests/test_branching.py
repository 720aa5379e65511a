import math

import numpy as np
import pytest

from stickperc.branching import (
    _STREAM_OFFSPRING,
    _seed_stick,
    component_exploration,
    dominating_gw_run,
    offspring_box,
    offspring_mean_mc,
)
from stickperc.errors import CapacityExceeded, DomainError
from conftest import segment_segment_distance, traced_peak
from stickperc.measures import gw_offspring_bound, stick_hit_volume, theorem_bounds
from stickperc.sampling import Rigid, Uniform
from stickperc.rng import substream


def typical_stick(d, L, law):
    # (center, direction, length), the rows segment_distance_arrays takes
    return (*_seed_stick(d, L, law)[2:], L)


class TestSeedStick:
    def test_rigid_axis_else_first_unit_vector(self):
        axis = np.array([0.0, 0.0, 2.0])
        d, length, center, direction = _seed_stick(3, 7.0, Rigid(axis))
        assert center.tolist() == [0.0, 0.0, 0.0] and direction.tolist() == [0.0, 0.0, 1.0]
        d, length, center, direction = _seed_stick(4.0, 7, Uniform())
        assert center.tolist() == [0.0] * 4 and direction.tolist() == [1.0, 0.0, 0.0, 0.0]
        # the checked d, an int, and L, a float, for the callers to use
        assert type(d) is int and d == 4 and type(length) is float and length == 7.0

    @pytest.mark.parametrize(
        "d, length, law, message",
        [
            (1, 10.0, Uniform(), "dimension must be an integer >= 2"),
            (1, 10.0, Rigid(np.array([1.0])), "dimension must be an integer >= 2"),
            (2.5, 10.0, Uniform(), "dimension must be an integer >= 2"),
            (2, 0.0, Uniform(), r"stick length must be a number in \(0, inf\), got 0.0"),
            (2, -3.0, Uniform(), r"stick length must be a number in \(0, inf\), got -3.0"),
            (2, math.inf, Uniform(), r"stick length must be a number in \(0, inf\), got inf"),
            (2, math.nan, Rigid(np.array([0.0, 1.0])), r"stick length must be a number in \(0, inf\), got nan"),
            (3, 10.0, Rigid(np.array([0.0, 1.0])), "rigid axis dimension does not match d"),
        ],
        ids=[
            "d-1", "rigid-d-1", "d-2.5", "zero-length", "negative-length", "infinite-length", "nan-length",
            "axis-2-in-d-3",
        ],
    )
    def test_invalid_seed_refused_before_any_draw(self, monkeypatch, d, length, law, message):
        # a draw would need a stream; none is made
        def no_stream(*args):
            raise AssertionError("a random stream was made before the input check")

        monkeypatch.setattr("stickperc.branching.substream", no_stream)
        with pytest.raises(DomainError, match=message):
            offspring_mean_mc(d, length, 0.01, law, 100, seed=1)
        with pytest.raises(DomainError, match=message):
            component_exploration(d, length, 0.01, law, max_generations=3, population_cap=100, seed=1)


class TestOffspringBox:
    def test_contains_all_intersecting_centers(self):
        rng = substream(5)
        d, L = 3, 7.0
        seed_stick = typical_stick(d, L, Uniform())
        box = offspring_box(*seed_stick)
        for _ in range(3000):
            center = rng.uniform(-L - 8.0, L + 8.0, d)
            direction = rng.standard_normal(d)
            direction /= np.linalg.norm(direction)
            if segment_segment_distance(*seed_stick, center, direction, L) <= 2.0:
                assert np.all((center >= box.low) & (center <= box.high))


class TestOffspringMeanMC:
    def test_tiny_intensity(self):
        est = offspring_mean_mc(2, 10.0, 1e-6, Uniform(), 300, seed=1)
        assert est.mean < 0.05

    def test_rigid_minkowski_identity_d2(self):
        # aligned sticks: the measure of intersecting centers is the volume
        # of a doubled-length capsule of radius 2
        lam = 0.1
        est = offspring_mean_mc(2, 10.0, lam, Rigid(np.array([0.0, 1.0])), 3000, seed=2)
        target = lam * stick_hit_volume(2, 20.0, 2.0)
        assert target == pytest.approx(9.2566, abs=1e-3)
        assert abs(est.mean - target) <= 3.0 * est.stderr
        # certifies the closed-form bound as well
        assert est.mean < gw_offspring_bound(2, 10.0, lam, "rigid")

    def test_rigid_minkowski_identity_d3(self):
        lam = 0.004
        axis = np.array([0.0, 1.0, 0.0])
        est = offspring_mean_mc(3, 10.0, lam, Rigid(axis), 3000, seed=3)
        target = lam * stick_hit_volume(3, 20.0, 2.0)
        assert abs(est.mean - target) <= 3.0 * est.stderr

    def test_uniform_below_closed_form_bound(self):
        est = offspring_mean_mc(2, 50.0, 0.001, Uniform(), 1500, seed=4)
        bound = gw_offspring_bound(2, 50.0, 0.001, "uniform")
        assert est.mean <= bound + 3.0 * est.stderr

    def test_subcritical_at_theorem_lower_bound(self):
        L = 50.0
        lam = theorem_bounds(2, L, "uniform", strict=False).lower
        est = offspring_mean_mc(2, L, lam, Uniform(), 1200, seed=5)
        assert est.mean + 3.0 * est.stderr < 1.0

    def test_samples_match_per_trial_loop(self):
        # about 1.5 sticks per trial, so some trials are empty, also at the
        # end of the block; replay the same draws and count trial by trial
        L, trials = 10.0, 20
        seg = typical_stick(2, L, Uniform())
        box = offspring_box(*seg)
        lam = 1.5 / box.volume
        for seed in range(200):
            est = offspring_mean_mc(2, L, lam, Uniform(), trials, seed=seed)
            rng = substream(seed, _STREAM_OFFSPRING)
            counts = rng.poisson(lam * box.volume, size=trials)
            centers = rng.uniform(box.low, box.high, size=(int(counts.sum()), 2))
            dirs = Uniform().sample_directions(rng, 2, len(centers))
            oracle, k = [], 0
            for c in counts:
                hits = (segment_segment_distance(*seg, centers[i], dirs[i], L) <= 2.0 for i in range(k, k + c))
                oracle.append(sum(hits))
                k += c
            assert list(est.samples) == oracle, seed

    def test_needs_trials(self):
        with pytest.raises(DomainError):
            offspring_mean_mc(2, 10.0, 0.1, Uniform(), 0, seed=1)
        with pytest.raises(DomainError, match="^trials must be an integer >= 2$"):
            offspring_mean_mc(2, 10.0, 0.1, Uniform(), 1, seed=1)

    def test_trials_above_guard_refused(self):
        with pytest.raises(CapacityExceeded, match="500001 trials exceed guard of 5e"):
            offspring_mean_mc(2, 10.0, 1e-4, Uniform(), 500_001, seed=1)

    @pytest.mark.parametrize("trials, seed", [(1_500, 1), (15_000, 2)])
    def test_memory_does_not_grow_with_the_draws(self, trials, seed):
        # about 106 sticks a trial, streamed in blocks: verify's 1,500 trials
        # drew theirs at once and held 9.8 MiB
        call = lambda: offspring_mean_mc(2, 10.0, 0.1, Rigid(np.array([0.0, 1.0])), trials, seed)  # noqa: E731
        assert traced_peak(call) < 3e6


class TestDominatingGW:
    def test_offspring_zero_dies_immediately(self):
        report = dominating_gw_run([0, 0, 0], max_generations=10, population_cap=100, seed=1)
        assert report.generation_sizes == (0,)
        assert report.extinct and not report.truncated

    def test_subcritical_synthetic_dies(self):
        # offspring 0 or 1 with mean 1/2
        extinct = 0
        for k in range(1000):
            report = dominating_gw_run([0, 1], max_generations=500, population_cap=10_000, seed=k)
            extinct += 1 if report.extinct else 0
        assert extinct == 1000

    def test_supercritical_survival_matches_fixed_point(self):
        # offspring 0 w.p. 1/3 and 3 w.p. 2/3 (mean 2); extinction solves
        # q = 1/3 + (2/3) q^3, the relevant root is (sqrt(3) - 1)/2
        samples = [0, 3, 3]
        q = (math.sqrt(3.0) - 1.0) / 2.0
        survived = 0
        runs = 1000
        for k in range(runs):
            report = dominating_gw_run(samples, max_generations=200, population_cap=50_000, seed=k)
            survived += 1 if not report.extinct else 0
        se = math.sqrt(q * (1 - q) / runs)
        assert abs(survived / runs - (1.0 - q)) <= 3.0 * se

    def test_caps_validated(self):
        with pytest.raises(DomainError):
            dominating_gw_run([1], max_generations=0, population_cap=10, seed=0)
        with pytest.raises(DomainError):
            dominating_gw_run([], max_generations=5, population_cap=10, seed=0)

    @pytest.mark.parametrize(
        "samples", [[-1, 2], [math.nan], [math.inf], [0.5, 2]], ids=["negative", "nan", "inf", "fraction"]
    )
    def test_offspring_samples_refused_before_any_draw(self, monkeypatch, samples):
        # an integral float is its int; anything else that is not a
        # nonnegative integer is refused before a stream is made
        assert dominating_gw_run([0.0, 2.0], 8, 100, 3) == dominating_gw_run([0, 2], 8, 100, 3)

        def no_stream(*args):
            raise AssertionError("a random stream was made before the input check")

        monkeypatch.setattr("stickperc.branching.substream", no_stream)
        with pytest.raises(DomainError, match="^offspring samples must be nonnegative integers$"):
            dominating_gw_run(samples, max_generations=5, population_cap=10, seed=1)

    def test_population_cap_guard(self):
        # a generation of up to 1e8 individuals fits the memory budget; one
        # more is refused before any draw
        report = dominating_gw_run([0], max_generations=5, population_cap=10**8, seed=0)
        assert report.generation_sizes == (0,)
        with pytest.raises(CapacityExceeded, match="population cap 100000001 exceeds guard of 1e"):
            dominating_gw_run([0], max_generations=5, population_cap=10**8 + 1, seed=0)
        with pytest.raises(CapacityExceeded, match="population cap 100000001 exceeds guard of 1e"):
            component_exploration(
                2, 10.0, 1e-8, Uniform(),
                max_generations=5, population_cap=10**8 + 1, seed=1,
            )


class TestComponentExploration:
    def test_window_above_stick_guard_refused_before_any_draw(self, monkeypatch):
        # the window of radius 5 * (10 + 4) expects 1e7 sticks, twenty times
        # the guard; a stream that fails on first use shows none is drawn
        class NoDraws:
            def __getattr__(self, name):
                def draw(*args, **kwargs):
                    raise AssertionError(f"stream.{name} drawn before the guard")

                return draw

        monkeypatch.setattr("stickperc.branching.substream", lambda *args: NoDraws())
        lam = 1e7 / 140.0**2
        with pytest.raises(CapacityExceeded, match="expected count 1e\\+07 exceeds guard of 5e\\+05"):
            component_exploration(2, 10.0, lam, Uniform(), max_generations=5, population_cap=1000, seed=1)

    @pytest.mark.parametrize("lam", [-0.1, math.nan, math.inf])
    def test_intensity_refused_before_any_stream(self, monkeypatch, lam):
        def no_stream(*args):
            raise AssertionError("a random stream was made before the input check")

        monkeypatch.setattr("stickperc.branching.substream", no_stream)
        with pytest.raises(DomainError, match=rf"^intensity must be a number in \[0, inf\), got {lam}$"):
            component_exploration(2, 10.0, lam, Uniform(), max_generations=3, population_cap=100, seed=1)

    def test_tiny_intensity_seed_only(self):
        res = component_exploration(
            2, 10.0, 1e-8, Uniform(),
            max_generations=5, population_cap=1000, seed=1,
        )
        assert res.component_size == 1
        assert res.generation_sizes[0] == 0
        assert not res.window_exceeded and not res.truncated

    def test_subcritical_component_profile(self):
        # half the theorem lower bound: strongly subcritical exploration
        L = 20.0
        lam = 0.5 * theorem_bounds(2, L, "uniform", strict=False).lower
        sizes = []
        exceeded = 0
        for seed in range(300):
            res = component_exploration(
                2, L, lam, Uniform(),
                max_generations=10, population_cap=50_000, seed=seed,
            )
            sizes.append(res.component_size)
            exceeded += 1 if res.window_exceeded else 0
        assert exceeded == 0
        assert np.mean(sizes) < 3.0

    def test_domination_every_generation_every_run(self):
        # three times the subcriticality pivot: enough branching for the
        # compensation terms to fire while staying comfortably finite
        L = 16.0
        lam = 3.0 * theorem_bounds(2, L, "uniform", strict=False).lower
        for seed in range(120):
            res = component_exploration(
                2, L, lam, Uniform(),
                max_generations=12, population_cap=50_000, seed=seed,
            )
            assert len(res.dominating_sizes) == len(res.generation_sizes)
            for actual, dom in zip(res.generation_sizes, res.dominating_sizes):
                assert actual <= dom

    def test_rigid_law_exploration(self):
        L = 12.0
        lam = 0.3 * theorem_bounds(2, L, "rigid", strict=False).lower
        law = Rigid(np.array([0.0, 1.0]))
        res = component_exploration(
            2, L, lam, law,
            max_generations=8, population_cap=10_000, seed=3,
        )
        assert res.component_size >= 1
        assert len(res.dominating_sizes) == len(res.generation_sizes)


class TestPinnedOutputs:
    """Outputs recorded while the seed stick was still wrapped in its own
    type and undominated exploration was an option; a change of draw order
    in the offspring or exploration couplings shows here."""

    @pytest.mark.parametrize(
        "seed, generations, dominating, size",
        [
            (4, (1, 1, 0, 0), (1, 1, 1, 0), 3),
            (15, (1, 1, 1, 1, 0), (1, 1, 1, 1, 0), 5),
            (30, (2, 0, 0, 0, 0), (2, 2, 1, 1, 0), 3),
            (37, (1, 1, 0, 0, 0, 0), (1, 1, 2, 2, 2, 0), 3),
            (45, (2, 1, 0, 0), (2, 3, 1, 0), 4),
        ],
    )
    def test_uniform_exploration(self, seed, generations, dominating, size):
        L = 16.0
        lam = 3.0 * theorem_bounds(2, L, "uniform", strict=False).lower
        res = component_exploration(
            2, L, lam, Uniform(),
            max_generations=8, population_cap=50_000, seed=seed,
        )
        assert res.generation_sizes == generations
        assert res.dominating_sizes == dominating
        assert res.component_size == size
        assert not res.window_exceeded and not res.truncated

    @pytest.mark.parametrize(
        "seed, generations, dominating, size, truncated",
        [
            (1, (1, 1, 0, 0, 0, 0, 0, 0), (1, 2, 1, 3, 2, 3, 7, 11), 3, True),
            (3, (1, 1, 0), (1, 1, 0), 3, False),
            (8, (1, 0), (1, 0), 2, False),
        ],
    )
    def test_rigid_exploration(self, seed, generations, dominating, size, truncated):
        L = 12.0
        lam = 2.0 * theorem_bounds(2, L, "rigid", strict=False).lower
        res = component_exploration(
            2, L, lam, Rigid(np.array([0.0, 1.0])),
            max_generations=8, population_cap=50_000, seed=seed,
        )
        assert res.generation_sizes == generations
        assert res.dominating_sizes == dominating
        assert res.component_size == size
        assert res.truncated == truncated and not res.window_exceeded

    def test_offspring_samples_rigid_d3(self):
        est = offspring_mean_mc(3, 10.0, 0.004, Rigid(np.array([0.0, 1.0, 0.0])), 24, seed=11)
        assert est.samples == (
            0, 1, 1, 1, 0, 1, 1, 0, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1, 4, 1, 3, 1, 1, 2,
        )
        assert est.mean == 1.1666666666666667
        assert est.stderr == 0.1772031776903983

    def test_offspring_samples_uniform_d3(self):
        est = offspring_mean_mc(3, 10.0, 0.0015, Uniform(), 24, seed=12)
        assert est.samples == (
            0, 2, 0, 2, 5, 2, 1, 0, 2, 0, 0, 3, 2, 0, 0, 1, 1, 1, 0, 1, 0, 1, 1, 0,
        )
        assert est.mean == 1.0416666666666667
        assert est.stderr == 0.2516551489830117

    def test_offspring_samples(self):
        est = offspring_mean_mc(2, 10.0, 0.05, Uniform(), 24, seed=7)
        assert est.samples == (
            8, 9, 6, 9, 5, 10, 7, 6, 7, 8, 4, 8, 8, 8, 3, 7, 9, 6, 5, 8, 3, 8, 14, 5,
        )
        assert est.mean == 7.125
        assert est.stderr == 0.49016597307383586
