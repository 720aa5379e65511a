import math

import numpy as np
import pytest

from conftest import sample_configuration
from stickperc.errors import CapacityExceeded, DomainError
from stickperc.measures import stick_hit_volume
from stickperc.geometry import segments_hit_ball
from stickperc.rng import derive_seed, substream
from stickperc.sampling import (
    BoxRegion,
    Rigid,
    Uniform,
    poisson_count,
    sample_window_configuration,
)


class TestSeedDerivation:
    def test_deterministic_and_path_sensitive(self):
        assert derive_seed(0, 1, 2) == derive_seed(0, 1, 2)
        assert derive_seed(0, 1, 2) != derive_seed(0, 2, 1)
        assert derive_seed(0, 1) != derive_seed(1, 1)

    def test_substreams_differ(self):
        a = substream(3, 0, 0).random(4)
        b = substream(3, 0, 1).random(4)
        assert not np.allclose(a, b)


class TestPoissonCount:
    def test_zero_mean(self):
        assert poisson_count(0.0, substream(0)) == 0

    def test_clt_mean(self):
        rng = substream(42, 1)
        draws = np.array([poisson_count(5.0, rng) for _ in range(1_000_000)])
        assert abs(draws.mean() - 5.0) <= 3.0 * math.sqrt(5.0 / len(draws))

    def test_index_of_dispersion(self):
        rng = substream(43, 1)
        draws = np.array([poisson_count(1000.0, rng) for _ in range(100_000)])
        ratio = draws.var() / draws.mean()
        assert 0.97 <= ratio <= 1.03

    def test_domain_and_capacity(self):
        with pytest.raises(DomainError):
            poisson_count(-1.0, substream(0))
        with pytest.raises(DomainError):
            poisson_count(float("nan"), substream(0))
        with pytest.raises(CapacityExceeded):
            poisson_count(2e9, substream(0))


class TestOrientationLaws:
    def test_rigid_always_axis(self):
        law = Rigid(np.array([0.0, 1.0]))
        rng = substream(1)
        for _ in range(10):
            p = law.sample_directions(rng, 2, 1)[0]
            assert np.array_equal(p, np.array([0.0, 1.0]))

    def test_rigid_axis_normalized(self):
        law = Rigid(np.array([0.0, 2.0, 0.0]))
        assert np.allclose(law.axis, [0.0, 1.0, 0.0])

    def test_uniform_isotropy_moments(self):
        rng = substream(5)
        n = 1_000_000
        p = Uniform().sample_directions(rng, 3, n)
        np.testing.assert_allclose(np.linalg.norm(p, axis=1), 1.0, atol=1e-9)
        # E[p_k] = 0 and E[p_1^2] = 1/3; var(p_1^2) = 3/15 - 1/9
        se_mean = math.sqrt(1.0 / 3.0 / n)
        assert np.all(np.abs(p.mean(axis=0)) <= 3.0 * se_mean)
        se_sq = math.sqrt((3.0 / 15.0 - 1.0 / 9.0) / n)
        assert abs((p[:, 0] ** 2).mean() - 1.0 / 3.0) <= 3.0 * se_sq

    def test_fixed_unit_projection(self):
        rng = substream(6)
        v = np.array([0.6, 0.0, 0.8])
        p = Uniform().sample_directions(rng, 3, 400_000)
        proj_sq = (p @ v) ** 2
        se = math.sqrt((3.0 / 15.0 - 1.0 / 9.0) / len(p))
        assert abs(proj_sq.mean() - 1.0 / 3.0) <= 3.0 * se


class TestConfiguration:
    def test_determinism(self):
        box = BoxRegion.cube(2, 50.0)
        c1 = sample_configuration(2, 8.0, 0.05, Uniform(), box, seed=11)
        c2 = sample_configuration(2, 8.0, 0.05, Uniform(), box, seed=11)
        assert c1.count > 0
        assert np.array_equal(c1.centers, c2.centers)
        assert np.array_equal(c1.dirs, c2.dirs)

    def test_seeds_differ(self):
        box = BoxRegion.cube(2, 50.0)
        c1 = sample_configuration(2, 8.0, 0.05, Uniform(), box, seed=11)
        c2 = sample_configuration(2, 8.0, 0.05, Uniform(), box, seed=12)
        assert not np.array_equal(c1.centers, c2.centers)

    def test_centers_in_box_and_unit_dirs(self):
        box = BoxRegion(np.array([-3.0, 2.0, 0.0]), np.array([4.0, 9.0, 1.5]))
        c = sample_configuration(3, 5.0, 0.02, Uniform(), box, seed=2)
        assert np.all((c.centers >= box.low) & (c.centers <= box.high))
        np.testing.assert_allclose(np.linalg.norm(c.dirs, axis=1), 1.0, atol=1e-9)

    def test_poisson_count_statistics(self):
        box = BoxRegion.cube(2, 100.0)
        counts = [
            sample_configuration(2, 8.0, 0.05, Uniform(), box, seed=s).count
            for s in range(1000)
        ]
        mean = np.mean(counts)
        assert abs(mean - 500.0) <= 3.0 * math.sqrt(500.0 / len(counts))

    def test_capacity_guard(self):
        box = BoxRegion.cube(2, 1e6)
        with pytest.raises(CapacityExceeded):
            sample_configuration(2, 8.0, 10.0, Uniform(), box, seed=0)

    def test_vanishing_mean_usually_empty(self):
        box = BoxRegion.cube(2, 0.1)
        empties = sum(
            1
            for s in range(50)
            if sample_configuration(2, 8.0, 1e-4, Uniform(), box, seed=s).count == 0
        )
        assert empties == 50

    def test_window_configuration_geometry(self):
        c = sample_window_configuration(2, 16.0, 0.01, Uniform(), 160.0, seed=3)
        window = c.observation_window
        assert np.allclose(window.low, 0.0) and np.allclose(window.high, 160.0)
        # the centers are drawn in the window grown by half a stick plus the radius
        pad = 16.0 / 2 + 1.0
        assert np.all((c.centers >= -pad) & (c.centers <= 160.0 + pad))
        padded = sample_configuration(2, 16.0, 0.01, Uniform(), window.grown(pad), seed=3)
        assert np.array_equal(c.centers, padded.centers) and np.array_equal(c.dirs, padded.dirs)

    def test_thinning_consistency(self):
        # keeping each stick with probability 1/2 matches sampling at half
        # intensity, in distribution; compare count mean and variance
        box = BoxRegion.cube(2, 60.0)
        rng = substream(99)
        thinned = []
        direct = []
        for s in range(800):
            c = sample_configuration(2, 8.0, 0.06, Uniform(), box, seed=s)
            keep = rng.random(c.count) < 0.5
            thinned.append(int(keep.sum()))
            direct.append(sample_configuration(2, 8.0, 0.03, Uniform(), box, seed=10_000 + s).count)
        thinned, direct = np.array(thinned), np.array(direct)
        target = 0.03 * box.volume
        se = math.sqrt(target / len(thinned))
        assert abs(thinned.mean() - target) <= 3.0 * se
        assert abs(direct.mean() - target) <= 3.0 * se
        # index of dispersion about 1 for both
        assert 0.85 <= thinned.var() / thinned.mean() <= 1.15
        assert 0.85 <= direct.var() / direct.mean() <= 1.15

    def test_hit_measure_against_closed_form(self):
        # count sticks whose segment reaches a ball of radius 2: the mean
        # count equals intensity times the capsule volume
        d, L, lam = 2, 10.0, 0.05
        box = BoxRegion(np.full(d, -(L / 2 + 3.0)), np.full(d, L / 2 + 3.0))
        counts = []
        for s in range(1000):
            c = sample_configuration(d, L, lam, Uniform(), box, seed=s)
            if c.count == 0:
                counts.append(0)
                continue
            hit = segments_hit_ball(c.centers, c.dirs, np.full(c.count, L / 2), np.zeros(d), 2.0)
            counts.append(int(hit.sum()))
        counts = np.array(counts)
        target = lam * stick_hit_volume(d, L, 2.0)
        se = counts.std(ddof=1) / math.sqrt(len(counts))
        assert abs(counts.mean() - target) <= 3.0 * se


class TestBoxRegion:
    def test_validation(self):
        with pytest.raises(DomainError):
            BoxRegion(np.array([0.0, 0.0]), np.array([1.0, 0.0]))

    def test_volume_and_grow(self):
        box = BoxRegion(np.array([0.0, 0.0]), np.array([2.0, 3.0]))
        assert box.volume == pytest.approx(6.0)
        grown = box.grown(1.0)
        assert grown.volume == pytest.approx(4.0 * 5.0)
