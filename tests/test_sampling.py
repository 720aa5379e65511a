import math

import numpy as np
import pytest

from conftest import reference_sticks, sample_configuration
from stickperc.errors import CapacityExceeded, DomainError
from stickperc.measures import stick_hit_volume
from stickperc.geometry import segments_hit_ball
from stickperc import sampling
from stickperc.percolation import crossing_event
from stickperc.rng import derive_seed, substream
from stickperc.sampling import (
    BoxRegion,
    Rigid,
    Uniform,
    place_sticks,
    poisson_sticks,
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
    # on the unit square the intensity is the Poisson mean
    UNIT = BoxRegion.cube(2, 1.0)

    def counts(self, mean, n, rng, batch=10_000):
        # n counts of one generator, drawn in batches to keep the sticks small
        out = []
        while len(out) < n:
            k = min(batch, n - len(out))
            out += poisson_sticks(2, mean, Uniform(), self.UNIT, [rng] * k)[2]
        return np.array(out)

    def test_zero_mean(self):
        assert poisson_sticks(2, 0.0, Uniform(), self.UNIT, [substream(0), substream(1)])[2] == [0, 0]

    def test_clt_mean(self):
        draws = self.counts(5.0, 1_000_000, substream(42, 1), batch=100_000)
        assert abs(draws.mean() - 5.0) <= 3.0 * math.sqrt(5.0 / len(draws))

    def test_index_of_dispersion(self):
        draws = self.counts(100.0, 100_000, substream(43, 1))
        ratio = draws.var() / draws.mean()
        assert 0.97 <= ratio <= 1.03

    def test_domain_and_capacity(self):
        with pytest.raises(DomainError, match=r"^poisson mean must be a number in \[0, inf\), got -1.0$"):
            poisson_sticks(2, -1.0, Uniform(), self.UNIT, [substream(0)])
        with pytest.raises(DomainError, match=r"^poisson mean must be a number in \[0, inf\), got nan$"):
            poisson_sticks(2, math.nan, Uniform(), self.UNIT, [substream(0)])
        with pytest.raises(CapacityExceeded):
            poisson_sticks(2, 2e9, Uniform(), self.UNIT, [substream(0)])


class TestRealRule:
    def test_numpy_scalars_are_numbers(self):
        assert sampling.check_real(np.float32(0.5), "alpha", "[0, 1]") == 0.5
        assert type(sampling.check_real(np.int64(3), "radius", "(0, inf)")) is float

    def test_int_beyond_the_float_range_is_refused(self):
        with pytest.raises(DomainError, match=r"^stick length must be a number in \(0, inf\), got 10{400}$"):
            sampling.check_length(10**400)


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
        n = len(counts)
        mean = np.mean(counts)
        assert abs(mean - 500.0) <= 3.0 * math.sqrt(500.0 / n)
        # the index of dispersion of n Poisson counts is 1 with standard
        # deviation sqrt(2 / (n - 1)) (its (n - 1)-fold is chi-squared)
        ratio = np.var(counts, ddof=1) / mean
        assert abs(ratio - 1.0) <= 3.0 * math.sqrt(2.0 / (n - 1))

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

    @pytest.mark.parametrize(
        "d, length, intensity, error, message",
        [
            (2, 8.0, -0.04, DomainError, r"intensity must be a number in \[0, inf\), got -0.04"),
            (2, 8.0, math.nan, DomainError, r"intensity must be a number in \[0, inf\), got nan"),
            (2, 8.0, math.inf, DomainError, r"intensity must be a number in \[0, inf\), got inf"),
            (2, 8.0, "0.04", DomainError, r"intensity must be a number in \[0, inf\), got '0.04'"),
            # 100 sticks per unit area of the 74-wide sampling box expect
            # 5.48e5 sticks, above the guard
            (2, 8.0, 100.0, CapacityExceeded, "expected count 5.48e\\+05 exceeds guard"),
            (1, 8.0, 0.04, DomainError, "dimension must be an integer >= 2"),
            (2.5, 8.0, 0.04, DomainError, "dimension must be an integer >= 2"),
            (2, 0.0, 0.04, DomainError, r"stick length must be a number in \(0, inf\), got 0.0"),
            (2, -1.0, 0.04, DomainError, r"stick length must be a number in \(0, inf\), got -1.0"),
            (2, math.nan, 0.04, DomainError, r"stick length must be a number in \(0, inf\), got nan"),
            (2, math.inf, 0.04, DomainError, r"stick length must be a number in \(0, inf\), got inf"),
        ],
        ids=[
            "-0.04-DomainError", "nan-DomainError", "inf-DomainError", "text-DomainError", "100.0-CapacityExceeded",
            "d-1", "d-2.5", "zero-length", "negative-length", "nan-length", "infinite-length",
        ],
    )
    def test_inputs_refused_before_sampling(self, monkeypatch, d, length, intensity, error, message):
        def sample(*args):
            raise AssertionError("sampled a configuration")

        monkeypatch.setattr(sampling, "poisson_sticks", sample)
        with pytest.raises(error, match=message):
            sample_window_configuration(d, length, intensity, Uniform(), 64.0, seed=5)

    @pytest.mark.parametrize(
        "law, seed, message",
        [
            (Rigid(np.array([0.0, 0.0, 1.0])), 5, "rigid axis dimension does not match d"),
            (Uniform(), -1, "seed must be an integer >= 0"),
            (Uniform(), 2.5, "seed must be an integer >= 0"),
        ],
        ids=["rigid-axis-in-d-3", "negative-seed", "fractional-seed"],
    )
    def test_law_and_seed_refused_before_sampling(self, monkeypatch, law, seed, message):
        def sample(*args):
            raise AssertionError("sampled a configuration")

        monkeypatch.setattr(sampling, "poisson_sticks", sample)
        with pytest.raises(DomainError, match=f"^{message}$"):
            sample_window_configuration(2, 8.0, 0.04, law, 64.0, seed)

    def test_zero_intensity_is_the_empty_configuration(self):
        config = sample_window_configuration(2, 8.0, 0.0, Uniform(), 64.0, seed=5)
        assert config.count == 0 and config.centers.shape == config.dirs.shape == (0, 2)
        assert crossing_event(config) is False

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


class ZeroedStream:
    """A stream that zeroes the given rows of its standard normal draws,
    ``zeroed[k]`` in its k-th draw, and records each draw's shape."""

    def __init__(self, seed, zeroed):
        self._rng = substream(seed, 7)
        self.zeroed = zeroed
        self.normal_shapes = []

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def standard_normal(self, size=None, out=None):
        z = self._rng.standard_normal(size, out=out)
        z[self.zeroed.get(len(self.normal_shapes), [])] = 0.0
        self.normal_shapes.append(z.shape)
        return z


class TestPoissonSticks:
    @staticmethod
    def per_stream(centers, dirs, counts):
        ends = np.cumsum(counts)[:-1]
        return list(zip(np.split(centers, ends), np.split(dirs, ends)))

    @pytest.mark.parametrize("mean", [1.5, 200.0])
    @pytest.mark.parametrize("law_tag", ["uniform", "rigid"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_each_stream_draws_what_it_draws_alone(self, d, law_tag, mean):
        # a batch's part from each stream is, bit for bit, that stream's
        # count, uniform(low, high) centres and normalised directions, and
        # leaves the stream where drawing alone does
        law = Uniform() if law_tag == "uniform" else Rigid(np.arange(1.0, d + 1.0))
        box = BoxRegion(np.linspace(-3.0, 2.0, d), np.linspace(4.5, 30.0, d))
        intensity = mean / box.volume
        streams = [substream(s, 7) for s in range(12)]
        centers, dirs, counts = poisson_sticks(d, intensity, law, box, streams)
        assert centers.T.flags.c_contiguous and dirs.T.flags.c_contiguous
        references = [substream(s, 7) for s in range(12)]
        expected = [reference_sticks(d, intensity, law, box, rng) for rng in references]
        assert counts == [len(c) for c, _ in expected]
        if mean < 2.0:
            assert 0 in counts and max(counts) > 1
        for (c, u), (ref_c, ref_u) in zip(self.per_stream(centers, dirs, counts), expected):
            assert np.array_equal(c, ref_c) and np.array_equal(u, ref_u)
        assert [rng.random() for rng in streams] == [rng.random() for rng in references]

    @pytest.mark.parametrize("n", [0, 1, 500])
    @pytest.mark.parametrize("law_tag", ["uniform", "rigid"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_placement_is_uniform_centres_then_directions(self, d, law_tag, n):
        # one stream's placement is, bit for bit, uniform(low, high) centres
        # and then the law's directions, the pair the offspring and two-ball
        # Monte Carlo drew by hand, and leaves the stream where that pair does
        law = Uniform() if law_tag == "uniform" else Rigid(np.arange(1.0, d + 1.0))
        box = BoxRegion(np.linspace(-3.0, 2.0, d), np.linspace(4.5, 30.0, d))
        rng, reference = substream(11, d), substream(11, d)
        centers, dirs = place_sticks(d, law, box, [rng], [n])
        assert centers.shape == dirs.shape == (n, d)
        assert np.array_equal(centers, reference.uniform(box.low, box.high, size=(n, d)))
        assert np.array_equal(dirs, law.sample_directions(reference, d, n))
        assert rng.random() == reference.random()

    def test_zero_norm_direction_redrawn_from_its_own_stream(self):
        # stream 1's redraw of two rows zeroes one again, so it draws a
        # third time; stream 0 draws once more and stream 2 never
        zeroed = [{0: [1]}, {0: [0, 2], 1: [0]}, {}]
        box = BoxRegion.cube(2, 10.0)
        streams = [ZeroedStream(s, z) for s, z in enumerate(zeroed)]
        centers, dirs, counts = poisson_sticks(2, 0.2, Uniform(), box, streams)
        references = [ZeroedStream(s, z) for s, z in enumerate(zeroed)]
        expected = [reference_sticks(2, 0.2, Uniform(), box, rng) for rng in references]
        for (c, u), (ref_c, ref_u) in zip(self.per_stream(centers, dirs, counts), expected):
            assert np.array_equal(c, ref_c) and np.array_equal(u, ref_u)
        assert [s.normal_shapes for s in streams] == [
            [(counts[0], 2), (1, 2)], [(counts[1], 2), (2, 2), (1, 2)], [(counts[2], 2)]
        ]
        assert [s.normal_shapes for s in streams] == [s.normal_shapes for s in references]
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0)

    def test_rigid_axis_of_another_dimension_rejected(self):
        with pytest.raises(DomainError):
            poisson_sticks(3, 0.1, Rigid(np.array([0.0, 1.0])), BoxRegion.cube(3, 4.0), [substream(0)])


BLOCK = sampling._STREAM_BLOCK


class TestStreamSticks:
    BOX = {d: BoxRegion(np.linspace(-3.0, 2.0, d), np.linspace(4.5, 30.0, d)) for d in (2, 3, 4)}

    @pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    @pytest.mark.parametrize("law_tag", ["uniform", "rigid"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_blocks_are_place_sticks(self, d, law_tag, n):
        # each block is place_sticks' draw of its rows, in order from the one
        # stream, which then stands where its twin does, a buffered 32-bit
        # half word included
        law = Uniform() if law_tag == "uniform" else Rigid(np.arange(1.0, d + 1.0))
        rng, twin = substream(13, d), substream(13, d)
        for stream in (rng, twin):
            stream.integers(10, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1
        starts = []
        for start, centers, dirs in sampling.stream_sticks(d, law, self.BOX[d], rng, n):
            assert centers.T.flags.c_contiguous and dirs.T.flags.c_contiguous
            twin_centers, twin_dirs = place_sticks(d, law, self.BOX[d], [twin], [min(BLOCK, n - start)])
            assert np.array_equal(centers, twin_centers) and np.array_equal(dirs, twin_dirs)
            starts.append(start)
        assert starts == list(range(0, n, BLOCK))
        assert rng.bit_generator.state == twin.bit_generator.state


class TestBoxRegion:
    def test_validation(self):
        with pytest.raises(DomainError):
            BoxRegion(np.array([0.0, 0.0]), np.array([1.0, 0.0]))

    def test_volume_and_grow(self):
        box = BoxRegion(np.array([0.0, 0.0]), np.array([2.0, 3.0]))
        assert box.volume == pytest.approx(6.0)
        grown = box.grown(1.0)
        assert grown.volume == pytest.approx(4.0 * 5.0)
