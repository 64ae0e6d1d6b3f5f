"""Unit tests for the seeded random helpers and Zipf generators."""

import pytest

from repro.sim import ScrambledZipfGenerator, UniformGenerator, ZipfGenerator, make_rng
from repro.sim.rng import derive


class TestMakeRng:
    def test_deterministic_for_same_seed(self):
        a = make_rng(123)
        b = make_rng(123)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_tuple_seeds_accepted(self):
        a = make_rng((7, 3))
        b = make_rng((7, 3))
        assert a.random() == b.random()

    def test_different_seeds_diverge(self):
        assert make_rng(1).random() != make_rng(2).random()

    def test_derive_children_are_deterministic(self):
        family1 = [derive(make_rng(9)).random() for _ in range(1)]
        family2 = [derive(make_rng(9)).random() for _ in range(1)]
        assert family1 == family2


class TestZipfGenerator:
    def test_range_respected(self):
        zipf = ZipfGenerator(100, theta=0.99, rng=make_rng(1))
        for _ in range(2000):
            assert 0 <= zipf.next() < 100

    def test_skew_prefers_low_ranks(self):
        """With theta=0.99 the single hottest item dominates uniform share."""
        n = 1000
        zipf = ZipfGenerator(n, theta=0.99, rng=make_rng(2))
        samples = [zipf.next() for _ in range(20000)]
        hottest_share = samples.count(0) / len(samples)
        assert hottest_share > 10 / n  # far above the uniform 1/n

    def test_lower_theta_is_less_skewed(self):
        n = 1000
        hot_counts = {}
        for theta in (0.5, 0.99):
            zipf = ZipfGenerator(n, theta=theta, rng=make_rng(3))
            samples = [zipf.next() for _ in range(20000)]
            hot_counts[theta] = samples.count(0)
        assert hot_counts[0.5] < hot_counts[0.99]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ZipfGenerator(0)
        with pytest.raises(ValueError):
            ZipfGenerator(10, theta=1.5)

    def test_large_n_constructs_quickly(self):
        zipf = ZipfGenerator(50_000_000, rng=make_rng(4))
        assert 0 <= zipf.next() < 50_000_000

    def test_equal_generators_draw_identical_streams(self):
        a = ZipfGenerator(870, theta=0.99, rng=make_rng(8))
        b = ZipfGenerator(870, theta=0.99, rng=make_rng(8))
        assert [a.next() for _ in range(2000)] \
            == [b.next() for _ in range(2000)]

    def test_cached_zeta_equals_the_direct_sum(self):
        # The memoized constant must be bit-identical to summing the
        # series afresh, or every seeded LinkBench stream would move.
        for n, theta in ((870, 0.99), (870, 0.99), (5000, 0.5)):
            direct = sum(1.0 / (i ** theta) for i in range(1, n + 1))
            assert ZipfGenerator._zeta(n, theta) == direct
            generator = ZipfGenerator(n, theta=theta)
            assert generator._zetan == direct
            assert generator._zeta2 == 1.0 + 1.0 / (2 ** theta)
        large = 50_000_000
        assert ZipfGenerator._zeta(large, 0.99) \
            == ZipfGenerator._zeta.__wrapped__(large, 0.99)


class TestScrambledZipf:
    def test_hot_keys_are_spread(self):
        """Scrambling must not leave the hottest keys clustered low."""
        n = 10_000
        gen = ScrambledZipfGenerator(n, rng=make_rng(5))
        samples = [gen.next() for _ in range(5000)]
        low_half = sum(1 for s in samples if s < n // 2)
        assert 0.3 < low_half / len(samples) < 0.7

    def test_determinism(self):
        a = ScrambledZipfGenerator(1000, rng=make_rng(6))
        b = ScrambledZipfGenerator(1000, rng=make_rng(6))
        assert [a.next() for _ in range(10)] == [b.next() for _ in range(10)]


class TestUniformGenerator:
    def test_range_and_coverage(self):
        gen = UniformGenerator(10, rng=make_rng(7))
        seen = {gen.next() for _ in range(500)}
        assert seen == set(range(10))

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            UniformGenerator(0)
