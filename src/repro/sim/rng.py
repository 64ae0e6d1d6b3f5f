"""Seeded random-number helpers shared by workloads and devices.

Every stochastic component takes an explicit ``random.Random`` so whole
experiments are reproducible from a single seed.  The Zipf sampler here
is the standard rejection-inversion-free approximation used by YCSB's
``ZipfianGenerator`` (Gray et al.), which LinkBench and YCSB both build
their skewed key distributions on.
"""

import functools
import random


def make_rng(seed):
    """A fresh deterministic generator for any hashable seed.

    Composite seeds (tuples of primitives) are keyed by their ``repr``,
    not ``hash()``: string hashing is randomized per process
    (PYTHONHASHSEED), and replayable failure artifacts require the same
    seed to produce the same stream in *every* process.
    """
    if isinstance(seed, (int, float, str, bytes, bytearray)) or seed is None:
        return random.Random(seed)
    return random.Random(repr(seed))


def derive(rng):
    """A child generator whose stream is independent of its siblings.

    Deterministic: drawing children in a fixed order from a seeded parent
    yields the same family every run.
    """
    return random.Random(rng.getrandbits(64))


class ZipfGenerator:
    """Zipf-distributed integers in [0, n) with exponent ``theta``.

    Uses the closed-form inverse-CDF approximation from Gray et al.,
    "Quickly Generating Billion-Record Synthetic Databases" (SIGMOD'94),
    the same algorithm YCSB ships.  theta=0.99 is YCSB's default; the
    LinkBench access skew is in the same regime.
    """

    def __init__(self, n, theta=0.99, rng=None):
        if n < 1:
            raise ValueError("n must be >= 1")
        if not 0 < theta < 1:
            raise ValueError("theta must be in (0, 1): %r" % theta)
        self.n = n
        self.theta = theta
        self._rng = rng or random.Random(0)
        self._alpha = 1.0 / (1.0 - theta)
        self._zetan = self._zeta(n, theta)
        self._zeta2 = self._zeta(2, theta)
        self._eta = (1 - (2.0 / n) ** (1 - theta)) / (1 - self._zeta2 / self._zetan)

    @staticmethod
    @functools.cache
    def _zeta(n, theta):
        # Exact up to a cutoff, then the integral approximation; keeps
        # construction O(1)-ish for the multi-million-key spaces we use.
        # Memoized per (n, theta): LinkBench builds two samplers per
        # client, all over the same key space.
        cutoff = min(n, 10000)
        total = sum(1.0 / (i ** theta) for i in range(1, cutoff + 1))
        if n > cutoff:
            # integral of x^-theta from cutoff to n
            total += ((n ** (1 - theta)) - (cutoff ** (1 - theta))) / (1 - theta)
        return total

    def next(self):
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(self.n * ((self._eta * u - self._eta + 1) ** self._alpha))

    def __iter__(self):
        while True:
            yield self.next()


class UniformGenerator:
    """Uniform integers in [0, n), same interface as ZipfGenerator."""

    def __init__(self, n, rng=None):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self._rng = rng or random.Random(0)

    def next(self):
        return self._rng.randrange(self.n)


class ScrambledZipfGenerator:
    """Zipf popularity spread across the key space by hashing.

    YCSB's ``ScrambledZipfianGenerator``: hot keys are not clustered at
    the low end of the space, which matters for page-locality modelling.
    """

    _GOLDEN = 0x9E3779B97F4A7C15

    def __init__(self, n, theta=0.99, rng=None):
        self.n = n
        self._zipf = ZipfGenerator(n, theta, rng)

    def next(self):
        rank = self._zipf.next()
        return ((rank * self._GOLDEN) & 0xFFFFFFFFFFFFFFFF) % self.n
