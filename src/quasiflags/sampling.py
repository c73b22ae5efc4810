"""Deterministic parameter sampling.

The verification commands must be replayable from the seed alone, on any
platform, so randomness comes from an explicit splitmix64 stream (the 64-bit
mixer from Steele-Lea-Flood's SplittableRandom): state advances by the golden
gamma 0x9e3779b97f4a7c15 and each output is finalized with two xor-shift
multiplies.  The verify-* reports echo each trial's point and resample count.
"""

from fractions import Fraction

MASK64 = (1 << 64) - 1
ZERO_SUM_BOUND = 50     # torus draws lie in [-50, 50] before recentring while n <= 14
NONZERO_BOUND = 30      # numerators of sample_distinct_nonzero lie in [-30, 30]


class SplitMix64:
    """splitmix64 stream; seed is any 64-bit integer."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (MASK64 + 1) - ((MASK64 + 1) % bound)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % bound

    def integer(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        return lo + self.below(hi - lo + 1)


def sample_zero_sum_integers(rng: SplitMix64, n: int) -> tuple[Fraction, ...]:
    """n distinct integers drawn from [-B, B], B = max(ZERO_SUM_BOUND, n^2 // 4),
    then recentred to an exact zero sum by a_i -> n a_i - sum(a); the rescale
    keeps them distinct integers.  Past n = 14, B grows as n^2 // 4, so a draw
    is distinct with probability about 1/e; a fixed B = 50 could never give
    more than 101 distinct integers."""
    bound = max(ZERO_SUM_BOUND, n * n // 4)
    while True:
        draw = [rng.integer(-bound, bound) for _ in range(n)]
        if len(set(draw)) == n:
            break
    total = sum(draw)
    return tuple(Fraction(n * a - total) for a in draw)


def sample_coupling(rng: SplitMix64, forbid=()) -> Fraction:
    """Rational coupling p/q with p in [-20, 20], q in [1, 5], avoiding the
    values listed in `forbid`."""
    forbidden = {Fraction(v) for v in forbid}
    while True:
        m = Fraction(rng.integer(-20, 20), rng.integer(1, 5))
        if m not in forbidden:
            return m


def sample_distinct_nonzero(rng: SplitMix64, n: int) -> tuple[Fraction, ...]:
    """n distinct nonzero rationals p/q with |p| <= NONZERO_BOUND, q in [1, 4]."""
    values: list[Fraction] = []
    while len(values) < n:
        v = Fraction(rng.integer(-NONZERO_BOUND, NONZERO_BOUND), rng.integer(1, 4))
        if v != 0 and v not in values:
            values.append(v)
    return tuple(values)
